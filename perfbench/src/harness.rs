//! The measuring protocol every workload shares.
//!
//! Untraced run: set up once, run the body until `--seconds` have passed
//! (at least once; median of the iterations → `run_s`), and take the
//! search-phase rates from the body or, where the body does not time
//! them, from repeated probe runs after it. The quiet rate is the median
//! over the runs of the phase; the whole-cell and serve rates are their
//! work over the sum of each cell's or replay's median time. `peak_rss_mb` is read then;
//! two more set-ups follow only to time `setup_s` (median of three).
//! Outputs are checked after each iteration, outside the timing.
//!
//! Traced run: set up once and run the body once under spans, after one
//! untraced body whose `run_s` gives the tracing overhead; then the
//! probe and the single-thread baselines, each under its own span.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::check::Checks;
use crate::search::{PhaseRates, Rate};
use crate::spans::Tracer;

/// Set-ups per untraced run.
const SETUP_REPS: usize = 3;

/// Probe runs of an untraced run whose body does not time the search
/// phases: at least this many, and until this much wall time has passed.
const PROBE_RUNS: usize = 3;
const PROBE_SECS: f64 = 2.0;

/// One benchmark workload, in the shape the protocol drives.
pub trait Bench {
    type Input;
    type Output;

    /// Builds the input from the workload's seed (`setup_s`).
    fn setup(&self, tr: &mut Tracer) -> Self::Input;

    /// The timed body (`run_s`).
    fn body(&self, input: &Self::Input, tr: &mut Tracer) -> Self::Output;

    /// Checks one body's output; returns the phase rates the body
    /// measured, if it runs the search phases itself.
    fn check(
        &self,
        input: &Self::Input,
        out: &Self::Output,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Option<PhaseRates>;

    /// Runs and checks the search phases once on this workload's data;
    /// called only when [`Bench::check`] returns no rates.
    fn probe(
        &self,
        _input: &Self::Input,
        _out: &Self::Output,
        _tr: &mut Tracer,
        _checks: &mut Checks,
    ) -> PhaseRates {
        unreachable!("the body times the search phases itself")
    }

    /// Single-thread baselines of the parallel layers (traced runs); each
    /// must reproduce the threaded result.
    fn baselines(
        &self,
        _input: &Self::Input,
        _out: &Self::Output,
        _tr: &mut Tracer,
        _checks: &mut Checks,
    ) {
    }
}

/// A measured run: metrics by name plus the checks it made.
pub struct Measured {
    pub metrics: BTreeMap<String, f64>,
    pub checks: Checks,
}

pub fn measure<B: Bench>(bench: &B, seconds: u64, traced: bool) -> Measured {
    if traced {
        measure_traced(bench)
    } else {
        measure_untraced(bench, seconds)
    }
}

fn measure_untraced<B: Bench>(bench: &B, seconds: u64) -> Measured {
    let mut off = Tracer::new(false);
    let mut checks = Checks::default();
    let start = Instant::now();
    let input = bench.setup(&mut off);
    let mut setup_secs = vec![start.elapsed().as_secs_f64()];

    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut run_secs = Vec::new();
    let mut rates = Vec::new();
    let last = loop {
        let start = Instant::now();
        let out = bench.body(&input, &mut off);
        run_secs.push(start.elapsed().as_secs_f64());
        let measured = bench.check(&input, &out, &mut off, &mut checks);
        eprintln!(
            "[perfbench] body {}: {:.3} s, peak RSS {} kB, phases {}",
            run_secs.len(),
            run_secs[run_secs.len() - 1],
            edonkey_bench::alloc::peak_rss_kb().unwrap_or(0),
            measured
                .as_ref()
                .map_or("not timed".to_string(), PhaseRates::summary)
        );
        rates.extend(measured);
        if started.elapsed() >= budget {
            break out;
        }
    };
    if rates.is_empty() {
        let started = Instant::now();
        while rates.len() < PROBE_RUNS || started.elapsed().as_secs_f64() < PROBE_SECS {
            rates.push(bench.probe(&input, &last, &mut off, &mut checks));
        }
    }

    // The workload's own peak: one set-up and its bodies. The repeated
    // set-ups below only time `setup_s`.
    let peak_kb = edonkey_bench::alloc::peak_rss_kb().unwrap_or(0);
    drop(last);
    drop(input);
    for _ in 1..SETUP_REPS {
        let start = Instant::now();
        let input = bench.setup(&mut off);
        setup_secs.push(start.elapsed().as_secs_f64());
        drop(input);
    }
    eprintln!("[perfbench] set-ups: {setup_secs:.3?} s");

    let metrics = BTreeMap::from([
        ("setup_s".to_string(), median(setup_secs)),
        ("run_s".to_string(), median(run_secs)),
        ("peak_rss_mb".to_string(), peak_kb as f64 / 1024.0),
        (
            "quiet_req_per_s".to_string(),
            median(rates.iter().map(|r| r.quiet.per_sec()).collect()),
        ),
        (
            "whole_cell_req_per_s".to_string(),
            median_rate(rates.iter().map(|r| r.whole.as_slice())),
        ),
        (
            "serve_q_per_s".to_string(),
            median_rate(rates.iter().map(|r| r.serve.as_slice())),
        ),
    ]);
    Measured { metrics, checks }
}

fn measure_traced<B: Bench>(bench: &B) -> Measured {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut checks = Checks::default();
    let input = tr.span("setup", |tr| bench.setup(tr));

    let start = Instant::now();
    let out = bench.body(&input, &mut off);
    let untraced = start.elapsed().as_secs_f64();
    bench.check(&input, &out, &mut off, &mut checks);
    drop(out);

    let start = Instant::now();
    let out = tr.span("run", |tr| bench.body(&input, tr));
    let traced = start.elapsed().as_secs_f64();
    // Only the traced pass feeds counters, so each counter covers
    // exactly one body.
    if bench.check(&input, &out, &mut tr, &mut checks).is_none() {
        bench.probe(&input, &out, &mut tr, &mut checks);
    }
    bench.baselines(&input, &out, &mut tr, &mut checks);
    checks.expect("spans reconcile", tr.reconcile());

    let mut metrics = tr.metrics();
    metrics.insert("tracing.run_s_untraced".into(), untraced);
    metrics.insert("tracing.run_s_traced".into(), traced);
    metrics.insert("tracing.overhead_s".into(), traced - untraced);
    Measured { metrics, checks }
}

/// Work per second over items measured once per run of a phase: the
/// work of one run over the sum of each item's median time.
fn median_rate<'a>(runs: impl Iterator<Item = &'a [Rate]>) -> f64 {
    let mut work = 0;
    let mut secs: Vec<Vec<f64>> = Vec::new();
    for run in runs {
        if secs.is_empty() {
            work = run.iter().map(|r| r.work).sum();
            secs = vec![Vec::new(); run.len()];
        }
        assert_eq!(run.len(), secs.len(), "every run measures the same items");
        for (item, rate) in secs.iter_mut().zip(run) {
            item.push(rate.secs);
        }
    }
    work as f64 / secs.into_iter().map(median).sum::<f64>()
}

/// The median (mean of the middle two for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_rate_sums_each_items_median_time() {
        let rate = |work, secs| Rate { work, secs };
        let runs = [
            vec![rate(10, 1.0), rate(30, 9.0)],
            vec![rate(10, 5.0), rate(30, 2.0)],
            vec![rate(10, 2.0), rate(30, 3.0)],
        ];
        // Medians 2.0 and 3.0: 40 units of work in 5 seconds.
        assert_eq!(median_rate(runs.iter().map(Vec::as_slice)), 8.0);
    }
}
