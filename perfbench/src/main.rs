//! The repository benchmark: three workloads over the layers of the
//! eDonkey reproduction, each run in its own process.
//!
//! ```console
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload search_repro --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Outputs are checked
//! against `perfbench/reference.tsv`; `--record` rewrites the entry of
//! the run's input seed, and `--self-test` proves the checks and the span
//! reconciliation on the `test` preset.

mod check;
mod harness;
mod out_of_core;
mod reproduce;
mod search;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use edonkey_bench::Scale;
use edonkey_workload::WorkloadConfig;

use check::{Checks, Reference};
use harness::{measure, Measured};

const REFERENCE_PATH: &str = "perfbench/reference.tsv";

/// `--seed` selects one of this many recorded inputs (`seed mod N`), so
/// every run can be checked against a reference digest.
const REFERENCE_SEEDS: u64 = 10;

const WORKLOADS: [&str; 3] = ["reproduce_small", "search_repro", "out_of_core"];

const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("quiet_req_per_s", "1/s"),
    ("whole_cell_req_per_s", "1/s"),
    ("serve_q_per_s", "1/s"),
];

/// Every per-layer metric a traced run reports; a layer the workload
/// does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("setup", "s"),
    ("setup.unattributed_s", "s"),
    ("run", "s"),
    ("run.unattributed_s", "s"),
    ("tracing.run_s_untraced", "s"),
    ("tracing.run_s_traced", "s"),
    ("tracing.overhead_s", "s"),
    ("workload.generate_s", "s"),
    ("workload.generate.peak_rss_mb", "MB"),
    ("trace.io.save_s", "s"),
    ("trace.derive_s", "s"),
    ("trace.derive.peak_rss_mb", "MB"),
    ("workload.stream_s", "s"),
    ("workload.stream.peak_rss_mb", "MB"),
    ("workload.stream_entries", "count"),
    ("workload.stream_bytes", "B"),
    ("figures_measure.s", "s"),
    ("figures_measure.allocs", "count"),
    ("figures_measure.peak_rss_mb", "MB"),
    ("figures_cluster.s", "s"),
    ("figures_cluster.allocs", "count"),
    ("figures_cluster.peak_rss_mb", "MB"),
    ("figures_search.s", "s"),
    ("figures_search.allocs", "count"),
    ("figures_search.peak_rss_mb", "MB"),
    ("ablations.s", "s"),
    ("ablations.allocs", "count"),
    ("ablations.unattributed_s", "s"),
    ("ablations.interest.s", "s"),
    ("ablations.interest.allocs", "count"),
    ("ablations.interest.peak_rss_mb", "MB"),
    ("ablations.randomize.s", "s"),
    ("ablations.randomize.allocs", "count"),
    ("ablations.randomize.peak_rss_mb", "MB"),
    ("ablations.policies.s", "s"),
    ("ablations.policies.allocs", "count"),
    ("ablations.policies.peak_rss_mb", "MB"),
    ("ablations.crawler.s", "s"),
    ("ablations.crawler.allocs", "count"),
    ("ablations.crawler.peak_rss_mb", "MB"),
    ("ablations.fault_sweep.s", "s"),
    ("ablations.fault_sweep.allocs", "count"),
    ("ablations.fault_sweep.peak_rss_mb", "MB"),
    ("ablations.churn_sweep.s", "s"),
    ("ablations.churn_sweep.allocs", "count"),
    ("ablations.churn_sweep.peak_rss_mb", "MB"),
    ("ablations.index_backends.s", "s"),
    ("ablations.index_backends.allocs", "count"),
    ("ablations.index_backends.peak_rss_mb", "MB"),
    ("ablations.service_mode.s", "s"),
    ("ablations.service_mode.allocs", "count"),
    ("ablations.service_mode.peak_rss_mb", "MB"),
    ("ablations.adversary.s", "s"),
    ("ablations.adversary.allocs", "count"),
    ("ablations.adversary.peak_rss_mb", "MB"),
    ("trace.compact.arena_build_s", "s"),
    ("experiment.quiet.s", "s"),
    ("experiment.quiet.s_1t", "s"),
    ("experiment.quiet.requests", "count"),
    ("experiment.quiet.allocs", "count"),
    ("experiment.quiet.peak_rss_mb", "MB"),
    ("experiment.whole.s", "s"),
    ("experiment.whole.requests", "count"),
    ("experiment.whole.attempts", "count"),
    ("experiment.whole.timeouts", "count"),
    ("experiment.whole.retries", "count"),
    ("experiment.whole.forwarded", "count"),
    ("experiment.whole.dht_hops", "count"),
    ("experiment.whole.wasted_queries", "count"),
    ("experiment.whole.allocs", "count"),
    ("experiment.whole.peak_rss_mb", "MB"),
    ("serve.s", "s"),
    ("serve.arrived", "count"),
    ("serve.served", "count"),
    ("serve.shed", "count"),
    ("serve.deferred", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.shard_load_skew", "ratio"),
    ("serve.allocs", "count"),
    ("serve.peak_rss_mb", "MB"),
    ("trace.pipeline.filter_streaming_s", "s"),
    ("trace.pipeline.filter_streaming.peak_rss_mb", "MB"),
    ("trace.io.union_read_s", "s"),
    ("trace.io.union_read.peak_rss_mb", "MB"),
    ("trace.io.bytes_read", "B"),
    ("analysis.banded.s", "s"),
    ("analysis.banded.s_1t", "s"),
    ("analysis.banded.candidate_pairs", "count"),
    ("analysis.banded.pruned_pairs", "count"),
    ("analysis.banded.pruned_share", "ratio"),
    ("analysis.banded.peak_rss_mb", "MB"),
    ("experiment.windowed.s", "s"),
    ("experiment.windowed.peak_rss_mb", "MB"),
    ("experiment.windowed.requests", "count"),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Preset {
    /// The sizes `BENCHMARK.json` records.
    Bench,
    /// Seconds-scale sizes for the self-test.
    Test,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        record: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--record" => args.record = true,
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// The benchmark's own threads: at most two, whatever the machine.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The out-of-core tier's population: five times the repro preset.
fn out_of_core_config(preset: Preset, seed: u64) -> WorkloadConfig {
    let (peers, files, topics) = match preset {
        Preset::Bench => (100_000, 2_000_000, 20_000),
        Preset::Test => (2_000, 40_000, 400),
    };
    WorkloadConfig {
        peers,
        files,
        topics,
        ..WorkloadConfig::repro_scale(seed)
    }
}

const SCRATCH_ROOT: &str = ".perfbench_tmp";

/// Removes the run's scratch directory when the run ends, and the
/// scratch root once no other run is using it.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

fn run_workload(name: &str, preset: Preset, seed: u64, seconds: u64, traced: bool) -> Measured {
    let scratch = Scratch(Path::new(SCRATCH_ROOT).join(format!("{name}-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("create the benchmark's scratch directory");
    let dir = scratch.0.clone();
    let threads = threads();
    match name {
        "reproduce_small" => {
            let data_dir = dir.join("data");
            // The figure emitters read this; set before any thread starts.
            std::env::set_var("EDONKEY_DATA_DIR", &data_dir);
            let scale = match preset {
                Preset::Bench => Scale::Small,
                Preset::Test => Scale::Test,
            };
            let bench = reproduce::Reproduce {
                scale,
                seed,
                threads,
                dir,
                data_dir,
            };
            measure(&bench, seconds, traced)
        }
        "search_repro" => {
            let scale = match preset {
                Preset::Bench => Scale::Repro,
                Preset::Test => Scale::Test,
            };
            let bench = search::SearchRepro {
                config: scale.config(seed),
                threads,
                phases: search::Phases::full(seed),
            };
            measure(&bench, seconds, traced)
        }
        "out_of_core" => {
            let bench = out_of_core::OutOfCore {
                config: out_of_core_config(preset, seed),
                threads,
                dir,
            };
            measure(&bench, seconds, traced)
        }
        other => unreachable!("workload {other} was validated"),
    }
}

fn input_seed(seed: u64) -> u64 {
    edonkey_bench::SEED + seed % REFERENCE_SEEDS
}

fn result_json(checks: &Checks, metrics: &BTreeMap<String, f64>, traced: bool) -> String {
    let declared = if traced { PER_LAYER } else { END_TO_END };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = metrics.get(*name).copied().unwrap_or(0.0);
        assert!(value.is_finite(), "metric {name} is {value}");
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("string write");
    }
    out.push_str("}}");
    out
}

fn report_failures(checks: &Checks) {
    for failure in &checks.failures {
        eprintln!("[perfbench] check failed: {failure}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test();
    }
    let reference_path = Path::new(REFERENCE_PATH);
    let mut reference = match Reference::load(reference_path) {
        Ok(r) => r,
        Err(e) if args.record => {
            eprintln!("[perfbench] {e}; starting a new reference");
            Reference::default()
        }
        Err(e) => {
            eprintln!("[perfbench] {e}");
            return ExitCode::from(2);
        }
    };
    let seed = input_seed(args.seed);
    let mut measured = run_workload(
        &args.workload,
        Preset::Bench,
        seed,
        args.seconds,
        args.trace,
    );
    if args.record {
        reference.set(&args.workload, seed, measured.checks.digests().clone());
        if let Err(e) = reference.save(reference_path) {
            eprintln!("[perfbench] {e}");
            return ExitCode::from(2);
        }
    }
    let expected = reference
        .get(&args.workload, seed)
        .cloned()
        .unwrap_or_default();
    measured.checks.compare(&expected);
    report_failures(&measured.checks);
    println!(
        "{}",
        result_json(&measured.checks, &measured.metrics, args.trace)
    );
    ExitCode::SUCCESS
}

/// At the `test` preset, for each workload: a first run records the
/// reference digests; a traced second run must match them with every
/// span reconciled; a third run against a reference with one digest
/// tampered must fail.
fn self_test() -> ExitCode {
    const SEED: u64 = 1;
    let mut ok = match declared_metrics_match("BENCHMARK.json") {
        Ok(()) => true,
        Err(e) => {
            eprintln!("[perfbench] self-test BENCHMARK.json: {e}");
            false
        }
    };
    for name in WORKLOADS {
        let mut reference = Reference::default();
        let first = run_workload(name, Preset::Test, SEED, 0, false);
        reference.set(name, SEED, first.checks.digests().clone());

        let mut traced = run_workload(name, Preset::Test, SEED, 0, true);
        traced
            .checks
            .compare(reference.get(name, SEED).expect("just recorded"));
        report_failures(&traced.checks);
        let reconciled = traced.checks.failed == 0
            && traced.checks.attempted > first.checks.digests().len() as u64;

        let items = reference.get_mut(name, SEED).expect("just recorded");
        let tampered_item = items
            .keys()
            .next()
            .cloned()
            .expect("a workload digests outputs");
        *items.get_mut(&tampered_item).expect("listed key") ^= 1;
        let mut tampered = run_workload(name, Preset::Test, SEED, 0, false);
        tampered
            .checks
            .compare(reference.get(name, SEED).expect("just recorded"));
        let caught = tampered.checks.failed == 1;

        eprintln!(
            "[perfbench] self-test {name}: {} digests; traced run {}/{} checks passed \
             (spans reconcile: {reconciled}); tampered {tampered_item:?} caught: {caught}",
            first.checks.digests().len(),
            traced.checks.attempted - traced.checks.failed,
            traced.checks.attempted,
        );
        ok &= reconciled && caught;
    }
    println!("{{\"self_test\": {ok}}}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json` declares exactly the metrics this program prints,
/// with the same units, besides the workloads.
fn declared_metrics_match(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if !compact.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")) {
            return Err(format!("metric {name} ({unit}) is not declared"));
        }
    }
    let names = compact.matches("\"name\":").count();
    let expected = WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len();
    if names != expected {
        return Err(format!("{names} names declared, {expected} expected"));
    }
    Ok(())
}
