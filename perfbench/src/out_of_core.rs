//! `out_of_core`: the streaming tier. Set-up streams a generated trace
//! to disk; the body filters it with the streaming pass, folds the union
//! caches a day at a time, packs the arena, runs the banded MinHash
//! overlap histogram and one windowed sweep cell.

use std::path::{Path, PathBuf};

use edonkey_analysis::banded::{
    banded_overlap_histogram_with_threads, BandedOverlapConfig, BandedOverlapStats,
};
use edonkey_semsearch::experiment::sweep_cells_windowed;
use edonkey_semsearch::sim::{SearchHealth, SimResult};
use edonkey_semsearch::SimConfig;
use edonkey_trace::compact::CacheArena;
use edonkey_trace::model::FileRef;
use edonkey_trace::{filter_streaming, TraceReader};
use edonkey_workload::{generate_trace_streaming, WorkloadConfig};

use crate::check::{Checks, Digest};
use crate::harness::Bench;
use crate::search::{cell_digest, PhaseRates, Phases};
use crate::spans::Tracer;

/// Querier window of the bounded-working-set sweep.
const SWEEP_WINDOW: usize = 4096;

pub struct OutOfCore {
    pub config: WorkloadConfig,
    pub threads: usize,
    pub dir: PathBuf,
}

pub struct Streamed {
    full: PathBuf,
    filtered: PathBuf,
}

pub struct Output {
    kept: Vec<u32>,
    days: u32,
    bytes_read: u64,
    arena: CacheArena,
    histogram: Vec<u64>,
    banded: BandedOverlapStats,
    windowed: Vec<(SimResult, SearchHealth)>,
}

impl OutOfCore {
    fn banded_config(&self) -> BandedOverlapConfig {
        BandedOverlapConfig::paper_default(self.config.seed)
    }

    fn windowed_cells(&self) -> Vec<SimConfig> {
        vec![SimConfig::lru(20).with_seed(self.config.seed)]
    }
}

impl Bench for OutOfCore {
    type Input = Streamed;
    type Output = Output;

    fn setup(&self, tr: &mut Tracer) -> Streamed {
        let full = self.dir.join("full_stream.etrc");
        let (_, stats) = tr.leaf("workload.stream_s", |_| {
            generate_trace_streaming(&self.config, &full, self.threads)
                .expect("stream the generated trace to disk")
        });
        tr.count("workload.stream_entries", stats.entries as f64);
        tr.count("workload.stream_bytes", file_len(&full) as f64);
        Streamed {
            full,
            filtered: self.dir.join("filtered_stream.etrc"),
        }
    }

    fn body(&self, input: &Streamed, tr: &mut Tracer) -> Output {
        let filtered = tr.leaf("trace.pipeline.filter_streaming_s", |_| {
            filter_streaming(&input.full, &input.filtered).expect("streaming filter")
        });
        let (caches, n_files) = tr.leaf("trace.io.union_read_s", |_| union_caches(&input.filtered));
        let arena = tr.leaf("trace.compact.arena_build_s", |_| {
            CacheArena::from_caches(&caches, n_files)
        });
        drop(caches);
        let (histogram, banded) = tr.leaf("analysis.banded.s", |_| {
            banded_overlap_histogram_with_threads(
                &arena,
                |_| true,
                &self.banded_config(),
                self.threads,
            )
        });
        let windowed = tr.leaf("experiment.windowed.s", |_| {
            sweep_cells_windowed(&arena, &self.windowed_cells(), SWEEP_WINDOW)
        });
        Output {
            kept: filtered.kept.iter().map(|p| p.0).collect(),
            days: filtered.days,
            bytes_read: file_len(&input.filtered),
            arena,
            histogram,
            banded,
            windowed,
        }
    }

    fn check(
        &self,
        _: &Streamed,
        out: &Output,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Option<PhaseRates> {
        let mut d = Digest::new();
        d.u64(u64::from(out.days)).u64(out.kept.len() as u64);
        out.kept.iter().for_each(|&p| {
            d.u64(u64::from(p));
        });
        checks.digest("filter_streaming.kept", d.finish());

        let b = &out.banded;
        let mut d = Digest::new();
        d.u64s(&out.histogram);
        for v in [
            b.tail_files as u64,
            b.head_files as u64,
            b.sketched_peers as u64,
        ] {
            d.u64(v);
        }
        d.u64(b.candidate_pairs)
            .u64(b.admitted_pairs)
            .u64(b.pruned_pairs);
        checks.digest("banded.histogram", d.finish());
        checks.expect(
            "banded ledger",
            if b.admitted_pairs + b.pruned_pairs == b.candidate_pairs {
                Ok(())
            } else {
                Err(format!(
                    "admitted {} + pruned {} != candidates {}",
                    b.admitted_pairs, b.pruned_pairs, b.candidate_pairs
                ))
            },
        );

        let mut requests = 0;
        for (i, (result, health)) in out.windowed.iter().enumerate() {
            let label = format!("windowed.{i:02}");
            checks.expect(&label, health.check_against(result));
            checks.digest(&label, cell_digest(result, health));
            requests += result.requests;
        }

        tr.count("trace.io.bytes_read", out.bytes_read as f64);
        tr.count("analysis.banded.candidate_pairs", b.candidate_pairs as f64);
        tr.count("analysis.banded.pruned_pairs", b.pruned_pairs as f64);
        tr.count(
            "analysis.banded.pruned_share",
            b.pruned_pairs as f64 / b.candidate_pairs.max(1) as f64,
        );
        tr.count("experiment.windowed.requests", requests as f64);
        None
    }

    fn probe(
        &self,
        _: &Streamed,
        out: &Output,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> PhaseRates {
        let phases = Phases::probe(self.config.seed).run(&out.arena, self.threads, tr);
        phases.check(tr, checks);
        phases.rates
    }

    fn baselines(&self, _: &Streamed, out: &Output, tr: &mut Tracer, checks: &mut Checks) {
        let single = tr.span("analysis.banded.s_1t", |_| {
            banded_overlap_histogram_with_threads(&out.arena, |_| true, &self.banded_config(), 1)
        });
        checks.expect(
            "banded histogram on one thread",
            if single == (out.histogram.clone(), out.banded) {
                Ok(())
            } else {
                Err("differs from the threaded histogram".to_string())
            },
        );
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Folds a binary trace's union (static) caches one day at a time: one
/// day resident, per-peer rows merged with amortized sort+dedup.
fn union_caches(path: &Path) -> (Vec<Vec<FileRef>>, usize) {
    let mut reader = TraceReader::open(path).expect("open the filtered trace");
    let n_files = reader.files().len();
    let n_peers = reader.peers().len();
    let mut caches: Vec<Vec<FileRef>> = vec![Vec::new(); n_peers];
    let mut compact_at = vec![0usize; n_peers];
    while let Some(day) = reader.next_day_arena().expect("read a trace day") {
        for (peer, row) in day.iter() {
            let cache = &mut caches[peer as usize];
            cache.extend_from_slice(row);
            if cache.len() >= compact_at[peer as usize] {
                cache.sort_unstable();
                cache.dedup();
                compact_at[peer as usize] = cache.len() * 2 + 16;
            }
        }
    }
    for cache in &mut caches {
        cache.sort_unstable();
        cache.dedup();
    }
    (caches, n_files)
}
