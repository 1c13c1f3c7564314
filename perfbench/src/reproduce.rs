//! `reproduce_small`: every table, figure and ablation, composed as the
//! `reproduce` binary composes them, on a trace generated from the
//! benchmark's seed and handed to the figures through the public
//! trace-file path.

use std::path::{Path, PathBuf};

use edonkey_bench::{
    ablations, figures_cluster as fc, figures_measure as fm, figures_search as fs, Scale, Workload,
};
use edonkey_trace::compact::CacheArena;
use edonkey_workload::generate_trace;

use crate::check::{Checks, Digest};
use crate::harness::Bench;
use crate::search::{PhaseRates, Phases};
use crate::spans::Tracer;

type FigureFn = fn(&Workload);
type AblationFn = fn(Scale);

/// The `reproduce` binary's figure order, grouped by module.
const MEASURE: &[FigureFn] = &[
    fm::fig01,
    fm::fig02,
    fm::fig03,
    fm::fig04,
    fm::table1,
    fm::fig05,
    fm::fig06,
    fm::fig07,
    fm::fig08,
    fm::fig09,
    fm::fig10,
    fm::table2,
];
const CLUSTER: &[FigureFn] = &[
    fc::fig11,
    fc::fig12,
    fc::fig13,
    fc::fig14,
    fc::fig15,
    fc::fig16,
    fc::fig17,
];
const SEARCH: &[FigureFn] = &[
    fs::fig18,
    fs::fig19,
    fs::fig20,
    fs::table3,
    fs::fig21,
    fs::fig22,
    fs::fig23,
];

/// The ablations in `reproduce` order, with their span names.
const ABLATIONS: &[(&str, AblationFn)] = &[
    ("ablations.interest.s", ablations::ablation_interest),
    ("ablations.randomize.s", ablations::ablation_randomize),
    ("ablations.policies.s", ablations::ablation_policies),
    ("ablations.crawler.s", ablations::ablation_crawler),
    ("ablations.fault_sweep.s", ablations::ablation_fault_sweep),
    ("ablations.churn_sweep.s", ablations::ablation_churn_sweep),
    (
        "ablations.index_backends.s",
        ablations::ablation_index_backends,
    ),
    ("ablations.service_mode.s", ablations::ablation_service_mode),
    ("ablations.adversary.s", ablations::ablation_adversary),
];

pub struct Reproduce {
    pub scale: Scale,
    pub seed: u64,
    pub threads: usize,
    /// Scratch directory: the trace file goes here.
    pub dir: PathBuf,
    /// Where the figures write their TSVs (`EDONKEY_DATA_DIR`).
    pub data_dir: PathBuf,
}

impl Bench for Reproduce {
    type Input = Workload;
    type Output = ();

    fn setup(&self, tr: &mut Tracer) -> Workload {
        let (_, full) = tr.leaf("workload.generate_s", |_| {
            generate_trace(self.scale.config(self.seed))
        });
        let path = self.dir.join("full.etrc");
        tr.span("trace.io.save_s", |_| {
            edonkey_trace::io::save_bin(&full, &path).expect("save the generated trace")
        });
        drop(full);
        tr.leaf("trace.derive_s", |_| Workload::from_trace_file(&path))
    }

    fn body(&self, w: &Workload, tr: &mut Tracer) {
        // Each body writes a fresh set of TSVs.
        let _ = std::fs::remove_dir_all(&self.data_dir);
        for (span, figures) in [
            ("figures_measure.s", MEASURE),
            ("figures_cluster.s", CLUSTER),
            ("figures_search.s", SEARCH),
        ] {
            tr.leaf(span, |_| figures.iter().for_each(|figure| figure(w)));
        }
        tr.span("ablations.s", |tr| {
            for &(span, ablation) in ABLATIONS {
                tr.leaf(span, |_| ablation(self.scale));
            }
        });
    }

    fn check(
        &self,
        _: &Workload,
        _: &(),
        _: &mut Tracer,
        checks: &mut Checks,
    ) -> Option<PhaseRates> {
        let listed = digest_tsvs(&self.data_dir, checks);
        checks.expect("TSVs written", listed);
        None
    }

    fn probe(&self, w: &Workload, _: &(), tr: &mut Tracer, checks: &mut Checks) -> PhaseRates {
        let arena = tr.span("trace.compact.arena_build_s", |_| {
            CacheArena::from_trace_static(&w.filtered)
        });
        let out = Phases::probe(self.seed).run(&arena, self.threads, tr);
        out.check(tr, checks);
        out.rates
    }
}

/// Digests every TSV in `dir`, one item per file name.
fn digest_tsvs(dir: &Path, checks: &mut Checks) -> Result<(), String> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("list {}: {e}", dir.display()))?;
    names.sort();
    for path in names {
        let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let name = path.file_name().expect("a listed file has a name");
        checks.digest(
            &name.to_string_lossy(),
            Digest::new().bytes(&bytes).finish(),
        );
    }
    Ok(())
}
