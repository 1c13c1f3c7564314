//! The Section 5 engine: split-eligible ("quiet") sweeps, whole-cell
//! sweeps and serve-mode replays over one [`CacheArena`], each phase
//! timed and checked on its own so that a change that speeds one path
//! and slows another cannot hide in a sum.

use std::time::Instant;

use edonkey_semsearch::experiment::{sweep_cells_threads, PAPER_LIST_SIZES};
use edonkey_semsearch::serve::{serve_arena_threads, ArrivalConfig, ServeConfig, ServeReport};
use edonkey_semsearch::sim::{split_eligible, AvailabilityConfig, SearchHealth, SimResult};
use edonkey_semsearch::{AdversaryConfig, IndexBackend, QueryPolicy, SimConfig};
use edonkey_trace::compact::{CacheArena, TraceArena};
use edonkey_trace::filter_arena;
use edonkey_workload::{generate_trace, WorkloadConfig};

use crate::check::{Checks, Digest};
use crate::harness::Bench;
use crate::spans::Tracer;

const BACKENDS: [IndexBackend; 3] = [
    IndexBackend::SingleServer,
    IndexBackend::Federated { n_servers: 8 },
    IndexBackend::Dht { replication_k: 3 },
];

/// The cells of the three phases.
pub struct Phases {
    quiet: Vec<SimConfig>,
    whole: Vec<SimConfig>,
    serve: Vec<ServeConfig>,
}

/// Work done in a phase and the wall time it took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rate {
    pub work: u64,
    pub secs: f64,
}

impl Rate {
    pub fn per_sec(self) -> f64 {
        self.work as f64 / self.secs
    }
}

/// One measurement of each phase: the quiet batch as a whole, whole
/// cells and serve replays one [`Rate`] each, in phase order.
#[derive(Clone, Debug, Default)]
pub struct PhaseRates {
    pub quiet: Rate,
    pub whole: Vec<Rate>,
    pub serve: Vec<Rate>,
}

impl PhaseRates {
    /// One line for the progress log: each phase's work per second.
    pub fn summary(&self) -> String {
        let total = |rates: &[Rate]| Rate {
            work: rates.iter().map(|r| r.work).sum(),
            secs: rates.iter().map(|r| r.secs).sum(),
        };
        format!(
            "quiet {:.0}/s, whole {:.0}/s, serve {:.0}/s",
            self.quiet.per_sec(),
            total(&self.whole).per_sec(),
            total(&self.serve).per_sec()
        )
    }
}

impl Phases {
    /// The `search_repro` body.
    ///
    /// * quiet: LRU / History / RareLru × the paper's list sizes, for
    ///   two request orders (`seed` and `seed + 1`);
    /// * whole: Random, two-hop, churn 250‰ with `retry_evict` and a
    ///   server outage from day 7 on each backend, and a 5% sybil + 5%
    ///   polluter mix with the reputation defense armed;
    /// * serve: each backend at bursts 0/300/900‰ behind bounded queues.
    pub fn full(seed: u64) -> Phases {
        let quiet = (seed..seed + 2)
            .flat_map(|order| {
                PAPER_LIST_SIZES.iter().flat_map(move |&size| {
                    [
                        SimConfig::lru(size),
                        SimConfig::history(size),
                        SimConfig::rare_lru(size, 10),
                    ]
                    .map(|c| c.with_seed(order))
                })
            })
            .collect();
        let outage: Vec<u32> = (7..200).collect();
        let churn = AvailabilityConfig::churn(seed ^ 0xc4c4, 250)
            .with_query(QueryPolicy::retry_evict())
            .with_outages(outage);
        let adversary = AvailabilityConfig::none()
            .with_adversary(AdversaryConfig::sybils(seed ^ 0xad5e, 50).with_polluters(50))
            .with_reputation();
        let mut whole = vec![
            SimConfig::random(20),
            SimConfig::lru(20).with_two_hop(),
            SimConfig::lru(20).with_availability(adversary.clone()),
            SimConfig::history(20).with_availability(adversary),
        ];
        whole.extend(
            BACKENDS.map(|b| SimConfig::lru(20).with_availability(churn.clone().with_backend(b))),
        );
        let whole = whole.into_iter().map(|c| c.with_seed(seed)).collect();
        let serve = BACKENDS
            .iter()
            .flat_map(|&backend| [0u32, 300, 900].map(|burst| serve_config(seed, backend, burst)))
            .collect();
        Phases {
            quiet,
            whole,
            serve,
        }
    }

    /// One cell per phase: the rates of each engine path on another
    /// workload's arena.
    pub fn probe(seed: u64) -> Phases {
        Phases {
            quiet: vec![SimConfig::lru(20).with_seed(seed)],
            whole: vec![SimConfig::random(20).with_seed(seed)],
            serve: vec![serve_config(seed, IndexBackend::SingleServer, 300)],
        }
    }

    /// Runs the three phases, tracing each as one span. Checking the
    /// outputs is left to [`PhaseOutput::check`], outside the timing.
    ///
    /// Whole cells run one at a time on one thread, each timed alone. A
    /// whole cell does not split, so on two threads the phase time is
    /// set by how its few uneven cells pack onto the threads, and on a
    /// shared host that packing swings with whichever core is slowed.
    pub fn run(&self, arena: &CacheArena, threads: usize, tr: &mut Tracer) -> PhaseOutput {
        assert!(self.quiet.iter().all(split_eligible), "quiet cells split");
        assert!(!self.whole.iter().any(split_eligible), "whole cells do not");
        let (quiet, mut cells) = tr.leaf("experiment.quiet.s", |_| {
            let start = Instant::now();
            let results = sweep_cells_threads(arena, &self.quiet, threads);
            let secs = start.elapsed().as_secs_f64();
            let work = results.iter().map(|(r, _)| r.requests).sum();
            (
                Rate { work, secs },
                label_cells("quiet", &self.quiet, results),
            )
        });
        let (whole, results): (Vec<Rate>, Vec<_>) = tr.leaf("experiment.whole.s", |_| {
            self.whole
                .iter()
                .map(|config| {
                    let start = Instant::now();
                    let result = sweep_cells_threads(arena, std::slice::from_ref(config), 1)
                        .pop()
                        .expect("one result per cell");
                    let secs = start.elapsed().as_secs_f64();
                    let rate = Rate {
                        work: result.0.requests,
                        secs,
                    };
                    (rate, result)
                })
                .unzip()
        });
        cells.extend(label_cells("whole", &self.whole, results));
        let (serve, serves) = tr.leaf("serve.s", |_| {
            self.serve
                .iter()
                .map(|config| {
                    let start = Instant::now();
                    let report = serve_arena_threads(arena, config, threads);
                    let rate = Rate {
                        work: report.health.served,
                        secs: start.elapsed().as_secs_f64(),
                    };
                    (rate, (config.clone(), report))
                })
                .unzip()
        });
        PhaseOutput {
            rates: PhaseRates {
                quiet,
                whole,
                serve,
            },
            cells,
            serves,
        }
    }

    /// The single-thread baseline of the quiet phase (traced runs only:
    /// its time against `experiment.quiet.s` is the 1-vs-N-core scaling),
    /// checked cell for cell against the threaded run.
    fn quiet_single_thread(
        &self,
        arena: &CacheArena,
        out: &PhaseOutput,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) {
        let single = tr.span("experiment.quiet.s_1t", |_| {
            sweep_cells_threads(arena, &self.quiet, 1)
        });
        for ((label, result, health), (r1, h1)) in out.cells.iter().zip(&single) {
            checks.expect(
                &format!("{label} on one thread"),
                if (result, health) == (r1, h1) {
                    Ok(())
                } else {
                    Err("differs from the threaded sweep".to_string())
                },
            );
        }
    }
}

/// What the phases produced, labelled per cell.
pub struct PhaseOutput {
    pub rates: PhaseRates,
    cells: Vec<(String, SimResult, SearchHealth)>,
    serves: Vec<(ServeConfig, ServeReport)>,
}

impl PhaseOutput {
    /// Reconciles every cell's and replay's ledger, digests every
    /// result, and feeds the per-layer counters.
    pub fn check(&self, tr: &mut Tracer, checks: &mut Checks) {
        tr.count("experiment.quiet.requests", self.rates.quiet.work as f64);
        for rate in &self.rates.whole {
            tr.count("experiment.whole.requests", rate.work as f64);
        }
        for (label, result, health) in &self.cells {
            checks.expect(label, health.check_against(result));
            checks.digest(label, cell_digest(result, health));
            if label.starts_with("whole.") {
                tr.count("experiment.whole.attempts", health.attempted as f64);
                tr.count("experiment.whole.timeouts", health.timed_out as f64);
                tr.count("experiment.whole.retries", health.retried as f64);
                tr.count("experiment.whole.forwarded", health.forwarded as f64);
                tr.count("experiment.whole.dht_hops", health.dht_hops as f64);
                tr.count(
                    "experiment.whole.wasted_queries",
                    health.wasted_queries as f64,
                );
            }
        }
        for (i, (config, report)) in self.serves.iter().enumerate() {
            let label = format!(
                "serve.{i:02}.{}-burst{}",
                config.sim.availability.backend.name(),
                config.arrival.burst_permille
            );
            let h = &report.health;
            checks.expect(
                &label,
                h.reconcile(report.result.requests, report.result.one_hop_hits),
            );
            checks.digest(&label, serve_digest(report));
            tr.count("serve.arrived", h.arrived as f64);
            tr.count("serve.served", h.served as f64);
            tr.count("serve.shed", h.shed as f64);
            tr.count("serve.deferred", h.deferred as f64);
            tr.max("serve.max_queue_depth", h.max_queue_depth as f64);
            tr.max("serve.shard_load_skew", load_skew(&report.shard_load));
        }
    }
}

fn serve_config(seed: u64, backend: IndexBackend, burst: u32) -> ServeConfig {
    ServeConfig::new(SimConfig::lru(20).with_seed(seed).with_backend(backend))
        .with_arrival(ArrivalConfig::bursty(seed ^ 0x5e, burst, 40))
        .with_service(1, 256, 16)
}

fn cell_label(config: &SimConfig) -> String {
    let a = &config.availability;
    format!(
        "{}-{}{}-churn{}-outage{}-{}{}{}",
        config.policy.name(),
        config.list_size,
        if config.two_hop { "-twohop" } else { "" },
        a.churn.churn_permille,
        a.churn.outage_days.len(),
        a.backend.name(),
        if a.adversary.is_quiet() {
            ""
        } else {
            "-adversary"
        },
        if a.reputation { "-reputation" } else { "" },
    )
}

fn label_cells(
    phase: &str,
    cells: &[SimConfig],
    results: Vec<(SimResult, SearchHealth)>,
) -> Vec<(String, SimResult, SearchHealth)> {
    cells
        .iter()
        .zip(results)
        .enumerate()
        .map(|(i, (config, (result, health)))| {
            (
                format!("{phase}.{i:02}.{}", cell_label(config)),
                result,
                health,
            )
        })
        .collect()
}

/// max / mean of the per-shard served counts (1.0 is perfectly even).
fn load_skew(load: &[u64]) -> f64 {
    let total: u64 = load.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = load.iter().copied().max().unwrap_or(0);
    max as f64 * load.len() as f64 / total as f64
}

fn result_digest(d: &mut Digest, r: &SimResult) {
    d.u64(r.requests)
        .u64(r.one_hop_hits)
        .u64(r.two_hop_hits)
        .u64(r.contributor_seeds)
        .u64s(&r.messages_per_peer);
}

fn health_digest(d: &mut Digest, h: &SearchHealth) {
    for v in [
        h.attempted,
        h.answered,
        h.timed_out,
        h.retried,
        h.evicted_stale,
        h.probed_stale,
        h.server_fallback,
        h.stranded,
        h.recovered,
        h.forwarded,
        h.dht_hops,
        h.wasted_queries,
        h.sybil_slots_held,
        h.polluted_acquisitions,
        h.reputation_evictions,
    ] {
        d.u64(v);
    }
}

pub fn cell_digest(result: &SimResult, health: &SearchHealth) -> u64 {
    let mut d = Digest::new();
    result_digest(&mut d, result);
    health_digest(&mut d, health);
    d.finish()
}

fn serve_digest(report: &ServeReport) -> u64 {
    let mut d = Digest::new();
    result_digest(&mut d, &report.result);
    let h = &report.health;
    health_digest(&mut d, &h.search);
    for v in [
        h.arrived,
        h.served,
        h.shed,
        h.deferred,
        h.deferred_ticks,
        h.max_queue_depth,
    ] {
        d.u64(v);
    }
    for (bucket, count) in report.latency.nonzero() {
        d.u64(bucket as u64).u64(count);
    }
    d.u64s(&report.shard_load)
        .u64s(&report.shard_max_depth)
        .u64s(&report.shard_last_tick);
    for list in &report.lists {
        d.u64(list.len() as u64);
        for &peer in list {
            d.u64(u64::from(peer));
        }
    }
    d.finish()
}

/// `search_repro`: the three phases on the repro preset's filtered
/// static caches, packed into a [`CacheArena`] during set-up.
pub struct SearchRepro {
    pub config: WorkloadConfig,
    pub threads: usize,
    pub phases: Phases,
}

impl Bench for SearchRepro {
    type Input = CacheArena;
    type Output = PhaseOutput;

    fn setup(&self, tr: &mut Tracer) -> CacheArena {
        let (_, full) = tr.leaf("workload.generate_s", |_| {
            generate_trace(self.config.clone())
        });
        let filtered = tr.leaf("trace.derive_s", |_| {
            filter_arena(&TraceArena::from_trace(&full))
        });
        drop(full);
        tr.span("trace.compact.arena_build_s", |_| {
            let arena = filtered.arena.static_arena();
            // Build the lazy holder index here, not in the first body.
            arena.ensure_holders();
            arena
        })
    }

    fn body(&self, arena: &CacheArena, tr: &mut Tracer) -> PhaseOutput {
        self.phases.run(arena, self.threads, tr)
    }

    fn check(
        &self,
        _: &CacheArena,
        out: &PhaseOutput,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Option<PhaseRates> {
        out.check(tr, checks);
        Some(out.rates.clone())
    }

    fn baselines(
        &self,
        arena: &CacheArena,
        out: &PhaseOutput,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) {
        self.phases.quiet_single_thread(arena, out, tr, checks);
    }
}
