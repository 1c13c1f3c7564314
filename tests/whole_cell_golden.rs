//! Golden digests of the Section 5 query kernels outside the quiet
//! split sweep.
//!
//! Cells with churn, outages, forwarding backends, adversaries,
//! two-hop search or Random lists run whole on one thread
//! (`simulate_arena_health_with_scratch`); churned split-eligible cells
//! run querier by querier (`simulate_cell_range`); churned serve
//! replays and the live overlay run the same query step with their own
//! clock and probe; quiet serve replays run the quiet split kernel over
//! each querier's served queries. These tests pin every output of those kernels at
//! the bench crate's `Scale::Test` workload: the `SimResult` (per-peer
//! message loads included), the `SearchHealth` ledger and, where the
//! kernel exposes them, the final neighbour lists.
//!
//! A digest mismatch means a kernel's output changed. That is only
//! acceptable as a deliberate model change, in which case the new
//! digests are printed by the failing assertion.

use std::sync::OnceLock;

use edonkey_repro::semsearch::experiment::sweep_cells_threads;
use edonkey_repro::semsearch::index::IndexBackend;
use edonkey_repro::semsearch::neighbours::PolicyKind;
use edonkey_repro::semsearch::overlay::{simulate_overlay_health, OverlayConfig, OverlayDayStats};
use edonkey_repro::semsearch::serve::{
    serve_arena_threads, ArrivalConfig, ServeConfig, ServeReport,
};
use edonkey_repro::semsearch::sim::{
    simulate_arena_health_with_scratch, split_eligible, AdversaryConfig, AvailabilityConfig,
    QueryPolicy, SearchHealth, SimScratch,
};
use edonkey_repro::semsearch::{SimConfig, SimResult};
use edonkey_repro::trace::compact::CacheArena;
use edonkey_repro::trace::pipeline::filter;
use edonkey_repro::workload::dynamics::Dynamics;
use edonkey_repro::workload::{generate_trace, Population, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 20060418;
const CHURN_SEED: u64 = SEED ^ 0xc4c4;
const ADVERSARY_SEED: u64 = SEED ^ 0xad5e;

/// The bench crate's `Scale::Test` workload configuration.
fn test_scale() -> WorkloadConfig {
    let mut c = WorkloadConfig::test_scale(SEED);
    c.days = 20;
    c
}

/// The filtered static caches of the test-scale trace, packed once.
fn arena() -> &'static CacheArena {
    static A: OnceLock<CacheArena> = OnceLock::new();
    A.get_or_init(|| {
        let (_, trace) = generate_trace(test_scale());
        let filtered = filter(&trace).trace;
        let n_files = filtered.files.len();
        CacheArena::from_caches(&filtered.static_caches(), n_files)
    })
}

/// FNV-1a over little-endian `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn u64s(&mut self, vs: &[u64]) -> &mut Self {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
        self
    }

    fn result(&mut self, r: &SimResult) -> &mut Self {
        self.u64(r.requests)
            .u64(r.one_hop_hits)
            .u64(r.two_hop_hits)
            .u64(r.contributor_seeds)
            .u64s(&r.messages_per_peer)
    }

    fn health(&mut self, h: &SearchHealth) -> &mut Self {
        let SearchHealth {
            attempted,
            answered,
            timed_out,
            retried,
            evicted_stale,
            probed_stale,
            server_fallback,
            stranded,
            recovered,
            forwarded,
            dht_hops,
            wasted_queries,
            sybil_slots_held,
            polluted_acquisitions,
            reputation_evictions,
        } = *h;
        for v in [
            attempted,
            answered,
            timed_out,
            retried,
            evicted_stale,
            probed_stale,
            server_fallback,
            stranded,
            recovered,
            forwarded,
            dht_hops,
            wasted_queries,
            sybil_slots_held,
            polluted_acquisitions,
            reputation_evictions,
        ] {
            self.u64(v);
        }
        self
    }

    fn lists(&mut self, lists: &[Vec<u32>]) -> &mut Self {
        self.u64(lists.len() as u64);
        for list in lists {
            self.u64(list.len() as u64);
            for &p in list {
                self.u64(u64::from(p));
            }
        }
        self
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn assert_digest(label: &str, got: u64, expected: u64) {
    assert_eq!(
        got, expected,
        "{label}: kernel output changed (digest {got:#018x})"
    );
}

/// Churn at 250‰ with the retry/evict reaction: the availability plane
/// every churned cell below shares.
fn churn() -> AvailabilityConfig {
    AvailabilityConfig::churn(CHURN_SEED, 250).with_query(QueryPolicy::retry_evict())
}

/// Churn plus a server outage on every day from day 7 on.
fn churn_outages() -> AvailabilityConfig {
    churn().with_outages((7..200).collect())
}

/// 5% sybils and 5% polluters with the reputation defense armed.
fn adversary() -> AvailabilityConfig {
    AvailabilityConfig::none()
        .with_adversary(AdversaryConfig::sybils(ADVERSARY_SEED, 50).with_polluters(50))
        .with_reputation()
}

/// Runs one cell through the whole-cell kernel and digests its result,
/// ledger and final lists.
fn whole(config: SimConfig) -> u64 {
    let config = config.with_seed(SEED);
    let mut scratch = SimScratch::new();
    let (result, health) = simulate_arena_health_with_scratch(arena(), &config, &mut scratch);
    health.expect_reconciled(&result, &config);
    Digest::new()
        .result(&result)
        .health(&health)
        .lists(&scratch.final_lists())
        .finish()
}

#[test]
fn random_list_cell_is_pinned() {
    assert_digest(
        "Random-20",
        whole(SimConfig::random(20)),
        0x735f_7d63_ac6e_8b64,
    );
}

#[test]
fn two_hop_cell_is_pinned() {
    assert_digest(
        "LRU-20 two-hop",
        whole(SimConfig::lru(20).with_two_hop()),
        0xd38d_c255_014c_7c44,
    );
}

#[test]
fn churn_cells_are_pinned() {
    let cells = [
        (
            "LRU-20 churn",
            SimConfig::lru(20),
            AvailabilityConfig::churn(CHURN_SEED, 250),
            0xe056_fab3_1550_82f1,
        ),
        (
            "History-20 churn retry",
            SimConfig::history(20),
            churn(),
            0xd9f1_975a_e7b4_082d,
        ),
        (
            "Random-20 churn retry",
            SimConfig::random(20),
            churn(),
            0x1558_7567_e025_1cfe,
        ),
    ];
    for (label, config, availability, expected) in cells {
        assert_digest(
            label,
            whole(config.with_availability(availability)),
            expected,
        );
    }
}

#[test]
fn outage_cells_on_every_backend_are_pinned() {
    let cells = [
        (IndexBackend::SingleServer, 0xd7e4_8825_e44a_739f),
        (
            IndexBackend::Federated { n_servers: 8 },
            0x85b8_0e76_a1c9_bb13,
        ),
        (
            IndexBackend::Dht { replication_k: 3 },
            0xde07_41fa_af05_9106,
        ),
    ];
    for (backend, expected) in cells {
        let config = SimConfig::lru(20).with_availability(churn_outages().with_backend(backend));
        assert_digest(
            &format!("LRU-20 outages {}", backend.name()),
            whole(config),
            expected,
        );
    }
}

#[test]
fn adversary_cells_are_pinned() {
    let cells = [
        (
            "LRU-20 adversary",
            SimConfig::lru(20),
            0x1301_455e_6bec_c175,
        ),
        (
            "History-20 adversary",
            SimConfig::history(20),
            0x09c1_6e2f_0756_439f,
        ),
        (
            "Random-20 adversary",
            SimConfig::random(20),
            0xdfe2_46a1_58c5_4bcd,
        ),
    ];
    for (label, config, expected) in cells {
        assert_digest(
            label,
            whole(config.with_availability(adversary())),
            expected,
        );
    }
}

#[test]
fn two_hop_under_churn_and_adversaries_is_pinned() {
    let availability = churn()
        .with_adversary(AdversaryConfig::sybils(ADVERSARY_SEED, 50).with_polluters(50))
        .with_reputation();
    let config = SimConfig::lru(20)
        .with_two_hop()
        .with_availability(availability);
    assert_digest(
        "LRU-20 two-hop churn adversary",
        whole(config),
        0xd8e1_aa41_9c67_eca5,
    );
}

#[test]
fn split_churn_cell_is_pinned() {
    let configs = [
        SimConfig::lru(20)
            .with_seed(SEED)
            .with_availability(churn()),
        SimConfig::history(20)
            .with_seed(SEED)
            .with_availability(churn()),
    ];
    assert!(configs.iter().all(split_eligible));
    let results = sweep_cells_threads(arena(), &configs, 2);
    let mut d = Digest::new();
    for ((result, health), config) in results.iter().zip(&configs) {
        health.expect_reconciled(result, config);
        d.result(result).health(health);
    }
    assert_digest(
        "split LRU/History-20 churn retry",
        d.finish(),
        0x38f7_7ff7_bc4c_82fc,
    );
}

fn serve_digest(report: &ServeReport) -> u64 {
    let mut d = Digest::new();
    d.result(&report.result).health(&report.health.search);
    let h = &report.health;
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
        .u64s(&report.shard_last_tick)
        .lists(&report.lists)
        .finish()
}

#[test]
fn churned_serve_replay_is_pinned() {
    let sim = SimConfig::lru(20)
        .with_seed(SEED)
        .with_availability(churn().with_backend(IndexBackend::Dht { replication_k: 3 }));
    let config = ServeConfig::new(sim)
        .with_arrival(ArrivalConfig::bursty(SEED ^ 0x5e, 600, 40))
        .with_service(20, 12, 2);
    let report = serve_arena_threads(arena(), &config, 2);
    assert!(report.health.deferred > 0 && report.health.search.timed_out > 0);
    assert_digest(
        "serve LRU-20 churn dht_k3",
        serve_digest(&report),
        0x000d_ca71_192d_5394,
    );
}

#[test]
fn adversarial_bounded_serve_replay_is_pinned() {
    // Bounded service makes queries wait, so service instants drift
    // from the batch instants: the one serve path the unconstrained
    // serve-vs-batch differentials never reach.
    let availability = churn()
        .with_adversary(AdversaryConfig::sybils(ADVERSARY_SEED, 50).with_polluters(50))
        .with_reputation();
    let sim = SimConfig::history(20)
        .with_seed(SEED)
        .with_availability(availability);
    let config = ServeConfig::new(sim).with_service(20, usize::MAX, 2);
    let report = serve_arena_threads(arena(), &config, 2);
    let search = &report.health.search;
    assert!(report.health.deferred > 0 && search.timed_out > 0);
    assert!(search.wasted_queries > 0 && search.sybil_slots_held > 0);
    assert_digest(
        "serve History-20 churn adversary bounded",
        serve_digest(&report),
        0x97da_cca0_8374_bf21,
    );
}

#[test]
fn quiet_bounded_serve_replays_are_pinned() {
    // Quiet cells replay each querier's served queries through the
    // split path's interval-settled kernel. Bursty arrivals into short
    // queues shed and defer; the federation forwards final misses.
    let cells = [
        ("LRU-20", SimConfig::lru(20), 0x75a7_e9f6_4abd_7d19),
        ("History-20", SimConfig::history(20), 0xcb7a_4939_f5f4_79c1),
        (
            "RareLru-20",
            SimConfig::rare_lru(20, 10),
            0xe89e_7d74_eaae_a2a2,
        ),
        ("Random-20", SimConfig::random(20), 0x0118_dd6f_c05c_e4a2),
    ];
    for (label, sim, expected) in cells {
        let sim = sim
            .with_seed(SEED)
            .with_backend(IndexBackend::Federated { n_servers: 8 });
        let config = ServeConfig::new(sim)
            .with_arrival(ArrivalConfig::bursty(SEED ^ 0x5e, 600, 40))
            .with_service(20, 12, 2);
        let report = serve_arena_threads(arena(), &config, 2);
        let h = &report.health;
        assert!(h.shed > 0 && h.deferred > 0 && h.search.forwarded > 0);
        assert_digest(
            &format!("serve {label} quiet federated-8 bounded"),
            serve_digest(&report),
            expected,
        );
    }
}

/// Runs the live overlay over the first eight days of the test-scale
/// ground truth and digests its day stats and ledger.
fn overlay(config: &OverlayConfig) -> (u64, SearchHealth) {
    let population = Population::generate(test_scale());
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x11fe);
    let truth = Dynamics::new(&population, &mut rng).run(&mut rng);
    let days = &truth.days[..truth.days.len().min(8)];
    let (stats, health) =
        simulate_overlay_health(days, truth.start_day, population.files.len(), config);
    let mut d = Digest::new();
    for &OverlayDayStats {
        day,
        requests,
        hits,
    } in &stats
    {
        d.u64(u64::from(day)).u64(requests).u64(hits);
    }
    (d.health(&health).finish(), health)
}

#[test]
fn churned_overlay_is_pinned() {
    let availability = churn_outages()
        .with_adversary(AdversaryConfig::sybils(ADVERSARY_SEED, 50).with_polluters(50))
        .with_reputation();
    let config = OverlayConfig::lru(20).with_availability(availability);
    assert_digest(
        "overlay LRU-20 churn outages adversary",
        overlay(&config).0,
        0x729a_1ca3_f063_2351,
    );
}

#[test]
fn random_overlay_probe_after_staleness_is_pinned() {
    // The overlay probes the list *after* the staleness and reputation
    // reactions, so a Random replacement drawn mid-walk can answer the
    // same attempt; the batch walk never stamps such a replacement.
    let availability = churn()
        .with_adversary(AdversaryConfig::sybils(ADVERSARY_SEED, 50).with_polluters(50))
        .with_reputation();
    let config = OverlayConfig {
        policy: PolicyKind::Random,
        ..OverlayConfig::lru(20)
    }
    .with_availability(availability);
    let (digest, health) = overlay(&config);
    assert!(health.evicted_stale > 0 && health.wasted_queries > 0);
    assert_digest(
        "overlay Random-20 churn adversary",
        digest,
        0x487f_7601_1670_634e,
    );
}
