//! Always-on query serving: the Section 5 batch simulator replayed as
//! a continuous, timed query stream through a sharded neighbour-list
//! store.
//!
//! The batch simulator ([`crate::sim`]) consumes the request stream in
//! one pass and reports totals; the real system it models — one live
//! eDonkey index serving tens of millions of queries ("Ten weeks in
//! the life of an eDonkey server", PAPERS.md) — serves *arrivals*:
//! queries land at simulated instants, wait in bounded ingress queues,
//! and observe latency. This module adds that serving plane without
//! giving up any of the repo's bit-identity guarantees:
//!
//! * **Sharding by querier.** [`SweepPrecomp`] proves request ranks and
//!   candidate uploader sets policy-independent (no outages, no
//!   two-hop), so each querier's replay is self-contained. Shards are
//!   contiguous querier ranges balanced by request count; any shard
//!   count and any thread count produce the same answers.
//! * **Tick-batched queues.** Arrivals enqueue into a bounded
//!   per-shard ingress queue; each simulated tick serves at most
//!   `service_per_tick` queries. A full queue *sheds* the arrival (the
//!   query never reaches the overlay plane: the acquisition is already
//!   pinned by the trace, but nothing is queried, recorded, or
//!   learned); a backlogged queue *defers* it (latency only). Both are
//!   accounted in a [`ServeHealth`] ledger that reconciles exactly.
//! * **Deterministic arrivals.** The nominal instant is the batch
//!   path's `t · span / len` milli-days; burst compression and
//!   `(seed, querier, tick)`-keyed splitmix64 jitter come from
//!   [`ArrivalProcess`] — no sequential RNG, so any shard can compute
//!   its own arrivals.
//! * **Latency accounting.** Simulated query latency = queue wait +
//!   one overlay round trip per attempt ([`QUERY_RTT_MD`]) + retry
//!   backoff (the availability timing model, under churn) + index
//!   routing cost on final misses ([`FED_HOP_LATENCY_MD`] per
//!   federation forward, [`DHT_HOP_LATENCY_MD`] per DHT hop) — recorded
//!   in a log-bucketed [`LatencyHistogram`] (HDR-style: exact below
//!   16 md, then 16 sub-buckets per octave, ≤ 6.25 % relative error).
//!
//! **One query step.** A served query runs the batch simulator's query
//! step — the same walk, attempt loop, miss resolution and adversarial
//! record step (`sim::QueryStep`, DESIGN.md §7) — clocked from its
//! *service* instant instead of the batch instant. Quiet cells run
//! the split path's kernel itself (`sim::simulate_querier_quiet`), in
//! two passes.
//! Without churn, adversaries or outages a query's outcome does not
//! depend on its service instant (the index reads the day only on
//! outage days); only the queue decides which queries are shed and how
//! long each waits. So the tick loop first records each served query
//! and its wait, then each querier's served queries replay back to
//! back, in service order, through the kernel.
//!
//! **Differential contract** (pinned by `tests/service_mode.rs` and
//! the service proptest): with unbounded queues and the identity
//! arrival process, a serving replay is bit-identical to
//! [`simulate_arena_health_with_scratch`] — same [`SimResult`], same
//! [`SearchHealth`], same final neighbour lists — for every policy
//! (including Random: the engine replays the batch path's
//! policy-construction draws) and, because service instants then equal
//! the batch path's query instants, even under churn and under an
//! adversarial plan. Bounded service moves the instants, and with them
//! which neighbours are offline; `tests/whole_cell_golden.rs` pins one
//! such replay.
//!
//! [`FED_HOP_LATENCY_MD`]: crate::index::FED_HOP_LATENCY_MD
//! [`DHT_HOP_LATENCY_MD`]: crate::index::DHT_HOP_LATENCY_MD
//! [`simulate_arena_health_with_scratch`]: crate::sim::simulate_arena_health_with_scratch

use std::collections::VecDeque;
use std::sync::Mutex;

use edonkey_trace::compact::CacheArena;
use edonkey_trace::par::parallel_map_init_threads;
pub use edonkey_workload::arrivals::{ArrivalConfig, ArrivalProcess};
use edonkey_workload::churn::{days_covering, ChurnSchedule};

use crate::neighbours::{AnyPolicy, Peer};
use crate::sim::{
    simulate_querier_quiet, AdversaryPlan, CellPartial, QueryRec, QueryState, QueryStep,
    SearchHealth, SimConfig, SimResult, SplitScratch, SweepPrecomp,
};

/// One overlay query round trip (ask the neighbours, hear back), in
/// simulated milli-days. Every attempt pays one; it is the latency
/// floor of an uncontended quiet hit.
pub const QUERY_RTT_MD: u64 = 1;

/// The serving engine's knobs on top of a [`SimConfig`].
///
/// The defaults are the *unconstrained* service: unbounded queues,
/// unbounded per-tick capacity, identity arrivals — the configuration
/// under which serving is bit-identical to the batch simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// The simulation cell being served. Two-hop and server-outage
    /// configs are rejected ([`serve_arena`] panics): two-hop reads
    /// other queriers' lists across shards, and outages break the
    /// arrival-invariance that sharding rests on.
    pub sim: SimConfig,
    /// How arrivals deviate from the uniform schedule.
    pub arrival: ArrivalConfig,
    /// Shard count (contiguous querier ranges; `peer_ranges` may merge
    /// underfull ones). Part of the cell identity: results are
    /// *thread*-invariant, while queue metrics naturally depend on how
    /// arrivals are partitioned.
    pub n_shards: usize,
    /// Tick width in simulated milli-days.
    pub tick_md: u64,
    /// Bounded ingress queue: arrivals beyond this many waiting
    /// queries are shed.
    pub queue_capacity: usize,
    /// Queries served per shard per tick.
    pub service_per_tick: usize,
}

impl ServeConfig {
    /// Unconstrained service for `sim` (the differential baseline).
    pub fn new(sim: SimConfig) -> Self {
        ServeConfig {
            sim,
            arrival: ArrivalConfig::none(),
            n_shards: 8,
            tick_md: 1,
            queue_capacity: usize::MAX,
            service_per_tick: usize::MAX,
        }
    }

    /// Replaces the arrival process.
    pub fn with_arrival(mut self, arrival: ArrivalConfig) -> Self {
        self.arrival = arrival;
        self
    }

    /// Replaces the shard count.
    pub fn with_shards(mut self, n_shards: usize) -> Self {
        self.n_shards = n_shards;
        self
    }

    /// Bounds the serving plane: `tick_md`-wide ticks, at most
    /// `queue_capacity` waiting queries, `service_per_tick` served per
    /// tick per shard.
    pub fn with_service(
        mut self,
        tick_md: u64,
        queue_capacity: usize,
        service_per_tick: usize,
    ) -> Self {
        self.tick_md = tick_md;
        self.queue_capacity = queue_capacity;
        self.service_per_tick = service_per_tick;
        self
    }

    /// The churn schedule of a replay of `requests` queries over
    /// `n_peers` peers. Its horizon covers the latest instant a
    /// service clock can reach: the last batch instant, plus the
    /// arrival jitter, plus the longest queue wait (a query waits
    /// behind at most `min(queue_capacity, requests)` others, served
    /// `service_per_tick` a tick), plus the whole retry backoff.
    fn schedule(&self, n_peers: usize, requests: u64) -> ChurnSchedule {
        let availability = &self.sim.availability;
        let span_millis = u64::from(availability.virtual_days.max(1)) * 1000;
        let queued = (self.queue_capacity.max(1) as u64).min(requests.max(1));
        let wait_ticks = queued.div_ceil(self.service_per_tick.max(1) as u64);
        let last_md = (span_millis - 1)
            .saturating_add(u64::from(self.arrival.jitter_md))
            .saturating_add(wait_ticks.saturating_mul(self.tick_md.max(1)))
            .saturating_add(availability.query.backoff_total());
        ChurnSchedule::new(availability.churn.clone(), n_peers, days_covering(last_md))
    }

    /// Panics unless the cell is servable (no two-hop, no outages).
    fn validate(&self) {
        assert!(
            !self.sim.two_hop,
            "service mode shards by querier; two-hop reads other shards' lists"
        );
        assert!(
            self.sim.availability.churn.outage_days.is_empty(),
            "service mode requires arrival invariance; server outages break it"
        );
    }
}

/// Log-bucketed latency histogram (HDR-style): values below 16 md are
/// exact; above, each power-of-two octave splits into 16 sub-buckets,
/// so any recorded value lands in a bucket whose floor is within
/// 1/16 ≈ 6.25 % of it. Buckets merge across shards by addition, and
/// percentiles report the bucket floor — both deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

/// 16 linear buckets + 16 sub-buckets for each octave `2^4 ..= 2^63`.
const HISTOGRAM_BUCKETS: usize = 16 + 60 * 16;

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; HISTOGRAM_BUCKETS],
            total: 0,
        }
    }

    /// The bucket index of a latency value.
    #[inline]
    fn bucket_index(v: u64) -> usize {
        if v < 16 {
            v as usize
        } else {
            let msb = 63 - u64::from(v.leading_zeros());
            let sub = (v >> (msb - 4)) & 15;
            ((msb - 3) * 16 + sub) as usize
        }
    }

    /// The smallest value that lands in bucket `idx` (percentiles
    /// report this floor).
    pub fn bucket_floor(idx: usize) -> u64 {
        if idx < 16 {
            idx as u64
        } else {
            let octave = (idx / 16) as u64;
            let sub = (idx % 16) as u64;
            (16 + sub) << (octave - 1)
        }
    }

    /// Records one latency sample (milli-days).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.total += 1;
    }

    /// Adds another histogram's counts (shard merge).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.total += other.total;
    }

    /// Number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The bucket floor at quantile `q ∈ (0, 1]` — the latency that at
    /// least `⌈q · total⌉` samples are at or below (up to bucket
    /// granularity). 0 on an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(idx);
            }
        }
        Self::bucket_floor(HISTOGRAM_BUCKETS - 1)
    }

    /// p50 / p99 / p999 in one call (the report triple).
    pub fn p50_p99_p999(&self) -> (u64, u64, u64) {
        (
            self.percentile(0.50),
            self.percentile(0.99),
            self.percentile(0.999),
        )
    }

    /// Non-empty buckets as `(index, count)`, in index order — the
    /// golden fixture's pinned representation.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The serving-plane ledger: every arrival of a service run, accounted
/// once, on top of the overlay plane's [`SearchHealth`]. Identities
/// (checked by [`ServeHealth::reconcile`]):
///
/// * `arrived == requests` (every request arrives exactly once)
/// * `served + shed == arrived`
/// * the embedded [`SearchHealth`] reconciles against `served` (shed
///   queries never reach the overlay plane), with `stranded == 0` —
///   service mode admits no server outages
/// * `deferred <= served`, `deferred_ticks >= deferred`, and
///   `deferred_ticks == 0` exactly when `deferred == 0`
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeHealth {
    /// The overlay plane's ledger over the served queries.
    pub search: SearchHealth,
    /// Queries that arrived at an ingress queue.
    pub arrived: u64,
    /// Queries dequeued and served.
    pub served: u64,
    /// Arrivals dropped at a full ingress queue.
    pub shed: u64,
    /// Served queries that waited at least one tick.
    pub deferred: u64,
    /// Total ticks waited across all served queries.
    pub deferred_ticks: u64,
    /// Deepest any ingress queue got (max over shards after a merge).
    pub max_queue_depth: u64,
}

impl ServeHealth {
    /// Checks the serving identities against raw totals. Returns a
    /// description of the first violated identity, if any.
    pub fn reconcile(&self, requests: u64, one_hop_hits: u64) -> Result<(), String> {
        if self.arrived != requests {
            return Err(format!("arrived {} != requests {requests}", self.arrived));
        }
        if self.served + self.shed != self.arrived {
            return Err(format!(
                "served {} + shed {} != arrived {}",
                self.served, self.shed, self.arrived
            ));
        }
        if self.search.stranded != 0 {
            return Err(format!(
                "stranded {} != 0 (service mode admits no outages)",
                self.search.stranded
            ));
        }
        // The overlay plane sees exactly the served queries.
        self.search.reconcile(self.served, one_hop_hits, 0)?;
        if self.deferred > self.served {
            return Err(format!(
                "deferred {} > served {}",
                self.deferred, self.served
            ));
        }
        if self.deferred_ticks < self.deferred || (self.deferred == 0 && self.deferred_ticks != 0) {
            return Err(format!(
                "deferred_ticks {} inconsistent with deferred {}",
                self.deferred_ticks, self.deferred
            ));
        }
        Ok(())
    }

    /// [`ServeHealth::reconcile`], panicking with the full cell label on
    /// violation — the same `(seed, list_size, churn_rate, backend)`
    /// identity [`SearchHealth::expect_reconciled`] carries, plus the
    /// serving plane's own coordinates: which shard, and how far it had
    /// ticked. The engine checks every shard's partial ledger as the
    /// shard finishes; "which cell, which shard" is the first question
    /// a failure raises.
    pub fn expect_reconciled(
        &self,
        requests: u64,
        one_hop_hits: u64,
        sim: &SimConfig,
        shard: usize,
        tick: u64,
    ) {
        if let Err(e) = self.reconcile(requests, one_hop_hits) {
            panic!(
                "ServeHealth failed to reconcile: {e} \
                 (seed {}, list_size {}, churn_rate {}, backend {}, shard {shard}, tick {tick})",
                sim.seed,
                sim.list_size,
                sim.availability.churn.churn_permille,
                sim.availability.backend.name()
            );
        }
    }

    /// Accumulates a shard partial (`max_queue_depth` by maximum,
    /// everything else by sum).
    fn merge(&mut self, other: &ServeHealth) {
        self.search += &other.search;
        self.arrived += other.arrived;
        self.served += other.served;
        self.shed += other.shed;
        self.deferred += other.deferred;
        self.deferred_ticks += other.deferred_ticks;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

/// What a service run reports: the batch-shaped result, the serving
/// ledger, the latency distribution, and per-shard load metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Batch-shaped totals ([`SimResult::requests`] counts *arrivals*;
    /// with sheds, hits can only come from the served subset).
    pub result: SimResult,
    /// The merged serving ledger.
    pub health: ServeHealth,
    /// Latency distribution over served queries, milli-days.
    pub latency: LatencyHistogram,
    /// Queries served per shard (the load vector).
    pub shard_load: Vec<u64>,
    /// Deepest ingress queue per shard.
    pub shard_max_depth: Vec<u64>,
    /// Last tick each shard served.
    pub shard_last_tick: Vec<u64>,
    /// Final neighbour list per peer — the policy state the
    /// differential tests compare against the batch run.
    pub lists: Vec<Vec<Peer>>,
}

/// One timed arrival: the resolved request plus its perturbed instant.
#[derive(Clone, Copy)]
struct Arrival {
    arr_md: u64,
    querier: u32,
    rec: QueryRec,
}

/// One shard's complete outcome; merging in shard order reproduces the
/// engine's report for any thread count. `part` is the overlay plane's
/// side (hits, messages, the [`SearchHealth`] that ends up in
/// `health.search`), the same partial a split sweep fills.
struct ShardOutcome {
    part: CellPartial,
    health: ServeHealth,
    latency: LatencyHistogram,
    last_tick: u64,
    lists: Vec<Vec<Peer>>,
}

/// Serves one cell with `available_parallelism` worker threads.
pub fn serve_arena(arena: &CacheArena, config: &ServeConfig) -> ServeReport {
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    serve_arena_threads(arena, config, threads)
}

/// [`serve_arena`] with an explicit worker count — the hook the
/// determinism tests use to prove reports are thread-invariant.
///
/// # Panics
///
/// Panics if the cell is two-hop or has server-outage days (see
/// [`ServeConfig::sim`]).
pub fn serve_arena_threads(
    arena: &CacheArena,
    config: &ServeConfig,
    threads: usize,
) -> ServeReport {
    config.validate();
    let sim = &config.sim;
    let (pre, mut rng) = SweepPrecomp::new_with_rng(arena, sim.seed);
    let n_peers = pre.n_peers;

    // Construct every peer's policy in peer order from the post-shuffle
    // generator — the exact draw sequence of the batch simulator, so
    // Random lists come out identical — then split the pool into
    // contiguous per-shard partitions.
    let sharer_pool: Vec<Peer> = (0..n_peers)
        .filter(|&p| !arena.cache(p).is_empty())
        .map(|p| p as Peer)
        .collect();
    let mut policies: Vec<AnyPolicy> = Vec::with_capacity(n_peers);
    for p in 0..n_peers {
        policies.push(AnyPolicy::new(
            sim.policy,
            sim.list_size,
            p as Peer,
            &sharer_pool,
            &mut rng,
        ));
    }
    // The cell's draws and query step, built once and read by every
    // shard.
    let schedule = config.schedule(n_peers, pre.requests);
    let plan = AdversaryPlan::new(sim.availability.adversary.clone(), n_peers);
    let router = sim.availability.backend.router(sim.seed);
    let step = QueryStep::new(
        &schedule,
        &router,
        &plan,
        &sim.availability,
        sim.policy,
        &sharer_pool,
    );
    let ranges = pre.peer_ranges(config.n_shards.max(1));
    let mut partitions: Vec<Vec<AnyPolicy>> = Vec::with_capacity(ranges.len());
    for &(lo, _) in ranges.iter().rev() {
        partitions.push(policies.split_off(lo as usize));
    }
    partitions.reverse();

    // Hand each shard its owned input through a take-once slot; workers
    // claim shards through the same order-preserving scheduler the
    // sweeps use.
    type ShardTask = (usize, (u32, u32), Mutex<Option<Vec<AnyPolicy>>>);
    let tasks: Vec<ShardTask> = ranges
        .iter()
        .zip(partitions)
        .enumerate()
        .map(|(shard, (&range, policies))| (shard, range, Mutex::new(Some(policies))))
        .collect();
    let outcomes: Vec<ShardOutcome> = parallel_map_init_threads(
        &tasks,
        threads.max(1),
        SplitScratch::new,
        |scratch, (shard, range, slot)| {
            let policies = slot
                .lock()
                .expect("shard input lock")
                .take()
                .expect("each shard input is taken exactly once");
            run_shard(
                arena, &pre, config, &step, *shard, *range, policies, scratch,
            )
        },
    );

    // Shard-order merge: disjoint querier sets, plain summation.
    let mut result = SimResult {
        requests: pre.requests,
        one_hop_hits: 0,
        two_hop_hits: 0,
        contributor_seeds: pre.contributor_seeds,
        messages_per_peer: vec![0; n_peers],
    };
    let mut health = ServeHealth::default();
    let mut latency = LatencyHistogram::new();
    let mut shard_load = Vec::with_capacity(outcomes.len());
    let mut shard_max_depth = Vec::with_capacity(outcomes.len());
    let mut shard_last_tick = Vec::with_capacity(outcomes.len());
    let mut lists = Vec::with_capacity(n_peers);
    for out in outcomes {
        result.one_hop_hits += out.part.one_hop_hits;
        for (dst, &src) in result.messages_per_peer.iter_mut().zip(&out.part.messages) {
            *dst += src;
        }
        health.merge(&out.health);
        latency.merge(&out.latency);
        shard_load.push(out.health.served);
        shard_max_depth.push(out.health.max_queue_depth);
        shard_last_tick.push(out.last_tick);
        lists.extend(out.lists);
    }
    debug_assert!(health
        .reconcile(result.requests, result.one_hop_hits)
        .is_ok());
    ServeReport {
        result,
        health,
        latency,
        shard_load,
        shard_max_depth,
        shard_last_tick,
        lists,
    }
}

/// Replays one shard: builds its timed arrivals, runs the tick loop,
/// and reconciles the shard's partial ledger before returning it.
///
/// Churned and adversarial cells run the query step inside the tick
/// loop, clocked from each query's service instant. Quiet cells run in
/// two passes. Without churn, adversaries or outages a query's outcome
/// does not depend on its service instant (the index reads the day only
/// on outage days), so the tick loop only decides which queries are
/// served and how long each waits. Then each querier's served queries
/// replay back to back, in service order, through the split path's
/// kernel, which also emits the querier's final list.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    arena: &CacheArena,
    pre: &SweepPrecomp,
    config: &ServeConfig,
    step: &QueryStep,
    shard: usize,
    (lo, hi): (u32, u32),
    mut policies: Vec<AnyPolicy>,
    scratch: &mut SplitScratch,
) -> ShardOutcome {
    let sim = &config.sim;
    let tick_md = config.tick_md.max(1);
    let process = ArrivalProcess::new(config.arrival);
    let virtual_days = sim.availability.virtual_days;

    // Timed arrivals for this shard's queriers, in service order:
    // `(arrival instant, stream position)` — the position tie-break
    // keeps the order total and deterministic.
    let mut arrivals: Vec<Arrival> = Vec::with_capacity(pre.requests_in(lo, hi) as usize);
    for p in lo..hi {
        for &rec in pre.requests_of(p) {
            let base_md = pre.batch_md(&rec, virtual_days);
            let arr_md = process.arrival_md(p, base_md / tick_md, base_md);
            arrivals.push(Arrival {
                arr_md,
                querier: p,
                rec,
            });
        }
    }
    arrivals.sort_unstable_by_key(|a| (a.arr_md, a.rec.t));

    let mut out = ShardOutcome {
        part: CellPartial::empty(pre.n_peers),
        health: ServeHealth::default(),
        latency: LatencyHistogram::new(),
        last_tick: 0,
        lists: Vec::new(),
    };
    let quiet = sim.availability.is_quiet();
    // Quiet cells: each served query with its wait, in service order.
    let mut served: Vec<(Arrival, u64)> = Vec::new();
    // Reputation books are querier-local (like the policies), so the
    // shard partition carries the whole defense state.
    let mut books = step.adv.books((hi - lo) as usize);
    let walk = &mut scratch.walk;
    walk.ensure(pre.n_peers);

    // The tick loop: enqueue this tick's arrivals (shedding past the
    // queue bound), then serve up to the per-tick capacity. An empty
    // queue fast-forwards to the next arrival's tick.
    let mut queue: VecDeque<Arrival> = VecDeque::new();
    let mut next = 0usize;
    let mut tick = 0u64;
    while next < arrivals.len() || !queue.is_empty() {
        tick = if queue.is_empty() {
            arrivals[next].arr_md / tick_md
        } else {
            tick + 1
        };
        while next < arrivals.len() && arrivals[next].arr_md / tick_md <= tick {
            out.health.arrived += 1;
            if queue.len() >= config.queue_capacity.max(1) {
                out.health.shed += 1;
            } else {
                queue.push_back(arrivals[next]);
            }
            next += 1;
        }
        out.health.max_queue_depth = out.health.max_queue_depth.max(queue.len() as u64);
        for _ in 0..config.service_per_tick.max(1) {
            let Some(arrival) = queue.pop_front() else {
                break;
            };
            let wait_ticks = tick - arrival.arr_md / tick_md;
            if wait_ticks > 0 {
                out.health.deferred += 1;
                out.health.deferred_ticks += wait_ticks;
            }
            out.health.served += 1;
            let wait_md = wait_ticks * tick_md;
            if quiet {
                served.push((arrival, wait_md));
                continue;
            }
            // The shared query step, clocked from the service instant
            // (the batch instant exactly when the query never waited).
            // Latency: a round trip per attempt, the backoff the
            // retries slept and the final miss's routing cost.
            let service_md = arrival.arr_md + wait_md;
            let rec = &arrival.rec;
            let mut st = QueryState {
                querier: arrival.querier,
                slot: (arrival.querier - lo) as usize,
                policies: &mut policies,
                books: &mut books,
                messages: &mut out.part.messages,
                health: &mut out.part.health,
            };
            let prefix = pre.prefix(rec);
            let run = step.attempts(&mut st, service_md, walk, |w, _, _, _| {
                w.first_marked(prefix).map(|s| (s, 1))
            });
            let fallback = || pre.fallback(rec);
            let acq = step
                .resolve(
                    st.health, st.querier, rec.file, run.found, run.at_md, fallback,
                )
                .expect("service mode has no outages, so every lookup resolves");
            step.record(&mut st, rec.file, u64::from(rec.t), acq, rec.rank);
            out.part.one_hop_hits += u64::from(acq.hop == 1);
            let rtts = u64::from(run.count) * QUERY_RTT_MD;
            out.latency
                .record(wait_md + rtts + run.elapsed + acq.route_md);
        }
    }
    out.last_tick = tick;

    if quiet {
        // A counting sort by querier slot keeps each querier's served
        // queries in service order, with their `(service instant,
        // queue wait)`.
        let n = policies.len();
        let mut off = vec![0u32; n + 1];
        for (a, _) in &served {
            off[(a.querier - lo) as usize + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut cursor = off[..n].to_vec();
        let mut recs = vec![QueryRec::BLANK; served.len()];
        let mut times = vec![(0u64, 0u64); served.len()];
        for &(a, wait_md) in &served {
            let i = &mut cursor[(a.querier - lo) as usize];
            recs[*i as usize] = a.rec;
            times[*i as usize] = (a.arr_md + wait_md, wait_md);
            *i += 1;
        }
        let latency = &mut out.latency;
        for (slot, policy) in policies.iter().enumerate() {
            let querier = lo + slot as u32;
            let (a, b) = (off[slot] as usize, off[slot + 1] as usize);
            let (recs, times) = (&recs[a..b], &times[a..b]);
            // Latency: the queue wait, one round trip and a final miss's
            // routing cost.
            let resolve = |q: usize, rec: &QueryRec, found: Option<Peer>, health: &mut _| {
                let (service_md, wait_md) = times[q];
                let found = found.map(|u| (u, 1));
                let acq = step
                    .resolve(health, querier, rec.file, found, service_md, || {
                        pre.fallback(rec)
                    })
                    .expect("service mode has no outages, so every lookup resolves");
                latency.record(wait_md + QUERY_RTT_MD + acq.route_md);
                acq.uploader
            };
            // Random's seeded list goes in, the final list comes out.
            let mut list = policy.snapshot();
            let (part, list_io) = (&mut out.part, Some(&mut list));
            simulate_querier_quiet(
                arena, pre, sim, recs, scratch, false, part, resolve, list_io,
            );
            out.lists.push(list);
        }
    } else {
        out.lists = policies.iter().map(AnyPolicy::snapshot).collect();
    }
    out.health.search = out.part.health;
    out.health.expect_reconciled(
        pre.requests_in(lo, hi),
        out.part.one_hop_hits,
        sim,
        shard,
        tick,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate_arena_health_with_scratch, AvailabilityConfig, SimScratch};
    use edonkey_trace::model::FileRef;
    use edonkey_workload::churn::QueryPolicy;

    /// A tight community: every peer shares the same files.
    fn community(n_peers: u32, n_files: u32) -> CacheArena {
        let caches: Vec<Vec<FileRef>> = (0..n_peers)
            .map(|_| (0..n_files).map(FileRef).collect())
            .collect();
        CacheArena::from_caches(&caches, n_files as usize)
    }

    #[test]
    fn histogram_buckets_are_exact_then_logarithmic() {
        for v in [0u64, 1, 15] {
            assert_eq!(LatencyHistogram::bucket_index(v), v as usize);
            assert_eq!(
                LatencyHistogram::bucket_floor(LatencyHistogram::bucket_index(v)),
                v
            );
        }
        // Above 16 the floor is within 1/16 of the value.
        for v in [16u64, 17, 100, 1_000, 123_456, u64::MAX / 3] {
            let floor = LatencyHistogram::bucket_floor(LatencyHistogram::bucket_index(v));
            assert!(floor <= v);
            assert!(v - floor <= v / 16, "{v} vs floor {floor}");
        }
        assert!(LatencyHistogram::bucket_index(u64::MAX) < HISTOGRAM_BUCKETS);
    }

    #[test]
    fn histogram_percentiles_walk_the_counts() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.total(), 100);
        let (p50, p99, p999) = h.p50_p99_p999();
        assert_eq!(p50, 50);
        assert!((96..=99).contains(&p99), "p99 {p99}");
        assert!((96..=100).contains(&p999), "p999 {p999}");
        let mut other = LatencyHistogram::new();
        other.record(7);
        other.merge(&h);
        assert_eq!(other.total(), 101);
    }

    #[test]
    fn unconstrained_serve_matches_batch_for_every_policy() {
        let arena = community(12, 30);
        for sim in [
            SimConfig::lru(5),
            SimConfig::history(5),
            SimConfig::random(5),
            SimConfig::rare_lru(5, 10),
        ] {
            let mut scratch = SimScratch::new();
            let (batch, batch_health) =
                simulate_arena_health_with_scratch(&arena, &sim, &mut scratch);
            let report = serve_arena_threads(&arena, &ServeConfig::new(sim.clone()), 2);
            assert_eq!(report.result, batch, "{:?}", sim.policy);
            assert_eq!(report.health.search, batch_health, "{:?}", sim.policy);
            assert_eq!(report.lists, scratch.final_lists(), "{:?}", sim.policy);
            assert_eq!(report.health.shed, 0);
            assert_eq!(report.health.deferred, 0);
            assert_eq!(report.latency.total(), report.health.served);
        }
    }

    #[test]
    fn unconstrained_churn_serve_matches_batch() {
        // With zero queue wait the service instants equal the batch
        // instants, so even the churn walk is bit-identical — Random
        // included (construction draws + stateless replacements).
        let arena = community(12, 30);
        for policy in [SimConfig::lru(6), SimConfig::random(6)] {
            let sim = policy.with_seed(9).with_availability(
                AvailabilityConfig::churn(77, 250).with_query(QueryPolicy::retry_evict()),
            );
            let mut scratch = SimScratch::new();
            let (batch, batch_health) =
                simulate_arena_health_with_scratch(&arena, &sim, &mut scratch);
            let report = serve_arena_threads(&arena, &ServeConfig::new(sim.clone()), 3);
            assert_eq!(report.result, batch, "{:?}", sim.policy);
            assert_eq!(report.health.search, batch_health, "{:?}", sim.policy);
            assert_eq!(report.lists, scratch.final_lists(), "{:?}", sim.policy);
        }
    }

    #[test]
    fn unconstrained_adversarial_serve_matches_batch() {
        // Adversarial cells ride the churn path; with zero queue wait
        // the service instants equal the batch instants, so refusals,
        // hijacks, pollution and the reputation defense replay the
        // batch sequence bit-for-bit — result, full ledger and final
        // lists, for every policy.
        let arena = community(30, 60);
        let adversary = crate::sim::AdversaryConfig::sybils(21, 150)
            .with_polluters(150)
            .with_freeriders(150);
        for policy in [
            SimConfig::lru(4),
            SimConfig::history(4),
            SimConfig::random(4),
            SimConfig::rare_lru(4, 10),
        ] {
            let sim = policy.with_seed(9).with_availability(
                AvailabilityConfig::churn(77, 250)
                    .with_query(QueryPolicy::retry_evict())
                    .with_adversary(adversary.clone())
                    .with_reputation(),
            );
            let mut scratch = SimScratch::new();
            let (batch, batch_health) =
                simulate_arena_health_with_scratch(&arena, &sim, &mut scratch);
            assert!(
                batch_health.wasted_queries > 0,
                "{:?}: the cell must actually exercise the adversary",
                sim.policy
            );
            let report = serve_arena_threads(&arena, &ServeConfig::new(sim.clone()), 3);
            assert_eq!(report.result, batch, "{:?}", sim.policy);
            assert_eq!(report.health.search, batch_health, "{:?}", sim.policy);
            assert_eq!(report.lists, scratch.final_lists(), "{:?}", sim.policy);
        }
    }

    #[test]
    fn reports_are_shard_merge_deterministic_across_threads() {
        let arena = community(16, 40);
        for sim in [
            SimConfig::lru(4),
            SimConfig::history(4),
            SimConfig::random(4),
            SimConfig::rare_lru(4, 10),
        ] {
            for (tick_md, capacity, per_tick, sheds) in [(10, 8, 2, false), (100, 2, 1, true)] {
                let config = ServeConfig::new(sim.clone())
                    .with_arrival(ArrivalConfig::bursty(5, 400, 20))
                    .with_service(tick_md, capacity, per_tick);
                let base = serve_arena_threads(&arena, &config, 1);
                let h = &base.health;
                assert!(!sheds || (h.shed > 0 && h.deferred > 0));
                for threads in [2usize, 8] {
                    let report = serve_arena_threads(&arena, &config, threads);
                    assert_eq!(report, base, "{:?} {capacity}", sim.policy);
                }
            }
        }
    }

    #[test]
    fn bounded_service_defers_and_bounded_queue_sheds() {
        let arena = community(16, 40);
        // One query per tick over wide ticks: the per-day request burst
        // must queue up behind the capacity.
        let deferring = ServeConfig::new(SimConfig::lru(4)).with_service(100, usize::MAX, 1);
        let report = serve_arena_threads(&arena, &deferring, 2);
        assert!(report.health.deferred > 0, "capacity 1 must defer");
        assert_eq!(report.health.shed, 0, "unbounded queue never sheds");
        assert_eq!(report.result.requests, report.health.arrived);

        let shedding = ServeConfig::new(SimConfig::lru(4)).with_service(100, 2, 1);
        let report = serve_arena_threads(&arena, &shedding, 2);
        assert!(report.health.shed > 0, "a 2-deep queue must shed");
        assert!(
            report.health.max_queue_depth <= 2 + 1,
            "depth is measured after the enqueue phase"
        );
        // Shed queries never reach the overlay plane, but the ledger
        // still reconciles exactly.
        report
            .health
            .reconcile(report.result.requests, report.result.one_hop_hits)
            .expect("shedding run must reconcile");
        assert!(report.health.served < report.health.arrived);
    }

    #[test]
    fn latency_counts_waits_backoffs_and_routing() {
        let arena = community(12, 30);
        // Quiet single server, no waits: every query costs exactly one
        // round trip.
        let quiet = serve_arena_threads(&arena, &ServeConfig::new(SimConfig::lru(5)), 2);
        assert_eq!(quiet.latency.percentile(1.0), QUERY_RTT_MD);

        // A forwarding backend adds routing cost to fallbacks only.
        let fed = serve_arena_threads(
            &arena,
            &ServeConfig::new(
                SimConfig::lru(5)
                    .with_backend(crate::index::IndexBackend::Federated { n_servers: 8 }),
            ),
            2,
        );
        assert_eq!(fed.result, quiet.result, "routing never changes answers");
        assert!(fed.health.search.forwarded > 0);
        assert!(fed.latency.percentile(1.0) > QUERY_RTT_MD);

        // Churn retries sleep through backoffs ≥ 60 md.
        let churn = serve_arena_threads(
            &arena,
            &ServeConfig::new(SimConfig::lru(5).with_availability(
                AvailabilityConfig::churn(3, 400).with_query(QueryPolicy::retry_evict()),
            )),
            2,
        );
        assert!(churn.health.search.retried > 0);
        assert!(churn.latency.percentile(1.0) >= 60);
    }

    #[test]
    #[should_panic(expected = "two-hop")]
    fn rejects_two_hop_cells() {
        let arena = community(4, 4);
        let config = ServeConfig::new(SimConfig::lru(2).with_two_hop());
        serve_arena_threads(&arena, &config, 1);
    }

    #[test]
    #[should_panic(
        expected = "(seed 42, list_size 5, churn_rate 250, backend dht_k3, shard 3, tick 99)"
    )]
    fn serve_health_panic_names_the_cell_shard_and_tick() {
        // A doctored ledger: one arrival went missing. The panic must
        // localize the full cell — seed, list size, churn rate and
        // backend kind, as the batch ledger's does — plus the serving
        // plane's own coordinates.
        let health = ServeHealth {
            arrived: 4,
            served: 5,
            shed: 0,
            ..ServeHealth::default()
        };
        let sim = SimConfig::lru(5).with_seed(42).with_availability(
            AvailabilityConfig::churn(7, 250)
                .with_backend(crate::index::IndexBackend::Dht { replication_k: 3 }),
        );
        health.expect_reconciled(5, 2, &sim, 3, 99);
    }

    #[test]
    fn serve_health_reconcile_rejects_each_violation() {
        let good = ServeHealth {
            search: SearchHealth {
                attempted: 5,
                answered: 3,
                server_fallback: 2,
                ..SearchHealth::default()
            },
            arrived: 6,
            served: 5,
            shed: 1,
            deferred: 2,
            deferred_ticks: 4,
            max_queue_depth: 3,
        };
        good.reconcile(6, 3).expect("the doctored-good ledger");
        assert!(good.reconcile(7, 3).unwrap_err().contains("arrived"));
        let bad = ServeHealth { shed: 2, ..good };
        assert!(bad.reconcile(6, 3).unwrap_err().contains("shed"));
        let bad = ServeHealth {
            search: SearchHealth {
                stranded: 1,
                ..good.search
            },
            ..good
        };
        assert!(bad.reconcile(6, 3).unwrap_err().contains("stranded"));
        let bad = ServeHealth {
            deferred: 6,
            deferred_ticks: 6,
            ..good
        };
        assert!(bad.reconcile(6, 3).unwrap_err().contains("deferred"));
        let bad = ServeHealth {
            deferred: 0,
            deferred_ticks: 1,
            ..good
        };
        assert!(bad.reconcile(6, 3).unwrap_err().contains("deferred_ticks"));
    }
}
