//! The trace-driven search simulation of Section 5.1.
//!
//! The simulator replays a static cache set as a request stream:
//!
//! 1. Pick a uniformly random `(peer, pending file)` pair and remove it
//!    from the peer's pending list.
//! 2. If nobody currently shares the file, the peer is its *original
//!    contributor*: the file just enters the peer's (simulated) cache.
//! 3. Otherwise the peer *requests* the file: it queries its semantic
//!    neighbours (and, in two-hop mode, their neighbours); a **hit**
//!    means some queried peer currently shares the file. On a miss the
//!    peer falls back to the server. Either way it obtains the file,
//!    starts sharing it, and the uploader is recorded in its neighbour
//!    list (head of LRU / counter bump for History).
//!
//! Load accounting: every request sends one message to each of the
//! requester's (one-hop) semantic neighbours, which is how the paper's
//! Fig. 22 counts "messages per client".
//!
//! # Availability
//!
//! With a non-quiet [`AvailabilityConfig`] the simulator consults a
//! deterministic [`ChurnSchedule`]: the static request stream is spread
//! over `virtual_days` of simulated time, queries to offline neighbours
//! time out (no message delivered, no mark stamped), the querier
//! retries per its [`QueryPolicy`] with backoff in simulated time, and
//! stale entries get the per-policy reaction of
//! [`AnyPolicy::handle_stale`]. Day-scoped server outages strand final
//! misses: the file is not acquired and nothing is recorded. A
//! [`SearchHealth`] ledger accounts for every attempt and reconciles
//! exactly against the [`SimResult`] totals. When the schedule is quiet
//! the whole layer is a no-op and results are bit-identical to the
//! pre-availability simulator ([`simulate_reference`] is the pinned
//! oracle).

use edonkey_trace::compact::CacheArena;
use edonkey_trace::model::FileRef;
pub use edonkey_workload::adversary::{AdversaryConfig, AdversaryPlan};
use edonkey_workload::churn::days_covering;
pub use edonkey_workload::churn::{ChurnConfig, ChurnSchedule, QueryPolicy};
use edonkey_workload::mix::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::ops::AddAssign;
use std::time::Instant;

use crate::index::{IndexBackend, IndexRoute, IndexRouter, DHT_HOP_LATENCY_MD, FED_HOP_LATENCY_MD};
use crate::neighbours::{
    AnyPolicy, NeighbourPolicy, Peer, PolicyKind, ReputationBook, StaleReaction,
};

/// Stateless server-fallback pick: which of the `len` current sharers
/// uploads on a miss at stream position `t`, drawn by a splitmix64
/// finalizer over `(seed, t)` — the same construction the churn
/// schedule uses for its replacement draws.
///
/// Being a pure function of the stream position (instead of a draw from
/// the simulation's sequential RNG) is what lets the split-cell sweep
/// replay any querier's requests independently and still agree
/// bit-for-bit with [`simulate_reference`].
#[inline]
pub(crate) fn fallback_index(seed: u64, t: u64, len: usize) -> usize {
    debug_assert!(len > 0);
    let z = splitmix64(seed ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (z % len as u64) as usize
}

/// The availability regime a simulation runs under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AvailabilityConfig {
    /// Who is offline when, and which days the server is down.
    pub churn: ChurnConfig,
    /// The querier's timeout reaction (retries, backoff, staleness).
    pub query: QueryPolicy,
    /// How many simulated days the static request stream spans (the
    /// trace-driven stream has no timestamps of its own). Irrelevant —
    /// but still bit-identically harmless — when `churn` is quiet.
    pub virtual_days: u32,
    /// Which index backend resolves final misses (and how `outage_days`
    /// degrade it). [`IndexBackend::SingleServer`] is the pre-trait
    /// behaviour, bit-for-bit.
    pub backend: IndexBackend,
    /// Which peers play sybil / polluter / free-rider on which days
    /// (quiet by default — nobody attacks).
    pub adversary: AdversaryConfig,
    /// Arms the per-neighbour reputation defense: adversarially
    /// recorded neighbours are scored on every refused answer and
    /// hard-removed once the score fires. A no-op — mechanically, not
    /// just statistically — when the adversary plan is quiet, because
    /// suspects only enter the book through adversarial records.
    pub reputation: bool,
}

/// Default span: the 14-day windows the Section 4 figures use.
const DEFAULT_VIRTUAL_DAYS: u32 = 14;

impl AvailabilityConfig {
    /// Always-on peers, always-up server, single attempts: the paper's
    /// implicit regime, and the bit-identity baseline.
    pub fn none() -> Self {
        AvailabilityConfig {
            churn: ChurnConfig::none(),
            query: QueryPolicy::no_retry(),
            virtual_days: DEFAULT_VIRTUAL_DAYS,
            backend: IndexBackend::SingleServer,
            adversary: AdversaryConfig::none(),
            reputation: false,
        }
    }

    /// Session churn at `churn_permille` (see [`ChurnConfig`]) under
    /// the given schedule seed, single attempts.
    pub fn churn(seed: u64, churn_permille: u32) -> Self {
        AvailabilityConfig {
            churn: ChurnConfig::with_rate(seed, churn_permille),
            ..Self::none()
        }
    }

    /// Replaces the query policy.
    pub fn with_query(mut self, query: QueryPolicy) -> Self {
        self.query = query;
        self
    }

    /// Adds server-outage days (offsets into the virtual span).
    pub fn with_outages(mut self, days: Vec<u32>) -> Self {
        self.churn.outage_days = days;
        self
    }

    /// Replaces the index backend.
    pub fn with_backend(mut self, backend: IndexBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces the adversary plan.
    pub fn with_adversary(mut self, adversary: AdversaryConfig) -> Self {
        self.adversary = adversary;
        self
    }

    /// Arms the reputation defense.
    pub fn with_reputation(mut self) -> Self {
        self.reputation = true;
        self
    }

    /// True iff the availability layer cannot affect the simulation.
    pub fn is_quiet(&self) -> bool {
        self.churn.is_quiet() && self.adversary.is_quiet()
    }

    /// The churn schedule of a batch run over `n_peers` peers. Its
    /// horizon covers the last first attempt (`virtual_days` in) plus
    /// the policy's whole retry backoff (DESIGN.md §7).
    pub fn schedule(&self, n_peers: usize) -> ChurnSchedule {
        let span_millis = u64::from(self.virtual_days.max(1)) * 1000;
        let last_md = (span_millis - 1).saturating_add(self.query.backoff_total());
        ChurnSchedule::new(self.churn.clone(), n_peers, days_covering(last_md))
    }
}

impl Default for AvailabilityConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Simulation parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Neighbour list length (the paper sweeps 5–200).
    pub list_size: usize,
    /// Which policy maintains the lists.
    pub policy: PolicyKind,
    /// Also query neighbours' neighbours on a one-hop miss (Fig. 23).
    pub two_hop: bool,
    /// RNG seed for the request order and uploader picks.
    pub seed: u64,
    /// Peer-availability regime (quiet by default).
    pub availability: AvailabilityConfig,
}

impl SimConfig {
    /// LRU with the given list size — the paper's default setup.
    pub fn lru(list_size: usize) -> Self {
        SimConfig {
            list_size,
            policy: PolicyKind::Lru,
            two_hop: false,
            seed: 0x5eed,
            availability: AvailabilityConfig::none(),
        }
    }

    /// Same, with the History policy.
    pub fn history(list_size: usize) -> Self {
        SimConfig {
            policy: PolicyKind::History,
            ..Self::lru(list_size)
        }
    }

    /// Same, with the Random benchmark.
    pub fn random(list_size: usize) -> Self {
        SimConfig {
            policy: PolicyKind::Random,
            ..Self::lru(list_size)
        }
    }

    /// LRU recording only uploads of files with at most `max_sources`
    /// sources — the rare-file "popularity" policy of Section 5.3.2.
    pub fn rare_lru(list_size: usize, max_sources: u32) -> Self {
        SimConfig {
            policy: PolicyKind::RareLru { max_sources },
            ..Self::lru(list_size)
        }
    }

    /// Enables two-hop search.
    pub fn with_two_hop(mut self) -> Self {
        self.two_hop = true;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs under the given availability regime.
    pub fn with_availability(mut self, availability: AvailabilityConfig) -> Self {
        self.availability = availability;
        self
    }

    /// Replaces the index backend (keeping the rest of the availability
    /// regime).
    pub fn with_backend(mut self, backend: IndexBackend) -> Self {
        self.availability.backend = backend;
        self
    }
}

/// The availability ledger: every query attempt of a simulation run,
/// accounted once. Identities (checked by [`SearchHealth::reconcile`]):
///
/// * `answered == one_hop_hits + two_hop_hits`
/// * `answered + server_fallback + stranded == requests`
/// * `attempted == requests + retried`
/// * `recovered <= answered`
/// * `forwarded == dht_hops == 0` when no fallback lookup ever ran
///   (`server_fallback + stranded == 0`) — routing hops only accrue on
///   index lookups.
/// * `polluted_acquisitions <= server_fallback` — pollution only
///   strikes acquisitions the index resolved.
/// * `sybil_slots_held <= answered + server_fallback` — a slot is only
///   hijacked where a genuine record would have landed.
/// * `reputation_evictions == 0` when
///   `sybil_slots_held + polluted_acquisitions == 0` — the defense only
///   scores peers that entered a list adversarially.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchHealth {
    /// Query attempts issued (initial attempts plus retries).
    pub attempted: u64,
    /// Requests answered by the overlay (one- or two-hop).
    pub answered: u64,
    /// Individual neighbour queries that timed out (offline peer).
    pub timed_out: u64,
    /// Retry attempts (beyond each request's first attempt).
    pub retried: u64,
    /// Stale entries evicted (or replaced) after a timeout.
    pub evicted_stale: u64,
    /// Stale entries probed/demoted after a timeout (History).
    pub probed_stale: u64,
    /// Final misses resolved by the fallback server.
    pub server_fallback: u64,
    /// Final misses during a server outage: the request failed
    /// entirely — nothing acquired, nothing recorded.
    pub stranded: u64,
    /// Requests the overlay answered *during* a server outage — what
    /// server-less search rescued when there was no fallback.
    pub recovered: u64,
    /// Inter-server forward hops taken by fallback lookups (federated
    /// backend; zero for the single server and the DHT).
    pub forwarded: u64,
    /// XOR-routing hops taken by fallback lookups (DHT backend; zero
    /// otherwise).
    pub dht_hops: u64,
    /// Queries delivered to an online adversary that refused to answer
    /// (message paid, nothing gained; not a timeout).
    pub wasted_queries: u64,
    /// Neighbour-list records captured by a sybil impersonating the
    /// genuine uploader.
    pub sybil_slots_held: u64,
    /// Server-fallback acquisitions resolved through a poisoned index
    /// record (the file still arrives; the recorded uploader is the
    /// polluter).
    pub polluted_acquisitions: u64,
    /// Neighbours hard-removed by the reputation defense.
    pub reputation_evictions: u64,
}

impl SearchHealth {
    /// Checks the ledger identities against raw totals. Returns a
    /// description of the first violated identity, if any.
    pub fn reconcile(
        &self,
        requests: u64,
        one_hop_hits: u64,
        two_hop_hits: u64,
    ) -> Result<(), String> {
        let hits = one_hop_hits + two_hop_hits;
        if self.answered != hits {
            return Err(format!(
                "answered {} != one_hop + two_hop hits {hits}",
                self.answered
            ));
        }
        let resolved = self.answered + self.server_fallback + self.stranded;
        if resolved != requests {
            return Err(format!(
                "answered {} + server_fallback {} + stranded {} = {resolved} != requests {requests}",
                self.answered, self.server_fallback, self.stranded
            ));
        }
        if self.attempted != requests + self.retried {
            return Err(format!(
                "attempted {} != requests {requests} + retried {}",
                self.attempted, self.retried
            ));
        }
        if self.recovered > self.answered {
            return Err(format!(
                "recovered {} > answered {}",
                self.recovered, self.answered
            ));
        }
        if self.server_fallback + self.stranded == 0 && self.forwarded + self.dht_hops != 0 {
            return Err(format!(
                "forwarded {} + dht_hops {} nonzero without any fallback lookup",
                self.forwarded, self.dht_hops
            ));
        }
        if self.polluted_acquisitions > self.server_fallback {
            return Err(format!(
                "polluted_acquisitions {} > server_fallback {}",
                self.polluted_acquisitions, self.server_fallback
            ));
        }
        if self.sybil_slots_held > self.answered + self.server_fallback {
            return Err(format!(
                "sybil_slots_held {} > answered {} + server_fallback {}",
                self.sybil_slots_held, self.answered, self.server_fallback
            ));
        }
        if self.sybil_slots_held + self.polluted_acquisitions == 0 && self.reputation_evictions != 0
        {
            return Err(format!(
                "reputation_evictions {} nonzero without any adversarial record",
                self.reputation_evictions
            ));
        }
        Ok(())
    }

    /// [`SearchHealth::reconcile`] against a [`SimResult`].
    pub fn check_against(&self, result: &SimResult) -> Result<(), String> {
        self.reconcile(result.requests, result.one_hop_hits, result.two_hop_hits)
    }

    /// [`SearchHealth::check_against`], panicking with the cell
    /// identity on violation. Sweep matrices run hundreds of cells;
    /// "which cell" is the first question a failure raises, so the
    /// message carries `(seed, list_size, churn_rate, backend)`
    /// alongside the violated identity — the backend kind matters
    /// because the forwarding backends (`federated{n}`, `dht_k{k}`)
    /// take a different routing path than the single server, and a
    /// hop-accounting bug would otherwise point at the wrong cell.
    pub fn expect_reconciled(&self, result: &SimResult, config: &SimConfig) {
        if let Err(e) = self.check_against(result) {
            panic!(
                "SearchHealth failed to reconcile: {e} \
                 (seed {}, list_size {}, churn_rate {}, backend {})",
                config.seed,
                config.list_size,
                config.availability.churn.churn_permille,
                config.availability.backend.name()
            );
        }
    }
}

/// Field-wise sum: ledgers over disjoint request sets (split-cell
/// ranges, serve shards) merge by addition. A new field must join the
/// sum; `health_sum_adds_every_field_to_itself` fails until it does.
impl AddAssign<&SearchHealth> for SearchHealth {
    fn add_assign(&mut self, other: &SearchHealth) {
        self.attempted += other.attempted;
        self.answered += other.answered;
        self.timed_out += other.timed_out;
        self.retried += other.retried;
        self.evicted_stale += other.evicted_stale;
        self.probed_stale += other.probed_stale;
        self.server_fallback += other.server_fallback;
        self.stranded += other.stranded;
        self.recovered += other.recovered;
        self.forwarded += other.forwarded;
        self.dht_hops += other.dht_hops;
        self.wasted_queries += other.wasted_queries;
        self.sybil_slots_held += other.sybil_slots_held;
        self.polluted_acquisitions += other.polluted_acquisitions;
        self.reputation_evictions += other.reputation_evictions;
    }
}

/// Simulation outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Requests actually simulated (pairs whose file already had a
    /// sharer).
    pub requests: u64,
    /// Requests answered by a one-hop semantic neighbour.
    pub one_hop_hits: u64,
    /// Requests answered only at the second hop (zero unless two-hop).
    pub two_hop_hits: u64,
    /// Pairs that seeded the system (no prior sharer).
    pub contributor_seeds: u64,
    /// Messages received per peer (Fig. 22's load distribution).
    pub messages_per_peer: Vec<u64>,
}

impl SimResult {
    /// Total hits (one-hop plus two-hop).
    pub fn hits(&self) -> u64 {
        self.one_hop_hits + self.two_hop_hits
    }

    /// Hit rate in `[0,1]`; 0 when no requests were simulated.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.hits() as f64 / self.requests as f64
    }

    /// Mean messages per peer over peers that received any.
    pub fn mean_load(&self) -> f64 {
        // Single fold, no intermediate allocation.
        let (sum, busy) = self
            .messages_per_peer
            .iter()
            .filter(|&&m| m > 0)
            .fold((0u64, 0u64), |(s, n), &m| (s + m, n + 1));
        if busy == 0 {
            0.0
        } else {
            sum as f64 / busy as f64
        }
    }

    /// Peak messages on any single peer.
    pub fn max_load(&self) -> u64 {
        self.messages_per_peer.iter().copied().max().unwrap_or(0)
    }

    /// Per-peer load sorted descending — the Fig. 22 curve
    /// (`messages` vs `client by rank`), zero-load peers omitted.
    pub fn load_by_rank(&self) -> Vec<u64> {
        let mut loads: Vec<u64> = self
            .messages_per_peer
            .iter()
            .copied()
            .filter(|&m| m > 0)
            .collect();
        loads.sort_unstable_by(|a, b| b.cmp(a));
        loads
    }
}

/// Runs the Section 5.1 simulation over a static cache set.
///
/// `caches[p]` is the potential request set of peer `p` (its cache in
/// the trace). Peers with empty caches are free-riders: they issue no
/// requests (the paper's request model has no free-rider requests) and,
/// holding nothing, never appear in neighbour lists.
///
/// # Examples
///
/// ```
/// use edonkey_semsearch::sim::{simulate, SimConfig};
/// use edonkey_trace::model::FileRef;
///
/// // Two peers with identical two-file caches: whoever requests second
/// // finds the first via the fallback, then hits on the second file.
/// let caches = vec![
///     vec![FileRef(0), FileRef(1)],
///     vec![FileRef(0), FileRef(1)],
/// ];
/// let result = simulate(&caches, 2, &SimConfig::lru(5));
/// assert_eq!(result.requests + result.contributor_seeds, 4);
/// ```
pub fn simulate(caches: &[Vec<FileRef>], n_files: usize, config: &SimConfig) -> SimResult {
    let arena = CacheArena::from_caches(caches, n_files);
    simulate_arena(&arena, config)
}

/// [`simulate`], also returning the availability ledger.
pub fn simulate_health(
    caches: &[Vec<FileRef>],
    n_files: usize,
    config: &SimConfig,
) -> (SimResult, SearchHealth) {
    let arena = CacheArena::from_caches(caches, n_files);
    simulate_arena_health_with_scratch(&arena, config, &mut SimScratch::new())
}

/// Arena-backed [`simulate`] with fresh scratch buffers.
pub fn simulate_arena(arena: &CacheArena, config: &SimConfig) -> SimResult {
    simulate_arena_with_scratch(arena, config, &mut SimScratch::new())
}

/// Reusable simulation buffers.
///
/// One `simulate` run needs a request stream, a per-file sharer table
/// and a per-peer membership mark; across a sweep those allocations
/// dwarf the useful work for small traces. A `SimScratch` carried from
/// run to run (e.g. one per worker thread via
/// [`crate::experiment::parallel_map_init`]) reuses them: vectors are
/// cleared, not freed, and the mark array is invalidated by bumping a
/// generation counter instead of being rewritten.
#[derive(Debug, Default)]
pub struct SimScratch {
    stream: Vec<(u32, FileRef)>,
    /// Arrival-ordered sharers per file, flat CSR: `sharer_rows[f]` is
    /// file `f`'s `(row offset into sharer_flat, live width)`, one load
    /// per request. Every replica in the stream eventually lands in its
    /// file's row, so the final row widths are the per-file replica
    /// counts — known before the run starts. Two pooled buffers replace
    /// one heap `Vec` per shared file.
    sharer_rows: Vec<(u32, u32)>,
    sharer_flat: Vec<Peer>,
    /// The query step's walk buffers, including the membership marks.
    walk: WalkScratch,
    /// Pooled per-peer neighbour policies, renewed in place each run
    /// ([`AnyPolicy::renew`] replays the construction draw sequence, so
    /// reuse is invisible to the RNG stream).
    policies: Vec<AnyPolicy>,
    /// Pooled candidate pool (the non-free-riders) for random lists.
    sharer_pool: Vec<Peer>,
    /// Two-hop probe: the requested file's sharers that would answer
    /// now, in arrival order, and — when there are many of them —
    /// their ranks: `sharer_at[p] == (walk generation, i)` ⇔ `p` is
    /// `answering[i]`.
    answering: Vec<Peer>,
    sharer_at: Vec<(u64, u32)>,
}

impl SimScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Neighbour-list snapshot after the last run, in peer order — the
    /// final policy state the service-mode differential tests compare
    /// against. Empty before the first run.
    pub fn final_lists(&self) -> Vec<Vec<Peer>> {
        self.policies.iter().map(AnyPolicy::snapshot).collect()
    }
}

/// The walk's buffers: one set per worker, reused across requests.
#[derive(Debug, Default)]
pub(crate) struct WalkScratch {
    /// `mark[p] == generation` ⇔ peer `p` is an *online, queried*
    /// neighbour of the current attempt. Stale entries are invalidated
    /// by the generation bump — never by clearing the array.
    mark: Vec<u64>,
    generation: u64,
    /// Per-attempt copy of the querier's list: staleness and reputation
    /// reactions mutate the list mid-walk.
    query_buf: Vec<Peer>,
    /// Per-request consecutive-timeout streaks `(neighbour, streak)` —
    /// the previous attempt's and the one being walked.
    stale_prev: Vec<(Peer, u32)>,
    stale_cur: Vec<(Peer, u32)>,
}

impl WalkScratch {
    /// Grows the mark array to cover `n_peers` peers.
    pub(crate) fn ensure(&mut self, n_peers: usize) {
        if self.mark.len() < n_peers {
            self.mark.resize(n_peers, 0);
        }
    }

    /// The first of `sharers` the last walk queried while online — the
    /// one-hop answer, in sharer (arrival) order.
    #[inline]
    pub(crate) fn first_marked(&self, sharers: &[Peer]) -> Option<Peer> {
        sharers
            .iter()
            .copied()
            .find(|&s| self.mark[s as usize] == self.generation)
    }
}

/// The adversary side of a run, resolved once: the role plan, whether
/// it is quiet, whether the reputation defense is armed (only against a
/// non-quiet plan, which is what makes `reputation` mechanically free
/// on honest runs) and the backend's pollution exposure.
#[derive(Clone, Copy)]
pub(crate) struct AdversaryCtx<'a> {
    plan: &'a AdversaryPlan,
    quiet: bool,
    defend: bool,
    exposure: u32,
}

impl AdversaryCtx<'_> {
    /// One reputation book per querier slot when defending; none
    /// otherwise (the books are never consulted then).
    pub(crate) fn books(&self, slots: usize) -> Vec<ReputationBook> {
        if self.defend {
            vec![ReputationBook::default(); slots]
        } else {
            Vec::new()
        }
    }
}

/// What one request of the query step reads and writes on the querier's
/// side: its policy and reputation book (`slot` indexes both tables —
/// the peer id in whole-run tables, the offset in a shard's), the
/// per-peer message loads (empty when the kernel counts none) and the
/// ledger.
pub(crate) struct QueryState<'a> {
    pub(crate) querier: Peer,
    pub(crate) slot: usize,
    pub(crate) policies: &'a mut [AnyPolicy],
    pub(crate) books: &'a mut [ReputationBook],
    pub(crate) messages: &'a mut [u64],
    pub(crate) health: &'a mut SearchHealth,
}

/// How an attempt loop ended: the answer and the hop it came from, the
/// last attempt's instant (milli-days), the attempts made and the
/// backoff slept between them.
pub(crate) struct Attempts {
    pub(crate) found: Option<(Peer, u8)>,
    pub(crate) at_md: u64,
    pub(crate) count: u32,
    pub(crate) elapsed: u64,
}

/// A request that acquired its file: who uploads it, the hop that
/// answered (0 for the server fallback) and the index lookup's routing
/// latency.
#[derive(Clone, Copy)]
pub(crate) struct Acquired {
    pub(crate) uploader: Peer,
    pub(crate) hop: u8,
    pub(crate) route_md: u64,
}

/// Counts one message to `peer` — unless the ledger is empty (the live
/// overlay keeps none).
#[inline]
fn count(messages: &mut [u64], peer: Peer) {
    if let Some(m) = messages.get_mut(peer as usize) {
        *m += 1;
    }
}

/// `(day, milli)` of an instant in milli-days.
#[inline]
fn day_milli(md: u64) -> (u32, u32) {
    ((md / 1000) as u32, (md % 1000) as u32)
}

/// The Section 5 query step (DESIGN.md §7), written once for every
/// kernel. Each request runs [`QueryStep::attempts`] (walk + the
/// kernel's probe, retried), [`QueryStep::resolve`] and
/// [`QueryStep::record`]: the whole-cell kernel with its one-hop +
/// two-hop probe, the split-churn and churned-serve kernels with the
/// one-hop prefix scan, and the live overlay with no message ledger and
/// its own post-reaction probe. Built once per run (per range on the
/// split path) and only read.
pub(crate) struct QueryStep<'a> {
    schedule: &'a ChurnSchedule,
    /// `schedule.is_quiet()`: nobody is ever offline.
    quiet: bool,
    query: QueryPolicy,
    policy: PolicyKind,
    /// Random replacements are drawn from here (the non-free-riders).
    sharer_pool: &'a [Peer],
    router: &'a IndexRouter,
    pub(crate) adv: AdversaryCtx<'a>,
}

impl<'a> QueryStep<'a> {
    pub(crate) fn new(
        schedule: &'a ChurnSchedule,
        router: &'a IndexRouter,
        plan: &'a AdversaryPlan,
        availability: &AvailabilityConfig,
        policy: PolicyKind,
        sharer_pool: &'a [Peer],
    ) -> Self {
        QueryStep {
            schedule,
            quiet: schedule.is_quiet(),
            query: availability.query,
            policy,
            sharer_pool,
            router,
            adv: AdversaryCtx {
                plan,
                quiet: plan.is_quiet(),
                defend: availability.reputation && !plan.is_quiet(),
                exposure: availability.backend.pollution_exposure(),
            },
        }
    }

    /// Is `peer` offline at `(day, milli)`?
    #[inline]
    fn offline(&self, peer: Peer, day: u32, milli: u32) -> bool {
        !self.quiet && self.schedule.offline(peer, day, milli)
    }

    /// Would `peer` answer a query at `(day, milli)`: online and honest.
    #[inline]
    pub(crate) fn answers(&self, peer: Peer, day: u32, milli: u32) -> bool {
        !self.offline(peer, day, milli) && (self.adv.quiet || !self.adv.plan.answers_nothing(peer))
    }

    /// The slot refill for `stale`, dropped from `querier`'s list on
    /// `day`. Only the Random policy wants one; it is drawn statelessly
    /// so the main RNG sequence never moves.
    #[inline]
    fn replacement(&self, querier: Peer, stale: Peer, day: u32) -> Option<Peer> {
        let sharer_pool = self.sharer_pool;
        match self.policy {
            PolicyKind::Random if !sharer_pool.is_empty() => {
                let i = self
                    .schedule
                    .replacement_index(querier, stale, day, sharer_pool.len());
                Some(sharer_pool[i])
            }
            _ => None,
        }
    }

    /// One attempt over a copy of the querier's list. An offline
    /// neighbour times out (no message, no mark); an online adversary
    /// refuses (a message, no mark — not a timeout, so only the
    /// reputation score can clear the slot). Every other neighbour
    /// costs one message and is marked. Returns whether anything timed
    /// out. Reactions edit the list mid-walk, so the walk reads a copy.
    #[inline(always)]
    fn walk(&self, st: &mut QueryState, day: u32, milli: u32, w: &mut WalkScratch) -> bool {
        w.generation += 1;
        let mut saw_timeout = false;
        w.query_buf.clear();
        w.query_buf
            .extend_from_slice(st.policies[st.slot].neighbours());
        w.stale_cur.clear();
        for &n in w.query_buf.iter() {
            if self.offline(n, day, milli) {
                saw_timeout = true;
                self.time_out(st, n, day, &w.stale_prev, &mut w.stale_cur);
            } else if !self.adv.quiet && self.adv.plan.answers_nothing(n) {
                self.refuse(st, n, day);
            } else {
                count(st.messages, n);
                w.mark[n as usize] = w.generation;
            }
        }
        std::mem::swap(&mut w.stale_prev, &mut w.stale_cur);
        saw_timeout
    }

    /// A timeout of `n`, which after `stale_after` consecutive timeouts
    /// within the request gets the policy's staleness reaction.
    /// `stale_prev` holds the previous attempt's streaks; this
    /// attempt's go to `stale_cur`.
    #[inline(never)]
    fn time_out(
        &self,
        st: &mut QueryState,
        n: Peer,
        day: u32,
        stale_prev: &[(Peer, u32)],
        stale_cur: &mut Vec<(Peer, u32)>,
    ) {
        st.health.timed_out += 1;
        if !self.query.handle_stale {
            return;
        }
        let streak = stale_prev
            .iter()
            .find(|&&(p, _)| p == n)
            .map_or(1, |&(_, s)| s + 1);
        stale_cur.push((n, streak));
        if streak >= self.query.stale_after.max(1) {
            let replacement = self.replacement(st.querier, n, day);
            match st.policies[st.slot].handle_stale(n, replacement) {
                StaleReaction::Evicted | StaleReaction::Replaced => st.health.evicted_stale += 1,
                StaleReaction::Probed => st.health.probed_stale += 1,
                StaleReaction::Kept => {}
            }
        }
    }

    /// A refusal by the online adversary `n`: the query costs a message
    /// and is wasted; the armed defense scores it and may expel `n`.
    #[inline(never)]
    fn refuse(&self, st: &mut QueryState, n: Peer, day: u32) {
        count(st.messages, n);
        st.health.wasted_queries += 1;
        if self.adv.defend && st.books[st.slot].on_query(n) {
            let replacement = self.replacement(st.querier, n, day);
            if st.policies[st.slot].expel(n, replacement) {
                st.health.reputation_evictions += 1;
            }
        }
    }

    /// The attempt loop from `start_md`: walk, then `probe` the marks
    /// (it sees the walk buffers, every policy and the attempt's
    /// `(day, milli)`, and returns the answer with its hop). Retries —
    /// after the policy's backoff, up to `max_retries` — only when
    /// something timed out: a definitive miss over fully online
    /// neighbours is final. Each kernel gets its own copy, monomorphised
    /// over its probe, with the walk's neighbour loop inlined.
    #[inline]
    pub(crate) fn attempts<P>(
        &self,
        st: &mut QueryState,
        start_md: u64,
        w: &mut WalkScratch,
        mut probe: P,
    ) -> Attempts
    where
        P: FnMut(&WalkScratch, &[AnyPolicy], u32, u32) -> Option<(Peer, u8)>,
    {
        let mut elapsed = 0u64;
        let mut attempt = 0u32;
        w.stale_prev.clear();
        loop {
            st.health.attempted += 1;
            if attempt > 0 {
                st.health.retried += 1;
            }
            let at_md = start_md + elapsed;
            let (day, milli) = day_milli(at_md);
            let saw_timeout = self.walk(st, day, milli, w);
            let found = probe(w, st.policies, day, milli);
            if found.is_some() || !saw_timeout || attempt >= self.query.max_retries {
                return Attempts {
                    found,
                    at_md,
                    count: attempt + 1,
                    elapsed,
                };
            }
            elapsed += self.query.backoff_for(attempt);
            attempt += 1;
        }
    }

    /// Miss resolution: an answer is booked (and `recovered` on a
    /// server-outage day); a final miss routes through the index at
    /// `at_md`, then strands (`None`: nothing acquired, nothing
    /// recorded, no RNG consumed) or falls back to `fallback()`'s pick.
    #[inline]
    pub(crate) fn resolve(
        &self,
        health: &mut SearchHealth,
        querier: Peer,
        file: FileRef,
        found: Option<(Peer, u8)>,
        at_md: u64,
        fallback: impl FnOnce() -> Peer,
    ) -> Option<Acquired> {
        let (day, milli) = day_milli(at_md);
        if let Some((uploader, hop)) = found {
            health.answered += 1;
            if self.schedule.server_out(day) {
                health.recovered += 1;
            }
            return Some(Acquired {
                uploader,
                hop,
                route_md: 0,
            });
        }
        let lookup = self.router.lookup(self.schedule, querier, file, day, milli);
        health.forwarded += lookup.forwarded;
        health.dht_hops += lookup.dht_hops;
        if !lookup.resolved {
            health.stranded += 1;
            return None;
        }
        health.server_fallback += 1;
        Some(Acquired {
            uploader: fallback(),
            hop: 0,
            route_md: lookup.forwarded * FED_HOP_LATENCY_MD + lookup.dht_hops * DHT_HOP_LATENCY_MD,
        })
    }

    /// The record step: the querier records who uploaded `file`.
    /// Pollution strikes first (only fallback acquisitions resolve
    /// through the index), a sybil hijack — drawn at `key`, the stream
    /// position or acquisition number — otherwise. Either replaces only
    /// the *recorded* uploader: the acquisition itself completes. A
    /// banned peer's claim is void (the genuine uploader is credited),
    /// a banned genuine uploader is not recorded at all, and the defense
    /// book learns from the record's membership delta. `popularity` is
    /// the file's current source count (RareLru's hint).
    #[inline]
    pub(crate) fn record(
        &self,
        st: &mut QueryState,
        file: FileRef,
        key: u64,
        acq: Acquired,
        popularity: u32,
    ) {
        if self.adv.quiet {
            let policy = &mut st.policies[st.slot];
            let _ = policy.record_upload_with_popularity_delta(acq.uploader, popularity);
        } else {
            self.record_attacked(st, file, key, acq, popularity);
        }
    }

    /// [`QueryStep::record`] under a non-quiet adversary plan.
    #[inline(never)]
    fn record_attacked(
        &self,
        st: &mut QueryState,
        file: FileRef,
        key: u64,
        acq: Acquired,
        popularity: u32,
    ) {
        let adv = &self.adv;
        let uploader = acq.uploader;
        let policy = &mut st.policies[st.slot];
        let mut recorded = uploader;
        let mut polluted = false;
        let mut hijacked = false;
        if acq.hop == 0 {
            if let Some(pol) = adv.plan.polluter(file.index() as u64, adv.exposure) {
                recorded = pol;
                polluted = true;
            }
        }
        if !polluted {
            if let Some(syb) = adv.plan.hijacker(st.querier, key) {
                recorded = syb;
                hijacked = true;
            }
        }
        if adv.defend && (polluted || hijacked) && st.books[st.slot].banned(recorded) {
            // A banned peer's claim is void: the querier credits the
            // peer it actually downloaded from. The capture dies; the
            // learning signal survives. Refusing
            // re-admission — not expulsion — is what starves an
            // attacker out of the overlay.
            recorded = uploader;
            polluted = false;
            hijacked = false;
        }
        if adv.defend && st.books[st.slot].banned(recorded) {
            // The genuine uploader itself is banned (a fallback pick can
            // land on an attacker): nothing is recorded.
            return;
        }
        if polluted {
            st.health.polluted_acquisitions += 1;
        } else if hijacked {
            st.health.sybil_slots_held += 1;
        }
        let (added, removed) = policy.record_upload_with_popularity_delta(recorded, popularity);
        if adv.defend {
            let book = &mut st.books[st.slot];
            if polluted || hijacked {
                // Suspect any slot the adversary now holds — won by this
                // record or refreshed by it. A record the policy
                // rejected outright captured nothing worth scoring. A
                // repeat capture while already on probation fires the
                // ban outright.
                if (added == Some(recorded) || policy.contains(recorded))
                    && book.suspect(recorded)
                    && policy.expel(recorded, None)
                {
                    st.health.reputation_evictions += 1;
                }
            } else if book.contains(recorded) {
                // A genuine upload from a suspect redeems it.
                book.redeem(recorded);
            }
            if let Some(rm) = removed {
                book.remove(rm);
            }
        }
    }
}

/// The arena-backed simulation core.
///
/// Behaviourally identical to the original `Vec<Vec<FileRef>>` +
/// per-peer `HashSet` implementation (kept as [`simulate_reference`]):
/// the request stream, every policy update and every RNG draw happen in
/// the same order, so results are bit-identical for a given seed. What
/// changed is the data layout:
///
/// * the stream is filled from contiguous arena rows instead of chasing
///   per-peer heap allocations;
/// * the "is this sharer one of my neighbours?" test is a generation-
///   stamped mark-array probe, stamped for free during the (already
///   mandatory) message-accounting walk over the requester's neighbour
///   list, instead of a `HashSet` lookup per candidate sharer;
/// * all large buffers live in `scratch` and are reused across runs.
pub fn simulate_arena_with_scratch(
    arena: &CacheArena,
    config: &SimConfig,
    scratch: &mut SimScratch,
) -> SimResult {
    simulate_arena_health_with_scratch(arena, config, scratch).0
}

/// [`simulate_arena_with_scratch`], also returning the availability
/// ledger ([`SearchHealth::check_against`] holds for every config).
pub fn simulate_arena_health_with_scratch(
    arena: &CacheArena,
    config: &SimConfig,
    scratch: &mut SimScratch,
) -> (SimResult, SearchHealth) {
    let n_peers = arena.n_peers();
    let n_files = arena.n_files();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let SimScratch {
        stream,
        sharer_rows,
        sharer_flat,
        walk,
        policies,
        sharer_pool,
        answering,
        sharer_at,
    } = scratch;

    // Sharers (non-free-riders) are the candidate pool for random lists.
    sharer_pool.clear();
    sharer_pool.extend(
        (0..n_peers)
            .filter(|&p| !arena.cache(p).is_empty())
            .map(|p| p as Peer),
    );

    // Request stream: a uniformly shuffled multiset of (peer, file).
    stream.clear();
    stream.reserve(arena.replica_count());
    for p in 0..n_peers {
        stream.extend(arena.cache(p).iter().map(|&f| (p as u32, f)));
    }
    shuffle(stream, &mut rng);

    // Mutable simulation state: renew the pooled policies in place (in
    // peer order, so the construction RNG draws replay exactly), extend
    // the pool if this arena has more peers than the last run.
    policies.truncate(n_peers);
    for (p, policy) in policies.iter_mut().enumerate() {
        policy.renew(
            config.policy,
            config.list_size,
            p as Peer,
            sharer_pool,
            &mut rng,
        );
    }
    for p in policies.len()..n_peers {
        policies.push(AnyPolicy::new(
            config.policy,
            config.list_size,
            p as Peer,
            sharer_pool,
            &mut rng,
        ));
    }
    // CSR sharer table: bucket-count the stream into the widths, then
    // prefix-sum them into row offsets with every width back at zero.
    // Zeroing the counters is the same O(n_files) cost the per-file
    // `Vec::clear` walk used to pay, without its allocations.
    sharer_rows.clear();
    sharer_rows.resize(n_files, (0, 0));
    for &(_, f) in stream.iter() {
        sharer_rows[f.index()].1 += 1;
    }
    let mut offset = 0;
    for row in sharer_rows.iter_mut() {
        let width = row.1;
        *row = (offset, 0);
        offset += width;
    }
    sharer_flat.clear();
    sharer_flat.resize(stream.len(), 0);
    walk.ensure(n_peers);

    let mut result = SimResult {
        requests: 0,
        one_hop_hits: 0,
        two_hop_hits: 0,
        contributor_seeds: 0,
        messages_per_peer: vec![0; n_peers],
    };
    let mut health = SearchHealth::default();

    // Availability and adversary: quiet schedules and plans take none
    // of the step's branches and consume no RNG, so the pre-churn
    // behaviour (and RNG sequence) is preserved exactly. Final misses
    // route through the index backend; SingleServer is the
    // byte-identical pre-trait path (outage check + zero-cost resolve).
    let availability = &config.availability;
    let schedule = availability.schedule(n_peers);
    let plan = AdversaryPlan::new(availability.adversary.clone(), n_peers);
    let router = availability.backend.router(config.seed);
    let step = QueryStep::new(
        &schedule,
        &router,
        &plan,
        availability,
        config.policy,
        sharer_pool,
    );
    let mut books = step.adv.books(n_peers);
    // The static stream is spread uniformly over the virtual span, in
    // milli-days (1 day = 1000 md).
    let span_millis = u64::from(availability.virtual_days.max(1)) * 1000;
    let stream_len = stream.len().max(1) as u64;

    for (t, &(peer, file)) in stream.iter().enumerate() {
        let (head, f_len) = sharer_rows[file.index()];
        let (head, f_len) = (head as usize, f_len as usize);
        if f_len == 0 {
            // Original contributor.
            result.contributor_seeds += 1;
            sharer_flat[head] = peer;
            sharer_rows[file.index()].1 = 1;
            continue;
        }
        result.requests += 1;
        let file_sharers = &sharer_flat[head..head + f_len];
        let mut st = QueryState {
            querier: peer,
            slot: peer as usize,
            policies,
            books: &mut books,
            messages: &mut result.messages_per_peer,
            health: &mut health,
        };
        let start_md = t as u64 * span_millis / stream_len;
        let run = step.attempts(&mut st, start_md, walk, |w, policies, day, milli| {
            // One-hop: does any current sharer sit among the online
            // queried neighbours? Iterating sharers (popularity-sized)
            // beats iterating the list for rare files, and is
            // equivalent.
            let found = w.first_marked(file_sharers);
            if found.is_some() || !config.two_hop {
                return found.map(|s| (s, 1));
            }
            // Two-hop: query each online neighbour's neighbours; the
            // second-hop holder must itself answer. The answer is the
            // first relay (in list order) holding any answering sharer
            // and, of those, the earliest to arrive. A few answering
            // sharers are each found in a relay's list by a vectorised
            // scan; more are stamped once with their arrival rank and
            // each relay's list is walked once (see `TWO_HOP_SCAN_MAX`).
            // Either way a relay costs O(list), never O(list × sharers).
            answering.clear();
            answering.extend(
                file_sharers
                    .iter()
                    .copied()
                    .filter(|&s| s != peer && step.answers(s, day, milli)),
            );
            let relays = w
                .query_buf
                .iter()
                .filter(|&&n| w.mark[n as usize] == w.generation)
                .map(|&n| policies[n as usize].neighbours());
            let found = if answering.len() <= TWO_HOP_SCAN_MAX {
                relays
                    .flat_map(|list| answering.iter().copied().find(|s| list.contains(s)))
                    .next()
            } else {
                if sharer_at.len() < n_peers {
                    sharer_at.resize(n_peers, (0, 0));
                }
                for (i, &s) in answering.iter().enumerate() {
                    sharer_at[s as usize] = (w.generation, i as u32);
                }
                relays
                    .flat_map(|list| {
                        list.iter()
                            .filter_map(|&m| {
                                let (stamp, i) = sharer_at[m as usize];
                                (stamp == w.generation).then_some(i)
                            })
                            .min()
                    })
                    .next()
                    .map(|i| answering[i as usize])
            };
            found.map(|s| (s, 2))
        });
        // Server fallback: a uniform current sharer uploads the file,
        // picked statelessly from the stream position (see
        // `fallback_index`). The pick is backend-agnostic — the
        // backend decides reachability and routing cost, never *who*
        // uploads — so zero-outage runs agree across backends, and quiet
        // SingleServer runs stay bit-identical to the reference.
        let fallback = || file_sharers[fallback_index(config.seed, t as u64, f_len)];
        let Some(acq) = step.resolve(st.health, peer, file, run.found, run.at_md, fallback) else {
            continue;
        };
        match acq.hop {
            1 => result.one_hop_hits += 1,
            2 => result.two_hop_hits += 1,
            _ => {}
        }
        step.record(&mut st, file, t as u64, acq, f_len as u32);
        sharer_flat[head + f_len] = peer;
        sharer_rows[file.index()].1 += 1;
    }

    (result, health)
}

/// Up to this many answering sharers, the two-hop probe scans each
/// relay's list once per sharer; beyond, it stamps the sharers' ranks
/// and walks each list once. A contiguous scan for one id is several
/// times cheaper per entry than the walk's random rank lookups, so few
/// sharers favour the scan; the walk bounds a relay at O(list) however
/// many sharers a popular file has. Measured at repro scale on a
/// 2-core x86_64 VM, 10 alternating rounds: the scan side made the
/// Fig. 23 two-hop LRU sweep (sizes 5–200) ≈16% faster than always
/// walking (10/10) and the `search_repro` two-hop LRU-20 cell ≈22%
/// faster (8/10); cuts of 2, 8 and 32 ran alike.
const TWO_HOP_SCAN_MAX: usize = 8;

/// The original (pre-arena) implementation, kept structurally intact as
/// a correctness oracle: the unit tests, the property tests and
/// `tests/search_churn.rs` compare the arena and split-cell paths
/// against it. The only change since the seed version is the server
/// fallback, now drawn statelessly from the stream position
/// (`fallback_index`) in lockstep with the optimised paths.
pub fn simulate_reference(
    caches: &[Vec<FileRef>],
    n_files: usize,
    config: &SimConfig,
) -> SimResult {
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Sharers (non-free-riders) are the candidate pool for random lists.
    let sharer_pool: Vec<Peer> = caches
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_empty())
        .map(|(p, _)| p as Peer)
        .collect();

    // Request stream: a uniformly shuffled multiset of (peer, file).
    let mut stream: Vec<(u32, FileRef)> = caches
        .iter()
        .enumerate()
        .flat_map(|(p, cache)| cache.iter().map(move |&f| (p as u32, f)))
        .collect();
    shuffle(&mut stream, &mut rng);

    // Mutable simulation state.
    let mut policies: Vec<AnyPolicy> = (0..caches.len())
        .map(|p| {
            AnyPolicy::new(
                config.policy,
                config.list_size,
                p as Peer,
                &sharer_pool,
                &mut rng,
            )
        })
        .collect();
    // Who currently shares each file (grow-only), and each peer's
    // current holdings for O(1) "does neighbour n share f" checks.
    let mut sharers: Vec<Vec<Peer>> = vec![Vec::new(); n_files];
    let mut holdings: Vec<HashSet<FileRef>> = vec![HashSet::new(); caches.len()];

    let mut result = SimResult {
        requests: 0,
        one_hop_hits: 0,
        two_hop_hits: 0,
        contributor_seeds: 0,
        messages_per_peer: vec![0; caches.len()],
    };

    for (t, (peer, file)) in stream.into_iter().enumerate() {
        let peer_idx = peer as usize;
        let file_sharers = &sharers[file.index()];
        if file_sharers.is_empty() {
            // Original contributor.
            result.contributor_seeds += 1;
            sharers[file.index()].push(peer);
            holdings[peer_idx].insert(file);
            continue;
        }
        result.requests += 1;

        // Querying loads every one-hop neighbour.
        for &n in policies[peer_idx].neighbours() {
            result.messages_per_peer[n as usize] += 1;
        }

        // One-hop: does any current sharer sit in the neighbour list?
        // Iterating sharers (popularity-sized) beats iterating the list
        // for rare files, and is equivalent.
        let policy = &policies[peer_idx];
        let mut uploader: Option<Peer> = file_sharers.iter().copied().find(|&s| policy.contains(s));
        let mut hop = 1;

        // Two-hop: query each neighbour's neighbours.
        if uploader.is_none() && config.two_hop {
            'outer: for &n in policies[peer_idx].neighbours() {
                for &s in file_sharers {
                    if s != peer && policies[n as usize].contains(s) {
                        uploader = Some(s);
                        hop = 2;
                        break 'outer;
                    }
                }
            }
        }

        match uploader {
            Some(_) if hop == 1 => result.one_hop_hits += 1,
            Some(_) => result.two_hop_hits += 1,
            None => {
                // Server fallback: a uniform current sharer uploads the
                // file, picked statelessly from the stream position.
                let pick = file_sharers[fallback_index(config.seed, t as u64, file_sharers.len())];
                uploader = Some(pick);
            }
        }

        let uploader = uploader.expect("an uploader always exists here");
        let sources = sharers[file.index()].len() as u32;
        policies[peer_idx].record_upload_with_popularity(uploader, sources);
        sharers[file.index()].push(peer);
        holdings[peer_idx].insert(file);
    }

    result
}

/// True iff a cell can run on the split-cell path
/// ([`simulate_cell_range`]): queriers are mutually independent only
/// when no server outage can strand a request (every request then pushes
/// its peer onto the sharer list, making arrivals policy-independent),
/// the policy draws nothing from the sequential RNG (excludes Random)
/// and relays never matter (no two-hop). Forwarding index backends
/// (federated, DHT) are excluded too: their per-(querier, day) outage
/// stranding breaks the same arrival-rank invariance, and the split
/// path's miss hook into the quiet kernel books no hops — they
/// always run whole-cell (DESIGN.md §10). Non-quiet adversary plans
/// also run whole-cell: hijacked and polluted records change *which*
/// peer a list holds, and the split paths have no mirror of the
/// capture or defense bookkeeping.
pub fn split_eligible(config: &SimConfig) -> bool {
    !config.two_hop
        && !matches!(config.policy, PolicyKind::Random)
        && config.availability.churn.outage_days.is_empty()
        && !config.availability.backend.forwards()
        && config.availability.adversary.is_quiet()
}

/// One request of a querier's stream, fully resolved at precomp time:
/// stream position, file, arrival rank, and the file's arrival-CSR base
/// offset — one 16-byte load where the hot loop would otherwise chase
/// three parallel arrays. Shared with [`crate::serve`], which replays
/// the same records as a timed arrival stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct QueryRec {
    pub(crate) t: u32,
    pub(crate) file: FileRef,
    pub(crate) rank: u32,
    pub(crate) off: u32,
}

impl QueryRec {
    /// A placeholder for buffers about to be filled.
    pub(crate) const BLANK: QueryRec = QueryRec {
        t: 0,
        file: FileRef(0),
        rank: 0,
        off: 0,
    };
}

/// Policy-independent precomputation shared by every split-eligible
/// cell of a sweep that uses the same `(arena, seed)`.
///
/// The key observation: without server outages every consumed stream
/// entry `(p, f)` ends with `p` sharing `f`, so the sharer list of each
/// file — and hence every request's candidate uploader set — depends
/// only on the shuffled stream, never on the policy under test. One
/// pass over the stream therefore fixes, for all cells at once:
///
/// * which entries are contributor seeds (rank 0) vs requests;
/// * each file's sharers *in arrival order* (`arrivals`), of which the
///   first `rank` entries are exactly the file's sharer list at the
///   moment a rank-`rank` request is consumed;
/// * each querier's request positions (`queries`), the unit the
///   work-stealing scheduler splits cells by.
pub struct SweepPrecomp {
    pub(crate) seed: u64,
    /// Length of the shuffled request stream (requests plus contributor
    /// seeds): the batch clock's divisor.
    pub(crate) stream_len: usize,
    /// Arrival-ordered sharers per file (CSR over files; each
    /// [`QueryRec`] carries its own row offset, so the offsets table is
    /// consumed during construction rather than stored).
    pub(crate) arrivals: Vec<Peer>,
    /// Fully-resolved requests per querier (CSR over peers); the
    /// offsets double as prefix sums of per-peer request counts.
    pub(crate) queries: Vec<QueryRec>,
    pub(crate) queries_off: Vec<u32>,
    /// Arrival rank per arena CSR entry: `rank_by[k]` is the arrival
    /// rank of peer `p` for file `f` where `k` indexes `(p, f)` in the
    /// arena's own CSR layout — the member-major hit check's O(1)
    /// "when did member `m` start sharing `f`" lookup.
    pub(crate) rank_by: Vec<u32>,
    pub(crate) requests: u64,
    pub(crate) contributor_seeds: u64,
    pub(crate) n_peers: usize,
}

impl SweepPrecomp {
    /// Builds the precomputation: one shuffle plus three linear passes.
    pub fn new(arena: &CacheArena, seed: u64) -> Self {
        Self::new_with_rng(arena, seed).0
    }

    /// [`SweepPrecomp::new`], also returning the RNG in its
    /// post-shuffle state. The batch simulator seeds one `StdRng`,
    /// shuffles the stream, then constructs the per-peer policies from
    /// the *same* generator — so any path that wants to reproduce its
    /// policy-construction draws (the serving engine does, for the
    /// Random policy's seeded lists) needs the generator exactly where
    /// the shuffle left it.
    pub(crate) fn new_with_rng(arena: &CacheArena, seed: u64) -> (Self, StdRng) {
        let n_peers = arena.n_peers();
        let n_files = arena.n_files();
        let mut rng = StdRng::seed_from_u64(seed);

        // The request stream, each `(peer, file)` entry carrying its
        // arena CSR index. It starts in CSR order (peer order, row
        // order), and the shuffle's draws depend only on the length, so
        // the order and the generator's final state are exactly those
        // of shuffling bare `(peer, file)` pairs.
        let (entries, offsets) = arena.as_csr_parts();
        let mut stream: Vec<(u32, FileRef, u32)> = Vec::with_capacity(entries.len());
        for p in 0..n_peers {
            let row = offsets[p]..offsets[p + 1];
            stream.extend(row.map(|k| (p as u32, entries[k as usize], k)));
        }
        shuffle(&mut stream, &mut rng);
        let stream_len = stream.len();

        // Arrival CSR offsets: per-file replica counts, prefix-summed.
        let mut arrivals_off = vec![0u32; n_files + 1];
        for &(_, f, _) in &stream {
            arrivals_off[f.index() + 1] += 1;
        }
        for i in 0..n_files {
            arrivals_off[i + 1] += arrivals_off[i];
        }

        // Single pass: per-entry rank, arrival-ordered sharers, per-peer
        // request counts. The rank is scattered to its arena entry
        // (`rank_by`, the member-major probe's table) and replaces the
        // CSR index in the stream for the pass below.
        let mut cursor: Vec<u32> = arrivals_off[..n_files].to_vec();
        let mut rank_by = vec![0u32; stream_len];
        let mut arrivals = vec![0 as Peer; stream_len];
        let mut per_peer = vec![0u32; n_peers];
        let mut requests = 0u64;
        for (p, f, k) in stream.iter_mut() {
            let fi = f.index();
            let r = cursor[fi] - arrivals_off[fi];
            rank_by[*k as usize] = r;
            *k = r;
            arrivals[cursor[fi] as usize] = *p;
            cursor[fi] += 1;
            if r > 0 {
                per_peer[*p as usize] += 1;
                requests += 1;
            }
        }
        let contributor_seeds = stream_len as u64 - requests;

        // Request positions per querier (CSR over peers).
        let mut queries_off = vec![0u32; n_peers + 1];
        for p in 0..n_peers {
            queries_off[p + 1] = queries_off[p] + per_peer[p];
        }
        let mut qcursor: Vec<u32> = queries_off[..n_peers].to_vec();
        let mut queries = vec![QueryRec::BLANK; requests as usize];
        for (t, &(p, f, rank)) in stream.iter().enumerate() {
            if rank > 0 {
                queries[qcursor[p as usize] as usize] = QueryRec {
                    t: t as u32,
                    file: f,
                    rank,
                    off: arrivals_off[f.index()],
                };
                qcursor[p as usize] += 1;
            }
        }

        (
            SweepPrecomp {
                seed,
                stream_len,
                arrivals,
                queries,
                queries_off,
                rank_by,
                requests,
                contributor_seeds,
                n_peers,
            },
            rng,
        )
    }

    /// The seed this precomputation was built for.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `rec`'s batch instant in milli-days: the stream spread uniformly
    /// over `virtual_days` days.
    #[inline]
    pub(crate) fn batch_md(&self, rec: &QueryRec, virtual_days: u32) -> u64 {
        let span_millis = u64::from(virtual_days.max(1)) * 1000;
        u64::from(rec.t) * span_millis / self.stream_len.max(1) as u64
    }

    /// Querier `p`'s requests, in stream order.
    pub(crate) fn requests_of(&self, p: u32) -> &[QueryRec] {
        let lo = self.queries_off[p as usize] as usize;
        let hi = self.queries_off[p as usize + 1] as usize;
        &self.queries[lo..hi]
    }

    /// The requested file's sharers when `rec` is consumed, in arrival
    /// order.
    #[inline]
    pub(crate) fn prefix(&self, rec: &QueryRec) -> &[Peer] {
        &self.arrivals[rec.off as usize..rec.off as usize + rec.rank as usize]
    }

    /// `rec`'s server-fallback uploader: the stateless
    /// `fallback_index` pick over its sharer prefix.
    #[inline]
    pub(crate) fn fallback(&self, rec: &QueryRec) -> Peer {
        let prefix = self.prefix(rec);
        prefix[fallback_index(self.seed, u64::from(rec.t), prefix.len())]
    }

    /// Requests issued by queriers in `[lo, hi)` — the scheduler's cost
    /// estimate for a subtask.
    pub fn requests_in(&self, lo: u32, hi: u32) -> u64 {
        u64::from(self.queries_off[hi as usize]) - u64::from(self.queries_off[lo as usize])
    }

    /// Splits the peer space into at most `chunks` contiguous ranges of
    /// roughly equal request counts. Any partition yields bit-identical
    /// sweep results (queriers are independent); this one just balances
    /// the work-stealing queue.
    pub fn peer_ranges(&self, chunks: usize) -> Vec<(u32, u32)> {
        let n = self.n_peers as u32;
        if n == 0 {
            return Vec::new();
        }
        let target = self.requests.div_ceil(chunks.max(1) as u64).max(1);
        let mut ranges = Vec::new();
        let mut lo = 0u32;
        while lo < n {
            let mut hi = lo + 1;
            while hi < n && self.requests_in(lo, hi) < target {
                hi += 1;
            }
            ranges.push((lo, hi));
            lo = hi;
        }
        ranges
    }
}

/// Per-worker scratch for [`simulate_cell_range`] and the serving
/// engine's shards: one pooled policy (renewed per querier), the churn
/// path's walk buffers, and the quiet kernel's interval ledger.
#[derive(Debug, Default)]
pub struct SplitScratch {
    policy: Option<AnyPolicy>,
    /// Quiet path: `start_of[p]` is the request index at which member
    /// `p` became queryable — messages are settled per *interval* on
    /// eviction instead of per request. Only meaningful while `p` is a
    /// list member.
    start_of: Vec<u32>,
    /// Quiet path: the stamp that invalidates [`QuietState`]'s History
    /// counters between queriers.
    generation: u64,
    quiet: QuietState,
    pub(crate) walk: WalkScratch,
}

impl SplitScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sentinel for "no peer" in [`QuietState`]'s intrusive links.
const NO_PEER: u32 = u32::MAX;

/// Peer-indexed policy state for the quiet kernel.
///
/// The `neighbours` policies scan their list for every membership test,
/// `memmove` every head insert and (History) hash every counter
/// update; amortised over ~10⁵ requests per cell that is most of a
/// sweep's runtime. This mirror keeps the identical delta semantics
/// (pinned by the split determinism tests) with a membership bitset,
/// O(1) LRU updates over intrusive recency links and
/// generation-stamped History counters — no scans, no hashing, no
/// per-querier clearing. All per-peer arrays
/// are valid only where stamped with the scratch's current generation.
#[derive(Debug, Default)]
struct QuietState {
    /// Membership bitset over peers — ~2.5 KB at repro scale, so the
    /// hot prefix scan probes L1 instead of a peer-indexed word array.
    /// All-zero between queriers (members are unset during settling).
    bits: Vec<u64>,
    /// Recency links (head = most recently used), LRU kinds only.
    next: Vec<u32>,
    prev: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
    /// History upload counters, valid iff `seen[p] == generation`.
    counts: Vec<u64>,
    /// History recency tie-break clocks, valid with `counts`.
    last: Vec<u64>,
    seen: Vec<u64>,
    clock: u64,
    /// History's member list, sorted by `(count, recency)` descending —
    /// exactly [`History`]'s list order; a fixed list in its own order.
    list: Vec<Peer>,
}

impl QuietState {
    /// Resets to the empty-list state for the next querier. The
    /// membership bits were already cleared during the previous
    /// querier's settling and the counter arrays are invalidated by the
    /// caller's generation bump, so this is O(1) after the first call.
    fn reset(&mut self, n_peers: usize) {
        if self.next.len() < n_peers {
            self.next.resize(n_peers, NO_PEER);
            self.prev.resize(n_peers, NO_PEER);
            self.counts.resize(n_peers, 0);
            self.last.resize(n_peers, 0);
            self.seen.resize(n_peers, 0);
            self.bits.resize(n_peers.div_ceil(64), 0);
        }
        self.head = NO_PEER;
        self.tail = NO_PEER;
        self.len = 0;
        self.clock = 0;
        self.list.clear();
    }

    #[inline]
    fn is_member(&self, p: u32) -> bool {
        self.bits[(p >> 6) as usize] & (1u64 << (p & 63)) != 0
    }

    #[inline]
    fn set_member(&mut self, p: u32) {
        self.bits[(p >> 6) as usize] |= 1u64 << (p & 63);
    }

    #[inline]
    fn unset_member(&mut self, p: u32) {
        self.bits[(p >> 6) as usize] &= !(1u64 << (p & 63));
    }

    #[inline]
    fn push_front(&mut self, u: u32) {
        self.prev[u as usize] = NO_PEER;
        self.next[u as usize] = self.head;
        if self.head == NO_PEER {
            self.tail = u;
        } else {
            self.prev[self.head as usize] = u;
        }
        self.head = u;
        self.len += 1;
    }

    #[inline]
    fn unlink(&mut self, u: u32) {
        let (p, n) = (self.prev[u as usize], self.next[u as usize]);
        if p == NO_PEER {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NO_PEER {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.len -= 1;
    }

    /// [`Lru::record_upload_delta`] over the intrusive links: the tail
    /// is the least recently used member, evicted before the insert,
    /// exactly like the Vec policy's `pop`-then-`insert(0, ..)`.
    #[inline]
    fn lru_record(&mut self, u: u32, cap: usize) -> Delta {
        if self.is_member(u) {
            if self.head != u {
                self.unlink(u);
                self.push_front(u);
            }
            (None, None)
        } else {
            let removed = if self.len == cap {
                let t = self.tail;
                self.unlink(t);
                self.unset_member(t);
                Some(t)
            } else {
                None
            };
            self.push_front(u);
            self.set_member(u);
            (Some(u), removed)
        }
    }

    #[inline]
    fn hist_key(&self, p: u32, gen: u64) -> (u64, u64) {
        if self.seen[p as usize] == gen {
            (self.counts[p as usize], self.last[p as usize])
        } else {
            (0, 0)
        }
    }

    /// [`History::record_upload_delta`] with the hash maps replaced by
    /// generation-stamped arrays; the sorted member list and its
    /// rejection/placement rules are verbatim.
    fn hist_record(&mut self, u: u32, cap: usize, gen: u64) -> Delta {
        self.clock += 1;
        let ui = u as usize;
        if self.seen[ui] == gen {
            self.counts[ui] += 1;
        } else {
            self.seen[ui] = gen;
            self.counts[ui] = 1;
        }
        self.last[ui] = self.clock;
        let mut delta = (None, None);
        if self.is_member(u) {
            let pos = self.list.iter().position(|&p| p == u).expect("member");
            self.list.remove(pos);
        } else if self.list.len() == cap {
            let tail = *self.list.last().expect("at capacity > 0");
            if self.hist_key(u, gen) <= self.hist_key(tail, gen) {
                return delta;
            }
            self.list.pop();
            self.unset_member(tail);
            self.set_member(u);
            delta = (Some(u), Some(tail));
        } else {
            self.set_member(u);
            delta = (Some(u), None);
        }
        let key = self.hist_key(u, gen);
        let pos = self
            .list
            .iter()
            .position(|&p| self.hist_key(p, gen) < key)
            .unwrap_or(self.list.len());
        self.list.insert(pos, u);
        delta
    }

    /// The one-hop probe: the member with the minimal arrival rank below
    /// `rec.rank` — the same uploader a scan of the sharer prefix for the
    /// first member finds. Popular files (a prefix over
    /// [`MEMBER_MAJOR_CUTOFF`] times the member count long) look each
    /// member up in its arena row; rare files scan the prefix.
    #[inline]
    fn hit(
        &self,
        kind: QuietKind,
        arena: &CacheArena,
        pre: &SweepPrecomp,
        rec: &QueryRec,
    ) -> Option<Peer> {
        let r = rec.rank as usize;
        if r <= MEMBER_MAJOR_CUTOFF * self.member_count(kind).max(1) {
            return pre.prefix(rec).iter().copied().find(|&s| self.is_member(s));
        }
        let (files, offsets) = arena.as_csr_parts();
        let mut best: Option<(u32, Peer)> = None;
        self.members(kind).for_each(|m| {
            let lo = offsets[m as usize] as usize;
            let hi = offsets[m as usize + 1] as usize;
            if let Ok(pos) = files[lo..hi].binary_search(&rec.file) {
                let rk = pre.rank_by[lo + pos];
                if (rk as usize) < r && best.is_none_or(|(b, _)| rk < b) {
                    best = Some((rk, m));
                }
            }
        });
        best.map(|(_, m)| m)
    }

    /// Number of current list members.
    #[inline]
    fn member_count(&self, kind: QuietKind) -> usize {
        match kind {
            QuietKind::History | QuietKind::Fixed => self.list.len(),
            _ => self.len,
        }
    }

    /// Every current member, in no particular order (the min-rank probe
    /// is order-free).
    #[inline]
    fn members(&self, kind: QuietKind) -> impl Iterator<Item = u32> + '_ {
        let (list, head) = match kind {
            QuietKind::History | QuietKind::Fixed => (&self.list[..], NO_PEER),
            _ => (&[][..], self.head),
        };
        let linked = std::iter::successors((head != NO_PEER).then_some(head), |&m| {
            let next = self.next[m as usize];
            (next != NO_PEER).then_some(next)
        });
        list.iter().copied().chain(linked)
    }

    /// End-of-querier settling walk: visits every member in list order
    /// (LRU kinds most recent first) while clearing its membership bit,
    /// restoring the all-zero invariant `reset` relies on.
    fn settle_members(&mut self, kind: QuietKind, mut f: impl FnMut(u32)) {
        match kind {
            QuietKind::History | QuietKind::Fixed => {
                for i in 0..self.list.len() {
                    let m = self.list[i];
                    self.unset_member(m);
                    f(m);
                }
            }
            _ => {
                let mut m = self.head;
                while m != NO_PEER {
                    self.unset_member(m);
                    f(m);
                    m = self.next[m as usize];
                }
            }
        }
    }
}

/// Membership delta of one policy update: `(added, removed)`.
type Delta = (Option<Peer>, Option<Peer>);

/// The quiet kernel's policy kinds, with the rare-file cutoff resolved.
/// `Fixed` is Random's seeded list, which no upload changes (only serve
/// replays have one: the split path excludes Random).
#[derive(Clone, Copy, Debug)]
enum QuietKind {
    Lru,
    History,
    RareLru { max_sources: u32 },
    Fixed,
}

/// One subtask's contribution to a cell: every field merges by plain
/// summation, in any grouping, so [`merge_partials`] is exact.
#[derive(Clone, Debug)]
pub struct CellPartial {
    /// One-hop hits by queriers in this range (split cells never
    /// answer at two hops).
    pub one_hop_hits: u64,
    /// Messages received per peer from this range's queriers.
    pub messages: Vec<u64>,
    /// Availability ledger restricted to this range's requests.
    pub health: SearchHealth,
    /// Nanoseconds in the hit check (only when profiling).
    pub intersect_ns: u64,
    /// Nanoseconds in policy updates + message settling (profiling).
    pub update_ns: u64,
}

impl CellPartial {
    /// An all-zero partial covering no queriers — the identity of
    /// [`CellPartial::absorb`].
    pub fn empty(n_peers: usize) -> Self {
        CellPartial {
            one_hop_hits: 0,
            messages: vec![0; n_peers],
            health: SearchHealth::default(),
            intersect_ns: 0,
            update_ns: 0,
        }
    }

    /// Folds another partial in. Every field merges by plain summation
    /// over disjoint querier sets — the property [`merge_partials`]
    /// rests on — so windows can be accumulated one at a time without
    /// ever holding more than one partial (the bounded-working-set
    /// sweep's memory contract).
    pub fn absorb(&mut self, other: &CellPartial) {
        self.one_hop_hits += other.one_hop_hits;
        for (dst, &src) in self.messages.iter_mut().zip(&other.messages) {
            *dst += src;
        }
        self.health += &other.health;
        self.intersect_ns += other.intersect_ns;
        self.update_ns += other.update_ns;
    }
}

/// Simulates queriers `peers.0 .. peers.1` of one split-eligible cell.
///
/// Replays exactly the per-querier slice of what
/// [`simulate_arena_health_with_scratch`] would do: the same request
/// order (a querier's requests keep their global stream order), the
/// same policy updates, the same stateless fallback picks. Because
/// split-eligible queriers never observe each other's lists, the
/// concatenation of any partition's partials is bit-identical to the
/// sequential run — the property the sweep determinism tests pin down.
///
/// `schedule` is the cell's churn schedule
/// ([`AvailabilityConfig::schedule`] over the arena's peers), built once
/// per cell and shared by every range of it.
///
/// `profile` additionally meters the hit-check and update stages into
/// the partial (off the sweeps' timed path; the metered run is a
/// separate pass).
pub fn simulate_cell_range(
    arena: &CacheArena,
    pre: &SweepPrecomp,
    config: &SimConfig,
    schedule: &ChurnSchedule,
    peers: (u32, u32),
    scratch: &mut SplitScratch,
    profile: bool,
) -> CellPartial {
    debug_assert!(split_eligible(config), "cell must be split-eligible");
    debug_assert_eq!(config.seed, pre.seed, "precomp seed must match the cell");
    let mut part = CellPartial::empty(pre.n_peers);
    let quiet = config.availability.is_quiet();
    // Split cells have a quiet adversary plan, a single server and no
    // Random lists, so the step's plan, router and pool cost nothing.
    let plan = AdversaryPlan::new(config.availability.adversary.clone(), pre.n_peers);
    let router = config.availability.backend.router(config.seed);
    let step = QueryStep::new(
        schedule,
        &router,
        &plan,
        &config.availability,
        config.policy,
        &[],
    );
    for p in peers.0..peers.1 {
        let requests = pre.requests_of(p);
        if requests.is_empty() {
            continue;
        }
        if quiet {
            let resolve = |_, rec: &QueryRec, found: Option<Peer>, health: &mut SearchHealth| {
                let booked = match found {
                    Some(_) => &mut health.answered,
                    None => &mut health.server_fallback,
                };
                *booked += 1;
                found.unwrap_or_else(|| pre.fallback(rec))
            };
            simulate_querier_quiet(
                arena, pre, config, requests, scratch, profile, &mut part, resolve, None,
            );
        } else {
            simulate_querier_churn(pre, config, &step, p, scratch, profile, &mut part);
        }
    }
    part
}

/// Member-major hit check cutoff: prefer probing the (≤ list-size)
/// members against the arena when the file's sharer prefix is this many
/// times longer than the list. Purely a cost heuristic — both probes
/// return the member with the minimal arrival rank, i.e. the same
/// uploader the sequential sharer-order scan finds.
const MEMBER_MAJOR_CUTOFF: usize = 128;

/// The quiet-regime query kernel: one querier's `requests` replayed
/// with interval-settled messages, rank-based hit checks and no walk
/// buffers. Without churn, adversaries or outages a querier's outcomes
/// depend only on its own requests in order, so the split path replays
/// its requests in stream order and serve its served queries in service
/// order (DESIGN.md §7). `resolve(q, rec, found, health)` books request
/// `q`'s one-hop answer or miss and returns the uploader. `list`, if
/// given, holds the initial list (Random's seeded one; empty otherwise)
/// and receives the final list in policy order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_querier_quiet(
    arena: &CacheArena,
    pre: &SweepPrecomp,
    config: &SimConfig,
    requests: &[QueryRec],
    scratch: &mut SplitScratch,
    profile: bool,
    part: &mut CellPartial,
    mut resolve: impl FnMut(usize, &QueryRec, Option<Peer>, &mut SearchHealth) -> Peer,
    mut list: Option<&mut Vec<Peer>>,
) {
    let SplitScratch {
        start_of,
        generation,
        quiet,
        ..
    } = scratch;
    let kind = match config.policy {
        PolicyKind::Lru => QuietKind::Lru,
        PolicyKind::History => QuietKind::History,
        PolicyKind::RareLru { max_sources } => QuietKind::RareLru { max_sources },
        PolicyKind::Random => QuietKind::Fixed,
    };
    let cap = config.list_size;
    if start_of.len() < pre.n_peers {
        start_of.resize(pre.n_peers, 0);
    }
    quiet.reset(pre.n_peers);
    *generation += 1;
    let generation = *generation;
    if let Some(initial) = &list {
        debug_assert!(initial.is_empty() || matches!(kind, QuietKind::Fixed));
        for &m in initial.iter() {
            quiet.set_member(m);
            quiet.list.push(m);
            start_of[m as usize] = 0;
        }
    }
    for (q, rec) in requests.iter().enumerate() {
        // One-hop hit; membership is one bit load (the bits mirror the
        // list via the upload deltas below).
        let t0 = profile.then(Instant::now);
        let found = quiet.hit(kind, arena, pre, rec);
        if let Some(t0) = t0 {
            part.intersect_ns += t0.elapsed().as_nanos() as u64;
        }
        part.health.attempted += 1;
        part.one_hop_hits += u64::from(found.is_some());
        let uploader = resolve(q, rec, found, &mut part.health);

        // Policy update + interval settling: a member evicted after
        // request `q` was queried during `[start, q]`.
        let t0 = profile.then(Instant::now);
        let (added, removed) = match kind {
            QuietKind::Lru => quiet.lru_record(uploader, cap),
            QuietKind::History => quiet.hist_record(uploader, cap, generation),
            QuietKind::RareLru { max_sources } if rec.rank <= max_sources => {
                quiet.lru_record(uploader, cap)
            }
            QuietKind::RareLru { .. } | QuietKind::Fixed => (None, None),
        };
        let q = q as u32;
        if let Some(rm) = removed {
            part.messages[rm as usize] += u64::from(q + 1 - start_of[rm as usize]);
        }
        if let Some(ad) = added {
            start_of[ad as usize] = q + 1;
        }
        if let Some(t0) = t0 {
            part.update_ns += t0.elapsed().as_nanos() as u64;
        }
    }
    // Settle members still listed at the end of the querier's stream,
    // clearing their membership bits for the next querier.
    let total = requests.len() as u32;
    if let Some(list) = &mut list {
        list.clear();
    }
    quiet.settle_members(kind, |m| {
        part.messages[m as usize] += u64::from(total - start_of[m as usize]);
        if let Some(list) = &mut list {
            list.push(m);
        }
    });
}

/// Churn-regime querier replay: the shared query step, restricted to
/// one querier. Message accounting is immediate (attempts differ per
/// request, so intervals don't apply).
fn simulate_querier_churn(
    pre: &SweepPrecomp,
    config: &SimConfig,
    step: &QueryStep,
    querier: Peer,
    scratch: &mut SplitScratch,
    profile: bool,
    part: &mut CellPartial,
) {
    // Split cells exclude the Random policy, so construction never
    // draws RNG.
    let (kind, size) = (config.policy, config.list_size);
    let policy = scratch
        .policy
        .get_or_insert_with(|| AnyPolicy::new_adaptive(kind, size));
    policy.renew_adaptive(kind, size);
    let walk = &mut scratch.walk;
    walk.ensure(pre.n_peers);

    for rec in pre.requests_of(querier) {
        let prefix = pre.prefix(rec);
        let mut st = QueryState {
            querier,
            slot: 0,
            policies: std::slice::from_mut(&mut *policy),
            books: &mut [],
            messages: &mut part.messages,
            health: &mut part.health,
        };
        let t0 = profile.then(Instant::now);
        let start_md = pre.batch_md(rec, config.availability.virtual_days);
        let run = step.attempts(&mut st, start_md, walk, |w, _, _, _| {
            w.first_marked(prefix).map(|s| (s, 1))
        });
        if let Some(t0) = t0 {
            part.intersect_ns += t0.elapsed().as_nanos() as u64;
        }
        let fallback = || pre.fallback(rec);
        let acq = step
            .resolve(st.health, querier, rec.file, run.found, run.at_md, fallback)
            .expect("split cells have no outage days, so nothing strands");
        part.one_hop_hits += u64::from(acq.hop == 1);
        let t0 = profile.then(Instant::now);
        step.record(&mut st, rec.file, u64::from(rec.t), acq, rec.rank);
        if let Some(t0) = t0 {
            part.update_ns += t0.elapsed().as_nanos() as u64;
        }
    }
}

/// Merges a split cell's subtask partials back into the sequential
/// result: totals and per-peer loads are sums over disjoint querier
/// sets, so addition in any order reproduces the whole-cell run
/// bit-for-bit; the stream-level totals (requests, contributor seeds)
/// come from the precomputation.
pub fn merge_partials(pre: &SweepPrecomp, parts: &[CellPartial]) -> (SimResult, SearchHealth) {
    let mut acc = CellPartial::empty(pre.n_peers);
    for part in parts {
        acc.absorb(part);
    }
    let result = SimResult {
        requests: pre.requests,
        one_hop_hits: acc.one_hop_hits,
        two_hop_hits: 0,
        contributor_seeds: pre.contributor_seeds,
        messages_per_peer: acc.messages,
    };
    (result, acc.health)
}

/// Fisher–Yates shuffle (kept local: `rand`'s `SliceRandom` would work,
/// but an explicit implementation keeps the request-order contract
/// obvious and seed-stable across `rand` versions).
fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileRef {
        FileRef(i)
    }

    /// A tight community: 10 peers sharing the same 20 files.
    fn community(n_peers: u32, n_files: u32) -> Vec<Vec<FileRef>> {
        (0..n_peers)
            .map(|_| (0..n_files).map(f).collect())
            .collect()
    }

    #[test]
    fn accounting_adds_up() {
        let caches = community(10, 20);
        let result = simulate(&caches, 20, &SimConfig::lru(5));
        assert_eq!(
            result.requests + result.contributor_seeds,
            200,
            "every (peer, file) pair is consumed exactly once"
        );
        assert_eq!(
            result.contributor_seeds, 20,
            "each file has one contributor"
        );
        assert!(result.hits() <= result.requests);
    }

    #[test]
    fn clustered_caches_give_high_lru_hit_rates() {
        let caches = community(10, 40);
        let result = simulate(&caches, 40, &SimConfig::lru(5));
        // Everyone's neighbours quickly converge on the community.
        assert!(
            result.hit_rate() > 0.6,
            "hit rate {} too low for a perfect community",
            result.hit_rate()
        );
    }

    #[test]
    fn random_policy_is_much_worse_on_disjoint_communities() {
        // 20 communities of 5 peers with disjoint file sets.
        let mut caches = Vec::new();
        for c in 0..20u32 {
            for _ in 0..5 {
                caches.push((0..10).map(|k| f(c * 10 + k)).collect());
            }
        }
        let lru = simulate(&caches, 200, &SimConfig::lru(4));
        let random = simulate(&caches, 200, &SimConfig::random(4));
        assert!(
            lru.hit_rate() > random.hit_rate() + 0.2,
            "LRU {} vs random {}",
            lru.hit_rate(),
            random.hit_rate()
        );
    }

    #[test]
    fn history_also_learns() {
        let caches = community(10, 40);
        let result = simulate(&caches, 40, &SimConfig::history(5));
        assert!(
            result.hit_rate() > 0.5,
            "history hit rate {}",
            result.hit_rate()
        );
    }

    #[test]
    fn two_hop_never_hurts() {
        let mut caches = Vec::new();
        for c in 0..10u32 {
            for _ in 0..6 {
                caches.push((0..8).map(|k| f(c * 8 + k)).collect());
            }
        }
        let one = simulate(&caches, 80, &SimConfig::lru(3));
        let two = simulate(&caches, 80, &SimConfig::lru(3).with_two_hop());
        assert!(two.hit_rate() >= one.hit_rate());
        assert!(two.two_hop_hits > 0, "two-hop must answer something");
        assert_eq!(one.two_hop_hits, 0);
    }

    #[test]
    fn free_riders_issue_nothing_and_receive_nothing() {
        let mut caches = community(5, 10);
        caches.push(vec![]); // a free-rider
        let result = simulate(&caches, 10, &SimConfig::lru(5));
        assert_eq!(result.messages_per_peer[5], 0);
        assert_eq!(result.requests + result.contributor_seeds, 50);
    }

    #[test]
    fn load_is_counted_per_queried_neighbour() {
        let caches = community(4, 10);
        let result = simulate(&caches, 10, &SimConfig::lru(2));
        let total: u64 = result.messages_per_peer.iter().sum();
        // Each request queries at most 2 neighbours (less while lists
        // warm up).
        assert!(total <= result.requests * 2);
        assert!(total > 0);
        assert!(result.max_load() >= result.mean_load() as u64);
        let ranked = result.load_by_rank();
        assert!(ranked.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn deterministic_under_seed() {
        let caches = community(8, 15);
        let a = simulate(&caches, 15, &SimConfig::lru(5).with_seed(9));
        let b = simulate(&caches, 15, &SimConfig::lru(5).with_seed(9));
        assert_eq!(a, b);
        let c = simulate(&caches, 15, &SimConfig::lru(5).with_seed(10));
        // Different order, same accounting identity.
        assert_eq!(c.requests + c.contributor_seeds, 120);
        // The arena rewrite preserves the RNG call sequence exactly, so
        // the legacy implementation must agree bit-for-bit — across
        // policies, hop modes and scratch reuse.
        let mut scratch = SimScratch::new();
        let arena = CacheArena::from_caches(&caches, 15);
        for config in [
            SimConfig::lru(5).with_seed(9),
            SimConfig::lru(5).with_seed(10),
            SimConfig::history(4).with_seed(9),
            SimConfig::random(3).with_seed(9),
            SimConfig::rare_lru(5, 3).with_seed(9),
            SimConfig::lru(3).with_seed(9).with_two_hop(),
        ] {
            let legacy = simulate_reference(&caches, 15, &config);
            let fresh = simulate(&caches, 15, &config);
            let reused = simulate_arena_with_scratch(&arena, &config, &mut scratch);
            assert_eq!(legacy, fresh, "config {config:?}");
            assert_eq!(legacy, reused, "config {config:?} (reused scratch)");
        }
    }

    #[test]
    fn empty_input() {
        let result = simulate(&[], 0, &SimConfig::lru(5));
        assert_eq!(result.requests, 0);
        assert_eq!(result.hit_rate(), 0.0);
        assert_eq!(result.mean_load(), 0.0);
        assert_eq!(result.max_load(), 0);
        let (result, health) = simulate_health(&[], 0, &SimConfig::lru(5));
        assert!(health.check_against(&result).is_ok());
        assert_eq!(health, SearchHealth::default());
    }

    #[test]
    fn quiet_availability_is_bit_identical_to_reference() {
        let caches = community(8, 15);
        // A quiet schedule with a non-trivial seed and span, retries
        // armed: none of it may move a single bit.
        let quiet = AvailabilityConfig {
            churn: ChurnConfig::with_rate(0xdead_beef, 0),
            query: QueryPolicy::retry_evict(),
            virtual_days: 97,
            backend: IndexBackend::SingleServer,
            adversary: AdversaryConfig::sybils(0xfeed, 0),
            reputation: true,
        };
        assert!(quiet.is_quiet());
        for base in [
            SimConfig::lru(5).with_seed(9),
            SimConfig::history(4).with_seed(9),
            SimConfig::random(3).with_seed(9),
            SimConfig::rare_lru(5, 3).with_seed(9),
            SimConfig::lru(3).with_seed(9).with_two_hop(),
        ] {
            let reference = simulate_reference(&caches, 15, &base);
            let config = base.with_availability(quiet.clone());
            let (result, health) = simulate_health(&caches, 15, &config);
            assert_eq!(reference, result, "config {config:?}");
            assert!(health.check_against(&result).is_ok());
            assert_eq!(health.timed_out, 0);
            assert_eq!(health.retried, 0);
            assert_eq!(health.evicted_stale + health.probed_stale, 0);
            assert_eq!(health.stranded, 0);
            assert_eq!(health.recovered, 0);
            assert_eq!(health.attempted, result.requests);
        }
    }

    #[test]
    fn churn_reconciles_for_every_policy() {
        let caches = community(10, 30);
        for permille in [100u32, 250, 500, 1000] {
            for base in [
                SimConfig::lru(5),
                SimConfig::history(5),
                SimConfig::random(5),
                SimConfig::rare_lru(5, 3),
                SimConfig::lru(4).with_two_hop(),
            ] {
                for query in [QueryPolicy::no_retry(), QueryPolicy::retry_evict()] {
                    let config = base.clone().with_availability(
                        AvailabilityConfig::churn(7, permille).with_query(query),
                    );
                    let (result, health) = simulate_health(&caches, 30, &config);
                    health
                        .check_against(&result)
                        .unwrap_or_else(|e| panic!("{e} (config {config:?})"));
                    assert!(health.timed_out > 0, "churn {permille} must bite");
                }
            }
        }
    }

    #[test]
    fn churn_degrades_hits_monotonically() {
        let caches = community(12, 40);
        let hit_at = |permille: u32| {
            let config =
                SimConfig::lru(6).with_availability(AvailabilityConfig::churn(3, permille));
            simulate(&caches, 40, &config).hits()
        };
        let h0 = hit_at(0);
        let h250 = hit_at(250);
        let h1000 = hit_at(1000);
        assert!(h0 > 0);
        assert!(h250 < h0, "25% churn must cost hits ({h250} vs {h0})");
        assert_eq!(h1000, 0, "permanently offline neighbours never answer");
    }

    #[test]
    fn retries_recover_hits_under_churn() {
        let caches = community(12, 40);
        let run = |query: QueryPolicy| {
            let config = SimConfig::lru(6)
                .with_availability(AvailabilityConfig::churn(3, 250).with_query(query));
            simulate_health(&caches, 40, &config)
        };
        let (none, none_health) = run(QueryPolicy::no_retry());
        let (retry, retry_health) = run(QueryPolicy::retry_evict());
        assert!(retry_health.retried > 0);
        assert_eq!(none_health.retried, 0);
        assert!(
            retry.hits() > none.hits(),
            "retry {} vs no-retry {}",
            retry.hits(),
            none.hits()
        );
    }

    #[test]
    fn outage_strands_and_recovers() {
        let caches = community(10, 30);
        // The server dies halfway through the 14-day span: the warmed
        // overlay keeps answering (recovered), misses strand.
        let late_days: Vec<u32> = (7..200).collect();
        let config = SimConfig::lru(5).with_availability(
            AvailabilityConfig::churn(3, 250)
                .with_query(QueryPolicy::retry_evict())
                .with_outages(late_days),
        );
        let (result, health) = simulate_health(&caches, 30, &config);
        assert!(health.check_against(&result).is_ok());
        assert!(health.stranded > 0, "outage misses must strand");
        assert!(health.recovered > 0, "the warm overlay still answers");
        assert!(health.server_fallback > 0, "pre-outage misses fall back");
        assert_eq!(
            health.stranded + health.server_fallback,
            result.requests - result.hits()
        );

        // Server down from day 0: adaptive lists can never bootstrap —
        // the first acquisition needs the server — so nothing is ever
        // answered. Server-less search still *depends* on a server to
        // seed its links.
        let all_days: Vec<u32> = (0..200).collect();
        let config = SimConfig::lru(5).with_availability(
            AvailabilityConfig::churn(3, 250)
                .with_query(QueryPolicy::retry_evict())
                .with_outages(all_days),
        );
        let (result, health) = simulate_health(&caches, 30, &config);
        assert!(health.check_against(&result).is_ok());
        assert_eq!(health.server_fallback, 0, "no server to fall back to");
        assert_eq!(result.hits(), 0, "LRU lists never seed without a server");
        assert_eq!(health.stranded, result.requests);

        // No outage, same churn: nothing strands, nothing to recover.
        let config = SimConfig::lru(5).with_availability(
            AvailabilityConfig::churn(3, 250).with_query(QueryPolicy::retry_evict()),
        );
        let (result, health) = simulate_health(&caches, 30, &config);
        assert!(health.check_against(&result).is_ok());
        assert_eq!(health.stranded, 0);
        assert_eq!(health.recovered, 0);
        assert!(health.server_fallback > 0);
    }

    #[test]
    fn churn_runs_are_deterministic() {
        let caches = community(9, 25);
        let config = SimConfig::history(5).with_availability(
            AvailabilityConfig::churn(11, 400)
                .with_query(QueryPolicy::retry_evict())
                .with_outages(vec![2, 3]),
        );
        let a = simulate_health(&caches, 25, &config);
        let b = simulate_health(&caches, 25, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn reconcile_rejects_violations() {
        let health = SearchHealth {
            attempted: 5,
            answered: 3,
            server_fallback: 2,
            ..SearchHealth::default()
        };
        assert!(health.reconcile(5, 3, 0).is_ok());
        let err = health.reconcile(5, 2, 0).unwrap_err();
        assert!(err.contains("answered"), "{err}");
        let err = health.reconcile(6, 3, 0).unwrap_err();
        assert!(err.contains("requests"), "{err}");
        let bad = SearchHealth {
            recovered: 4,
            ..health
        };
        assert!(bad.reconcile(5, 3, 0).is_err());
        let bad = SearchHealth {
            attempted: 9,
            ..health
        };
        let err = bad.reconcile(5, 3, 0).unwrap_err();
        assert!(err.contains("retried"), "{err}");
        // Hops without a single fallback lookup cannot happen.
        let bad = SearchHealth {
            attempted: 5,
            answered: 5,
            server_fallback: 0,
            forwarded: 2,
            ..SearchHealth::default()
        };
        let err = bad.reconcile(5, 5, 0).unwrap_err();
        assert!(err.contains("fallback lookup"), "{err}");
    }

    /// A ledger whose `i`-th field is `2^(i + shift)`.
    fn powers(shift: u32) -> SearchHealth {
        let bit = |i: u32| 1u64 << (i + shift);
        SearchHealth {
            attempted: bit(0),
            answered: bit(1),
            timed_out: bit(2),
            retried: bit(3),
            evicted_stale: bit(4),
            probed_stale: bit(5),
            server_fallback: bit(6),
            stranded: bit(7),
            recovered: bit(8),
            forwarded: bit(9),
            dht_hops: bit(10),
            wasted_queries: bit(11),
            sybil_slots_held: bit(12),
            polluted_acquisitions: bit(13),
            reputation_evictions: bit(14),
        }
    }

    #[test]
    fn health_sum_adds_every_field_to_itself() {
        // Distinct powers of two: a field left out of the sum keeps
        // 2^i, and a field summed into the wrong one lands on a
        // different bit — either way the total is not 2^(i + 1).
        let mut sum = powers(0);
        sum += &powers(0);
        assert_eq!(sum, powers(1));
        sum += &SearchHealth::default();
        assert_eq!(sum, powers(1));
    }

    #[test]
    fn reconcile_rejects_adversary_violations() {
        let health = SearchHealth {
            attempted: 5,
            answered: 3,
            server_fallback: 2,
            ..SearchHealth::default()
        };
        let bad = SearchHealth {
            polluted_acquisitions: 3,
            ..health
        };
        let err = bad.reconcile(5, 3, 0).unwrap_err();
        assert!(err.contains("polluted_acquisitions"), "{err}");
        let bad = SearchHealth {
            sybil_slots_held: 6,
            ..health
        };
        let err = bad.reconcile(5, 3, 0).unwrap_err();
        assert!(err.contains("sybil_slots_held"), "{err}");
        let bad = SearchHealth {
            reputation_evictions: 1,
            ..health
        };
        let err = bad.reconcile(5, 3, 0).unwrap_err();
        assert!(err.contains("reputation_evictions"), "{err}");
        let ok = SearchHealth {
            sybil_slots_held: 2,
            polluted_acquisitions: 1,
            reputation_evictions: 1,
            wasted_queries: 9,
            ..health
        };
        assert!(ok.reconcile(5, 3, 0).is_ok());
    }

    #[test]
    fn adversary_reconciles_and_counts_every_attack_kind() {
        let caches = community(30, 60);
        for base in [
            SimConfig::lru(5),
            SimConfig::history(5),
            SimConfig::random(5),
            SimConfig::rare_lru(5, 3),
            SimConfig::lru(4).with_two_hop(),
        ] {
            let config = base.with_availability(
                AvailabilityConfig::none().with_adversary(
                    AdversaryConfig::sybils(21, 150)
                        .with_polluters(150)
                        .with_freeriders(150),
                ),
            );
            let (result, health) = simulate_health(&caches, 60, &config);
            health
                .check_against(&result)
                .unwrap_or_else(|e| panic!("{e} (config {config:?})"));
            assert!(health.wasted_queries > 0, "refusals must bite");
            assert!(health.sybil_slots_held > 0, "sybils must capture slots");
            assert!(
                health.polluted_acquisitions > 0,
                "polluters must poison fallbacks"
            );
            assert_eq!(health.reputation_evictions, 0, "defense is off");
        }
    }

    #[test]
    fn adversary_degrades_hits_and_defense_recovers_them() {
        let caches = community(30, 60);
        let run = |adversary: AdversaryConfig, reputation: bool| {
            let mut avail = AvailabilityConfig::none().with_adversary(adversary);
            if reputation {
                avail = avail.with_reputation();
            }
            simulate_health(&caches, 60, &SimConfig::lru(4).with_availability(avail))
        };
        let (honest, _) = run(AdversaryConfig::none(), false);
        let (attacked, attacked_health) = run(AdversaryConfig::sybils(21, 300), false);
        assert!(
            attacked.hits() < honest.hits(),
            "a 30% sybil plan must cost hits ({} vs {})",
            attacked.hits(),
            honest.hits()
        );
        let (defended, defended_health) = run(AdversaryConfig::sybils(21, 300), true);
        assert!(
            defended_health.reputation_evictions > 0,
            "defense must fire"
        );
        assert!(
            defended.hits() > attacked.hits(),
            "defense must recover hits ({} vs {})",
            defended.hits(),
            attacked.hits()
        );
        assert!(attacked_health.reputation_evictions == 0);
    }

    #[test]
    fn armed_defense_is_bitwise_free_on_honest_runs() {
        // `reputation: true` with a quiet adversary plan must change
        // nothing — even under churn, where the defense's walk branch
        // sits next to live timeout handling.
        let caches = community(10, 30);
        for base in [
            SimConfig::lru(5),
            SimConfig::history(5),
            SimConfig::random(5),
            SimConfig::rare_lru(5, 3),
        ] {
            let avail = AvailabilityConfig::churn(7, 250).with_query(QueryPolicy::retry_evict());
            let plain = base.clone().with_availability(avail.clone());
            let armed = base.with_availability(avail.with_reputation());
            assert_eq!(
                simulate_health(&caches, 30, &plain),
                simulate_health(&caches, 30, &armed)
            );
        }
    }

    /// The doctored ledger both should-panic tests use: `answered`
    /// disagrees with the hit counts.
    fn doctored_cell() -> (SearchHealth, SimResult) {
        let health = SearchHealth {
            attempted: 5,
            answered: 3,
            server_fallback: 2,
            ..SearchHealth::default()
        };
        let result = SimResult {
            requests: 5,
            one_hop_hits: 2,
            two_hop_hits: 0,
            contributor_seeds: 0,
            messages_per_peer: Vec::new(),
        };
        (health, result)
    }

    #[test]
    #[should_panic(expected = "(seed 42, list_size 5, churn_rate 250, backend single)")]
    fn reconcile_panic_names_the_cell() {
        // The panic must localize the cell by seed, list size, rate and
        // backend kind.
        let (health, result) = doctored_cell();
        let config = SimConfig::lru(5)
            .with_seed(42)
            .with_availability(AvailabilityConfig::churn(7, 250));
        health.expect_reconciled(&result, &config);
    }

    #[test]
    #[should_panic(expected = "(seed 42, list_size 5, churn_rate 250, backend federated8)")]
    fn reconcile_panic_names_the_forwarding_backend() {
        // A forwarding-backend cell must be named as such: the routing
        // path differs from the single server, so "which backend" is
        // part of the cell identity.
        let (health, result) = doctored_cell();
        let config = SimConfig::lru(5).with_seed(42).with_availability(
            AvailabilityConfig::churn(7, 250)
                .with_backend(IndexBackend::Federated { n_servers: 8 }),
        );
        health.expect_reconciled(&result, &config);
    }

    #[test]
    fn forwarding_backends_account_hops_and_preserve_results() {
        let caches = community(10, 30);
        let (base, base_health) = simulate_health(&caches, 30, &SimConfig::lru(5));
        assert_eq!(base_health.forwarded + base_health.dht_hops, 0);

        // Zero outages: the uploader pick is backend-agnostic, so the
        // SimResult is identical across backends — only the routing-cost
        // counters move.
        let fed = SimConfig::lru(5).with_backend(IndexBackend::Federated { n_servers: 8 });
        let (fed_result, fed_health) = simulate_health(&caches, 30, &fed);
        assert!(fed_health.check_against(&fed_result).is_ok());
        assert_eq!(fed_result, base);
        assert!(fed_health.forwarded > 0, "some fallback must forward");
        assert_eq!(fed_health.dht_hops, 0);

        let dht = SimConfig::lru(5).with_backend(IndexBackend::Dht { replication_k: 3 });
        let (dht_result, dht_health) = simulate_health(&caches, 30, &dht);
        assert!(dht_health.check_against(&dht_result).is_ok());
        assert_eq!(dht_result, base);
        assert!(dht_health.dht_hops > 0, "DHT lookups must walk the ring");
        assert_eq!(dht_health.forwarded, 0);
    }

    #[test]
    fn larger_lists_do_not_reduce_hits() {
        let caches = community(12, 30);
        let small = simulate(&caches, 30, &SimConfig::lru(2));
        let large = simulate(&caches, 30, &SimConfig::lru(11));
        assert!(large.hit_rate() >= small.hit_rate() - 0.02);
    }

    /// The construction [`SweepPrecomp::new_with_rng`] replaced: it
    /// shuffles bare `(peer, file)` pairs and binary-searches every
    /// entry back into its arena row to fill `rank_by`. Kept as the
    /// oracle of the property below.
    fn precomp_by_search(arena: &CacheArena, seed: u64) -> (SweepPrecomp, StdRng) {
        let n_peers = arena.n_peers();
        let n_files = arena.n_files();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream: Vec<(u32, FileRef)> = Vec::new();
        for p in 0..n_peers {
            stream.extend(arena.cache(p).iter().map(|&f| (p as u32, f)));
        }
        shuffle(&mut stream, &mut rng);
        let mut arrivals_off = vec![0u32; n_files + 1];
        for &(_, f) in &stream {
            arrivals_off[f.index() + 1] += 1;
        }
        for i in 0..n_files {
            arrivals_off[i + 1] += arrivals_off[i];
        }
        let mut cursor: Vec<u32> = arrivals_off[..n_files].to_vec();
        let mut rank = vec![0u32; stream.len()];
        let mut arrivals = vec![0 as Peer; stream.len()];
        let mut per_peer = vec![0u32; n_peers];
        for (t, &(p, f)) in stream.iter().enumerate() {
            let fi = f.index();
            rank[t] = cursor[fi] - arrivals_off[fi];
            arrivals[cursor[fi] as usize] = p;
            cursor[fi] += 1;
            per_peer[p as usize] += u32::from(rank[t] > 0);
        }
        let mut queries_off = vec![0u32; n_peers + 1];
        for p in 0..n_peers {
            queries_off[p + 1] = queries_off[p] + per_peer[p];
        }
        let requests = queries_off[n_peers] as u64;
        let mut qcursor: Vec<u32> = queries_off[..n_peers].to_vec();
        let mut queries = vec![QueryRec::BLANK; requests as usize];
        for (t, &(p, f)) in stream.iter().enumerate() {
            if rank[t] > 0 {
                queries[qcursor[p as usize] as usize] = QueryRec {
                    t: t as u32,
                    file: f,
                    rank: rank[t],
                    off: arrivals_off[f.index()],
                };
                qcursor[p as usize] += 1;
            }
        }
        let (_, offsets) = arena.as_csr_parts();
        let mut rank_by = vec![0u32; stream.len()];
        for (t, &(p, f)) in stream.iter().enumerate() {
            let pos = arena
                .cache(p as usize)
                .binary_search(&f)
                .expect("row entry");
            rank_by[offsets[p as usize] as usize + pos] = rank[t];
        }
        let pre = SweepPrecomp {
            seed,
            stream_len: stream.len(),
            arrivals,
            queries,
            queries_off,
            rank_by,
            requests,
            contributor_seeds: stream.len() as u64 - requests,
            n_peers,
        };
        (pre, rng)
    }

    proptest::proptest! {
        /// Carrying each entry's CSR index through the shuffle builds
        /// exactly what the binary-search construction builds, and
        /// leaves the generator in the same state.
        #[test]
        fn precomp_matches_the_binary_search_construction(
            rows in proptest::collection::vec(
                proptest::collection::btree_set(0u32..40, 0..10),
                0..24,
            ),
            seed in 0u64..1000,
        ) {
            let caches: Vec<Vec<FileRef>> = rows
                .iter()
                .map(|row| row.iter().map(|&i| f(i)).collect())
                .collect();
            let arena = CacheArena::from_caches(&caches, 40);
            let (got, mut got_rng) = SweepPrecomp::new_with_rng(&arena, seed);
            let (want, mut want_rng) = precomp_by_search(&arena, seed);
            proptest::prop_assert_eq!(&got.rank_by, &want.rank_by);
            proptest::prop_assert_eq!(&got.queries, &want.queries);
            proptest::prop_assert_eq!(&got.queries_off, &want.queries_off);
            proptest::prop_assert_eq!(&got.arrivals, &want.arrivals);
            proptest::prop_assert_eq!(
                (got.stream_len, got.requests, got.contributor_seeds),
                (want.stream_len, want.requests, want.contributor_seeds)
            );
            for _ in 0..4 {
                proptest::prop_assert_eq!(got_rng.gen_range(0..=u64::MAX), want_rng.gen_range(0..=u64::MAX));
            }
        }
    }
}
