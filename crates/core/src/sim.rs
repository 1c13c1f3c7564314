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
use std::time::Instant;

use crate::index::{IndexBackend, IndexRoute};
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
    /// `mark[p] == generation` ⇔ peer `p` is an *online, queried*
    /// neighbour of the current requester. Stale entries are
    /// invalidated by the generation bump — never by clearing the
    /// array.
    mark: Vec<u64>,
    generation: u64,
    /// Per-attempt copy of the requester's neighbour list: staleness
    /// reactions mutate the list mid-walk.
    query_buf: Vec<Peer>,
    /// Per-request consecutive-timeout streaks `(neighbour, streak)` —
    /// the previous attempt's and the one being walked.
    stale_prev: Vec<(Peer, u32)>,
    stale_cur: Vec<(Peer, u32)>,
    /// Pooled per-peer neighbour policies, renewed in place each run
    /// ([`AnyPolicy::renew`] replays the construction draw sequence, so
    /// reuse is invisible to the RNG stream).
    policies: Vec<AnyPolicy>,
    /// Pooled candidate pool (the non-free-riders) for random lists.
    sharer_pool: Vec<Peer>,
    /// Two-hop probe: the requested file's sharers that would answer
    /// now, in arrival order, and — when there are many of them —
    /// their ranks: `sharer_at[p] == (generation, i)` ⇔ `p` is
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
        mark,
        generation,
        query_buf,
        stale_prev,
        stale_cur,
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
    if mark.len() < n_peers {
        mark.resize(n_peers, 0);
    }

    let mut result = SimResult {
        requests: 0,
        one_hop_hits: 0,
        two_hop_hits: 0,
        contributor_seeds: 0,
        messages_per_peer: vec![0; n_peers],
    };
    let mut health = SearchHealth::default();

    // Availability: quiet schedules take none of the branches below, so
    // the pre-churn behaviour (and RNG sequence) is preserved exactly.
    let availability = &config.availability;
    let schedule = availability.schedule(n_peers);
    let quiet = schedule.is_quiet();
    let query = availability.query;
    // Adversary: a quiet plan takes none of the branches below and
    // consumes no RNG, so honest runs are bit-identical to runs that
    // never consulted it. The defense books are only allocated (and
    // only consulted) when both the plan and the flag are armed, which
    // is what makes `reputation` mechanically free on honest runs.
    let plan = AdversaryPlan::new(availability.adversary.clone(), n_peers);
    let adv_quiet = plan.is_quiet();
    let defend = availability.reputation && !adv_quiet;
    let exposure = availability.backend.pollution_exposure();
    let mut books: Vec<ReputationBook> = if defend {
        vec![ReputationBook::default(); n_peers]
    } else {
        Vec::new()
    };
    // Final misses route through the index backend; SingleServer is the
    // byte-identical pre-trait path (outage check + zero-cost resolve).
    let router = availability.backend.router(config.seed);
    // The static stream is spread uniformly over the virtual span, in
    // milli-days (1 day = 1000 md).
    let span_millis = u64::from(availability.virtual_days.max(1)) * 1000;
    let stream_len = stream.len().max(1) as u64;

    for (t, &(peer, file)) in stream.iter().enumerate() {
        let peer_idx = peer as usize;
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

        let base_millis = t as u64 * span_millis / stream_len;
        let mut elapsed = 0u64;
        let mut attempt = 0u32;
        stale_prev.clear();

        let (mut uploader, hop, day, milli) = loop {
            health.attempted += 1;
            if attempt > 0 {
                health.retried += 1;
            }
            let now = base_millis + elapsed;
            let day = (now / 1000) as u32;
            let milli = (now % 1000) as u32;

            // Querying loads every *online* one-hop neighbour; the same
            // walk stamps the mark array for the membership probe
            // below. The list is copied out first because staleness
            // reactions mutate it mid-walk.
            *generation += 1;
            let mut saw_timeout = false;
            query_buf.clear();
            query_buf.extend_from_slice(policies[peer_idx].neighbours());
            stale_cur.clear();
            for &n in query_buf.iter() {
                if !quiet && schedule.offline(n, day, milli) {
                    // Timed out: no message delivered, no mark stamped.
                    saw_timeout = true;
                    health.timed_out += 1;
                    if query.handle_stale {
                        let streak = stale_prev
                            .iter()
                            .find(|&&(p, _)| p == n)
                            .map_or(1, |&(_, s)| s + 1);
                        stale_cur.push((n, streak));
                        if streak >= query.stale_after.max(1) {
                            // Only the Random policy wants a
                            // replacement; it is drawn statelessly so
                            // the main RNG sequence never moves.
                            let replacement = match config.policy {
                                PolicyKind::Random if !sharer_pool.is_empty() => {
                                    let i =
                                        schedule.replacement_index(peer, n, day, sharer_pool.len());
                                    Some(sharer_pool[i])
                                }
                                _ => None,
                            };
                            match policies[peer_idx].handle_stale(n, replacement) {
                                StaleReaction::Evicted | StaleReaction::Replaced => {
                                    health.evicted_stale += 1;
                                }
                                StaleReaction::Probed => health.probed_stale += 1,
                                StaleReaction::Kept => {}
                            }
                        }
                    }
                } else if !adv_quiet && plan.answers_nothing(n) {
                    // Refused: the adversary is online and the query
                    // costs a message, but no answer comes back and no
                    // mark is stamped. Not a timeout — no retry or
                    // staleness fires; only the reputation score can
                    // clear the slot.
                    result.messages_per_peer[n as usize] += 1;
                    health.wasted_queries += 1;
                    if defend && books[peer_idx].on_query(n) {
                        let replacement = match config.policy {
                            PolicyKind::Random if !sharer_pool.is_empty() => {
                                let i = schedule.replacement_index(peer, n, day, sharer_pool.len());
                                Some(sharer_pool[i])
                            }
                            _ => None,
                        };
                        if policies[peer_idx].expel(n, replacement) {
                            health.reputation_evictions += 1;
                        }
                    }
                } else {
                    result.messages_per_peer[n as usize] += 1;
                    mark[n as usize] = *generation;
                }
            }
            std::mem::swap(stale_prev, stale_cur);

            // One-hop: does any current sharer sit among the online
            // queried neighbours? Iterating sharers (popularity-sized)
            // beats iterating the list for rare files, and is
            // equivalent.
            let file_sharers = &sharer_flat[head..head + f_len];
            let mut uploader: Option<Peer> = file_sharers
                .iter()
                .copied()
                .find(|&s| mark[s as usize] == *generation);
            let mut hop = 1;

            // Two-hop: query each online neighbour's neighbours; the
            // second-hop holder must itself be online to answer. The
            // answer is the first relay (in list order) holding any
            // answering sharer and, of those, the earliest to arrive.
            // A few answering sharers are each found in a relay's list
            // by a vectorised scan; more are stamped once with their
            // arrival rank and each relay's list is walked once (see
            // `TWO_HOP_SCAN_MAX`). Either way a relay costs O(list),
            // never O(list × sharers).
            if uploader.is_none() && config.two_hop {
                answering.clear();
                answering.extend(file_sharers.iter().copied().filter(|&s| {
                    s != peer
                        && (quiet || !schedule.offline(s, day, milli))
                        && (adv_quiet || !plan.answers_nothing(s))
                }));
                let relays = query_buf
                    .iter()
                    .filter(|&&n| mark[n as usize] == *generation)
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
                        sharer_at[s as usize] = (*generation, i as u32);
                    }
                    relays
                        .flat_map(|list| {
                            list.iter()
                                .filter_map(|&m| {
                                    let (stamp, i) = sharer_at[m as usize];
                                    (stamp == *generation).then_some(i)
                                })
                                .min()
                        })
                        .next()
                        .map(|i| answering[i as usize])
                };
                if found.is_some() {
                    uploader = found;
                    hop = 2;
                }
            }

            // Retry only when something actually timed out: a
            // definitive miss over fully online neighbours is final.
            if uploader.is_some() || !saw_timeout || attempt >= query.max_retries {
                break (uploader, hop, day, milli);
            }
            elapsed += query.backoff_for(attempt);
            attempt += 1;
        };

        let mut fell_back = false;
        match uploader {
            Some(_) => {
                if hop == 1 {
                    result.one_hop_hits += 1;
                } else {
                    result.two_hop_hits += 1;
                }
                health.answered += 1;
                if schedule.server_out(day) {
                    health.recovered += 1;
                }
            }
            None => {
                let lookup = router.lookup(&schedule, peer, file, day, milli);
                health.forwarded += lookup.forwarded;
                health.dht_hops += lookup.dht_hops;
                if !lookup.resolved {
                    // Overlay miss with the index unreachable: the
                    // request strands — nothing acquired, nothing
                    // recorded, no RNG consumed.
                    health.stranded += 1;
                    continue;
                }
                // Server fallback: a uniform current sharer uploads the
                // file, picked statelessly from the stream position (see
                // [`fallback_index`]). The pick is backend-agnostic —
                // the backend decides reachability and routing cost,
                // never *who* uploads — so zero-outage runs agree
                // across backends, and quiet SingleServer runs stay
                // bit-identical to the reference.
                let pick = sharer_flat[head + fallback_index(config.seed, t as u64, f_len)];
                health.server_fallback += 1;
                fell_back = true;
                uploader = Some(pick);
            }
        }

        let uploader = uploader.expect("an uploader always exists here");
        if adv_quiet {
            policies[peer_idx].record_upload_with_popularity(uploader, f_len as u32);
        } else {
            // Pollution strikes first (only fallback acquisitions
            // resolve through the index), a sybil hijack otherwise.
            // Either replaces only the *recorded* uploader — the
            // acquisition itself completes, so the sharer table below
            // grows exactly as in the honest run.
            let mut recorded = uploader;
            let mut polluted = false;
            let mut hijacked = false;
            if fell_back {
                if let Some(pol) = plan.polluter(file.index() as u64, exposure) {
                    recorded = pol;
                    polluted = true;
                }
            }
            if !polluted {
                if let Some(syb) = plan.hijacker(peer, t as u64) {
                    recorded = syb;
                    hijacked = true;
                }
            }
            if defend && (polluted || hijacked) && books[peer_idx].banned(recorded) {
                // A banned peer's claim is void: the querier ignores it
                // and credits the peer it actually downloaded from. The
                // capture dies; the learning signal survives. Refusing
                // re-admission — not expulsion — is what starves an
                // attacker out of the overlay.
                recorded = uploader;
                polluted = false;
                hijacked = false;
            }
            if defend && books[peer_idx].banned(recorded) {
                // The genuine uploader itself is banned (a fallback pick
                // can land on an attacker): nothing is recorded.
            } else {
                if polluted {
                    health.polluted_acquisitions += 1;
                } else if hijacked {
                    health.sybil_slots_held += 1;
                }
                let (added, removed) =
                    policies[peer_idx].record_upload_with_popularity_delta(recorded, f_len as u32);
                if defend {
                    let book = &mut books[peer_idx];
                    if polluted || hijacked {
                        // Suspect any slot the adversary now holds —
                        // won by this record or refreshed by it. A
                        // record the policy rejected outright captured
                        // nothing worth scoring. A repeat capture while
                        // already on probation fires the ban outright.
                        if (added == Some(recorded) || policies[peer_idx].contains(recorded))
                            && book.suspect(recorded)
                            && policies[peer_idx].expel(recorded, None)
                        {
                            health.reputation_evictions += 1;
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
/// a correctness oracle: `deterministic_under_seed`, the property tests
/// and the benchmark harness all compare the arena and split-cell paths
/// against it. The only change since the seed version is the server
/// fallback, which is now drawn statelessly from the stream position
/// (see [`fallback_index`]) in lockstep with the optimised paths.
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
/// stranding breaks the same arrival-rank invariance, and their hop
/// accounting has no mirror in the quiet interval-settled path — they
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
#[derive(Clone, Copy, Debug)]
pub(crate) struct QueryRec {
    pub(crate) t: u32,
    pub(crate) file: FileRef,
    pub(crate) rank: u32,
    pub(crate) off: u32,
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
    pub(crate) stream: Vec<(u32, FileRef)>,
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
    /// Builds the precomputation: one shuffle plus two linear passes.
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

        let mut stream: Vec<(u32, FileRef)> = Vec::with_capacity(arena.replica_count());
        for p in 0..n_peers {
            stream.extend(arena.cache(p).iter().map(|&f| (p as u32, f)));
        }
        shuffle(&mut stream, &mut rng);

        // Arrival CSR offsets: per-file replica counts, prefix-summed.
        let mut arrivals_off = vec![0u32; n_files + 1];
        for &(_, f) in &stream {
            arrivals_off[f.index() + 1] += 1;
        }
        for i in 0..n_files {
            arrivals_off[i + 1] += arrivals_off[i];
        }

        // Single pass: per-entry rank, arrival-ordered sharers, per-peer
        // request counts.
        let mut cursor: Vec<u32> = arrivals_off[..n_files].to_vec();
        let mut rank = vec![0u32; stream.len()];
        let mut arrivals = vec![0 as Peer; stream.len()];
        let mut per_peer = vec![0u32; n_peers];
        let mut requests = 0u64;
        for (t, &(p, f)) in stream.iter().enumerate() {
            let fi = f.index();
            let r = cursor[fi] - arrivals_off[fi];
            rank[t] = r;
            arrivals[cursor[fi] as usize] = p;
            cursor[fi] += 1;
            if r > 0 {
                per_peer[p as usize] += 1;
                requests += 1;
            }
        }
        let contributor_seeds = stream.len() as u64 - requests;

        // Request positions per querier (CSR over peers).
        let mut queries_off = vec![0u32; n_peers + 1];
        for p in 0..n_peers {
            queries_off[p + 1] = queries_off[p] + per_peer[p];
        }
        let mut qcursor: Vec<u32> = queries_off[..n_peers].to_vec();
        let mut queries = vec![
            QueryRec {
                t: 0,
                file: FileRef(0),
                rank: 0,
                off: 0
            };
            requests as usize
        ];
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

        // Arrival rank per arena CSR entry, for the member-major probe.
        let (entries, offsets) = arena.as_csr_parts();
        let mut rank_by = vec![0u32; entries.len()];
        for (t, &(p, f)) in stream.iter().enumerate() {
            let row = arena.cache(p as usize);
            let pos = row
                .binary_search(&f)
                .expect("stream entries come from arena rows");
            rank_by[offsets[p as usize] as usize + pos] = rank[t];
        }

        (
            SweepPrecomp {
                seed,
                stream,
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

/// Per-worker scratch for [`simulate_cell_range`]: one pooled policy
/// (renewed per querier), the churn-path walk buffers, and the quiet
/// path's interval ledger.
#[derive(Debug, Default)]
pub struct SplitScratch {
    policy: Option<AnyPolicy>,
    /// Quiet path: `start_of[p]` is the request index at which member
    /// `p` became queryable — messages are settled per *interval* on
    /// eviction instead of per request. Only meaningful while `p` is
    /// marked with the current generation.
    start_of: Vec<u32>,
    /// Membership marks: `mark[p] == generation` ⇔ `p` is currently a
    /// list member (quiet path) or an online, queried neighbour (churn
    /// path). Maintained incrementally from the policy's upload deltas
    /// on the quiet path, so the hot hit check is one array load.
    mark: Vec<u64>,
    generation: u64,
    query_buf: Vec<Peer>,
    stale_prev: Vec<(Peer, u32)>,
    stale_cur: Vec<(Peer, u32)>,
    quiet: QuietState,
}

impl SplitScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sentinel for "no peer" in [`QuietState`]'s intrusive links.
const NO_PEER: u32 = u32::MAX;

/// Peer-indexed policy state for the quiet split path.
///
/// The `neighbours` policies hash every membership test and `memmove`
/// every head insert; amortised over ~10⁵ requests per cell that is
/// most of a sweep's runtime. This mirror keeps the identical delta
/// semantics (pinned by the split determinism tests) with O(1) LRU
/// updates over intrusive recency links and generation-stamped History
/// counters — no hashing, no per-querier clearing. All per-peer arrays
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
    /// exactly [`History`]'s list order.
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

    /// Number of current list members.
    #[inline]
    fn member_count(&self, kind: QuietKind) -> usize {
        match kind {
            QuietKind::History => self.list.len(),
            _ => self.len,
        }
    }

    /// Visits every current member (order is irrelevant to callers:
    /// min-rank probes and interval settling are order-free).
    #[inline]
    fn for_each_member(&self, kind: QuietKind, mut f: impl FnMut(u32)) {
        match kind {
            QuietKind::History => self.list.iter().for_each(|&m| f(m)),
            _ => {
                let mut m = self.head;
                while m != NO_PEER {
                    f(m);
                    m = self.next[m as usize];
                }
            }
        }
    }

    /// End-of-querier settling walk: visits every member while clearing
    /// its membership bit, restoring the all-zero invariant `reset`
    /// relies on.
    fn settle_members(&mut self, kind: QuietKind, mut f: impl FnMut(u32)) {
        match kind {
            QuietKind::History => {
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

/// The split-eligible policy kinds, with the rare-file cutoff resolved.
#[derive(Clone, Copy, Debug)]
enum QuietKind {
    Lru,
    History,
    RareLru { max_sources: u32 },
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
        self.health.attempted += other.health.attempted;
        self.health.answered += other.health.answered;
        self.health.timed_out += other.health.timed_out;
        self.health.retried += other.health.retried;
        self.health.evicted_stale += other.health.evicted_stale;
        self.health.probed_stale += other.health.probed_stale;
        self.health.server_fallback += other.health.server_fallback;
        self.health.stranded += other.health.stranded;
        self.health.recovered += other.health.recovered;
        self.health.forwarded += other.health.forwarded;
        self.health.dht_hops += other.health.dht_hops;
        self.health.wasted_queries += other.health.wasted_queries;
        self.health.sybil_slots_held += other.health.sybil_slots_held;
        self.health.polluted_acquisitions += other.health.polluted_acquisitions;
        self.health.reputation_evictions += other.health.reputation_evictions;
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
    let mut part = CellPartial {
        one_hop_hits: 0,
        messages: vec![0; pre.n_peers],
        health: SearchHealth::default(),
        intersect_ns: 0,
        update_ns: 0,
    };
    let quiet = config.availability.is_quiet();
    for p in peers.0..peers.1 {
        let lo = pre.queries_off[p as usize] as usize;
        let hi = pre.queries_off[p as usize + 1] as usize;
        if lo == hi {
            continue;
        }
        let requests = &pre.queries[lo..hi];
        if quiet {
            simulate_querier_quiet(arena, pre, config, requests, scratch, profile, &mut part);
        } else {
            simulate_querier_churn(pre, config, schedule, requests, scratch, profile, &mut part);
        }
    }
    part
}

/// Renews the pooled split-path policy for the next querier. Split
/// cells exclude the Random policy, so construction never draws RNG.
fn renew_split_policy<'a>(
    slot: &'a mut Option<AnyPolicy>,
    config: &SimConfig,
) -> &'a mut AnyPolicy {
    match slot {
        Some(policy) => policy.renew_adaptive(config.policy, config.list_size),
        None => *slot = Some(AnyPolicy::new_adaptive(config.policy, config.list_size)),
    }
    slot.as_mut().expect("slot was just filled")
}

/// Member-major hit check cutoff: prefer probing the (≤ list-size)
/// members against the arena when the file's sharer prefix is this many
/// times longer than the list. Purely a cost heuristic — both probes
/// return the member with the minimal arrival rank, i.e. the same
/// uploader the sequential sharer-order scan finds.
pub(crate) const MEMBER_MAJOR_CUTOFF: usize = 128;

/// Quiet-regime querier replay: interval-settled messages, rank-based
/// hit checks, no walk buffers.
fn simulate_querier_quiet(
    arena: &CacheArena,
    pre: &SweepPrecomp,
    config: &SimConfig,
    requests: &[QueryRec],
    scratch: &mut SplitScratch,
    profile: bool,
    part: &mut CellPartial,
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
        PolicyKind::Random => unreachable!("Random cells are split-ineligible"),
    };
    let cap = config.list_size;
    let (arena_files, arena_offsets) = arena.as_csr_parts();
    if start_of.len() < pre.n_peers {
        start_of.resize(pre.n_peers, 0);
    }
    quiet.reset(pre.n_peers);
    *generation += 1;
    let generation = *generation;
    for (q, rec) in requests.iter().enumerate() {
        let q = q as u32;
        let file = rec.file;
        let r = rec.rank as usize;
        let prefix = &pre.arrivals[rec.off as usize..rec.off as usize + r];

        // One-hop hit: the member with the minimal arrival rank below
        // `r` — identical to scanning the sharer list (which *is*
        // `prefix`) for the first member. Popular files probe
        // member-major via the arena; rare files scan the prefix, with
        // membership one array load (the marks mirror the list via the
        // upload deltas below).
        let t0 = profile.then(Instant::now);
        let uploader = if r > MEMBER_MAJOR_CUTOFF * quiet.member_count(kind).max(1) {
            let mut best: Option<(u32, Peer)> = None;
            quiet.for_each_member(kind, |m| {
                let row_lo = arena_offsets[m as usize] as usize;
                let row_hi = arena_offsets[m as usize + 1] as usize;
                if let Ok(pos) = arena_files[row_lo..row_hi].binary_search(&file) {
                    let rk = pre.rank_by[row_lo + pos];
                    if (rk as usize) < r && best.is_none_or(|(b, _)| rk < b) {
                        best = Some((rk, m));
                    }
                }
            });
            best.map(|(_, m)| m)
        } else {
            prefix.iter().copied().find(|&s| quiet.is_member(s))
        };
        if let Some(t0) = t0 {
            part.intersect_ns += t0.elapsed().as_nanos() as u64;
        }

        part.health.attempted += 1;
        let uploader = match uploader {
            Some(u) => {
                part.one_hop_hits += 1;
                part.health.answered += 1;
                u
            }
            None => {
                part.health.server_fallback += 1;
                prefix[fallback_index(pre.seed, u64::from(rec.t), r)]
            }
        };

        // Policy update + interval settling: a member evicted after
        // request `q` was queried during `[start, q]`.
        let t0 = profile.then(Instant::now);
        let (added, removed) = match kind {
            QuietKind::Lru => quiet.lru_record(uploader, cap),
            QuietKind::History => quiet.hist_record(uploader, cap, generation),
            QuietKind::RareLru { max_sources } => {
                if r as u32 <= max_sources {
                    quiet.lru_record(uploader, cap)
                } else {
                    (None, None)
                }
            }
        };
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
    quiet.settle_members(kind, |m| {
        part.messages[m as usize] += u64::from(total - start_of[m as usize]);
    });
}

/// Churn-regime querier replay: the full timeout/retry/staleness walk of
/// the whole-cell path, restricted to one querier. Message accounting is
/// immediate (attempts differ per request, so intervals don't apply);
/// hit checks consult the mark array stamped during the walk, exactly
/// like the sequential path.
fn simulate_querier_churn(
    pre: &SweepPrecomp,
    config: &SimConfig,
    schedule: &ChurnSchedule,
    requests: &[QueryRec],
    scratch: &mut SplitScratch,
    profile: bool,
    part: &mut CellPartial,
) {
    let policy = renew_split_policy(&mut scratch.policy, config);
    if scratch.mark.len() < pre.n_peers {
        scratch.mark.resize(pre.n_peers, 0);
    }
    let availability = &config.availability;
    let query = availability.query;
    let span_millis = u64::from(availability.virtual_days.max(1)) * 1000;
    let stream_len = pre.stream.len().max(1) as u64;

    for rec in requests {
        let t = rec.t;
        let r = rec.rank as usize;
        let prefix = &pre.arrivals[rec.off as usize..rec.off as usize + r];

        let base_millis = u64::from(t) * span_millis / stream_len;
        let mut elapsed = 0u64;
        let mut attempt = 0u32;
        scratch.stale_prev.clear();

        let uploader = loop {
            part.health.attempted += 1;
            if attempt > 0 {
                part.health.retried += 1;
            }
            let now = base_millis + elapsed;
            let day = (now / 1000) as u32;
            let milli = (now % 1000) as u32;

            scratch.generation += 1;
            let mut saw_timeout = false;
            scratch.query_buf.clear();
            scratch.query_buf.extend_from_slice(policy.neighbours());
            scratch.stale_cur.clear();
            let t0 = profile.then(Instant::now);
            for &n in scratch.query_buf.iter() {
                if schedule.offline(n, day, milli) {
                    saw_timeout = true;
                    part.health.timed_out += 1;
                    if query.handle_stale {
                        let streak = scratch
                            .stale_prev
                            .iter()
                            .find(|&&(p, _)| p == n)
                            .map_or(1, |&(_, s)| s + 1);
                        scratch.stale_cur.push((n, streak));
                        if streak >= query.stale_after.max(1) {
                            // Random is split-ineligible, so no
                            // replacement is ever drawn here.
                            match policy.handle_stale(n, None) {
                                StaleReaction::Evicted | StaleReaction::Replaced => {
                                    part.health.evicted_stale += 1;
                                }
                                StaleReaction::Probed => part.health.probed_stale += 1,
                                StaleReaction::Kept => {}
                            }
                        }
                    }
                } else {
                    part.messages[n as usize] += 1;
                    scratch.mark[n as usize] = scratch.generation;
                }
            }
            std::mem::swap(&mut scratch.stale_prev, &mut scratch.stale_cur);
            let uploader: Option<Peer> = prefix
                .iter()
                .copied()
                .find(|&s| scratch.mark[s as usize] == scratch.generation);
            if let Some(t0) = t0 {
                part.intersect_ns += t0.elapsed().as_nanos() as u64;
            }

            if uploader.is_some() || !saw_timeout || attempt >= query.max_retries {
                break uploader;
            }
            elapsed += query.backoff_for(attempt);
            attempt += 1;
        };

        let uploader = match uploader {
            Some(u) => {
                part.one_hop_hits += 1;
                part.health.answered += 1;
                u
            }
            None => {
                // No outage days on the split path, so the fallback
                // server is always up: nothing strands.
                part.health.server_fallback += 1;
                prefix[fallback_index(pre.seed, u64::from(t), r)]
            }
        };
        let t0 = profile.then(Instant::now);
        let _ = policy.record_upload_with_popularity_delta(uploader, r as u32);
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
}
