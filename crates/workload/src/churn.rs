//! Deterministic peer-availability model: session churn, server
//! outages, and the query retry policy (DESIGN.md §9).
//!
//! The Section 5 simulator assumes every semantic neighbour answers
//! instantly and forever; real eDonkey populations are dominated by
//! short intermittent sessions ("Ten weeks in the life of an eDonkey
//! server", PAPERS.md). This module supplies the availability ground
//! truth the search layer is evaluated against:
//!
//! * [`ChurnSchedule`] — a seeded, **stateless** per-peer on/off
//!   schedule. Every decision is defined as a splitmix64-style hash of
//!   `(seed, salt, peer, day)` — no RNG state is consumed, so a quiet
//!   schedule (`churn_permille == 0`, no outages) leaves a simulation
//!   byte-identical to one that never consulted it, and the drawn
//!   offline *window start* is rate-independent, so the offline set at
//!   a lower churn rate is a strict subset of the set at any higher
//!   rate: availability degrades mechanically monotonically. The
//!   schedule materialises those draws once, for a fixed peer count
//!   and day horizon, into a day-major table (DESIGN.md §7): the query
//!   kernels ask "is this neighbour offline?" for every neighbour on
//!   every attempt, and a table read is a fraction of four hash rounds.
//! * [`QueryPolicy`] — the querier's reaction to timeouts: an attempt
//!   budget, exponential backoff in simulated request time, and whether
//!   stale (timed-out) neighbour entries are evicted/probed.
//!
//! Time is measured in **milli-days** (md): 1 simulated day = 1000 md,
//! so a 25% churn rate is one 250 md (~6 h) offline window per peer per
//! day. Backoffs are md too — a retry can genuinely outlive the
//! neighbour's offline window.

/// Churn-model parameters. Integer rates keep `Eq` derivable and the
/// monotonicity argument exact.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ChurnConfig {
    /// Seed for every schedule draw (independent of the simulation
    /// seed: the same workload can be replayed under many schedules).
    pub seed: u64,
    /// Per-day offline window length in milli-days (0 = always online,
    /// ≥ 1000 = never online). 250 ≈ the 25%-churn regime.
    pub churn_permille: u32,
    /// Day offsets (from the start of the run) on which the fallback
    /// server is unreachable: search is pure peer-to-peer.
    pub outage_days: Vec<u32>,
}

impl ChurnConfig {
    /// No churn, no outages: consulting the schedule changes nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Session churn at the given rate, no server outages.
    pub fn with_rate(seed: u64, churn_permille: u32) -> Self {
        ChurnConfig {
            seed,
            churn_permille,
            outage_days: Vec::new(),
        }
    }

    /// True iff every availability question is statically "yes".
    pub fn is_quiet(&self) -> bool {
        self.churn_permille == 0 && self.outage_days.is_empty()
    }
}

/// Domain-separation salts: independent decision streams share one
/// seed without correlating (same scheme as `netsim::fault`).
const SALT_SESSION: u64 = 0x5e55_10f4_c4a9_0001;
const SALT_REPLACE: u64 = 0x5e55_10f4_c4a9_0002;

use crate::mix::splitmix64 as mix;

/// The availability oracle built from a [`ChurnConfig`], materialised
/// for `n_peers` peers over a horizon of `days` days.
#[derive(Clone, Debug)]
pub struct ChurnSchedule {
    config: ChurnConfig,
    n_peers: usize,
    days: u32,
    /// `session_offline_start(peer, day)` at `day * n_peers + peer`.
    /// Empty when the rate makes `offline` a constant (0 or ≥ 1000).
    starts: Vec<u16>,
    /// `outage[day]` ⇔ `day ∈ outage_days`; days past the end are up.
    outage: Vec<bool>,
}

/// The largest churn table a schedule builds, in bytes (two per
/// `(peer, day)`). A repro-scale cell needs ≈640 KB; the cap turns a
/// policy whose retry backoff runs for years (the horizon grows with
/// [`QueryPolicy::backoff_total`]) into a clear panic instead of an
/// allocation abort.
pub const MAX_TABLE_BYTES: usize = 256 << 20;

/// The number of days a schedule must cover so that every instant in
/// `[0, last_md]` milli-days falls inside its horizon (saturating: a
/// constant-rate schedule builds no table, whatever its horizon).
pub fn days_covering(last_md: u64) -> u32 {
    u32::try_from(last_md / 1000 + 1).unwrap_or(u32::MAX)
}

impl ChurnSchedule {
    /// Builds the schedule for peers `0..n_peers` on days `0..days`:
    /// one hash per `(peer, day)` when the rate is fractional, nothing
    /// otherwise. Asking [`Self::offline`] about a day outside the
    /// horizon panics — a kernel that does so has under-sized it.
    ///
    /// # Panics
    ///
    /// Panics if a fractional rate needs a table larger than
    /// [`MAX_TABLE_BYTES`].
    pub fn new(config: ChurnConfig, n_peers: usize, days: u32) -> Self {
        let mut schedule = ChurnSchedule {
            config,
            n_peers,
            days,
            starts: Vec::new(),
            outage: Vec::new(),
        };
        if let Some(&last) = schedule.config.outage_days.iter().max() {
            schedule.outage = vec![false; last as usize + 1];
            for &day in &schedule.config.outage_days {
                schedule.outage[day as usize] = true;
            }
        }
        if (1..1000).contains(&schedule.config.churn_permille) {
            let len = n_peers.saturating_mul(days as usize);
            assert!(
                len <= MAX_TABLE_BYTES / 2,
                "churn table of {n_peers} peers x {days} days exceeds {MAX_TABLE_BYTES} \
                 bytes; shorten the retry backoff or the simulated span"
            );
            schedule.starts.reserve_exact(len);
            for day in 0..days {
                for peer in 0..n_peers as u32 {
                    let start = schedule.session_offline_start(peer, day);
                    schedule.starts.push(start as u16);
                }
            }
        }
        schedule
    }

    /// The wrapped config.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// True iff the schedule can never say "offline" or "outage".
    pub fn is_quiet(&self) -> bool {
        self.config.is_quiet()
    }

    /// One deterministic draw on the decision stream `salt`.
    fn roll(&self, salt: u64, keys: [u64; 3]) -> u64 {
        let mut h = mix(self.config.seed ^ salt);
        for k in keys {
            h = mix(h ^ k);
        }
        h
    }

    /// Where peer `peer`'s offline window starts on `day`, in
    /// milli-days `[0, 1000)`. **Rate-independent**: the same
    /// `(seed, peer, day)` always yields the same start, so raising
    /// `churn_permille` only widens every window in place. This hash
    /// is the definition the table is filled from.
    pub fn session_offline_start(&self, peer: u32, day: u32) -> u32 {
        (self.roll(SALT_SESSION, [peer as u64, day as u64, 0]) % 1000) as u32
    }

    /// Is `peer` offline at `milli` (`[0, 1000)`) of `day`? The window
    /// is `[start, start + churn_permille)` wrapping within the day.
    ///
    /// # Panics
    ///
    /// Panics if `day` is past the horizon or `peer` outside the
    /// population the schedule was built for (fractional rates only).
    #[inline]
    pub fn offline(&self, peer: u32, day: u32, milli: u32) -> bool {
        let rate = self.config.churn_permille;
        if rate == 0 {
            return false;
        }
        if rate >= 1000 {
            return true;
        }
        assert!(
            day < self.days,
            "day {day} is past the churn horizon of {} days",
            self.days
        );
        let row = day as usize * self.n_peers;
        let start = u32::from(self.starts[row..row + self.n_peers][peer as usize]);
        (milli + 1000 - start) % 1000 < rate
    }

    /// Is the fallback server unreachable on `day`?
    #[inline]
    pub fn server_out(&self, day: u32) -> bool {
        self.outage.get(day as usize).copied().unwrap_or(false)
    }

    /// Deterministic index draw for staleness *replacement* (the Random
    /// policy refills evicted slots from the sharer pool). Stateless on
    /// purpose: the simulation's main RNG sequence must not move.
    pub fn replacement_index(&self, requester: u32, stale: u32, day: u32, len: usize) -> usize {
        debug_assert!(len > 0);
        let key = ((requester as u64) << 32) | stale as u64;
        (self.roll(SALT_REPLACE, [key, day as u64, 0]) % len as u64) as usize
    }
}

/// The querier's reaction to neighbour timeouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryPolicy {
    /// Extra attempts after the first (0 = a timeout is final).
    pub max_retries: u32,
    /// Backoff before the first retry, in milli-days.
    pub backoff_base: u32,
    /// Multiplier applied per further retry.
    pub backoff_factor: u32,
    /// Evict/probe neighbour entries that timed out (per-policy
    /// reaction: see `AnyPolicy::handle_stale` in `edonkey-semsearch`).
    pub handle_stale: bool,
    /// Consecutive within-request timeouts before the staleness
    /// reaction fires (≤ 1 = react on the first timeout). Probation
    /// rather than a hair trigger: a peer caught once inside its daily
    /// offline window is *normal*; one that also misses the backed-off
    /// retry is worth reacting to.
    pub stale_after: u32,
}

impl QueryPolicy {
    /// The paper's implicit policy: one attempt, stale entries kept.
    pub fn no_retry() -> Self {
        QueryPolicy {
            max_retries: 0,
            backoff_base: 0,
            backoff_factor: 1,
            handle_stale: false,
            stale_after: 1,
        }
    }

    /// Retry with exponential backoff (60, 240, 960 md ≈ 1.4 h, 5.8 h,
    /// 23 h) and staleness handling after three consecutive timeouts.
    /// The backoffs are sized so the attempt sequence outlives any
    /// sub-day offline window, and the staleness threshold so that the
    /// first three attempt instants (t, t+60, t+300) cannot all fall
    /// inside one sub-300 md session window: the reaction targets peers
    /// gone across windows, not peers napping inside one — evicting on
    /// a shorter streak measurably purges lists faster than uploads
    /// refill them.
    pub fn retry_evict() -> Self {
        QueryPolicy {
            max_retries: 3,
            backoff_base: 60,
            backoff_factor: 4,
            handle_stale: true,
            stale_after: 3,
        }
    }

    /// Backoff in milli-days before retry number `attempt + 1`
    /// (`attempt` counts completed attempts, 0-based).
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        let factor = (self.backoff_factor as u64).saturating_pow(attempt);
        (self.backoff_base as u64).saturating_mul(factor)
    }

    /// The longest a request can run past its first attempt: the sum
    /// of every retry's backoff. A schedule must cover this much past
    /// the last first-attempt instant.
    pub fn backoff_total(&self) -> u64 {
        (0..self.max_retries).fold(0u64, |sum, a| sum.saturating_add(self.backoff_for(a)))
    }
}

impl Default for QueryPolicy {
    fn default() -> Self {
        Self::no_retry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_schedule_never_says_offline() {
        let s = ChurnSchedule::new(ChurnConfig::none(), 50, 20);
        assert!(s.is_quiet());
        for peer in 0..50 {
            for day in 0..20 {
                for milli in [0, 250, 999] {
                    assert!(!s.offline(peer, day, milli));
                }
                assert!(!s.server_out(day));
            }
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = ChurnSchedule::new(ChurnConfig::with_rate(7, 250), 200, 10);
        let b = ChurnSchedule::new(ChurnConfig::with_rate(7, 250), 200, 10);
        let c = ChurnSchedule::new(ChurnConfig::with_rate(8, 250), 200, 10);
        let mut differs = false;
        for peer in 0..200 {
            for day in 0..10 {
                assert_eq!(
                    a.session_offline_start(peer, day),
                    b.session_offline_start(peer, day)
                );
                if a.session_offline_start(peer, day) != c.session_offline_start(peer, day) {
                    differs = true;
                }
            }
        }
        assert!(differs, "different seeds must give different schedules");
    }

    #[test]
    fn offline_windows_nest_across_rates() {
        // Same seed, increasing rate: every (peer, day, milli) offline
        // at the lower rate is offline at the higher one.
        let lo = ChurnSchedule::new(ChurnConfig::with_rate(42, 100), 100, 5);
        let hi = ChurnSchedule::new(ChurnConfig::with_rate(42, 400), 100, 5);
        for peer in 0..100 {
            for day in 0..5 {
                for milli in (0..1000).step_by(13) {
                    if lo.offline(peer, day, milli) {
                        assert!(hi.offline(peer, day, milli));
                    }
                }
            }
        }
    }

    #[test]
    fn offline_fraction_matches_rate() {
        let s = ChurnSchedule::new(ChurnConfig::with_rate(3, 250), 200, 4);
        let mut offline = 0u64;
        let mut total = 0u64;
        for peer in 0..200 {
            for day in 0..4 {
                for milli in 0..1000 {
                    total += 1;
                    if s.offline(peer, day, milli) {
                        offline += 1;
                    }
                }
            }
        }
        // The window is exactly 250 md per (peer, day) by construction.
        assert_eq!(offline * 1000, total * 250);
    }

    #[test]
    fn extreme_rates() {
        let always = ChurnSchedule::new(ChurnConfig::with_rate(1, 1000), 10, 10);
        assert!(always.offline(0, 0, 0));
        let beyond = ChurnSchedule::new(ChurnConfig::with_rate(1, 5000), 10, 10);
        assert!(beyond.offline(9, 9, 999));
    }

    #[test]
    fn outages_are_day_scoped() {
        let mut config = ChurnConfig::with_rate(5, 0);
        config.outage_days = vec![3, 4];
        let s = ChurnSchedule::new(
            ChurnConfig {
                outage_days: vec![3, 4],
                ..config
            },
            10,
            10,
        );
        assert!(!s.is_quiet(), "outage-only schedules are not quiet");
        assert!(!s.server_out(2));
        assert!(s.server_out(3));
        assert!(s.server_out(4));
        assert!(!s.server_out(5));
        // Churn stays off: the two knobs are independent.
        assert!(!s.offline(0, 3, 500));
    }

    #[test]
    fn table_matches_the_hash_through_the_retry_horizon() {
        // Requests spread over 6 days, each retried up to the full
        // `retry_evict` backoff: the table must answer exactly as the
        // defining hash at every instant an attempt can reach.
        let query = QueryPolicy::retry_evict();
        let days = days_covering(6 * 1000 - 1 + query.backoff_total());
        assert_eq!(days, 8, "6 days plus 1260 md of backoff end in day 7");
        for rate in [1, 250, 999] {
            let s = ChurnSchedule::new(ChurnConfig::with_rate(17, rate), 40, days);
            for peer in 0..40 {
                for day in 0..days {
                    let start = s.session_offline_start(peer, day);
                    for milli in 0..1000 {
                        let hashed = (milli + 1000 - start) % 1000 < rate;
                        assert_eq!(s.offline(peer, day, milli), hashed);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "past the churn horizon")]
    fn a_day_past_the_horizon_panics() {
        let s = ChurnSchedule::new(ChurnConfig::with_rate(17, 250), 40, 8);
        s.offline(0, 8, 0);
    }

    #[test]
    fn constant_rates_need_no_table() {
        for rate in [0, 1000, 5000] {
            let s = ChurnSchedule::new(ChurnConfig::with_rate(2, rate), 20_000, u32::MAX);
            assert!(s.starts.is_empty(), "rate {rate} built a table");
            // No table, so no horizon to fall off.
            assert_eq!(s.offline(5000, 5000, 0), rate >= 1000);
        }
    }

    #[test]
    #[should_panic(expected = "churn table of 20000 peers x 4294967295 days")]
    fn a_saturated_backoff_is_refused_before_allocating() {
        let q = QueryPolicy {
            max_retries: 100,
            backoff_base: u32::MAX,
            backoff_factor: u32::MAX,
            handle_stale: false,
            stale_after: 1,
        };
        let days = days_covering(999u64.saturating_add(q.backoff_total()));
        ChurnSchedule::new(ChurnConfig::with_rate(4, 250), 20_000, days);
    }

    #[test]
    #[should_panic(expected = "exceeds 268435456 bytes")]
    fn one_day_over_the_cap_is_refused() {
        let days = (MAX_TABLE_BYTES / 2 / 1024) as u32 + 1;
        ChurnSchedule::new(ChurnConfig::with_rate(4, 250), 1024, days);
    }

    #[test]
    fn outages_past_the_listed_days_are_up() {
        let mut config = ChurnConfig::none();
        config.outage_days = vec![9, 2];
        let s = ChurnSchedule::new(config, 0, 0);
        let out: Vec<u32> = (0..20).filter(|&d| s.server_out(d)).collect();
        assert_eq!(out, vec![2, 9]);
        assert!(!s.server_out(u32::MAX));
    }

    #[test]
    fn backoff_total_sums_every_retry() {
        assert_eq!(QueryPolicy::retry_evict().backoff_total(), 60 + 240 + 960);
        assert_eq!(QueryPolicy::no_retry().backoff_total(), 0);
    }

    #[test]
    fn replacement_draws_are_stable_and_in_range() {
        let s = ChurnSchedule::new(ChurnConfig::with_rate(11, 250), 10, 10);
        for len in [1usize, 2, 17, 1000] {
            for stale in 0..20 {
                let i = s.replacement_index(5, stale, 2, len);
                assert!(i < len);
                assert_eq!(i, s.replacement_index(5, stale, 2, len));
            }
        }
    }

    #[test]
    fn backoff_grows_geometrically() {
        let q = QueryPolicy::retry_evict();
        assert_eq!(q.backoff_for(0), 60);
        assert_eq!(q.backoff_for(1), 240);
        assert_eq!(q.backoff_for(2), 960);
        let none = QueryPolicy::no_retry();
        assert_eq!(none.max_retries, 0);
        assert_eq!(none.backoff_for(0), 0);
        assert_eq!(QueryPolicy::default(), QueryPolicy::no_retry());
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let q = QueryPolicy {
            max_retries: 100,
            backoff_base: u32::MAX,
            backoff_factor: u32::MAX,
            handle_stale: false,
            stale_after: 1,
        };
        assert_eq!(q.backoff_for(90), u64::MAX);
    }
}
