//! The appendix trace-randomization algorithm.
//!
//! Goal (quoting the paper): *"modify a collection of peer cache contents
//! so that the peer generosity (number of files cached per peer) and the
//! file popularity (number of replicas per file) are maintained, while any
//! other structure — in particular, interest-based clustering between
//! peers — is destroyed."*
//!
//! One iteration:
//! 1. pick a peer `u` with probability `|Cu| / Σ|Cw|`;
//! 2. pick a file `f` uniformly from `Cu`;
//! 3. likewise pick `(v, f')`;
//! 4. swap `f` and `f'` between the two caches — only if `f' ∉ Cu` and
//!    `f ∉ Cv`.
//!
//! Steps 1+2 together are exactly "pick a *replica* uniformly at random",
//! which is how [`Shuffler`] implements them: a flat replica array gives
//! O(1) sampling, and per-peer hash sets give O(1) membership tests, so a
//! full randomization pass is O(N log N) total.
//!
//! The paper proves `½·N·ln N` iterations suffice (`N` = total replicas);
//! [`recommended_iterations`] computes that bound and
//! [`randomize_caches`] applies it.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::Rng;

use crate::compact::CacheArena;
use crate::model::FileRef;

/// The paper's sufficient iteration count: `½ · N · ln N` for `N` total
/// replicas (at least 1 for tiny non-empty traces).
///
/// # Examples
///
/// ```
/// use edonkey_trace::randomize::recommended_iterations;
/// assert_eq!(recommended_iterations(0), 0);
/// // ½ · 1000 · ln 1000 ≈ 3454.
/// assert_eq!(recommended_iterations(1000), 3454);
/// ```
pub fn recommended_iterations(total_replicas: usize) -> u64 {
    if total_replicas < 2 {
        return if total_replicas == 0 { 0 } else { 1 };
    }
    let n = total_replicas as f64;
    (0.5 * n * n.ln()).ceil() as u64
}

/// Statistics from a randomization run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Iterations attempted (steps 1–3 executed).
    pub attempted: u64,
    /// Swaps actually performed (membership checks passed).
    pub performed: u64,
}

/// Incremental randomizer over a set of peer caches.
///
/// Owns the caches while shuffling; [`Shuffler::into_caches`] returns them
/// (each sorted) when done. Fig. 21 needs *partial* randomization — hit
/// rate as a function of swap count — which is why this is exposed as a
/// stateful object rather than a single function.
pub struct Shuffler {
    /// Cache contents, indexed by peer. Order within a cache is arbitrary
    /// while shuffling.
    caches: Vec<Vec<FileRef>>,
    /// Membership sets mirroring `caches`.
    members: Vec<HashSet<FileRef>>,
    /// Flat index of every replica as `(peer, slot)`.
    replicas: Vec<(u32, u32)>,
    stats: SwapStats,
}

impl Shuffler {
    /// Builds a shuffler over per-peer caches (entries need not be
    /// sorted; they must be duplicate-free per peer).
    ///
    /// # Panics
    ///
    /// Panics if a cache contains a duplicate entry: replica counts would
    /// silently change otherwise.
    pub fn new(caches: Vec<Vec<FileRef>>) -> Self {
        let mut replicas = Vec::with_capacity(caches.iter().map(Vec::len).sum());
        let mut members = Vec::with_capacity(caches.len());
        for (peer, cache) in caches.iter().enumerate() {
            let set: HashSet<FileRef> = cache.iter().copied().collect();
            assert_eq!(set.len(), cache.len(), "peer {peer} cache has duplicates");
            members.push(set);
            for slot in 0..cache.len() {
                replicas.push((peer as u32, slot as u32));
            }
        }
        Shuffler {
            caches,
            members,
            replicas,
            stats: SwapStats::default(),
        }
    }

    /// Total number of replicas `N`.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> SwapStats {
        self.stats
    }

    /// Runs `iterations` swap attempts.
    pub fn run(&mut self, iterations: u64, rng: &mut impl Rng) {
        if self.replicas.len() < 2 {
            // Nothing can ever swap; still record the attempts.
            self.stats.attempted += iterations;
            return;
        }
        for _ in 0..iterations {
            self.step(rng);
        }
    }

    /// Runs one swap attempt; returns whether a swap was performed.
    pub fn step(&mut self, rng: &mut impl Rng) -> bool {
        self.stats.attempted += 1;
        if self.replicas.len() < 2 {
            return false;
        }
        // Uniform replica picks implement the size-biased peer picks.
        let a = rng.gen_range(0..self.replicas.len());
        let b = rng.gen_range(0..self.replicas.len());
        let (pu, su) = self.replicas[a];
        let (pv, sv) = self.replicas[b];
        if pu == pv {
            // Swapping within one cache is a no-op (and the membership
            // guard below would reject it anyway).
            return false;
        }
        let f = self.caches[pu as usize][su as usize];
        let f2 = self.caches[pv as usize][sv as usize];
        if self.members[pu as usize].contains(&f2) || self.members[pv as usize].contains(&f) {
            return false;
        }
        self.caches[pu as usize][su as usize] = f2;
        self.caches[pv as usize][sv as usize] = f;
        self.members[pu as usize].remove(&f);
        self.members[pu as usize].insert(f2);
        self.members[pv as usize].remove(&f2);
        self.members[pv as usize].insert(f);
        self.stats.performed += 1;
        true
    }

    /// Read-only view of the current caches (unsorted).
    pub fn caches(&self) -> &[Vec<FileRef>] {
        &self.caches
    }

    /// Finishes shuffling, returning the caches sorted per peer.
    pub fn into_caches(mut self) -> Vec<Vec<FileRef>> {
        for cache in &mut self.caches {
            cache.sort_unstable();
        }
        self.caches
    }
}

/// Deterministic open-addressed set of `(peer, file)` replica pairs —
/// the arena-backed membership index behind [`ArenaShuffler`].
///
/// Keys are `peer << 32 | file`, hashed with a splitmix-style mixer and
/// probed linearly; deletions use backward-shift so no tombstones
/// accumulate over millions of swaps. The replica count is invariant
/// under swapping, so the table is sized once (2× occupancy, power of
/// two) and never rehashes. Everything is flat `u64`s: no per-peer
/// `HashSet`, no SipHash.
struct PairSet {
    slots: Vec<u64>,
    mask: usize,
}

const PAIR_EMPTY: u64 = u64::MAX;

/// The finalizer of splitmix64 — a full-avalanche mixer, so linear
/// probing sees well-spread hashes even for dense peer/file ids.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl PairSet {
    fn with_capacity(pairs: usize) -> Self {
        let cap = (pairs.max(1) * 2).next_power_of_two().max(16);
        PairSet {
            slots: vec![PAIR_EMPTY; cap],
            mask: cap - 1,
        }
    }

    fn key(peer: u32, file: FileRef) -> u64 {
        ((peer as u64) << 32) | file.0 as u64
    }

    fn contains(&self, peer: u32, file: FileRef) -> bool {
        let key = Self::key(peer, file);
        let mut i = mix64(key) as usize & self.mask;
        loop {
            let slot = self.slots[i];
            if slot == key {
                return true;
            }
            if slot == PAIR_EMPTY {
                return false;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn insert(&mut self, peer: u32, file: FileRef) {
        let key = Self::key(peer, file);
        debug_assert_ne!(key, PAIR_EMPTY);
        let mut i = mix64(key) as usize & self.mask;
        while self.slots[i] != PAIR_EMPTY {
            debug_assert_ne!(self.slots[i], key, "pair inserted twice");
            i = (i + 1) & self.mask;
        }
        self.slots[i] = key;
    }

    fn remove(&mut self, peer: u32, file: FileRef) {
        let key = Self::key(peer, file);
        let mut i = mix64(key) as usize & self.mask;
        while self.slots[i] != key {
            debug_assert_ne!(self.slots[i], PAIR_EMPTY, "removing an absent pair");
            i = (i + 1) & self.mask;
        }
        // Backward-shift deletion: close the hole by moving back any
        // displaced entry whose home slot precedes the hole.
        let mut hole = i;
        let mut j = (i + 1) & self.mask;
        loop {
            let slot = self.slots[j];
            if slot == PAIR_EMPTY {
                break;
            }
            let home = mix64(slot) as usize & self.mask;
            // `slot` may shift back into the hole only if its home lies
            // outside the (cyclic) range (hole, j].
            let reachable = if hole <= j {
                home <= hole || home > j
            } else {
                home <= hole && home > j
            };
            if reachable {
                self.slots[hole] = slot;
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        self.slots[hole] = PAIR_EMPTY;
    }
}

/// A cheap, resumable snapshot of an [`ArenaShuffler`]'s progress: the
/// flat replica contents, the swap statistics, and the RNG state.
///
/// Taking one is two flat memcpys (entries + offsets) and a 32-byte RNG
/// clone — no per-peer structures — which is what lets the Fig. 21
/// randomization-decay sweep resume each prefix instead of replaying
/// the whole swap chain from zero.
#[derive(Clone, Debug)]
pub struct ShuffleCheckpoint {
    stats: SwapStats,
    files: Vec<FileRef>,
    offsets: Vec<u32>,
    n_files: usize,
    rng: StdRng,
}

impl ShuffleCheckpoint {
    /// Swap statistics at the checkpoint.
    pub fn stats(&self) -> SwapStats {
        self.stats
    }

    /// Rebuilds a live shuffler (and its RNG) from the checkpoint. The
    /// membership index and replica array are reconstructed in O(N);
    /// continuing the run draws the exact RNG sequence the original
    /// would have drawn, so a resumed run is byte-identical to an
    /// uninterrupted one.
    pub fn resume(&self) -> (ArenaShuffler, StdRng) {
        let mut shuffler =
            ArenaShuffler::from_parts(self.files.clone(), self.offsets.clone(), self.n_files);
        shuffler.stats = self.stats;
        (shuffler, self.rng.clone())
    }
}

/// Arena-backed incremental randomizer: the CSR counterpart of
/// [`Shuffler`].
///
/// Caches live in one flat entry array with a per-peer offset table
/// (rows are unsorted while shuffling, exactly like [`Shuffler`]'s
/// per-cache `Vec`s); membership is a flat open-addressed `PairSet`
/// instead of one `HashSet` per peer.
///
/// [`Shuffler`] keeps an explicit replica array of `(peer, slot)` pairs
/// in peer-major order. In CSR layout that array is the identity:
/// replica `i` *is* entry position `i`, with `owner[i]` naming its peer.
/// So a replica draw needs one `owner` load and one `files` load — no
/// `(peer, slot)` tuple, no offset lookup — while remaining the same
/// uniform pick over the same ordering. [`ArenaShuffler::step`] draws
/// the same two `gen_range` calls, so the whole swap chain is
/// byte-identical to the row-path oracle under any seed.
pub struct ArenaShuffler {
    /// Flat cache entries; peer `p`'s row is
    /// `files[offsets[p]..offsets[p + 1]]`, unsorted while shuffling.
    files: Vec<FileRef>,
    /// Row bounds, length `n_peers + 1`.
    offsets: Vec<u32>,
    /// Owning peer of each entry position (the CSR row index, flattened
    /// out so a replica draw is a single load).
    owner: Vec<u32>,
    /// O(1) membership over `(peer, file)` pairs.
    members: PairSet,
    /// Exclusive upper bound of the file-id space.
    n_files: usize,
    stats: SwapStats,
}

impl ArenaShuffler {
    /// Builds an arena shuffler over a packed cache arena.
    ///
    /// # Panics
    ///
    /// Panics if a cache contains a duplicate entry (the arena
    /// constructors already reject that, but adopted CSR parts could
    /// carry one) — replica counts would silently change otherwise.
    pub fn new(arena: &CacheArena) -> Self {
        let (files, offsets) = arena.as_csr_parts();
        Self::from_parts(files.to_vec(), offsets.to_vec(), arena.n_files())
    }

    /// Builds the shuffler from raw CSR parts (rows need not be sorted;
    /// they must be duplicate-free per peer).
    fn from_parts(files: Vec<FileRef>, offsets: Vec<u32>, n_files: usize) -> Self {
        let n_peers = offsets.len() - 1;
        let mut owner = Vec::with_capacity(files.len());
        let mut members = PairSet::with_capacity(files.len());
        for p in 0..n_peers {
            let (lo, hi) = (offsets[p] as usize, offsets[p + 1] as usize);
            for &f in &files[lo..hi] {
                assert!(
                    !members.contains(p as u32, f),
                    "peer {p} cache has duplicates"
                );
                members.insert(p as u32, f);
                owner.push(p as u32);
            }
        }
        ArenaShuffler {
            files,
            offsets,
            owner,
            members,
            n_files,
            stats: SwapStats::default(),
        }
    }

    /// Total number of replicas `N`.
    pub fn replica_count(&self) -> usize {
        self.files.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> SwapStats {
        self.stats
    }

    /// Runs `iterations` swap attempts — the same RNG draw sequence as
    /// [`Shuffler::run`].
    pub fn run(&mut self, iterations: u64, rng: &mut impl Rng) {
        if self.files.len() < 2 {
            // Nothing can ever swap; still record the attempts.
            self.stats.attempted += iterations;
            return;
        }
        for _ in 0..iterations {
            self.step(rng);
        }
    }

    /// Runs one swap attempt; returns whether a swap was performed.
    /// Draw-for-draw and branch-for-branch identical to
    /// [`Shuffler::step`].
    pub fn step(&mut self, rng: &mut impl Rng) -> bool {
        self.stats.attempted += 1;
        if self.files.len() < 2 {
            return false;
        }
        // Uniform position draws are exactly the legacy uniform replica
        // draws: replica `i` in peer-major order is entry position `i`.
        let a = rng.gen_range(0..self.files.len());
        let b = rng.gen_range(0..self.files.len());
        let pu = self.owner[a];
        let pv = self.owner[b];
        if pu == pv {
            return false;
        }
        let f = self.files[a];
        let f2 = self.files[b];
        if self.members.contains(pu, f2) || self.members.contains(pv, f) {
            return false;
        }
        self.files[a] = f2;
        self.files[b] = f;
        self.members.remove(pu, f);
        self.members.insert(pu, f2);
        self.members.remove(pv, f2);
        self.members.insert(pv, f);
        self.stats.performed += 1;
        true
    }

    /// Captures a resumable checkpoint of the current state, pairing the
    /// cache contents with the caller's RNG state.
    pub fn checkpoint(&self, rng: &StdRng) -> ShuffleCheckpoint {
        ShuffleCheckpoint {
            stats: self.stats,
            files: self.files.clone(),
            offsets: self.offsets.clone(),
            n_files: self.n_files,
            rng: rng.clone(),
        }
    }

    /// Packs the current caches into a fresh [`CacheArena`] (rows
    /// sorted), leaving the shuffler free to keep running — the
    /// per-checkpoint snapshot of the randomization sweep.
    pub fn snapshot_arena(&self) -> CacheArena {
        let mut files = self.files.clone();
        for w in self.offsets.windows(2) {
            files[w[0] as usize..w[1] as usize].sort_unstable();
        }
        // Swaps only permute entries between already-validated rows, so
        // the parts stay a valid CSR; skip the revalidation pass.
        CacheArena::from_csr_parts_trusted(files, self.offsets.clone(), self.n_files)
    }

    /// Finishes shuffling, returning the packed arena (rows sorted).
    pub fn into_arena(self) -> CacheArena {
        self.snapshot_arena()
    }
}

/// Fully randomizes a set of caches with the paper's recommended
/// iteration count, returning the shuffled caches and run statistics.
///
/// # Examples
///
/// ```
/// use edonkey_trace::model::FileRef;
/// use edonkey_trace::randomize::randomize_caches;
/// use rand::SeedableRng;
///
/// let caches = vec![
///     vec![FileRef(0), FileRef(1)],
///     vec![FileRef(2)],
///     vec![FileRef(0), FileRef(3)],
/// ];
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let (shuffled, stats) = randomize_caches(caches.clone(), &mut rng);
/// // Generosity is preserved...
/// assert_eq!(shuffled[0].len(), 2);
/// assert_eq!(shuffled[1].len(), 1);
/// assert!(stats.attempted > 0);
/// ```
pub fn randomize_caches(
    caches: Vec<Vec<FileRef>>,
    rng: &mut impl Rng,
) -> (Vec<Vec<FileRef>>, SwapStats) {
    let mut shuffler = Shuffler::new(caches);
    let iterations = recommended_iterations(shuffler.replica_count());
    shuffler.run(iterations, rng);
    let stats = shuffler.stats();
    (shuffler.into_caches(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::HashMap;

    fn replica_histogram(caches: &[Vec<FileRef>]) -> HashMap<FileRef, usize> {
        let mut h = HashMap::new();
        for cache in caches {
            for &f in cache {
                *h.entry(f).or_insert(0) += 1;
            }
        }
        h
    }

    fn test_caches() -> Vec<Vec<FileRef>> {
        // 20 peers, caches of varying sizes over 30 files, plus free-riders.
        let mut caches = Vec::new();
        for p in 0..20u32 {
            if p % 5 == 4 {
                caches.push(Vec::new());
                continue;
            }
            let size = 1 + (p % 7) as usize;
            let cache: Vec<FileRef> = (0..size)
                .map(|k| FileRef(((p as usize * 3 + k * 5) % 30) as u32))
                .collect();
            let mut cache = cache;
            cache.sort_unstable();
            cache.dedup();
            caches.push(cache);
        }
        caches
    }

    #[test]
    fn preserves_generosity_and_popularity() {
        let caches = test_caches();
        let sizes: Vec<usize> = caches.iter().map(Vec::len).collect();
        let popularity = replica_histogram(&caches);
        let mut rng = StdRng::seed_from_u64(42);
        let (shuffled, stats) = randomize_caches(caches, &mut rng);
        assert_eq!(shuffled.iter().map(Vec::len).collect::<Vec<_>>(), sizes);
        assert_eq!(replica_histogram(&shuffled), popularity);
        assert!(stats.performed > 0);
        assert!(stats.performed <= stats.attempted);
    }

    #[test]
    fn caches_stay_duplicate_free() {
        let caches = test_caches();
        let mut rng = StdRng::seed_from_u64(1);
        let (shuffled, _) = randomize_caches(caches, &mut rng);
        for cache in &shuffled {
            let set: HashSet<FileRef> = cache.iter().copied().collect();
            assert_eq!(set.len(), cache.len());
            // into_caches sorts.
            assert!(cache.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn actually_destroys_structure() {
        // Two tight communities sharing disjoint file sets; after full
        // randomization, cross-community replicas must appear.
        let mut caches = Vec::new();
        for p in 0..10u32 {
            let base = if p < 5 { 0 } else { 100 };
            caches.push((0..10).map(|k| FileRef(base + ((p + k) % 20))).collect());
        }
        let mut rng = StdRng::seed_from_u64(3);
        let (shuffled, _) = randomize_caches(caches, &mut rng);
        let mixed = shuffled[..5]
            .iter()
            .flatten()
            .filter(|f| f.0 >= 100)
            .count();
        assert!(
            mixed > 5,
            "expected cross-community files after shuffling, got {mixed}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let (a, _) = randomize_caches(test_caches(), &mut rng1);
        let (b, _) = randomize_caches(test_caches(), &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let (empty, stats) = randomize_caches(vec![], &mut rng);
        assert!(empty.is_empty());
        assert_eq!(stats.performed, 0);
        // One replica total: nothing can swap.
        let (one, stats) = randomize_caches(vec![vec![FileRef(1)], vec![]], &mut rng);
        assert_eq!(one, vec![vec![FileRef(1)], vec![]]);
        assert_eq!(stats.performed, 0);
    }

    #[test]
    #[should_panic(expected = "duplicates")]
    fn duplicate_cache_entries_rejected() {
        let _ = Shuffler::new(vec![vec![FileRef(1), FileRef(1)]]);
    }

    #[test]
    fn step_reports_swap_outcome() {
        let mut shuffler = Shuffler::new(vec![vec![FileRef(0)], vec![FileRef(1)]]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut swapped = false;
        for _ in 0..50 {
            swapped |= shuffler.step(&mut rng);
        }
        assert!(swapped);
        let caches = shuffler.into_caches();
        let all: Vec<FileRef> = caches.into_iter().flatten().collect();
        let set: HashSet<_> = all.iter().copied().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn recommended_iterations_monotone() {
        let mut prev = 0;
        for n in [0usize, 1, 2, 10, 100, 1000, 10_000] {
            let it = recommended_iterations(n);
            assert!(it >= prev);
            prev = it;
        }
    }

    #[test]
    fn pair_set_insert_contains_remove() {
        let mut set = PairSet::with_capacity(8);
        for p in 0..4u32 {
            for f in 0..2u32 {
                set.insert(p, FileRef(f));
            }
        }
        for p in 0..4u32 {
            assert!(set.contains(p, FileRef(0)));
            assert!(set.contains(p, FileRef(1)));
            assert!(!set.contains(p, FileRef(2)));
        }
        set.remove(2, FileRef(1));
        assert!(!set.contains(2, FileRef(1)));
        assert!(set.contains(2, FileRef(0)));
        // Re-insert after a backward-shift deletion still resolves.
        set.insert(2, FileRef(1));
        assert!(set.contains(2, FileRef(1)));
    }

    #[test]
    fn arena_shuffler_draws_identically_to_row_shuffler() {
        let caches = test_caches();
        let n_files = 30;
        let mut row = Shuffler::new(caches.clone());
        let mut csr = ArenaShuffler::new(&CacheArena::from_caches(&caches, n_files));
        let mut rng_row = StdRng::seed_from_u64(0xDEC0);
        let mut rng_csr = StdRng::seed_from_u64(0xDEC0);
        for _ in 0..500 {
            assert_eq!(csr.step(&mut rng_csr), row.step(&mut rng_row));
        }
        assert_eq!(csr.stats(), row.stats());
        // Both RNGs must sit at the same point in the stream.
        assert_eq!(rng_row.next_u64(), rng_csr.next_u64());
        let row_caches = row.into_caches();
        assert_eq!(csr.into_arena().to_caches(), row_caches);
    }

    #[test]
    fn arena_shuffler_run_matches_randomize_caches() {
        let caches = test_caches();
        let mut rng_row = StdRng::seed_from_u64(7);
        let (row_caches, row_stats) = randomize_caches(caches.clone(), &mut rng_row);
        let mut csr = ArenaShuffler::new(&CacheArena::from_caches(&caches, 30));
        let mut rng_csr = StdRng::seed_from_u64(7);
        csr.run(recommended_iterations(csr.replica_count()), &mut rng_csr);
        assert_eq!(csr.stats(), row_stats);
        assert_eq!(csr.into_arena().to_caches(), row_caches);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let caches = test_caches();
        let arena = CacheArena::from_caches(&caches, 30);

        // Uninterrupted: 800 swaps in one go.
        let mut full = ArenaShuffler::new(&arena);
        let mut rng = StdRng::seed_from_u64(99);
        full.run(800, &mut rng);

        // Interrupted: 300 swaps, checkpoint, drop the shuffler, resume
        // 500 with the checkpoint's RNG (shadowing the interrupted one).
        let mut prefix = ArenaShuffler::new(&arena);
        let mut rng = StdRng::seed_from_u64(99);
        prefix.run(300, &mut rng);
        let ckpt = prefix.checkpoint(&rng);
        drop(prefix);
        let (mut resumed, mut rng) = ckpt.resume();
        assert_eq!(resumed.stats().attempted, 300);
        resumed.run(500, &mut rng);

        assert_eq!(resumed.stats(), full.stats());
        assert_eq!(
            resumed.snapshot_arena().to_caches(),
            full.snapshot_arena().to_caches()
        );
    }

    #[test]
    fn arena_shuffler_degenerate_inputs() {
        // Fewer than two replicas: attempts are counted, RNG untouched.
        let arena = CacheArena::from_caches(&[vec![FileRef(0)], vec![]], 1);
        let mut s = ArenaShuffler::new(&arena);
        let mut rng = StdRng::seed_from_u64(3);
        s.run(10, &mut rng);
        let stats = s.stats();
        assert_eq!(stats.attempted, 10);
        assert_eq!(stats.performed, 0);
        let mut fresh = StdRng::seed_from_u64(3);
        assert_eq!(rng.next_u64(), fresh.next_u64());
        assert_eq!(s.into_arena().to_caches(), vec![vec![FileRef(0)], vec![]]);
    }
}
