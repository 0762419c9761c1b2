//! Streaming determinism hashes.
//!
//! Two complementary digests make the paper's central guarantee — a
//! deterministic total order over sub-threads that survives exceptions —
//! checkable in O(1) memory, replacing the old capped `grant_trace` vector:
//!
//! * [`ScheduleHash`] folds the **grant order** (the exact total order the
//!   order enforcer produced, including re-grants after squashes). Two
//!   same-seed, fault-free runs must produce identical schedule hashes.
//! * [`RetiredOrderHash`] folds each logical thread's **retirement
//!   sequence** and combines the per-thread digests commutatively. It is
//!   invariant to cross-thread interleaving and to the fresh sub-thread ids
//!   that re-execution assigns, so a run that suffered exceptions converges
//!   to the same digest as a fault-free run for order-faithful workloads —
//!   this is the "globally precise restart" observable.
//!
//! Both use FNV-1a over little-endian `u64` words: stable across platforms
//! and releases, cheap enough for the grant hot path.

use std::cell::Cell;

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Derives a stable domain-separation seed from a workload name.
///
/// Two structurally identical schedules from *different* programs must not
/// share digests (the `swaptions`/`histogram` collision: same thread count,
/// same per-thread op structure, hence identical order hashes). Folding the
/// name into the hash seed separates the domains without perturbing the
/// order-sensitivity of the digests themselves. Returns 0 for an empty
/// name, which both hash types treat as "unseeded".
pub fn name_seed(name: &str) -> u64 {
    if name.is_empty() {
        return 0;
    }
    let mut h = FNV_OFFSET;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A streaming FNV-1a hasher over `u64` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one word (as 8 little-endian bytes).
    pub fn write_u64(&mut self, word: u64) {
        let mut h = self.0;
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Streaming digest of the grant order (sub-thread id, thread id) pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleHash {
    hash: Fnv1a,
    grants: u64,
}

impl Default for ScheduleHash {
    fn default() -> Self {
        ScheduleHash {
            hash: Fnv1a::new(),
            grants: 0,
        }
    }
}

impl ScheduleHash {
    /// A fresh, empty schedule digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// A digest domain-separated by `seed` (see [`name_seed`]); seed 0 is
    /// identical to [`ScheduleHash::new`].
    pub fn seeded(seed: u64) -> Self {
        let mut h = Self::default();
        if seed != 0 {
            h.hash.write_u64(seed);
        }
        h
    }

    /// Folds one grant, in total order.
    pub fn record(&mut self, subthread: u64, thread: u32) {
        self.hash.write_u64(subthread);
        self.hash.write_u64(thread as u64);
        self.grants += 1;
    }

    /// Number of grants folded so far.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// The digest; stable for a given grant sequence.
    pub fn digest(&self) -> u64 {
        if self.grants == 0 {
            return 0;
        }
        let mut h = self.hash;
        h.write_u64(self.grants);
        h.finish()
    }
}

/// Commutative-across-threads digest of per-thread retirement sequences.
///
/// Each thread accumulates an FNV-1a stream of
/// `(per-thread retirement index, sub-thread kind tag)` — deliberately NOT
/// the sub-thread id, which changes when a squashed sub-thread re-executes
/// under a fresh sequence number. Thread digests (salted with the thread
/// id) are combined with wrapping addition, making the total insensitive to
/// cross-thread retirement interleaving, which legitimately differs between
/// a fault-free run and a recovered run.
///
/// The combined digest is cached: each thread's finalized digest is kept
/// beside the wrapping sum of them all, and [`RetiredOrderHash::record`]
/// only marks its thread stale. A durable run asks for the digest after
/// every retirement, so [`RetiredOrderHash::digest`] re-finalizes just the
/// thread that changed since the last call (every thread only when several
/// did): one finalization per retirement, not one per thread.
#[derive(Debug, Clone, Default)]
pub struct RetiredOrderHash {
    /// thread id → (retire count, running hash); Vec keyed by insertion
    /// order, linear scan (thread counts are small).
    threads: Vec<(u32, u64, Fnv1a)>,
    /// Domain-separation seed folded into every per-thread stream (0 =
    /// unseeded, the historical digest).
    seed: u64,
    /// Each thread's finalized digest as last added into `sum`, index-aligned
    /// with `threads`.
    finals: Vec<Cell<u64>>,
    /// Wrapping sum of `finals`.
    sum: Cell<u64>,
    /// Which of `finals` lag their stream: [`FRESH`] (none), `ix + 1`
    /// (only thread slot `ix`), or [`STALE`] (possibly several).
    stale: Cell<usize>,
}

/// `RetiredOrderHash::stale`: every cached thread digest is current.
const FRESH: usize = 0;
/// `RetiredOrderHash::stale`: more than one cached thread digest may lag.
const STALE: usize = usize::MAX;

/// Equal streams, whatever each side has cached.
impl PartialEq for RetiredOrderHash {
    fn eq(&self, other: &Self) -> bool {
        (&self.threads, self.seed) == (&other.threads, other.seed)
    }
}

impl Eq for RetiredOrderHash {}

impl RetiredOrderHash {
    /// A fresh, empty retirement digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// A digest domain-separated by `seed` (see [`name_seed`]); seed 0 is
    /// identical to [`RetiredOrderHash::new`]. The seed prefixes every
    /// per-thread stream, so the commutative wrapping-add combination of
    /// per-thread digests is preserved.
    pub fn seeded(seed: u64) -> Self {
        RetiredOrderHash {
            seed,
            ..Self::default()
        }
    }

    /// Folds one retirement for `thread` with the retired sub-thread's
    /// stable kind tag.
    pub fn record(&mut self, thread: u32, kind: u8) {
        let ix = match self.threads.iter().position(|&(t, _, _)| t == thread) {
            Some(ix) => ix,
            None => {
                let mut h = Fnv1a::new();
                if self.seed != 0 {
                    h.write_u64(self.seed);
                }
                self.threads.push((thread, 0, h));
                self.finals.push(Cell::new(0));
                self.threads.len() - 1
            }
        };
        let slot = &mut self.threads[ix];
        slot.2.write_u64(slot.1);
        slot.2.write_u64(kind as u64);
        slot.1 += 1;
        let stale = self.stale.get_mut();
        *stale = if *stale == FRESH || *stale == ix + 1 {
            ix + 1
        } else {
            STALE
        };
    }

    /// Total retirements folded.
    pub fn retirements(&self) -> u64 {
        self.threads.iter().map(|(_, n, _)| n).sum()
    }

    /// Per-thread `(thread, retired count)` splits in first-retirement
    /// order — the durable checkpoint metadata a restarted run verifies
    /// its replay against.
    pub fn splits(&self) -> Vec<(u32, u64)> {
        self.threads.iter().map(|&(t, n, _)| (t, n)).collect()
    }

    /// The combined digest: per-thread finalized digests (salted with the
    /// thread id and its count) summed with wrapping addition.
    pub fn digest(&self) -> u64 {
        let stale = match self.stale.replace(FRESH) {
            FRESH => 0..0,
            STALE => 0..self.threads.len(),
            slot => slot - 1..slot,
        };
        for ix in stale {
            let (thread, count, mut h) = self.threads[ix];
            h.write_u64(thread as u64);
            h.write_u64(count);
            let fin = h.finish();
            let old = self.finals[ix].replace(fin);
            self.sum
                .set(self.sum.get().wrapping_sub(old).wrapping_add(fin));
        }
        self.sum.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The digest computed the way it was before it was cached: every
    /// thread re-finalized and summed.
    fn recomputed(h: &RetiredOrderHash) -> u64 {
        h.threads.iter().fold(0u64, |acc, &(thread, count, mut f)| {
            f.write_u64(thread as u64);
            f.write_u64(count);
            acc.wrapping_add(f.finish())
        })
    }

    proptest! {
        /// Under any interleaving of `record` and `digest` — threads that
        /// first retire mid-stream, several threads between two digests,
        /// digests with nothing recorded between them — the cached digest
        /// equals a full recompute, seeded or not.
        #[test]
        fn cached_digest_equals_a_full_recompute(
            seeded in any::<bool>(),
            ops in proptest::collection::vec((0u32..12, 0u8..6, 0u8..3), 0..200),
        ) {
            let seed = if seeded { name_seed("dedup") } else { 0 };
            let (mut h, mut unasked) = (RetiredOrderHash::seeded(seed), RetiredOrderHash::seeded(seed));
            for (thread, kind, digests) in ops {
                h.record(thread, kind);
                unasked.record(thread, kind);
                for _ in 0..digests {
                    prop_assert_eq!(h.digest(), recomputed(&h));
                }
            }
            // Equality sees the streams, not what each side has cached.
            prop_assert!(h == unasked);
            prop_assert_eq!(h.digest(), recomputed(&h));
            prop_assert_eq!(unasked.digest(), h.digest());
        }
    }

    #[test]
    fn schedule_hash_is_order_sensitive() {
        let mut a = ScheduleHash::new();
        a.record(0, 0);
        a.record(1, 1);
        let mut b = ScheduleHash::new();
        b.record(1, 1);
        b.record(0, 0);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.grants(), 2);
    }

    #[test]
    fn schedule_hash_is_reproducible() {
        let run = |seq: &[(u64, u32)]| {
            let mut h = ScheduleHash::new();
            for &(s, t) in seq {
                h.record(s, t);
            }
            h.digest()
        };
        let seq = [(0, 0), (1, 1), (2, 0), (3, 2)];
        assert_eq!(run(&seq), run(&seq));
        assert_ne!(run(&seq), run(&seq[..3]));
    }

    #[test]
    fn empty_schedule_digest_is_zero() {
        assert_eq!(ScheduleHash::new().digest(), 0);
        let mut h = ScheduleHash::new();
        h.record(0, 0);
        assert_ne!(h.digest(), 0);
    }

    #[test]
    fn retired_hash_ignores_interleaving() {
        // Thread 0 retires kinds [1, 2]; thread 1 retires kinds [3].
        let mut a = RetiredOrderHash::new();
        a.record(0, 1);
        a.record(1, 3);
        a.record(0, 2);
        let mut b = RetiredOrderHash::new();
        b.record(1, 3);
        b.record(0, 1);
        b.record(0, 2);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.retirements(), 3);
    }

    #[test]
    fn retired_hash_is_per_thread_order_sensitive() {
        let mut a = RetiredOrderHash::new();
        a.record(0, 1);
        a.record(0, 2);
        let mut b = RetiredOrderHash::new();
        b.record(0, 2);
        b.record(0, 1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn retired_hash_distinguishes_threads() {
        let mut a = RetiredOrderHash::new();
        a.record(0, 1);
        let mut b = RetiredOrderHash::new();
        b.record(1, 1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn name_seed_separates_workloads() {
        assert_eq!(name_seed(""), 0);
        assert_ne!(name_seed("swaptions"), 0);
        assert_ne!(name_seed("swaptions"), name_seed("histogram"));
        assert_eq!(name_seed("swaptions"), name_seed("swaptions"));
    }

    #[test]
    fn zero_seed_matches_unseeded() {
        let mut a = ScheduleHash::new();
        let mut b = ScheduleHash::seeded(0);
        a.record(0, 0);
        b.record(0, 0);
        assert_eq!(a.digest(), b.digest());
        let mut a = RetiredOrderHash::new();
        let mut b = RetiredOrderHash::seeded(0);
        a.record(0, 1);
        b.record(0, 1);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn seeds_separate_identical_orders() {
        // The swaptions/histogram collision shape: identical grant and
        // retirement structure, different program names.
        let (s1, s2) = (name_seed("swaptions"), name_seed("histogram"));
        let mut a = ScheduleHash::seeded(s1);
        let mut b = ScheduleHash::seeded(s2);
        for i in 0..8 {
            a.record(i, (i % 3) as u32);
            b.record(i, (i % 3) as u32);
        }
        assert_ne!(a.digest(), b.digest());
        let mut a = RetiredOrderHash::seeded(s1);
        let mut b = RetiredOrderHash::seeded(s2);
        for i in 0..8 {
            a.record((i % 3) as u32, 7);
            b.record((i % 3) as u32, 7);
        }
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn seeded_retired_hash_still_ignores_interleaving() {
        let s = name_seed("pbzip2");
        let mut a = RetiredOrderHash::seeded(s);
        a.record(0, 1);
        a.record(1, 3);
        a.record(0, 2);
        let mut b = RetiredOrderHash::seeded(s);
        b.record(1, 3);
        b.record(0, 1);
        b.record(0, 2);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn retired_hash_distinguishes_counts() {
        // A thread that retired nothing differs from one that retired one
        // sub-thread of the "zero" kind.
        let mut a = RetiredOrderHash::new();
        a.record(0, 0);
        let b = RetiredOrderHash::new();
        assert_ne!(a.digest(), b.digest());
    }
}
