//! Per-worker fixed-capacity event rings with lock-free appends.
//!
//! A [`RingSet`] holds one ring per worker plus one for external threads,
//! all in one slot array: ring `r` is the window of `capacity` slots at
//! offset `r × capacity`, with its own write cursor. Appends through the
//! borrowed [`EventRing`] view are wait-free (a plain load+store on the
//! cursor under the single-writer contract below, then a plain slot write)
//! and never allocate. A ring wraps: once full, new events overwrite the
//! oldest; the monotone cursor itself records how many were lost.
//!
//! The rings are merged only when the trace is read. A finished run's
//! summary takes its facade's ring set whole into a [`Trace`], and
//! [`Trace::events`] (or [`RingSet::drain`]) merges the rings' windows,
//! each already in sequence order, into one trace ordered by global
//! sequence number. Nothing is copied at the end of a run.
//!
//! # Safety contract
//!
//! A ring supports **one writer at a time**. The integrating runtime
//! guarantees this either structurally (each worker thread writes only its
//! own ring; the simulator is single-threaded) or by serializing all
//! recording under its state lock, as the real GPRS engine does. Reading
//! requires writer quiescence: a [`Trace`] is made by moving the ring set
//! out of its facade, after which no writer can reach it; a set read in
//! place (tests, benchmarks) is read after its writers are joined.

use crate::event::TimedEvent;
use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::fmt;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

type Slot = UnsafeCell<MaybeUninit<TimedEvent>>;

/// One ring of a [`RingSet`]: a borrowed window of the set's slot array
/// and the ring's own write cursor.
pub struct EventRing<'a> {
    /// This ring's slots; their count is a power of two, so the push path
    /// wraps with a mask, not a division.
    slots: &'a [Slot],
    /// Total events ever pushed (monotone; `min(head, capacity)` slots are
    /// live, the live window being the most recent events). Doubles as the
    /// drop accounting: everything past `capacity` overwrote an older
    /// event, so `push` needs no second atomic.
    head: &'a AtomicUsize,
}

impl EventRing<'_> {
    /// Appends an event (wait-free; overwrites the oldest when full).
    pub fn push(&self, ev: TimedEvent) {
        // Load+store suffices under the single-writer contract (module
        // docs); the cursor stays atomic only for the cross-thread read.
        let ix = self.head.load(Ordering::Relaxed);
        self.head.store(ix + 1, Ordering::Relaxed);
        let slot = &self.slots[ix & (self.slots.len() - 1)];
        // SAFETY: single-writer contract — no concurrent writer to this
        // ring, and readers only run after writer quiescence.
        unsafe {
            *slot.get() = MaybeUninit::new(ev);
        }
    }

    /// Events lost to wrapping (everything pushed past the capacity).
    pub fn dropped(&self) -> u64 {
        let head = self.head.load(Ordering::Relaxed);
        head.saturating_sub(self.slots.len()) as u64
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.window().len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) == 0
    }

    /// Copies out the live events, oldest first. Requires writer
    /// quiescence (see module docs).
    pub fn snapshot(&self) -> Vec<TimedEvent> {
        self.window().map(|ix| self.at(ix)).collect()
    }

    /// The live window as monotone push indices: the most recent
    /// `min(head, capacity)` events.
    fn window(&self) -> Range<usize> {
        let head = self.head.load(Ordering::Acquire);
        head - head.min(self.slots.len())..head
    }

    /// The event pushed `ix`-th; `ix` must lie in [`EventRing::window`] and
    /// the writer must be quiescent.
    fn at(&self, ix: usize) -> TimedEvent {
        let slot = &self.slots[ix & (self.slots.len() - 1)];
        // SAFETY: indices in the live window were fully written by the
        // (now quiescent) writer; TimedEvent is Copy.
        unsafe { (*slot.get()).assume_init() }
    }

    /// Whether the live window is ascending in `seq` — the order
    /// [`RingSet::merged`] merges on.
    fn is_ascending(&self) -> bool {
        let w = self.window();
        (w.start + 1..w.end).all(|ix| self.at(ix - 1).seq <= self.at(ix).seq)
    }
}

/// One ring per worker plus one for external threads (controller, main),
/// in one allocation of slots.
///
/// The slots are one block, not one per ring, because a run's rings are
/// freed and allocated again with every run: one block of the set's size
/// raises the allocator's trim threshold past it, so the next run reuses
/// pages already faulted in, where a ring per block left the heap trimmed
/// and faulted back in after every run (DESIGN §5c).
pub struct RingSet {
    /// Every ring's slots; ring `r`'s are `r × capacity ..`.
    slots: Box<[Slot]>,
    /// One write cursor per ring (see [`EventRing`]).
    heads: Box<[AtomicUsize]>,
    /// `capacity - 1`, the capacity a power of two.
    mask: usize,
}

// SAFETY: slot access is single-writer per ring by the contract above, and
// reading requires quiescence. The atomics provide the cross-thread
// ordering for the cursors themselves.
unsafe impl Sync for RingSet {}

impl fmt::Debug for RingSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingSet")
            .field("capacity", &(self.mask + 1))
            .field("heads", &self.heads)
            .finish()
    }
}

impl RingSet {
    /// Creates `workers + 1` rings of `capacity` events each (min 1; rounded
    /// up to the next power of two); the last ring collects events from
    /// threads that are not workers.
    pub fn new(workers: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        let rings = workers + 1;
        RingSet {
            slots: (0..rings * capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            heads: (0..rings).map(|_| AtomicUsize::new(0)).collect(),
            mask: capacity - 1,
        }
    }

    /// The ring for `worker`, routing out-of-range indices (external
    /// threads) to the shared external ring.
    pub fn ring(&self, worker: usize) -> EventRing<'_> {
        let r = worker.min(self.heads.len() - 1);
        let capacity = self.mask + 1;
        EventRing {
            slots: &self.slots[r * capacity..][..capacity],
            head: &self.heads[r],
        }
    }

    /// Every ring, the external one last.
    fn rings(&self) -> impl Iterator<Item = EventRing<'_>> {
        (0..self.heads.len()).map(|r| self.ring(r))
    }

    /// Events currently held across rings.
    fn len(&self) -> usize {
        self.rings().map(|r| r.len()).sum()
    }

    /// Total events lost across rings.
    pub fn dropped(&self) -> u64 {
        self.rings().map(|r| r.dropped()).sum()
    }

    /// The rings' events in sequence order, merged as they are read.
    ///
    /// Requires writer quiescence on every ring. Each ring's live window is
    /// already ascending in `seq` — recording is serialized and `seq` is one
    /// monotone counter per facade — so this is a k-way merge, not a sort:
    /// a min-heap holds one `(seq, ring, index)` cursor per unfinished ring,
    /// read straight from the ring's slots; each step copies the top
    /// cursor's event out and advances that cursor in place. The cost is
    /// one copy and one O(log rings) sift per event, and the memory the
    /// heap's one entry per ring. Sequence numbers are unique per facade; a
    /// tie would keep ring order, then push order.
    fn merged(&self) -> Merge<'_> {
        debug_assert!(
            self.rings().all(|r| r.is_ascending()),
            "a ring's live window is out of sequence order"
        );
        let mut heap = BinaryHeap::with_capacity(self.heads.len());
        for (r, ring) in self.rings().enumerate() {
            let w = ring.window();
            if !w.is_empty() {
                heap.push(Reverse((ring.at(w.start).seq, r, w.start)));
            }
        }
        Merge { set: self, heap }
    }

    /// The merged trace ([`RingSet::merged`]) as one exactly sized vector.
    pub fn drain(&self) -> Vec<TimedEvent> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.merged());
        out
    }
}

/// The events of a [`RingSet`] in sequence order (see
/// [`RingSet::merged`]).
struct Merge<'a> {
    set: &'a RingSet,
    heap: BinaryHeap<Reverse<(u64, usize, usize)>>,
}

impl Iterator for Merge<'_> {
    type Item = TimedEvent;

    fn next(&mut self) -> Option<TimedEvent> {
        let mut top = self.heap.peek_mut()?;
        let Reverse((_, r, ix)) = *top;
        let ring = self.set.ring(r);
        let ev = ring.at(ix);
        if ix + 1 < ring.window().end {
            *top = Reverse((ring.at(ix + 1).seq, r, ix + 1));
        } else {
            PeekMut::pop(top);
        }
        Some(ev)
    }
}

/// A finished run's event trace: the ring sets its facades recorded into,
/// shared and immutable, merged each time the trace is read.
///
/// A facade's summary moves its ring set in whole, so ending a run copies
/// no event. A sharded report holds one set per order domain, in domain
/// order; [`Trace::append`] concatenates. Cloning shares the sets.
/// Equality compares the merged events.
#[derive(Clone, Default)]
pub struct Trace {
    domains: Vec<Arc<RingSet>>,
}

impl Trace {
    /// The trace of one facade's rings (writers quiescent: the set is moved
    /// out of its facade).
    pub fn new(rings: RingSet) -> Self {
        Trace {
            domains: vec![Arc::new(rings)],
        }
    }

    /// The events, each domain's merged in sequence order, the domains one
    /// after another.
    pub fn iter(&self) -> impl Iterator<Item = TimedEvent> + '_ {
        self.domains.iter().flat_map(|d| d.merged())
    }

    /// The events as one exactly sized vector (merged on every call).
    pub fn events(&self) -> Vec<TimedEvent> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }

    /// Events held.
    pub fn len(&self) -> usize {
        self.domains.iter().map(|d| d.len()).sum()
    }

    /// Whether the trace holds no event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `other`'s domains after this trace's.
    pub fn append(&mut self, other: Trace) {
        self.domains.extend(other.domains);
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Trace {}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn ev(seq: u64, worker: u32) -> TimedEvent {
        TimedEvent {
            seq,
            worker,
            event: TraceEvent::Grant {
                subthread: seq,
                thread: worker,
            },
        }
    }

    #[test]
    fn push_and_snapshot_in_order() {
        let set = RingSet::new(0, 8);
        let r = set.ring(0);
        for i in 0..5 {
            r.push(ev(i, 0));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 5);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn wrap_keeps_newest_and_counts_drops() {
        let set = RingSet::new(0, 4);
        let r = set.ring(0);
        for i in 0..10 {
            r.push(ev(i, 0));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(
            snap.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(r.dropped(), 6);
    }

    #[test]
    fn ringset_merges_by_sequence() {
        let set = RingSet::new(2, 16);
        set.ring(0).push(ev(0, 0));
        set.ring(1).push(ev(1, 1));
        set.ring(0).push(ev(2, 0));
        set.ring(9).push(ev(3, 9)); // external ring
        let all = set.drain();
        assert_eq!(all.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(set.dropped(), 0);
    }

    #[test]
    fn ring_windows_do_not_bleed_into_one_another() {
        // Ring `r` of five wraps its 16 slots `3 + 5r` times over, at its
        // own rate; every ring but the external one lands on a different
        // offset in its window.
        let set = RingSet::new(4, 16);
        let mut pushed = [0u64; 5];
        let mut seq = 0;
        for step in 0..1_500u64 {
            for (r, n) in pushed.iter_mut().enumerate() {
                // Ring r records on one step in `5 - r`.
                let r64 = r as u64;
                if step % (5 - r64) == 0 && *n < (3 + 5 * r64) * 16 + r64 {
                    set.ring(r).push(ev(seq, r as u32));
                    seq += 1;
                    *n += 1;
                }
            }
        }
        for (r, &n) in pushed.iter().enumerate() {
            let ring = set.ring(r);
            assert_eq!(ring.dropped(), n - 16, "ring {r}");
            let window = ring.snapshot();
            assert_eq!(window.len(), 16, "ring {r}");
            let own = window.iter().all(|e| e.worker == r as u32);
            assert!(own, "ring {r} holds another ring's events");
            assert!(window.windows(2).all(|w| w[0].seq < w[1].seq), "ring {r}");
        }
        assert_eq!(set.dropped(), pushed.iter().map(|n| n - 16).sum::<u64>());
        let merged = set.drain();
        assert_eq!(merged, sorted(&set));
        assert_eq!(merged.len(), 5 * 16);
    }

    #[test]
    fn drain_of_a_wrapped_ring_is_one_exact_allocation_in_sequence_order() {
        let set = RingSet::new(1, 4);
        for seq in [0, 2, 4, 6, 8, 10] {
            set.ring(0).push(ev(seq, 0));
        }
        set.ring(7).push(ev(5, 7));
        set.ring(7).push(ev(9, 7));
        let all = set.drain();
        assert_eq!(
            all.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![4, 5, 6, 8, 9, 10]
        );
        assert_eq!(all.capacity(), all.len());
        assert_eq!(set.dropped(), 2);
    }

    /// What `drain` did before it merged: every live window concatenated,
    /// then sorted by `(seq, worker)`.
    fn sorted(set: &RingSet) -> Vec<TimedEvent> {
        let mut all: Vec<TimedEvent> = set.rings().flat_map(|r| r.snapshot()).collect();
        all.sort_unstable_by_key(|e| (e.seq, e.worker));
        all
    }

    #[test]
    fn drain_yields_the_order_a_full_sort_gives() {
        let (mut wrapped, mut unwrapped, mut with_empty) = (0, 0, 0);
        for case in 1..=400u64 {
            // xorshift64, seeded per case.
            let mut state = case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut below = |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let workers = below(40) as usize; // 1–40 rings
            let set = RingSet::new(workers, 1 << below(7));
            // Only the first `active` ring indices record; indices past
            // `workers` all land in the external ring.
            let active = 1 + below(workers as u64 + 3);
            let (mut seq, pushes) = (0, below(500));
            for _ in 0..pushes {
                seq += 1 + below(3);
                let w = below(active) as usize;
                set.ring(w).push(ev(seq, w as u32));
            }
            let merged = set.drain();
            assert_eq!(merged, sorted(&set), "case {case}");
            assert_eq!(merged.len() as u64 + set.dropped(), pushes, "case {case}");
            assert_eq!(merged.capacity(), merged.len(), "case {case}");
            wrapped += u32::from(set.dropped() > 0);
            unwrapped += u32::from(pushes > 0 && set.dropped() == 0);
            with_empty += u32::from(pushes > 0 && set.rings().any(|r| r.is_empty()));
        }
        // The seeds cover every shape the merge distinguishes.
        assert!(wrapped > 50 && unwrapped > 50 && with_empty > 50);
    }

    #[test]
    fn concurrent_workers_write_their_own_rings() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let set = Arc::new(RingSet::new(4, 1024));
        let seq = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let set = Arc::clone(&set);
            let seq = Arc::clone(&seq);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let s = seq.fetch_add(1, Ordering::Relaxed);
                    set.ring(w as usize).push(ev(s, w));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let all = set.drain();
        assert_eq!(all.len(), 800);
        // Totally ordered, no duplicates.
        assert!(all.windows(2).all(|x| x[0].seq < x[1].seq));
    }
}
