//! Per-worker fixed-capacity event rings with lock-free appends.
//!
//! Each worker owns one [`EventRing`]; appends are wait-free (a plain
//! load+store on the write cursor under the single-writer contract below,
//! then a plain slot write) and never allocate. The ring wraps: once full,
//! new events overwrite the oldest; the monotone cursor itself records how
//! many were lost. [`RingSet::drain`] merges the rings' windows, each
//! already in sequence order, into one trace ordered by global sequence
//! number.
//!
//! # Safety contract
//!
//! A ring supports **one writer at a time**. The integrating runtime
//! guarantees this either structurally (each worker thread writes only its
//! own ring; the simulator is single-threaded) or by serializing all
//! recording under its state lock, as the real GPRS engine does. Draining
//! requires writer quiescence (workers joined / run finished); this is
//! asserted against the sequence counter where practical, and documented at
//! every call site.

use crate::event::TimedEvent;
use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-capacity single-writer event ring.
#[derive(Debug)]
pub struct EventRing {
    slots: Box<[UnsafeCell<MaybeUninit<TimedEvent>>]>,
    /// `slots.len() - 1`; the capacity is a power of two so the wrap is a
    /// mask, not a division, on the push path.
    mask: usize,
    /// Total events ever pushed (monotone; `min(head, capacity)` slots are
    /// live, the live window being the most recent events). Doubles as the
    /// drop accounting: everything past `capacity` overwrote an older
    /// event, so `push` needs no second atomic.
    head: AtomicUsize,
}

// SAFETY: slot access is single-writer by the contract above; `drain`
// requires quiescence. The atomics provide the cross-thread ordering for
// the cursor itself.
unsafe impl Sync for EventRing {}
unsafe impl Send for EventRing {}

impl EventRing {
    /// Creates a ring holding up to `capacity` events (min 1; rounded up
    /// to the next power of two so the push path wraps with a mask).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventRing {
            slots,
            mask: capacity - 1,
            head: AtomicUsize::new(0),
        }
    }

    /// Appends an event (wait-free; overwrites the oldest when full).
    pub fn push(&self, ev: TimedEvent) {
        // Load+store suffices under the single-writer contract (module
        // docs); the cursor stays atomic only for the cross-thread drain.
        let ix = self.head.load(Ordering::Relaxed);
        self.head.store(ix + 1, Ordering::Relaxed);
        let slot = &self.slots[ix & self.mask];
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
        self.head.load(Ordering::Acquire).min(self.slots.len())
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) == 0
    }

    /// Copies out the live events, oldest first.
    ///
    /// Requires writer quiescence (see module docs); takes `&self` because
    /// integrations hold the ring behind an `Arc`.
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
        let slot = &self.slots[ix & self.mask];
        // SAFETY: indices in the live window were fully written by the
        // (now quiescent) writer; TimedEvent is Copy.
        unsafe { (*slot.get()).assume_init() }
    }

    /// Whether the live window is ascending in `seq` — the order
    /// [`RingSet::drain`] merges on.
    fn is_ascending(&self) -> bool {
        let w = self.window();
        (w.start + 1..w.end).all(|ix| self.at(ix - 1).seq <= self.at(ix).seq)
    }
}

/// One ring per worker plus one for external threads (controller, main).
#[derive(Debug)]
pub struct RingSet {
    rings: Vec<EventRing>,
}

impl RingSet {
    /// Creates `workers + 1` rings of `capacity` events each; the last ring
    /// collects events from threads that are not workers.
    pub fn new(workers: usize, capacity: usize) -> Self {
        RingSet {
            rings: (0..workers + 1).map(|_| EventRing::new(capacity)).collect(),
        }
    }

    /// The ring for `worker`, routing out-of-range indices (external
    /// threads) to the shared external ring.
    pub fn ring(&self, worker: usize) -> &EventRing {
        let ix = worker.min(self.rings.len() - 1);
        &self.rings[ix]
    }

    /// Total events lost across rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped()).sum()
    }

    /// Merges all rings into one trace ordered by sequence number.
    ///
    /// Requires writer quiescence on every ring. Each ring's live window is
    /// already ascending in `seq` — recording is serialized and `seq` is one
    /// monotone counter per facade — so this is a k-way merge, not a sort:
    /// a min-heap holds one `(seq, ring, index)` cursor per unfinished ring,
    /// read straight from the ring's slots; each step copies the top
    /// cursor's event out and advances that cursor in place. The cost is
    /// one copy and one O(log rings) sift per event, and the memory one
    /// exactly sized output (every run's report drains, so a temporary here
    /// would be the trace's size in freshly faulted pages inside each
    /// `run()`) plus the heap's one entry per ring. Sequence numbers are
    /// unique per facade; a tie would keep ring order, then push order.
    pub fn drain(&self) -> Vec<TimedEvent> {
        debug_assert!(
            self.rings.iter().all(EventRing::is_ascending),
            "a ring's live window is out of sequence order"
        );
        let mut out = Vec::with_capacity(self.rings.iter().map(EventRing::len).sum());
        let mut heap = BinaryHeap::with_capacity(self.rings.len());
        for (r, ring) in self.rings.iter().enumerate() {
            let w = ring.window();
            if !w.is_empty() {
                heap.push(Reverse((ring.at(w.start).seq, r, w.start)));
            }
        }
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((_, r, ix)) = *top;
            let ring = &self.rings[r];
            out.push(ring.at(ix));
            if ix + 1 < ring.window().end {
                *top = Reverse((ring.at(ix + 1).seq, r, ix + 1));
            } else {
                PeekMut::pop(top);
            }
        }
        out
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
        let r = EventRing::new(8);
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
        let r = EventRing::new(4);
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
        let mut all: Vec<TimedEvent> = set.rings.iter().flat_map(EventRing::snapshot).collect();
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
            with_empty += u32::from(pushes > 0 && set.rings.iter().any(EventRing::is_empty));
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
