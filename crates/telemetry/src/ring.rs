//! Per-worker fixed-capacity event rings with lock-free appends.
//!
//! Each worker owns one [`EventRing`]; appends are wait-free (a plain
//! load+store on the write cursor under the single-writer contract below,
//! then a plain slot write) and never allocate. The ring wraps: once full,
//! new events overwrite the oldest; the monotone cursor itself records how
//! many were lost. [`RingSet::drain`] merges all rings into one trace
//! ordered by global sequence number.
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
use std::mem::MaybeUninit;
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
        let mut out = Vec::with_capacity(self.len());
        self.snapshot_into(&mut out);
        out
    }

    /// Appends the live events, oldest first, to `out` (same contract as
    /// [`EventRing::snapshot`]).
    fn snapshot_into(&self, out: &mut Vec<TimedEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let start = head - head.min(self.slots.len());
        out.extend((start..head).map(|ix| {
            let slot = &self.slots[ix & self.mask];
            // SAFETY: indices in [start, head) were fully written by the
            // (now quiescent) writer; TimedEvent is Copy.
            unsafe { (*slot.get()).assume_init() }
        }));
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

    /// Merges all rings into one trace totally ordered by sequence number.
    ///
    /// Requires writer quiescence on every ring. One exactly sized
    /// allocation, sorted in place: every run's report drains, so a
    /// temporary here is the trace's size in freshly faulted pages inside
    /// each `run()`. Sequence numbers are unique per facade; the worker
    /// keeps a tie in ring order.
    pub fn drain(&self) -> Vec<TimedEvent> {
        let mut all = Vec::with_capacity(self.rings.iter().map(EventRing::len).sum());
        for r in &self.rings {
            r.snapshot_into(&mut all);
        }
        all.sort_unstable_by_key(|e| (e.seq, e.worker));
        all
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
