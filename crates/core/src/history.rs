//! Application-level checkpointing and the history buffer (`§3.2`).
//!
//! GPRS checkpoints, at each sub-thread's creation, only "the state necessary
//! to restart the sub-thread": its execution state and its *mod set* — the
//! data it may modify. The paper obtains mod-set checkpoint functions from
//! the programmer; this reproduction expresses the same contract with the
//! [`Checkpoint`] trait. Snapshots live in the [`HistoryBuffer`] until the
//! sub-thread retires, and are applied youngest-first during rollback.

use crate::ids::SubThreadId;
use std::collections::BTreeSet;
use std::fmt;

/// State that can be checkpointed before a sub-thread runs and restored if
/// the sub-thread is squashed.
///
/// This is the safe-Rust equivalent of the paper's user-provided
/// checkpointing functions: the implementor decides *what* to save (the mod
/// set), which is what makes checkpoints small. For plain-old-data state the
/// whole value is its own snapshot ([`Checkpoint`] is implemented for the
/// common `Clone` types below).
///
/// # Examples
/// ```
/// use gprs_core::history::Checkpoint;
/// // A histogram thread's state: only the bins it owns are its mod set.
/// struct Worker { bins: Vec<u64>, scratch: Vec<u8> }
/// impl Checkpoint for Worker {
///     type Snapshot = Vec<u64>;
///     fn checkpoint(&self) -> Vec<u64> { self.bins.clone() } // not scratch
///     fn restore(&mut self, s: &Vec<u64>) { self.bins = s.clone(); }
/// }
/// ```
pub trait Checkpoint {
    /// The saved representation.
    type Snapshot: Send + 'static;

    /// Records the state needed to re-execute from this point.
    fn checkpoint(&self) -> Self::Snapshot;

    /// Records the state into `snapshot`, a retired sub-thread's snapshot
    /// the runtime hands back for reuse. The default replaces it with a
    /// fresh [`Checkpoint::checkpoint`]; override it where overwriting in
    /// place saves an allocation (a `Vec` mod set keeps its buffer).
    fn checkpoint_into(&self, snapshot: &mut Self::Snapshot) {
        *snapshot = self.checkpoint();
    }

    /// Reinstates previously checkpointed state. May be called repeatedly
    /// with the same snapshot if exceptions strike during re-execution.
    fn restore(&mut self, snapshot: &Self::Snapshot);
}

macro_rules! clone_checkpoint {
    ($($ty:ty),* $(,)?) => {$(
        impl Checkpoint for $ty {
            type Snapshot = $ty;
            fn checkpoint(&self) -> $ty {
                self.clone()
            }
            fn restore(&mut self, snapshot: &$ty) {
                *self = snapshot.clone();
            }
        }
    )*};
}

clone_checkpoint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char, String);

impl<T: Clone + Send + 'static> Checkpoint for Vec<T> {
    type Snapshot = Vec<T>;
    fn checkpoint(&self) -> Vec<T> {
        self.clone()
    }
    fn checkpoint_into(&self, snapshot: &mut Vec<T>) {
        snapshot.clone_from(self);
    }
    fn restore(&mut self, snapshot: &Vec<T>) {
        self.clone_from(snapshot);
    }
}

impl<T: Clone + Send + 'static> Checkpoint for Option<T> {
    type Snapshot = Option<T>;
    fn checkpoint(&self) -> Option<T> {
        self.clone()
    }
    fn restore(&mut self, snapshot: &Option<T>) {
        self.clone_from(snapshot);
    }
}

impl<K: Clone + Ord + Send + 'static, V: Clone + Send + 'static> Checkpoint
    for std::collections::BTreeMap<K, V>
{
    type Snapshot = std::collections::BTreeMap<K, V>;
    fn checkpoint(&self) -> Self::Snapshot {
        self.clone()
    }
    fn restore(&mut self, snapshot: &Self::Snapshot) {
        self.clone_from(snapshot);
    }
}

impl<A: Checkpoint, B: Checkpoint> Checkpoint for (A, B) {
    type Snapshot = (A::Snapshot, B::Snapshot);
    fn checkpoint(&self) -> Self::Snapshot {
        (self.0.checkpoint(), self.1.checkpoint())
    }
    fn checkpoint_into(&self, snapshot: &mut Self::Snapshot) {
        self.0.checkpoint_into(&mut snapshot.0);
        self.1.checkpoint_into(&mut snapshot.1);
    }
    fn restore(&mut self, snapshot: &Self::Snapshot) {
        self.0.restore(&snapshot.0);
        self.1.restore(&snapshot.1);
    }
}

/// A type-erased restore action recorded in the history buffer.
///
/// The runtime captures, at checkpoint time, a closure that reinstates the
/// saved state when invoked. Actions carry a global sequence so that rollback
/// can apply them in exact reverse order across sub-threads.
pub struct UndoAction {
    seq: u64,
    subthread: SubThreadId,
    label: &'static str,
    size_hint: usize,
    apply: Box<dyn FnMut() + Send>,
}

impl UndoAction {
    /// The sub-thread whose squash triggers this action.
    pub fn subthread(&self) -> SubThreadId {
        self.subthread
    }

    /// What the action restores (for diagnostics).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Approximate checkpointed bytes, for the `t_s` accounting of `§2.3`.
    pub fn size_hint(&self) -> usize {
        self.size_hint
    }

    /// Applies the restore.
    pub fn apply(mut self) {
        (self.apply)()
    }
}

impl fmt::Debug for UndoAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UndoAction")
            .field("seq", &self.seq)
            .field("subthread", &self.subthread)
            .field("label", &self.label)
            .field("size_hint", &self.size_hint)
            .finish()
    }
}

/// The history buffer: checkpointed state of every in-flight sub-thread
/// (Figure 4).
///
/// # Examples
/// ```
/// use gprs_core::history::HistoryBuffer;
/// use gprs_core::ids::SubThreadId;
/// use std::sync::{Arc, Mutex};
///
/// let cell = Arc::new(Mutex::new(1));
/// let mut hb = HistoryBuffer::new();
/// // Checkpoint before ST0 mutates the cell...
/// let saved = *cell.lock().unwrap();
/// let c = Arc::clone(&cell);
/// hb.record(SubThreadId::new(0), "cell", 8, move || *c.lock().unwrap() = saved);
/// *cell.lock().unwrap() = 99;
/// // ...squash ST0: the mutation is rolled back.
/// let mut squashed = std::collections::BTreeSet::new();
/// squashed.insert(SubThreadId::new(0));
/// for action in hb.take_for(&squashed) { action.apply(); }
/// assert_eq!(*cell.lock().unwrap(), 1);
/// ```
#[derive(Debug, Default)]
pub struct HistoryBuffer {
    actions: Vec<UndoAction>,
    next_seq: u64,
    bytes: usize,
    peak_bytes: usize,
    recorded: u64,
}

impl HistoryBuffer {
    /// Creates an empty history buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a restore action on behalf of `subthread`.
    ///
    /// `size_hint` approximates the checkpointed bytes, feeding the recording
    /// cost `t_s` of the analytic model.
    pub fn record(
        &mut self,
        subthread: SubThreadId,
        label: &'static str,
        size_hint: usize,
        apply: impl FnMut() + Send + 'static,
    ) {
        self.actions.push(UndoAction {
            seq: self.next_seq,
            subthread,
            label,
            size_hint,
            apply: Box::new(apply),
        });
        self.next_seq += 1;
        self.bytes += size_hint;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        self.recorded += 1;
    }

    /// Removes and returns the actions of every squashed sub-thread, in the
    /// exact reverse of recording order — the reverse-ROL restore walk of
    /// basic recovery (`§3.4`).
    pub fn take_for(&mut self, squashed: &BTreeSet<SubThreadId>) -> Vec<UndoAction> {
        let mut taken = Vec::new();
        let mut kept = Vec::with_capacity(self.actions.len());
        for a in self.actions.drain(..) {
            if squashed.contains(&a.subthread) {
                taken.push(a);
            } else {
                kept.push(a);
            }
        }
        self.actions = kept;
        self.bytes = self.actions.iter().map(|a| a.size_hint).sum();
        taken.sort_by_key(|a| std::cmp::Reverse(a.seq));
        taken
    }

    /// Drops the saved state of a retired sub-thread ("deleting the
    /// sub-thread's checkpointed state").
    pub fn prune_retired(&mut self, subthread: SubThreadId) {
        self.actions.retain(|a| a.subthread != subthread);
        self.bytes = self.actions.iter().map(|a| a.size_hint).sum();
    }

    /// Number of live restore actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the buffer holds no state.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Live checkpointed bytes (approximate).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// High-water mark of checkpointed bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Total actions ever recorded.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Number of actions held for one sub-thread.
    pub fn count_for(&self, subthread: SubThreadId) -> usize {
        self.actions
            .iter()
            .filter(|a| a.subthread == subthread)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn set(ids: &[u64]) -> BTreeSet<SubThreadId> {
        ids.iter().copied().map(SubThreadId::new).collect()
    }

    #[test]
    fn clone_checkpoint_round_trip() {
        let mut v = vec![1u32, 2, 3];
        let snap = v.checkpoint();
        v.push(4);
        v.restore(&snap);
        assert_eq!(v, [1, 2, 3]);

        let mut s = String::from("precise");
        let snap = s.checkpoint();
        s.push_str("-restartable");
        s.restore(&snap);
        assert_eq!(s, "precise");
    }

    #[test]
    fn tuple_checkpoint_composes() {
        let mut pair = (7u64, vec![1u8]);
        let snap = pair.checkpoint();
        pair.0 = 0;
        pair.1.clear();
        pair.restore(&snap);
        assert_eq!(pair, (7, vec![1]));
    }

    #[test]
    fn checkpoint_into_overwrites_a_recycled_snapshot_in_place() {
        let pair = (7u64, vec![1u8, 2, 3]);
        let mut recycled = (0u64, Vec::with_capacity(64));
        recycled.1.extend_from_slice(&[9; 40]);
        let buf = recycled.1.as_ptr();
        pair.checkpoint_into(&mut recycled);
        assert_eq!(recycled, pair.checkpoint());
        assert_eq!(recycled.1.as_ptr(), buf, "the Vec mod set keeps its buffer");
    }

    #[test]
    fn restore_is_repeatable() {
        let mut x = 1u32;
        let snap = x.checkpoint();
        x = 5;
        x.restore(&snap);
        x = 9;
        x.restore(&snap);
        assert_eq!(x, 1);
    }

    #[test]
    fn take_for_applies_reverse_recording_order() {
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut hb = HistoryBuffer::new();
        for (i, st) in [(0u64, 5u64), (1, 6), (2, 5)] {
            let l = Arc::clone(&log);
            hb.record(SubThreadId::new(st), "x", 1, move || l.lock().unwrap().push(i));
        }
        let actions = hb.take_for(&set(&[5]));
        assert_eq!(actions.len(), 2);
        for a in actions {
            a.apply();
        }
        // Action 2 recorded after action 0, so it must undo first.
        assert_eq!(*log.lock().unwrap(), [2, 0]);
        // ST6's action survives.
        assert_eq!(hb.len(), 1);
        assert_eq!(hb.count_for(SubThreadId::new(6)), 1);
    }

    #[test]
    fn prune_retired_drops_state_and_bytes() {
        let mut hb = HistoryBuffer::new();
        hb.record(SubThreadId::new(0), "a", 100, || {});
        hb.record(SubThreadId::new(1), "b", 50, || {});
        assert_eq!(hb.bytes(), 150);
        hb.prune_retired(SubThreadId::new(0));
        assert_eq!(hb.bytes(), 50);
        assert_eq!(hb.peak_bytes(), 150);
        assert_eq!(hb.recorded(), 2);
    }

    #[test]
    fn undo_restores_shared_value() {
        let cell = Arc::new(AtomicU64::new(10));
        let mut hb = HistoryBuffer::new();
        let saved = cell.load(Ordering::SeqCst);
        let c = Arc::clone(&cell);
        hb.record(SubThreadId::new(3), "cell", 8, move || {
            c.store(saved, Ordering::SeqCst)
        });
        cell.store(77, Ordering::SeqCst);
        for a in hb.take_for(&set(&[3])) {
            a.apply();
        }
        assert_eq!(cell.load(Ordering::SeqCst), 10);
        assert!(hb.is_empty());
    }

    #[test]
    fn take_for_unknown_ids_is_empty() {
        let mut hb = HistoryBuffer::new();
        hb.record(SubThreadId::new(0), "a", 1, || {});
        assert!(hb.take_for(&set(&[9])).is_empty());
        assert_eq!(hb.len(), 1);
    }

    #[test]
    fn debug_is_nonempty() {
        let mut hb = HistoryBuffer::new();
        hb.record(SubThreadId::new(0), "state", 4, || {});
        let dbg = format!("{:?}", hb);
        assert!(dbg.contains("state"));
    }
}
