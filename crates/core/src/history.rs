//! Application-level checkpointing (`§3.2`).
//!
//! GPRS checkpoints, at each sub-thread's creation, only "the state necessary
//! to restart the sub-thread": its execution state and its *mod set* — the
//! data it may modify. The paper obtains mod-set checkpoint functions from
//! the programmer; this reproduction expresses the same contract with the
//! [`Checkpoint`] trait. The runtime keeps the snapshots in its own history
//! store until the sub-thread retires, and applies them youngest-first
//! during rollback.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
