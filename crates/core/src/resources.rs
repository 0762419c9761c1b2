//! The resource table (`§3.2`; `§3.4`, the aliases a squash undoes),
//! written once for the three engines. A [`Resources`] owns each lock's
//! holder and data, the channel items with the sub-thread that pushed each,
//! the atomic cells, the allocator blocks and the threads' exit values. Ids
//! are dense registration positions.
//!
//! The table alone answers whether a pop or an acquire can be granted now
//! ([`Resources::poll`]: grant, pass the turn, or wait), applies a granted
//! [`Op`] ([`Resources::apply`], returning what the step receives and the
//! op's [`Inverse`]) and applies an inverse ([`Resources::undo`]). It holds
//! no locks, threads or clocks. An unknown id, an empty pop or a double free
//! is a named [`ResourceError`].
//!
//! Each engine keeps its policy around it. The GPRS runtime logs the
//! inverses in its write-ahead log (and a critical section's lock-data
//! snapshot, a [`Inverse::Relock`], in its history store) and undoes a
//! squash newest first; the CPR baseline snapshots and restores the whole
//! table with one clone; the simulator keeps its channel provenance in a
//! `Resources<(), ()>` and carries each entry's inverse in its record.

use crate::ids::{AtomicId, ChannelId, LockId, ResourceId, SubThreadId, ThreadId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Whether a pop or an acquire can be granted now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Grant it.
    Grant,
    /// Pass the turn and poll again on the next one: the channel is empty.
    Pass,
    /// Keep the turn and wait: the lock is held.
    Wait,
}

/// One operation on the table, applied by a grant or by a running step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op<V, L> {
    /// Enqueue an item.
    Push(ChannelId, V),
    /// Dequeue the front item.
    Pop(ChannelId),
    /// Take a free lock and check its data out.
    Acquire(LockId),
    /// Return checked-out lock data; the lock is free again.
    Release(LockId, L),
    /// Add to a cell, wrapping.
    FetchAdd(AtomicId, u64),
    /// Overwrite a cell (a plain store).
    Store(AtomicId, u64),
    /// Allocate a zeroed block of this many bytes.
    Alloc(usize),
    /// Free a block.
    Free(u64),
    /// Keep a thread's exit value.
    Exit(ThreadId, V),
}

/// What an applied [`Op`] hands the step.
#[derive(Debug, PartialEq, Eq)]
pub enum Got<V, L> {
    /// Nothing: a push, release, free or exit.
    Nothing,
    /// The popped item and the sub-thread that pushed it.
    Item(V, Option<SubThreadId>),
    /// The acquired lock and its checked-out data.
    Data(LockId, L),
    /// The cell's value before a fetch-add or store.
    Old(u64),
    /// The allocated block.
    Block(u64),
}

/// The inverse of one applied op, applied by [`Resources::undo`]. Undoing a
/// sub-thread's inverses newest first restores what the table held before
/// them. Lock data checked out by an acquire is not in the acquire's
/// inverse: the engine snapshots it and hands it back as a [`Relock`].
///
/// [`Relock`]: Inverse::Relock
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inverse<V, L> {
    /// Withdraw the newest item the sub-thread pushed.
    Unpush(ChannelId, Option<SubThreadId>),
    /// Return an item to the channel front with its provenance.
    Unpop(ChannelId, V, Option<SubThreadId>),
    /// Mark the lock unheld.
    Unacquire(LockId),
    /// Mark the lock held by its former holder again, its data checked out.
    Unrelease(LockId, Option<SubThreadId>),
    /// Put the cell's former value back.
    Restore(AtomicId, u64),
    /// Drop an allocated block, if it still exists.
    Unalloc(u64),
    /// Restore a freed block with its contents.
    Unfree(u64, Vec<u8>),
    /// Restore a written block's former contents, if it still exists.
    Unwrite(u64, Vec<u8>),
    /// Forget a thread's exit value.
    Unexit(ThreadId),
    /// Put a lock's data back as it was when the lock was acquired.
    Relock(LockId, L),
}

/// What a write-ahead log's integrity checksum covers: the variant and
/// every field that identifies the operation. Payloads are left out and
/// block contents are covered by their length.
impl<V, L> Hash for Inverse<V, L> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Inverse::Unpush(c, by) | Inverse::Unpop(c, _, by) => (c, by).hash(h),
            Inverse::Unacquire(l) | Inverse::Relock(l, _) => l.hash(h),
            Inverse::Unrelease(l, by) => (l, by).hash(h),
            Inverse::Restore(a, old) => (a, old).hash(h),
            Inverse::Unalloc(b) => b.hash(h),
            Inverse::Unfree(b, d) | Inverse::Unwrite(b, d) => (b, d.len()).hash(h),
            Inverse::Unexit(t) => t.hash(h),
        }
    }
}

/// Why the table refused an op or an inverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// A lock, channel or cell this table never registered (or, for a
    /// lock, one another table owns).
    Unknown(ResourceId),
    /// A pop of an empty channel.
    EmptyPop(ChannelId),
    /// An acquire of a lock that is not free.
    Busy(LockId),
    /// A release of a lock whose data is not checked out.
    NotHeld(LockId),
    /// A read or write of a block that is not allocated.
    NoBlock(u64),
    /// A free of a block that is not allocated.
    DoubleFree(u64),
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::Unknown(r) => write!(f, "resource table: unknown {r}"),
            ResourceError::EmptyPop(c) => write!(f, "resource table: pop of empty channel {c}"),
            ResourceError::Busy(l) => write!(f, "resource table: acquire of held lock {l}"),
            ResourceError::NotHeld(l) => write!(f, "resource table: release of free lock {l}"),
            ResourceError::NoBlock(b) => write!(f, "resource table: block #{b} is not allocated"),
            ResourceError::DoubleFree(b) => write!(f, "resource table: double free of block #{b}"),
        }
    }
}

impl std::error::Error for ResourceError {}

/// Table results.
pub type Result<T> = std::result::Result<T, ResourceError>;

/// One lock: who holds it, and its data unless checked out.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Lock<L> {
    holder: Option<SubThreadId>,
    data: Option<L>,
}

/// The resource table over channel items `V` and lock data `L`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resources<V, L> {
    /// `None`: the lock lives in another table (a sharded run's domain).
    locks: Vec<Option<Lock<L>>>,
    chans: Vec<VecDeque<(V, Option<SubThreadId>)>>,
    cells: Vec<u64>,
    blocks: BTreeMap<u64, Vec<u8>>,
    next_block: u64,
    exits: BTreeMap<ThreadId, V>,
}

impl<V, L> Default for Resources<V, L> {
    fn default() -> Self {
        Resources {
            locks: Vec::new(),
            chans: Vec::new(),
            cells: Vec::new(),
            blocks: BTreeMap::new(),
            next_block: 0,
            exits: BTreeMap::new(),
        }
    }
}

/// `V` is cloned once per pop, into the inverse: a shared pointer or `()`.
impl<V: Clone, L> Resources<V, L> {
    /// Registers a free lock owning `data`.
    pub fn lock(&mut self, data: L) -> LockId {
        self.locks.push(Some(Lock { holder: None, data: Some(data) }));
        LockId::new(self.locks.len() as u64 - 1)
    }

    /// Registers an empty channel.
    pub fn channel(&mut self) -> ChannelId {
        self.chans.push(VecDeque::new());
        ChannelId::new(self.chans.len() as u64 - 1)
    }

    /// Registers a cell holding `init`.
    pub fn cell(&mut self, init: u64) -> AtomicId {
        self.cells.push(init);
        AtomicId::new(self.cells.len() as u64 - 1)
    }

    /// Drops every lock `keep` refuses: another table owns it, and any op
    /// on it here is refused as unknown.
    pub fn keep_locks(&mut self, mut keep: impl FnMut(LockId) -> bool) {
        for (i, slot) in self.locks.iter_mut().enumerate() {
            if !keep(LockId::new(i as u64)) {
                *slot = None;
            }
        }
    }

    /// Whether a pop of a channel or an acquire of a lock can be granted
    /// now; any other resource always can.
    pub fn poll(&self, r: ResourceId) -> Result<Poll> {
        Ok(match r {
            ResourceId::Channel(c) if self.chan(c)?.is_empty() => Poll::Pass,
            ResourceId::Lock(l) if !self.lock_ref(l)?.is_free() => Poll::Wait,
            _ => Poll::Grant,
        })
    }

    /// Applies `op` on behalf of sub-thread `by` (the pusher of an item,
    /// the holder of a lock), returning what the step receives and the
    /// op's inverse. A refused op changes nothing.
    #[inline(always)]
    pub fn apply(
        &mut self,
        by: Option<SubThreadId>,
        op: Op<V, L>,
    ) -> Result<(Got<V, L>, Inverse<V, L>)> {
        Ok(match op {
            Op::Push(c, v) => {
                self.chan_mut(c)?.push_back((v, by));
                (Got::Nothing, Inverse::Unpush(c, by))
            }
            Op::Pop(c) => {
                let (v, from) = self.chan_mut(c)?.pop_front().ok_or(ResourceError::EmptyPop(c))?;
                (Got::Item(v.clone(), from), Inverse::Unpop(c, v, from))
            }
            Op::Acquire(l) => {
                let lock = self.lock_mut(l)?;
                let data = lock.data.take().filter(|_| lock.holder.is_none());
                let data = data.ok_or(ResourceError::Busy(l))?;
                lock.holder = by;
                (Got::Data(l, data), Inverse::Unacquire(l))
            }
            Op::Release(l, data) => {
                let lock = self.lock_mut(l)?;
                if lock.data.is_some() {
                    return Err(ResourceError::NotHeld(l));
                }
                lock.data = Some(data);
                (Got::Nothing, Inverse::Unrelease(l, lock.holder.take()))
            }
            Op::FetchAdd(a, delta) => {
                let cell = self.cell_mut(a)?;
                let old = std::mem::replace(cell, cell.wrapping_add(delta));
                (Got::Old(old), Inverse::Restore(a, old))
            }
            Op::Store(a, value) => {
                let old = std::mem::replace(self.cell_mut(a)?, value);
                (Got::Old(old), Inverse::Restore(a, old))
            }
            Op::Alloc(size) => {
                let b = self.next_block;
                self.next_block += 1;
                self.blocks.insert(b, vec![0; size]);
                (Got::Block(b), Inverse::Unalloc(b))
            }
            Op::Free(b) => {
                let data = self.blocks.remove(&b).ok_or(ResourceError::DoubleFree(b))?;
                (Got::Nothing, Inverse::Unfree(b, data))
            }
            Op::Exit(t, v) => {
                self.exits.insert(t, v);
                (Got::Nothing, Inverse::Unexit(t))
            }
        })
    }

    /// Applies an inverse. Only an unknown id is refused: a block or an
    /// item a later undo already took back is left alone.
    pub fn undo(&mut self, inverse: Inverse<V, L>) -> Result<()> {
        match inverse {
            Inverse::Unpush(c, by) => {
                let q = self.chan_mut(c)?;
                if let Some(at) = q.iter().rposition(|(_, from)| *from == by) {
                    q.remove(at);
                }
            }
            Inverse::Unpop(c, v, from) => self.chan_mut(c)?.push_front((v, from)),
            Inverse::Unacquire(l) => self.lock_mut(l)?.holder = None,
            Inverse::Unrelease(l, by) => {
                let lock = self.lock_mut(l)?;
                (lock.holder, lock.data) = (by, None);
            }
            Inverse::Relock(l, data) => self.lock_mut(l)?.data = Some(data),
            Inverse::Restore(a, old) => *self.cell_mut(a)? = old,
            Inverse::Unalloc(b) => {
                self.blocks.remove(&b);
                // The newest id is issued again, as the allocation's
                // re-execution would have it.
                if b + 1 == self.next_block {
                    self.next_block = b;
                }
            }
            Inverse::Unfree(b, data) => {
                self.blocks.insert(b, data);
            }
            Inverse::Unwrite(b, data) => {
                if let Some(block) = self.blocks.get_mut(&b) {
                    *block = data;
                }
            }
            Inverse::Unexit(t) => {
                self.exits.remove(&t);
            }
        }
        Ok(())
    }

    /// A cell's value (a plain load).
    pub fn load(&self, a: AtomicId) -> Result<u64> {
        self.cells
            .get(a.raw() as usize)
            .copied()
            .ok_or(ResourceError::Unknown(ResourceId::Atomic(a)))
    }

    /// A block's contents.
    pub fn block(&self, b: u64) -> Result<&[u8]> {
        self.blocks.get(&b).map(Vec::as_slice).ok_or(ResourceError::NoBlock(b))
    }

    /// A block to write, and the inverse that restores what it holds now.
    pub fn write(&mut self, b: u64) -> Result<(&mut Vec<u8>, Inverse<V, L>)> {
        let block = self.blocks.get_mut(&b).ok_or(ResourceError::NoBlock(b))?;
        let undo = Inverse::Unwrite(b, block.clone());
        Ok((block, undo))
    }

    /// The allocated blocks' total size.
    pub fn block_bytes(&self) -> u64 {
        self.blocks.values().map(|b| b.len() as u64).sum()
    }

    /// Thread `t`'s exit value, once it exited.
    pub fn exit(&self, t: ThreadId) -> Option<&V> {
        self.exits.get(&t)
    }

    /// Takes every exit value, by thread.
    pub fn take_exits(&mut self) -> BTreeMap<ThreadId, V> {
        std::mem::take(&mut self.exits)
    }

    /// Each lock this table owns with its holder, in id order.
    pub fn holders(&self) -> impl Iterator<Item = (LockId, Option<SubThreadId>)> + '_ {
        let owned = self.locks.iter().enumerate();
        owned.filter_map(|(i, l)| Some((LockId::new(i as u64), l.as_ref()?.holder)))
    }

    /// A digest of the final state, in id order: the cells exactly, then
    /// each lock's data and each exit value as `lock` and `exit` fold them
    /// in (a lock whose data is checked out folds `u64::MAX`). Two tables
    /// whose cells differ anywhere digest differently but for a 64-bit
    /// collision.
    pub fn digest(&self, lock: impl Fn(u64, &L) -> u64, exit: impl Fn(u64, &V) -> u64) -> u64 {
        let h = self.cells.iter().fold(DIGEST_SEED, |h, &v| fold_digest(h, v));
        let h = self.locks.iter().flatten().fold(h, |h, l| match &l.data {
            Some(data) => lock(h, data),
            None => fold_digest(h, u64::MAX),
        });
        self.exits.iter().fold(h, |h, (t, v)| exit(fold_digest(h, u64::from(t.raw())), v))
    }

    fn chan(&self, c: ChannelId) -> Result<&VecDeque<(V, Option<SubThreadId>)>> {
        self.chans.get(c.raw() as usize).ok_or(ResourceError::Unknown(ResourceId::Channel(c)))
    }

    fn chan_mut(&mut self, c: ChannelId) -> Result<&mut VecDeque<(V, Option<SubThreadId>)>> {
        self.chans.get_mut(c.raw() as usize).ok_or(ResourceError::Unknown(ResourceId::Channel(c)))
    }

    fn lock_ref(&self, l: LockId) -> Result<&Lock<L>> {
        let lock = self.locks.get(l.raw() as usize).and_then(Option::as_ref);
        lock.ok_or(ResourceError::Unknown(ResourceId::Lock(l)))
    }

    fn lock_mut(&mut self, l: LockId) -> Result<&mut Lock<L>> {
        let lock = self.locks.get_mut(l.raw() as usize).and_then(Option::as_mut);
        lock.ok_or(ResourceError::Unknown(ResourceId::Lock(l)))
    }

    fn cell_mut(&mut self, a: AtomicId) -> Result<&mut u64> {
        self.cells.get_mut(a.raw() as usize).ok_or(ResourceError::Unknown(ResourceId::Atomic(a)))
    }
}

impl<L> Lock<L> {
    fn is_free(&self) -> bool {
        self.holder.is_none() && self.data.is_some()
    }
}

/// The FNV-1a offset basis [`Resources::digest`] starts from.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one word into a cell digest, byte by byte (FNV-1a). A sharded run
/// folds its domains' digests in domain order with it.
pub fn fold_digest(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}
