//! What a program registers before it runs: its initial threads and its
//! shared resources.
//!
//! Both executors' builders hold one [`Registry`] and dereference to it, so
//! `b.thread(..)`, `b.mutex(..)` and the workload helpers taking
//! `&mut Registry` wire the same program onto the GPRS runtime
//! ([`crate::GprsBuilder`]) and the CPR baseline ([`crate::cpr::CprBuilder`])
//! alike. Each builder turns the registry into its engine's state at build.

use crate::engine::{BarrierRec, ChanRec, FileRec, LockRec};
use crate::handles::{
    AtomicHandle, BarrierHandle, ChannelHandle, FileHandle, MutexHandle, RawChannel, RawMutex,
};
use crate::program::{DynThread, ThreadProgram};
use gprs_core::ids::{AtomicId, BarrierId, ChannelId, GroupId, LockId, ThreadId};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// A program's registered threads and resources, each id being its
/// registration position.
#[derive(Default)]
pub struct Registry {
    /// Initial threads in fork order, with their group and weight.
    pub(crate) threads: Vec<(Box<dyn DynThread>, GroupId, u32)>,
    pub(crate) locks: BTreeMap<LockId, LockRec>,
    pub(crate) chans: BTreeMap<ChannelId, ChanRec>,
    pub(crate) atomics: BTreeMap<AtomicId, u64>,
    pub(crate) barriers: BTreeMap<BarrierId, BarrierRec>,
    pub(crate) files: BTreeMap<u64, FileRec>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("threads", &self.threads.len())
            .field("locks", &self.locks.len())
            .field("chans", &self.chans.len())
            .field("atomics", &self.atomics.len())
            .field("barriers", &self.barriers.len())
            .field("files", &self.files.len())
            .finish()
    }
}

impl Registry {
    /// Registers a mutex owning `init`.
    pub fn mutex<T: Clone + Send + 'static>(&mut self, init: T) -> MutexHandle<T> {
        let id = LockId::new(self.locks.len() as u64);
        self.locks.insert(
            id,
            LockRec {
                holder: None,
                data: Some(Box::new(init)),
            },
        );
        MutexHandle {
            raw: RawMutex(id),
            _t: PhantomData,
        }
    }

    /// Registers a FIFO channel.
    pub fn channel<T: Send + Sync + 'static>(&mut self) -> ChannelHandle<T> {
        let id = ChannelId::new(self.chans.len() as u64);
        self.chans.insert(id, ChanRec::default());
        ChannelHandle {
            raw: RawChannel(id),
            _t: PhantomData,
        }
    }

    /// Registers an atomic `u64`.
    pub fn atomic(&mut self, init: u64) -> AtomicHandle {
        let id = AtomicId::new(self.atomics.len() as u64);
        self.atomics.insert(id, init);
        AtomicHandle(id)
    }

    /// Registers a barrier for `participants` threads.
    pub fn barrier(&mut self, participants: u32) -> BarrierHandle {
        let id = BarrierId::new(self.barriers.len() as u64);
        self.barriers.insert(
            id,
            BarrierRec {
                participants,
                waiting: Vec::new(),
                gen: 0,
            },
        );
        BarrierHandle(id, participants)
    }

    /// Registers a recoverable output file. GPRS commits its bytes at
    /// retirement, the CPR baseline at each coordinated checkpoint.
    pub fn file(&mut self, name: impl Into<String>) -> FileHandle {
        let id = self.files.len() as u64;
        self.files.insert(
            id,
            FileRec {
                name: name.into(),
                committed: Vec::new(),
            },
        );
        FileHandle(id)
    }

    /// Registers an initial thread; fork order defines the deterministic
    /// registration order.
    pub fn thread<P>(&mut self, program: P, group: GroupId, weight: u32) -> ThreadId
    where
        P: ThreadProgram,
        P::Snapshot: Sized,
    {
        self.threads.push((Box::new(program), group, weight));
        ThreadId::new(self.threads.len() as u32 - 1)
    }
}
