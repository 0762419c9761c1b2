//! The thread programming model.
//!
//! GPRS must be able to re-execute any sub-thread from its beginning, which
//! requires reinstating the thread's execution state at the sub-thread
//! boundary. The paper checkpoints the call stack and registers of its C
//! threads; safe Rust cannot capture a foreign stack, so threads are written
//! in *trampoline style* instead: a [`ThreadProgram`] is an explicit state
//! machine whose [`step`](ThreadProgram::step) runs exactly one sub-thread —
//! from one synchronization point to the next — and returns the
//! synchronization operation ([`Step`]) it arrived at. The state the program
//! carries **is** its stack, and the [`Checkpoint`] supertrait supplies the
//! paper's application-level checkpoint function for it.
//!
//! The correspondence with the paper's interception points:
//!
//! | Pthreads / gcc call | trampoline equivalent |
//! |---|---|
//! | `pthread_create(f, group)` | return [`Step::spawn`] |
//! | `pthread_join` | return [`Step::join`] |
//! | `pthread_mutex_lock` | return [`crate::handles::MutexHandle::lock`]; the critical section is the *next* step, which may call [`crate::ctx::StepCtx::unlock`] anywhere and keep computing (the unlock-subsumption optimization) |
//! | `__sync_fetch_and_add` | return [`crate::handles::AtomicHandle::fetch_add`] |
//! | `pthread_barrier_wait` | return [`crate::handles::BarrierHandle::wait`] |
//! | lock-protected FIFO access | return [`crate::handles::ChannelHandle::push`] / [`crate::handles::ChannelHandle::pop`] |
//! | `pthread_exit(v)` | return [`Step::exit`] |

use crate::handles::{RawChannel, RawMutex};
use gprs_core::history::Checkpoint;
use gprs_core::ids::{AtomicId, BarrierId, GroupId, ThreadId};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// A type-erased, immutably shared value traveling through channels,
/// join results and thread outputs.
///
/// Values are shared rather than moved so that an undone channel pop can
/// return the *same* item to the queue front without cloning.
pub type Payload = Arc<dyn Any + Send + Sync>;

/// The synchronization operation a step arrived at — the boundary that ends
/// the current sub-thread and opens the next.
pub enum Step {
    /// Acquire a mutex; the next step runs as the critical section (access
    /// the protected data with [`crate::ctx::StepCtx::with_lock`], release
    /// early with [`crate::ctx::StepCtx::unlock`]).
    Lock(RawMutex),
    /// Enqueue a value into a FIFO channel.
    Push(RawChannel, Payload),
    /// Dequeue a value; the thread deterministically re-polls while the
    /// channel is empty. Read it with [`crate::ctx::StepCtx::popped`].
    Pop(RawChannel),
    /// Atomic fetch-add; the previous value is available to the next step
    /// via [`crate::ctx::StepCtx::atomic_prev`].
    FetchAdd(AtomicId, u64),
    /// Wait on a barrier.
    Barrier(BarrierId),
    /// Create a new thread (the extended `pthread_create` carrying the
    /// balance-aware group and weight).
    Spawn(SpawnSpec),
    /// Wait for a thread to exit; its output is available to the next step
    /// via [`crate::ctx::StepCtx::joined`].
    Join(ThreadId),
    /// Execute the next step strictly serialized: all preceding sub-threads
    /// retire first and nothing runs concurrently. This is how functions
    /// with unknown mod sets and `start_cpr`/`end_cpr` hybrid regions
    /// execute (`§3.2`, `§3.4`).
    Serialized,
    /// Terminate the thread with an output value.
    Exit(Payload),
}

impl Step {
    /// Builds a [`Step::Spawn`] from a typed program.
    pub fn spawn<P: ThreadProgram>(program: P, group: GroupId, weight: u32) -> Step {
        Step::Spawn(SpawnSpec {
            program: Box::new(program),
            group,
            weight,
        })
    }

    /// Builds a [`Step::Join`].
    pub fn join(thread: ThreadId) -> Step {
        Step::Join(thread)
    }

    /// Builds a [`Step::Exit`] carrying a typed output.
    pub fn exit<T: Send + Sync + 'static>(value: T) -> Step {
        Step::Exit(Arc::new(value))
    }

    /// Builds a [`Step::Exit`] with no output.
    pub fn exit_unit() -> Step {
        Step::Exit(Arc::new(()))
    }

    /// A copy of this request for a coordinated checkpoint, or `None` for a
    /// spawn, whose program cannot be copied.
    pub(crate) fn try_clone(&self) -> Option<Step> {
        Some(match self {
            Step::Lock(m) => Step::Lock(*m),
            Step::Push(c, v) => Step::Push(*c, v.clone()),
            Step::Pop(c) => Step::Pop(*c),
            Step::FetchAdd(a, d) => Step::FetchAdd(*a, *d),
            Step::Barrier(b) => Step::Barrier(*b),
            Step::Join(t) => Step::Join(*t),
            Step::Serialized => Step::Serialized,
            Step::Exit(v) => Step::Exit(v.clone()),
            Step::Spawn(_) => return None,
        })
    }
}

impl fmt::Debug for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Lock(m) => write!(f, "Lock({})", m.id()),
            Step::Push(c, _) => write!(f, "Push({})", c.id()),
            Step::Pop(c) => write!(f, "Pop({})", c.id()),
            Step::FetchAdd(a, n) => write!(f, "FetchAdd({a}, {n})"),
            Step::Barrier(b) => write!(f, "Barrier({b})"),
            Step::Spawn(s) => write!(f, "Spawn(group {})", s.group),
            Step::Join(t) => write!(f, "Join({t})"),
            Step::Serialized => write!(f, "Serialized"),
            Step::Exit(_) => write!(f, "Exit"),
        }
    }
}

/// A new thread's program plus its balance-aware placement.
pub struct SpawnSpec {
    /// The erased program.
    pub(crate) program: Box<dyn DynThread>,
    /// Balance-aware scheduling group (`§3.2`).
    pub group: GroupId,
    /// Group weight under the weighted schedule.
    pub weight: u32,
}

impl fmt::Debug for SpawnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpawnSpec")
            .field("group", &self.group)
            .field("weight", &self.weight)
            .finish_non_exhaustive()
    }
}

/// A restartable logical thread.
///
/// Implementors hold all state that must survive across synchronization
/// points; [`Checkpoint`] (the supertrait) saves and restores it — this is
/// the paper's user-provided application-level checkpoint function, so
/// `checkpoint` should capture exactly the mod set.
///
/// `step` must be deterministic given the program state and the values the
/// runtime delivers through [`crate::ctx::StepCtx`]; it must not communicate
/// through ambient channels (globals, files, real time) — those would be
/// data races in the paper's model too.
///
/// # Examples
/// ```
/// use gprs_runtime::program::{Step, ThreadProgram};
/// use gprs_runtime::ctx::StepCtx;
/// use gprs_core::history::Checkpoint;
///
/// /// Sums 0..n with an exit at the end: a single-sub-thread program.
/// struct Summer { n: u64, acc: u64 }
/// impl Checkpoint for Summer {
///     type Snapshot = u64;
///     fn checkpoint(&self) -> u64 { self.acc }
///     fn restore(&mut self, s: &u64) { self.acc = *s; }
/// }
/// impl ThreadProgram for Summer {
///     fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
///         self.acc = (0..self.n).sum();
///         Step::exit(self.acc)
///     }
/// }
/// ```
pub trait ThreadProgram: Checkpoint + Send + 'static
where
    Self::Snapshot: Sized,
{
    /// Executes from the current point to the next synchronization point —
    /// exactly one sub-thread body — and returns the operation that ends it.
    fn step(&mut self, ctx: &mut crate::ctx::StepCtx<'_>) -> Step;
}

/// Object-safe erasure of [`ThreadProgram`] + [`Checkpoint`].
pub(crate) trait DynThread: Send {
    fn step(&mut self, ctx: &mut crate::ctx::StepCtx<'_>) -> Step;
    /// Checkpoints the program. `spare` is a retired sub-thread's snapshot
    /// box of this same program, overwritten in place when present — the
    /// steady state, so a grant's checkpoint allocates no box.
    fn save_into(&self, spare: Option<Box<dyn Any + Send>>) -> Box<dyn Any + Send>;
    fn restore_from(&mut self, snap: &(dyn Any + Send));
}

impl<P> DynThread for P
where
    P: ThreadProgram,
    P::Snapshot: Sized,
{
    fn step(&mut self, ctx: &mut crate::ctx::StepCtx<'_>) -> Step {
        ThreadProgram::step(self, ctx)
    }

    fn save_into(&self, spare: Option<Box<dyn Any + Send>>) -> Box<dyn Any + Send> {
        match spare.map(|b| b.downcast::<P::Snapshot>()) {
            Some(Ok(mut snap)) => {
                self.checkpoint_into(&mut snap);
                snap
            }
            _ => Box::new(self.checkpoint()),
        }
    }

    fn restore_from(&mut self, snap: &(dyn Any + Send)) {
        let typed = <dyn Any>::downcast_ref::<P::Snapshot>(snap)
            .expect("snapshot type matches the program that produced it");
        self.restore(typed);
    }
}

/// Extracts a typed copy of a payload.
///
/// # Panics
/// Panics if the payload holds a different type — a wiring bug between
/// producer and consumer, analogous to a type-confused `void*` in the C
/// original.
pub fn payload_to<T: Clone + Send + Sync + 'static>(p: &Payload) -> T {
    p.downcast_ref::<T>()
        .unwrap_or_else(|| panic!("payload is not a {}", std::any::type_name::<T>()))
        .clone()
}

/// A convenience [`ThreadProgram`] built from a one-shot closure: runs it as
/// a single sub-thread and exits with its result. Useful for fork/join
/// helpers and tests.
pub struct OneShot<F, T> {
    f: F,
    _out: std::marker::PhantomData<fn() -> T>,
}

impl<F, T> OneShot<F, T>
where
    F: FnMut() -> T + Send + 'static,
    T: Send + Sync + 'static,
{
    /// Wraps the closure. It must be re-runnable (`FnMut`): recovery may
    /// re-execute the sub-thread, and conventional CPR may re-execute it
    /// after a rollback.
    pub fn new(f: F) -> Self {
        OneShot {
            f,
            _out: std::marker::PhantomData,
        }
    }
}

impl<F: Send + 'static, T> Checkpoint for OneShot<F, T> {
    type Snapshot = ();
    fn checkpoint(&self) {}
    fn restore(&mut self, _snap: &()) {}
}

impl<F, T> ThreadProgram for OneShot<F, T>
where
    F: FnMut() -> T + Send + 'static,
    T: Send + Sync + 'static,
{
    fn step(&mut self, _ctx: &mut crate::ctx::StepCtx<'_>) -> Step {
        Step::exit((self.f)())
    }
}

#[allow(dead_code)]
fn _asserts() {
    fn assert_send<T: Send>() {}
    assert_send::<Step>();
    assert_send::<SpawnSpec>();
}
