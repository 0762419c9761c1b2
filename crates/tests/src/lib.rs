//! Host crate for the repository-level integration tests in `/tests`.
//!
//! The test sources live at the workspace root (`tests/*.rs`) per the project
//! layout; this crate wires them in and holds the programs several of them run.

use gprs_runtime::prelude::*;

/// One logical thread fetch-adding its own atomic `rounds` times: with one
/// atomic per thread this is the pure grant → checkpoint → step → deposit →
/// retire path, no blocking anywhere. A run of `t` chains grants and
/// checkpoints `t × (rounds + 1)` sub-threads, whatever the worker count.
pub struct Chain {
    atomic: AtomicHandle,
    rounds: u32,
    done: u32,
}

impl Chain {
    /// A chain over `atomic` that has not started.
    pub fn new(atomic: AtomicHandle, rounds: u32) -> Chain {
        Chain {
            atomic,
            rounds,
            done: 0,
        }
    }
}

impl Checkpoint for Chain {
    type Snapshot = u32;
    fn checkpoint(&self) -> u32 {
        self.done
    }
    fn restore(&mut self, s: &u32) {
        self.done = *s;
    }
}

impl ThreadProgram for Chain {
    fn step(&mut self, _ctx: &mut StepCtx<'_>) -> Step {
        if self.done == self.rounds {
            return Step::exit_unit();
        }
        self.done += 1;
        self.atomic.fetch_add(1)
    }
}
