//! Deterministic virtual-time multiprocessor simulator for the GPRS
//! reproduction.
//!
//! The paper evaluates GPRS on a 24-context Xeon; this crate provides the
//! substitute testbed: a discrete-event simulator over trace-level workloads
//! with three execution engines sharing one workload vocabulary:
//!
//! * [`free`] — the **Pthreads** baseline (free-running synchronization) and
//!   **coordinated CPR** on top of it (periodic two-barrier checkpoints,
//!   global rollback on exceptions).
//! * [`gprs`] — the **GPRS** engine: token-ordered sub-threads with
//!   per-sub-thread checkpoints, a live reorder list, channel-provenance
//!   dependence tracking and selective restart.
//! * [`tipping`] — bisection search for the tipping rate of Figure 11(c).
//!
//! Workloads ([`workload`]) are generated by `gprs-workloads` to match the
//! parallelism patterns of the paper's Table 2 programs; mechanism costs
//! ([`costs`]) are calibrated so aggregate overheads land in the measured
//! ranges. All simulations are fully deterministic given their seeds.
//!
//! # Example: CPR tips over, GPRS survives
//!
//! ```
//! use gprs_sim::costs::{secs_to_cycles, CYCLES_PER_SEC};
//! use gprs_sim::free::{run_free, FreeRunConfig};
//! use gprs_sim::gprs::{run_gprs, GprsSimConfig};
//! use gprs_sim::workload::{Segment, SimOp, ThreadSpec, Workload};
//! use gprs_core::exception::InjectorConfig;
//! use gprs_core::ids::{AtomicId, GroupId, ThreadId};
//!
//! let w = Workload::new("demo", (0..8).map(|i| ThreadSpec::new(
//!     ThreadId::new(i), GroupId::new(0), 1,
//!     (0..8).map(|_| Segment::new(secs_to_cycles(0.25),
//!                                 SimOp::Atomic { atomic: AtomicId::new(0) })).collect(),
//! )).collect());
//! let inj = InjectorConfig::paper(8.0, 8, CYCLES_PER_SEC);
//! let cap = secs_to_cycles(60.0);
//! let cpr = run_free(&w, &FreeRunConfig::cpr(8, secs_to_cycles(1.0))
//!     .with_exceptions(inj.clone()).with_time_cap(cap));
//! let gprs = run_gprs(&w, &GprsSimConfig::balance_aware(8)
//!     .with_exceptions(inj).with_time_cap(cap));
//! assert!(!cpr.completed && gprs.completed);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod costs;
pub mod free;
pub mod gprs;
pub mod result;
pub mod tipping;
pub use gprs_core::workload;

pub use costs::{cycles_to_secs, secs_to_cycles, MechCosts, CYCLES_PER_SEC};
pub use free::{run_free, CprConfig, FreeRunConfig};
pub use gprs::{run_gprs, GprsSimConfig, RecoveryPolicy};
pub use result::{harmonic_mean, SimResult};
pub use tipping::{find_tipping_rate, TippingPoint, TippingScheme};
pub use workload::{Segment, SimOp, ThreadSpec, Workload};
