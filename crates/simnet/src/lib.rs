//! # openmb-simnet
//!
//! A deterministic discrete-event network simulator: the testbed
//! substitute on which every OpenMB experiment runs (see DESIGN.md §1).
//!
//! * [`engine::Sim`] — the event loop: nodes, links, virtual clock.
//! * [`engine::Node`] — the trait simulated elements implement.
//! * [`fault`] — deterministic fault injection (drop/delay/duplicate
//!   rules, scheduled crash/restart).
//! * [`time`] — integer virtual time.
//! * [`metrics`] — counters, gauges, latency histograms, ECDFs. What
//!   happened *when* goes to the flight recorder ([`obs`]), the one
//!   event stream of a run.
//!
//! Determinism: the event queue orders by `(time, schedule-seq)`; all
//! randomness in workloads comes from seeded RNGs (including the fault
//! plan's); time is integer nanoseconds. Two runs of the same
//! configuration produce identical recorder dumps and fault logs.

pub mod engine;
pub mod fault;
pub mod metrics;
pub mod time;

pub use engine::{Ctx, Frame, Node, Sim};
pub use fault::{CrashEvent, FaultAction, FaultPlan, FaultRecord, FaultRule};
pub use metrics::{Ecdf, Metrics};
// Observability substrate (re-exported so embeddings that already
// depend on the simulator get the span/recorder types without a
// separate dependency edge).
pub use openmb_obs as obs;
pub use time::{SimDuration, SimTime};
