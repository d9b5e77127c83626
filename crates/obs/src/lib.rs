//! Observability substrate for OpenMB: operation spans, a bounded
//! flight recorder, and a metrics registry with Prometheus/JSON export.
//!
//! This crate is deliberately dependency-free (std only) so it can sit
//! at the bottom of the workspace graph: `openmb-simnet` backs its
//! counters with [`Registry`], `openmb-core` records span events from
//! `ControllerCore`/`TcpController` and — for the data plane: packets
//! processed, events raised and replayed, gets served — from `MbNode`,
//! and `openmb-mb` records them from the MB-side southbound handlers.
//! It is the workspace's only event vocabulary. Identifiers are carried
//! as raw integers (`OpId.0`, sub-op ids) rather than the typed ids
//! from `openmb-types`, and time is raw nanoseconds: the simulator
//! passes `SimTime.0`, the TCP embedding passes
//! [`Recorder::now_ns`] (monotonic, relative to recorder creation).
//!
//! Design rules:
//!
//! * **Zero overhead when disabled.** A [`Recorder::disabled`] handle
//!   is a `None`; [`Recorder::record`] is a branch. Events whose
//!   construction allocates go through [`Recorder::record_with`] so
//!   the closure is never run on the disabled path.
//! * **Bounded.** The ring buffer keeps the most recent `capacity`
//!   events and counts what it evicted, so a crashing run dumps the
//!   tail of history, never an unbounded log.
//! * **Shareable.** Cloning a [`Recorder`] shares the underlying
//!   buffer (`Arc`), which is what lets a journaled `ControllerCore`
//!   snapshot carry the same recorder as the live core.

mod health;
mod metrics;
mod monitor;
mod phase;
mod recorder;
mod span;

pub use health::{HealthSnapshot, LedgerHealth, ShardHealth};
pub use metrics::{CounterSlot, GaugeSlot, Histogram, Registry, Slot, DEFAULT_BOUNDS};
pub use monitor::{Monitor, MonitorConfig, Violation};
pub use phase::{
    export_chain_phases, export_op_phases, percentile, ChainPhases, HopPhase, OpPhases,
};
pub use recorder::{NodeTag, ObsSink, RecordedEvent, Recorder, RecorderDump, TimelineEvent};
pub use span::{ParkReason, SpanEvent};
