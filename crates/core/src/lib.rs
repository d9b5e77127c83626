//! # openmb-core
//!
//! The OpenMB MB controller (§5 of the paper) and its embeddings.
//!
//! * [`controller::ControllerCore`] — the controller engine, and the
//!   only one. Every northbound operation is one [`controller::Request`]
//!   (`readConfig`, `writeConfig`, `delConfig`, `stats`,
//!   `enableEvents`, `moveInternal`, `cloneSupport`, `mergeInternal`,
//!   chain moves) handed to [`controller::ControllerCore::submit`],
//!   which admits transfers onto flowspace shards through the
//!   [`router::ShardRouter`] conflict detector; `end_op` closes an op
//!   and is not a request. Shards, router and
//!   chain table sit behind their own locks and every method is
//!   `&self`, so the simulator's single event loop and real OS threads
//!   drive the same code.
//! * [`shard::ControllerShard`] — one shard's pure state machine:
//!   Figure 5 choreography, per-key reprocess-event buffering,
//!   quiescence-driven deletes, per-shard transfer/delete ledgers.
//! * [`parallel::ShardedController`] — a newtype over the engine for
//!   thread drivers that want each call's actions returned as a `Vec`.
//! * [`app`] — the control-application trait and the [`app::Api`] that
//!   unifies MB-state control with SDN routing updates and timers.
//! * [`nodes`] — discrete-event-simulation embeddings: [`nodes::MbNode`]
//!   (a middlebox with its processing-cost queue), [`nodes::ControllerNode`]
//!   (controller + SDN routing + control app), [`nodes::Host`].
//! * [`tcp`] — the same engine served over real loopback TCP with the
//!   binary wire protocol and one blocking northbound entry point
//!   ([`tcp::TcpController::call`]), proving the protocol is
//!   transport-independent.

pub mod app;
pub mod chain;
pub mod controller;
mod id_hash;
pub mod nodes;
pub mod parallel;
pub mod placement;
pub mod router;
pub mod shard;
pub mod tcp;
mod transfer;

pub use app::{Api, ApiCtx, ControlApp, NullApp};
pub use chain::{ChainHop, ChainSpec, ChainStatus, CHAIN_OP_BASE};
pub use controller::{Action, Completion, ControllerConfig, ControllerCore, Request};
pub use nodes::{ControllerCosts, ControllerNode, Host, MbNode};
pub use parallel::ShardedController;
pub use placement::{select_destination, PlacementCandidate};
pub use router::{Admission, Route, ShardRouter};
pub use shard::{ControllerShard, OpKind, Phase, TableSizes};
