//! # openmb-apps
//!
//! The scenario-specific control applications of §6 — live migration
//! ([`migration`]) and elastic scaling ([`scaling`]) — plus failure
//! recovery via introspection ([`failover`], §2 R6), the state-of-the-art
//! baselines of §2.1/§8.1.2 ([`baselines`]), and the DES testbed with
//! the scenarios declared over it ([`scenarios`]).

pub mod baselines;
pub mod chains;
pub mod failover;
pub mod migration;
pub mod rebalance;
pub mod scaling;
pub mod scenarios;

pub use chains::ChainRelocateApp;
pub use migration::{FlowMoveApp, ReMigrationApp};
pub use rebalance::RebalanceApp;
pub use scaling::{ScaleDownApp, ScaleUpApp};
