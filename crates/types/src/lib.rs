//! # openmb-types
//!
//! Common types shared by every OpenMB crate: flow identifiers
//! ([`FlowKey`], [`HeaderFieldList`]), packets ([`Packet`]), hierarchical
//! configuration state ([`ConfigTree`]), the middlebox state taxonomy
//! ([`StateRole`], [`StatePartition`], [`StateChunk`]), the binary wire
//! protocol spoken between the MB controller and middleboxes
//! ([`wire::Message`]), chunk opacity ([`crypto`]), and the transfer
//! compressor ([`compress`]) used by the §8.3 compression experiment.
//!
//! The paper (Gember et al., *Design and Implementation of a Framework for
//! Software-Defined Middlebox Networking*, 2013) exchanges JSON messages
//! over UNIX sockets; we keep the identical message vocabulary but encode
//! it with a compact length-prefixed binary codec (see [`wire`]).

// Lets `tests/wire_corpus`, which the wire unit tests also include,
// name this crate the way an integration test does.
#[cfg(test)]
extern crate self as openmb_types;

pub mod codec;
pub mod compress;
pub mod config;
pub mod crypto;
pub mod error;
pub mod flow;
pub mod packet;
pub mod sdn;
pub mod state;
pub mod transport;
pub mod wire;

pub use config::{ConfigTree, ConfigValue, HierarchicalKey};
pub use error::{Error, Result};
pub use flow::{FlowKey, HeaderFieldList, IpPrefix, Proto};
pub use packet::{Packet, PacketMeta};
pub use state::{EncryptedChunk, StateChunk, StatePartition, StateRole, StateStats};

/// Identifier for a middlebox instance registered with the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MbId(pub u32);

impl std::fmt::Display for MbId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mb{}", self.0)
    }
}

/// Identifier for a network node (host, switch, middlebox attachment point)
/// inside the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Monotonic operation identifier allocated by the controller; correlates
/// requests, acknowledgements, and the events raised while an operation is
/// in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op{}", self.0)
    }
}
