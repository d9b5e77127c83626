//! # openmb-traffic
//!
//! Synthetic workload generators standing in for the paper's three
//! captured traces (§8): the campus↔cloud trace, the university
//! data-center trace (flow durations, Fig 8), and the high-redundancy
//! campus trace (RE experiments). Every generator is seeded and
//! deterministic.
//!
//! See DESIGN.md §1 for why these substitutions preserve the behaviours
//! the experiments measure.

pub mod cloud;
pub mod datacenter;
pub mod redundant;
pub mod trace;

pub use cloud::CloudTraceConfig;
pub use datacenter::DatacenterWorkload;
pub use redundant::RedundantPayloads;
pub use trace::{TimedPacket, Trace};
