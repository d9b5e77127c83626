//! # openmb-middleboxes
//!
//! OpenMB-enabled middlebox implementations (§7 of the paper modified
//! Bro, PRADS, and SmartRE; we implement functional Rust stand-ins for
//! each, plus the additional MB types the motivating scenarios of §2
//! reference):
//!
//! * [`monitor::Monitor`] — PRADS-like asset monitor: per-flow + shared
//!   **reporting** state, additive merge.
//! * [`ips::Ips`] — Bro-like intrusion detection: deep per-flow
//!   **supporting** state (TCP connection machine, HTTP analyzer),
//!   shared scan-detector table, conn.log/http.log output.
//! * [`re`] — SmartRE-like redundancy-elimination encoder/decoder:
//!   shared **supporting** packet cache + fingerprint table that must
//!   stay byte-synchronized between encoder and decoder.
//! * [`nat::Nat`] — address/port translator: critical vs non-critical
//!   state split, introspection events (failure recovery, §2 R6).
//! * [`lb::LoadBalancer`] — Balance-like: per-source-IP granularity
//!   (exercises the §4.1.2 fine-granularity error path).
//! * [`proxy::Proxy`] — Squid-like caching proxy: the §4.1.2 hit-count
//!   shared-cache merge example, implemented verbatim.
//! * [`firewall::Firewall`] — configuration-heavy stateful firewall.
//! * [`dummy::DummyMb`] — trace-replay MB for the §8.3 controller
//!   scalability experiments.
//!
//! Each file holds what is specific to its middlebox: the packet logic,
//! one [`record!`](openmb_types::record) row per state structure (per-flow
//! tables implement [`openmb_mb::Record`] on theirs), a merge rule per
//! shared structure, configuration validation. The uniform half of the
//! state operations — encoding and the one canonical decode, export
//! order, sealing and nonces, moved marks, `stats` accounting, additive
//! counter blocks, the answers for state classes a type does not keep — is
//! [`openmb_mb::state`] and the provided methods of
//! [`openmb_mb::Middlebox`]; only the load balancer, whose table is not
//! keyed by flow, keeps its own export loop.

pub mod dummy;
pub mod firewall;
pub mod ips;
pub mod lb;
pub mod monitor;
pub mod nat;
pub mod proxy;
pub mod re;

pub use dummy::DummyMb;
pub use firewall::Firewall;
pub use ips::Ips;
pub use lb::LoadBalancer;
pub use monitor::Monitor;
pub use nat::Nat;
pub use proxy::Proxy;
pub use re::{ReDecoder, ReEncoder};

#[cfg(test)]
mod rows;
