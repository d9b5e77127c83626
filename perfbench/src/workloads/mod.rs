//! The four workloads. Each is generic over [`crate::trace::Tracing`]:
//! the end-to-end run instantiates it with `Plain`, the traced run with
//! `Traced`.

use std::hint::black_box;
use std::time::Instant;

use openmb_types::crypto::VendorKey;
use openmb_types::EncryptedChunk;

use crate::trace::{ratio, SpanLog};

pub mod chain_fwd;
pub mod move_live;
pub mod move_tcp;
pub mod move_threads;

pub use chain_fwd::ChainFwd;
pub use move_live::MoveLive;
pub use move_tcp::MoveTcp;
pub use move_threads::MoveThreads;

/// The per-layer metrics both DES workloads read off their spans the
/// same way. Engine self time is the residual of `Sim::run` once every
/// node span is taken out, so what `model.coverage_frac` leaves
/// uncovered is the generator's injection.
fn des_layer_metrics(log: &SpanLog) -> Vec<(&'static str, f64)> {
    let (op, run) = (log.total("op"), log.total("simnet.run"));
    let pkts = op.items as f64;
    let switch = log.total("openflow.switch");
    let in_nodes = (switch.busy_ns + log.total("core.nodes").busy_ns) as f64;
    let mbnode_self =
        log.total("core.nodes.mbnode").busy_ns as f64 - log.total("middleboxes").busy_ns as f64;
    vec![
        ("simnet.engine.self_ns_per_pkt", ratio(run.busy_ns as f64 - in_nodes, pkts)),
        ("simnet.engine.events_per_pkt", ratio(run.items as f64, pkts)),
        ("openflow.switch.busy_ns_per_pkt", ratio(switch.busy_ns as f64, pkts)),
        ("openflow.switch.calls_per_pkt", ratio(switch.calls as f64, pkts)),
        ("core.nodes.mbnode_self_ns_per_pkt", ratio(mbnode_self, pkts)),
        ("model.coverage_frac", ratio(run.busy_ns as f64, op.busy_ns as f64)),
    ]
}

/// Direct `seal` and `content_hash` calls on a move's chunk bodies,
/// sealed by middleboxes of type `mb_type`: ns per chunk of each.
fn seal_and_hash_ns(mb_type: &str, bodies: &[EncryptedChunk]) -> (f64, f64) {
    let key = VendorKey::derive(mb_type);
    let plain: Vec<Vec<u8>> =
        bodies.iter().map(|b| b.open(&key).expect("sealed under this vendor key")).collect();
    let t0 = Instant::now();
    for (i, p) in plain.iter().enumerate() {
        black_box(EncryptedChunk::seal(&key, i as u64, black_box(p)));
    }
    let seal = t0.elapsed().as_nanos() as f64;
    let t0 = Instant::now();
    for b in bodies {
        black_box(openmb_store::content_hash(black_box(b.as_wire())));
    }
    let hash = t0.elapsed().as_nanos() as f64;
    (ratio(seal, bodies.len() as f64), ratio(hash, bodies.len() as f64))
}
