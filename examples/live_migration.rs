//! The §6.1 live-migration scenario: redundancy-elimination middleboxes
//! across two data centers.
//!
//! Half the application VMs move from DC A to DC B. The `ReMigrationApp`
//! runs the paper's five-step recipe: duplicate the decoder's
//! configuration, clone its packet cache, add a second cache at the
//! encoder, update routing, point the encoder's `CacheFlows` at the two
//! DCs. Every packet decodes correctly throughout — contrast with the
//! config+routing baseline printed at the end.
//!
//! Run with: `cargo run --release --example live_migration`

use openmb::apps::migration::{ReMigrationApp, RouteSpec};
use openmb::apps::scenarios::{re_layout, re_scenario, ScenarioParams};
use openmb::core::nodes::MbNode;
use openmb::middleboxes::{ReDecoder, ReEncoder};
use openmb::simnet::{SimDuration, SimTime};
use openmb::traffic::{RedundantPayloads, TimedPacket, Trace};
use openmb::types::{HeaderFieldList, IpPrefix};
use std::net::Ipv4Addr;

fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
    Ipv4Addr::new(a, b, c, d)
}

fn main() {
    use re_layout::*;
    let prefix_a = IpPrefix::new(ip(20, 0, 0, 0), 24); // DC A VMs
    let prefix_b = IpPrefix::new(ip(20, 0, 1, 0), 24); // DC B VMs (migrated)

    let app = ReMigrationApp::new(
        ENCODER_ID,
        DEC_A_ID,
        DEC_B_ID,
        SimDuration::from_millis(500),
        RouteSpec {
            pattern: HeaderFieldList::from_dst_subnet(prefix_b),
            priority: 10,
            src: SRC,
            waypoints: vec![ENCODER, DEC_B],
            dst: HOST_B,
        },
        "20.0.0.0/24",
        "20.0.1.0/24",
    );
    let mut setup = re_scenario(
        1 << 20, // 1 MiB packet caches
        prefix_a,
        prefix_b,
        Box::new(app),
        ScenarioParams::default(),
    );

    // High-redundancy traffic to both DCs: pre-migration (0–450 ms) and
    // post-migration (from 900 ms), re-referencing the same content.
    let mk = |seed: u64, start: u64, dst: Ipv4Addr, src_last: u8| {
        RedundantPayloads { seed, redundancy: 0.7, ..Default::default() }.generate(
            300,
            SimTime(start),
            SimDuration::from_micros(1500),
            ip(10, 9, 9, src_last),
            dst,
            1,
        )
    };
    let t = mk(11, 0, ip(20, 0, 0, 10), 9)
        .merge(&mk(12, 750_000, ip(20, 0, 1, 10), 8))
        .merge(&mk(11, 900_000_000, ip(20, 0, 0, 10), 9))
        .merge(&mk(12, 900_750_000, ip(20, 0, 1, 10), 8));
    let trace = Trace::new(
        t.events()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let mut p = e.packet.clone();
                p.id = i as u64 + 1;
                TimedPacket { time: e.time, packet: p }
            })
            .collect(),
    );
    trace.inject(&mut setup.sim, setup.src, setup.switch);

    setup.sim.run(500_000_000);
    assert!(setup.sim.is_idle());

    let enc: &MbNode<ReEncoder> = setup.sim.node_as(setup.encoder);
    let da: &MbNode<ReDecoder> = setup.sim.node_as(setup.dec_a);
    let db: &MbNode<ReDecoder> = setup.sim.node_as(setup.dec_b);

    println!("== OpenMB live migration of an RE deployment ==");
    println!("bytes saved by encoding:        {}", enc.logic.bytes_saved);
    println!("packets decoded at DC A:        {}", da.logic.packets_decoded);
    println!("packets decoded at DC B:        {}", db.logic.packets_decoded);
    println!("undecodable at DC A:            {}", da.logic.packets_undecodable);
    println!("undecodable at DC B:            {}", db.logic.packets_undecodable);
    assert_eq!(da.logic.packets_undecodable + db.logic.packets_undecodable, 0);
    println!("\nOK: the cloned cache kept encoder and new decoder in sync —");
    println!("every packet decoded (paper Table 3, SDMBN row).");
    println!("\nFor the config+routing baseline (all post-switch traffic");
    println!("undecodable), run: cargo run --release -p openmb-harness --bin repro -- table3");
}
