//! Cross-crate integration tests: determinism, atomicity under load,
//! and the full stack driven through the umbrella crate.

use openmb::apps::migration::{FlowMoveApp, RouteSpec};
use openmb::apps::scenarios::{layout, two_mb_scenario, ScenarioParams};
use openmb::core::nodes::{Host, MbNode};
use openmb::mb::Middlebox;
use openmb::middleboxes::{Firewall, LoadBalancer, Monitor, Nat};
use openmb::simnet::{Frame, SimDuration, SimTime};
use openmb::traffic::CloudTraceConfig;
use openmb::types::{FlowKey, HeaderFieldList, Packet};
use std::net::Ipv4Addr;

fn run_scale_up(seed: u64) -> (u64, u64, Vec<u64>) {
    use layout::*;
    let app = FlowMoveApp::new(
        MB_A_ID,
        MB_B_ID,
        HeaderFieldList::from_dst_port(80),
        SimDuration::from_millis(300),
        RouteSpec {
            pattern: HeaderFieldList::from_dst_port(80),
            priority: 10,
            src: SRC,
            waypoints: vec![MB_B],
            dst: DST,
        },
    );
    let mut setup =
        two_mb_scenario(Monitor::new(), Monitor::new(), Box::new(app), ScenarioParams::default());
    let trace =
        CloudTraceConfig { flows: 80, seed, span: SimDuration::from_secs(1), ..Default::default() }
            .generate();
    trace.inject(&mut setup.sim, setup.src, setup.switch);
    setup.sim.run(100_000_000);
    assert!(setup.sim.is_idle());
    let a: &MbNode<Monitor> = setup.sim.node_as(setup.mb_a);
    let b: &MbNode<Monitor> = setup.sim.node_as(setup.mb_b);
    let sink: &Host = setup.sim.node_as(setup.dst);
    (a.packets_processed, b.packets_processed, sink.received_ids())
}

/// Two identical runs produce byte-identical outcomes — the simulator
/// is deterministic end to end.
#[test]
fn simulation_is_deterministic() {
    let one = run_scale_up(77);
    let two = run_scale_up(77);
    assert_eq!(one, two);
    let other = run_scale_up(78);
    assert_ne!(one.2, other.2, "different seeds differ");
}

/// A NAT and a firewall chained through the same switch: the NAT
/// translates, the firewall conntracks the translated flow, replies
/// translate back. (Exercises multiple MB types in one topology.)
#[test]
fn nat_and_firewall_compose() {
    let external = Ipv4Addr::new(5, 5, 5, 5);
    let mut nat = Nat::new(external);
    let mut fw = Firewall::new();
    let mut fx = openmb::mb::Effects::normal();

    let key = FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 1000, Ipv4Addr::new(8, 8, 8, 8), 80);
    nat.process_packet(SimTime(0), &Packet::new(1, key, vec![0u8; 10]), &mut fx);
    let translated = fx.take_output().unwrap();
    assert_eq!(translated.key.src_ip, external);

    fw.process_packet(SimTime(1), &translated, &mut fx);
    assert!(fx.take_output().is_some(), "firewall allows HTTP");

    // Reply path: firewall passes via conntrack, NAT translates back.
    let reply = Packet::new(2, translated.key.reversed(), vec![0u8; 10]);
    fw.process_packet(SimTime(2), &reply, &mut fx);
    let back = fx.take_output().unwrap();
    nat.process_packet(SimTime(3), &back, &mut fx);
    let delivered = fx.take_output().unwrap();
    assert_eq!(delivered.key.dst_ip, Ipv4Addr::new(10, 0, 0, 1));
    assert_eq!(delivered.key.dst_port, 1000);
}

/// Load-balancer state migrates between instances at its native
/// (source-IP) granularity through the full controller stack.
#[test]
fn lb_migration_preserves_affinity_through_sim() {
    use layout::*;
    let backends = [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)];
    let vip = Ipv4Addr::new(1, 2, 3, 4);
    let app = FlowMoveApp::new(
        MB_A_ID,
        MB_B_ID,
        HeaderFieldList::any(),
        SimDuration::from_millis(200),
        RouteSpec {
            pattern: HeaderFieldList::any(),
            priority: 10,
            src: SRC,
            waypoints: vec![MB_B],
            dst: DST,
        },
    );
    let mut setup = two_mb_scenario(
        LoadBalancer::new(vip, &backends),
        LoadBalancer::new(vip, &backends),
        Box::new(app),
        ScenarioParams::default(),
    );
    // Each client opens one connection before the move and one after.
    for c in 0..10u8 {
        for (phase, t0) in [(0u64, 0u64), (1, 500_000_000)] {
            let key = FlowKey::tcp(
                Ipv4Addr::new(99, 0, 0, c + 1),
                1000 + u16::from(c) + (phase as u16) * 100,
                vip,
                80,
            );
            setup.sim.inject_frame(
                SimTime(t0 + u64::from(c) * 1_000_000),
                setup.src,
                setup.switch,
                Frame::Data(Packet::new(phase * 1000 + u64::from(c) + 1, key, vec![0u8; 10])),
            );
        }
    }
    setup.sim.run(100_000_000);
    assert!(setup.sim.is_idle());

    // Affinity: for each client, the backend chosen pre-move (at mb_a)
    // equals the backend used post-move (at mb_b).
    let sink: &Host = setup.sim.node_as(setup.dst);
    let mut by_client: std::collections::HashMap<Ipv4Addr, Vec<Ipv4Addr>> =
        std::collections::HashMap::new();
    for (_, p) in &sink.received {
        by_client.entry(p.key.src_ip).or_default().push(p.key.dst_ip);
    }
    assert_eq!(by_client.len(), 10);
    for (client, backends_seen) in by_client {
        assert_eq!(backends_seen.len(), 2, "both phases delivered for {client}");
        assert_eq!(
            backends_seen[0], backends_seen[1],
            "{client} must stay on its backend across the move"
        );
    }
    let b: &MbNode<LoadBalancer> = setup.sim.node_as(setup.mb_b);
    assert_eq!(b.logic.perflow_entries(), 10, "all assignments moved");
}

/// Granularity errors propagate through the controller as failures.
#[test]
fn lb_rejects_fine_grained_get_through_controller() {
    use openmb::core::controller::{Action, ControllerConfig, ControllerCore, Request};
    use openmb::mb::handle_southbound;
    let core = ControllerCore::new(ControllerConfig::default());
    let mb = core.register_mb();
    let mut lb = LoadBalancer::new(Ipv4Addr::new(1, 2, 3, 4), &[Ipv4Addr::new(10, 0, 0, 1)]);
    let mut actions = Vec::new();
    // Request at finer-than-native granularity (a port-qualified key).
    let fine = Request::Move { src: mb, dst: mb, key: HeaderFieldList::from_dst_port(80) };
    let op = core.submit(fine, SimTime(0), &mut actions);
    // Deliver the southbound messages to the MB and feed replies back.
    let mut failed = false;
    for a in actions {
        if let Action::ToMb(_, msg) = a {
            for reply in handle_southbound(&mut lb, msg, SimTime(0)) {
                let mut out = Vec::new();
                core.handle_mb_message(mb, reply, SimTime(0), &mut out);
                for n in out {
                    if let Action::Notify(openmb::core::Completion::Failed {
                        op: fop, error, ..
                    }) = n
                    {
                        assert_eq!(fop, op);
                        assert!(
                            matches!(error, openmb::types::Error::GranularityTooFine { .. }),
                            "expected GranularityTooFine, got {error}"
                        );
                        failed = true;
                    }
                }
            }
        }
    }
    assert!(failed, "the granularity error must surface to the application");
}
