//! Integration tests for the §6 control applications running over the
//! full simulated stack.

use std::net::Ipv4Addr;

use openmb_apps::migration::{ReMigrationApp, RouteSpec};
use openmb_apps::scaling::{ScaleDownApp, ScaleUpApp};
use openmb_apps::scenarios::{self, re_scenario, two_mb_scenario, ScenarioParams};
use openmb_core::nodes::{Host, MbNode};
use openmb_mb::Middlebox;
use openmb_middleboxes::{Monitor, ReDecoder, ReEncoder};
use openmb_simnet::{SimDuration, SimTime};
use openmb_traffic::{CloudTraceConfig, RedundantPayloads, Trace};
use openmb_types::{HeaderFieldList, IpPrefix};

fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
    Ipv4Addr::new(a, b, c, d)
}

/// §6.2 scale-up: clone config, stats, move the subnet's flows, reroute.
#[test]
fn scale_up_moves_subset_and_preserves_counts() {
    use scenarios::layout::*;
    let subset = HeaderFieldList::from_src_subnet(IpPrefix::new(ip(10, 1, 0, 0), 16));
    let app = ScaleUpApp::new(
        MB_A_ID,
        MB_B_ID,
        subset,
        SimDuration::from_millis(400),
        RouteSpec { pattern: subset, priority: 10, src: SRC, waypoints: vec![MB_B], dst: DST },
    );
    let mut setup =
        two_mb_scenario(Monitor::new(), Monitor::new(), Box::new(app), ScenarioParams::default());
    let trace =
        CloudTraceConfig { flows: 120, span: SimDuration::from_secs(1), ..Default::default() }
            .generate();
    let total_packets = trace.len() as u64;
    trace.inject(&mut setup.sim, setup.src, setup.switch);
    setup.sim.run(50_000_000);
    assert!(setup.sim.is_idle());

    let a: &MbNode<Monitor> = setup.sim.node_as(setup.mb_a);
    let b: &MbNode<Monitor> = setup.sim.node_as(setup.mb_b);

    // The app finished all five steps.
    let ctrl: &openmb_core::nodes::ControllerNode = setup.sim.node_as(setup.controller);
    assert!(ctrl
        .completions
        .iter()
        .any(|(_, c)| matches!(c, openmb_core::Completion::MoveComplete { .. })));

    // Collective monitoring unchanged (the §6.2 requirement): summed
    // shared counters equal a single-instance run.
    let combined_packets = a.logic.stat().total_packets + b.logic.stat().total_packets;
    assert_eq!(combined_packets, total_packets);
    // No flow double-counted: summed per-flow records count every packet
    // exactly once.
    let per_flow_sum: u64 = a
        .logic
        .assets_sorted()
        .iter()
        .chain(b.logic.assets_sorted().iter())
        .map(|r| r.packets)
        .sum();
    assert_eq!(per_flow_sum, total_packets);
    // The moved subset actually ran through mb_b.
    assert!(b.packets_processed > 0, "subset processed at the new instance");
    assert!(
        b.logic.assets_sorted().iter().all(|r| subset.matches_bidi(&r.key)),
        "only the chosen subset lives at the new instance"
    );
}

/// §6.2 scale-down: move everything, merge shared reporting state,
/// deprecate the instance.
#[test]
fn scale_down_consolidates_without_over_or_under_reporting() {
    use scenarios::layout::*;
    // mb_a is the deprecated instance (all traffic flows through it
    // initially); mb_b is the survivor.
    let app = ScaleDownApp::new(
        MB_A_ID,
        MB_B_ID,
        SimDuration::from_millis(600),
        RouteSpec {
            pattern: HeaderFieldList::any(),
            priority: 10,
            src: SRC,
            waypoints: vec![MB_B],
            dst: DST,
        },
    );
    let mut setup =
        two_mb_scenario(Monitor::new(), Monitor::new(), Box::new(app), ScenarioParams::default());
    let trace = CloudTraceConfig {
        flows: 100,
        span: SimDuration::from_secs(1),
        seed: 5,
        ..Default::default()
    }
    .generate();
    let total_packets = trace.len() as u64;
    trace.inject(&mut setup.sim, setup.src, setup.switch);
    setup.sim.run(50_000_000);
    assert!(setup.sim.is_idle());

    let a: &MbNode<Monitor> = setup.sim.node_as(setup.mb_a);
    let b: &MbNode<Monitor> = setup.sim.node_as(setup.mb_b);

    // After consolidation the survivor's *merged* shared counters account
    // for every packet exactly once (no over- or under-reporting, §6.2),
    // and the deprecated instance holds no per-flow state.
    assert_eq!(a.logic.perflow_entries(), 0, "deprecated instance drained");
    assert_eq!(
        b.logic.stat().total_packets + a.logic.stat().total_packets
            - /* counted at both during handover? no: merge adds a's into b */ a.logic.stat().total_packets,
        b.logic.stat().total_packets
    );
    assert_eq!(
        b.logic.stat().total_packets,
        total_packets,
        "survivor's merged counters cover the whole run"
    );
    let per_flow_sum: u64 = b.logic.assets_sorted().iter().map(|r| r.packets).sum();
    assert_eq!(per_flow_sum, total_packets);
}

/// §6.1 RE live migration: after cache cloning and the encoder's second
/// cache, *zero* packets are undecodable (Table 3's OpenMB row).
#[test]
fn re_migration_zero_undecodable() {
    use scenarios::re_layout::*;
    let prefix_a = IpPrefix::new(ip(20, 0, 0, 0), 24);
    let prefix_b = IpPrefix::new(ip(20, 0, 1, 0), 24);
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
    let mut setup =
        re_scenario(1 << 20, prefix_a, prefix_b, Box::new(app), ScenarioParams::default());

    // Redundant traffic interleaved to both DCs, with a quiet gap around
    // the migration window (pre-traffic ends ~450 ms, the recipe runs at
    // 500–~700 ms — cloning a 1 MiB cache takes ~150 ms at the modeled
    // serialization costs — and post-traffic starts at 900 ms) so the
    // cache transition happens at a flow-quiet instant (see DESIGN.md on
    // the §6.1 switchover).
    let gen = RedundantPayloads { redundancy: 0.7, ..Default::default() };
    let before = gen.generate(
        300,
        SimTime::ZERO,
        SimDuration::from_micros(1500),
        ip(10, 9, 9, 9),
        ip(20, 0, 0, 10),
        1,
    );
    let before_b = RedundantPayloads { seed: 12, redundancy: 0.7, ..Default::default() }.generate(
        300,
        SimTime(750_000),
        SimDuration::from_micros(1500),
        ip(10, 9, 9, 8),
        ip(20, 0, 1, 10),
        1,
    );
    let after = RedundantPayloads { seed: 13, redundancy: 0.7, ..Default::default() }.generate(
        200,
        SimTime(900_000_000),
        SimDuration::from_micros(1500),
        ip(10, 9, 9, 9),
        ip(20, 0, 0, 10),
        1,
    );
    let after_b = RedundantPayloads { seed: 14, redundancy: 0.7, ..Default::default() }.generate(
        200,
        SimTime(900_750_000),
        SimDuration::from_micros(1500),
        ip(10, 9, 9, 8),
        ip(20, 0, 1, 10),
        1,
    );
    let trace = before.merge(&before_b).merge(&after).merge(&after_b);
    let total = trace.len();
    // Offset packet ids to be unique across merged traces.
    let trace = Trace::new(
        trace
            .events()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let mut p = e.packet.clone();
                p.id = i as u64 + 1;
                openmb_traffic::TimedPacket { time: e.time, packet: p }
            })
            .collect(),
    );
    trace.inject(&mut setup.sim, setup.src, setup.switch);
    setup.sim.run(100_000_000);
    assert!(setup.sim.is_idle());

    let enc: &MbNode<ReEncoder> = setup.sim.node_as(setup.encoder);
    let da: &MbNode<ReDecoder> = setup.sim.node_as(setup.dec_a);
    let db: &MbNode<ReDecoder> = setup.sim.node_as(setup.dec_b);

    assert!(enc.logic.bytes_saved > 0, "redundancy was eliminated");
    assert_eq!(da.logic.packets_undecodable, 0, "DC A decodes everything");
    assert_eq!(db.logic.packets_undecodable, 0, "DC B decodes everything");
    assert!(db.logic.packets_decoded > 0, "post-migration B traffic went to dec_b");

    // Every packet was delivered to the right host.
    let ha: &Host = setup.sim.node_as(setup.host_a);
    let hb: &Host = setup.sim.node_as(setup.host_b);
    assert_eq!(ha.received.len() + hb.received.len(), total);
    assert!(hb.received.iter().all(|(_, p)| prefix_b.contains(p.key.dst_ip)));
}

/// Proxy consolidation through the controller: `mergeInternal` merges
/// the shared object cache by hit count (the §4.1.2 merge example) and
/// the shared hit/miss counters additively.
#[test]
fn proxy_consolidation_merges_cache_by_hits() {
    use openmb_apps::scenarios::layout::*;
    use openmb_middleboxes::Proxy;
    let app = ScaleDownApp::new(
        MB_A_ID,
        MB_B_ID,
        SimDuration::from_millis(500),
        RouteSpec {
            pattern: HeaderFieldList::any(),
            priority: 10,
            src: SRC,
            waypoints: vec![MB_B],
            dst: DST,
        },
    );
    let mut setup =
        two_mb_scenario(Proxy::new(64), Proxy::new(64), Box::new(app), ScenarioParams::default());
    // HTTP requests through the (initially routed) mb_a: /hot requested
    // 4 times, /cold once.
    let urls = ["/hot", "/hot", "/hot", "/hot", "/cold"];
    for (i, url) in urls.iter().enumerate() {
        let key = openmb_types::FlowKey::tcp(
            ip(10, 0, 0, i as u8 + 1),
            3000 + i as u16,
            ip(93, 184, 216, 34),
            80,
        );
        setup.sim.inject_frame(
            SimTime(i as u64 * 5_000_000),
            setup.src,
            setup.switch,
            openmb_simnet::Frame::Data(openmb_types::Packet::new(
                i as u64 + 1,
                key,
                format!("GET {url} HTTP/1.1\r\n").into_bytes(),
            )),
        );
    }
    setup.sim.run(100_000_000);
    assert!(setup.sim.is_idle());

    let a: &MbNode<Proxy> = setup.sim.node_as(setup.mb_a);
    let b: &MbNode<Proxy> = setup.sim.node_as(setup.mb_b);
    // The survivor inherited the cache with the hit counts...
    let cache = b.logic.cache_sorted();
    let hot = cache.iter().find(|o| o.url == "/hot").expect("hot object merged");
    assert_eq!(hot.hits, 3, "hit metadata survived the merge");
    assert!(cache.iter().any(|o| o.url == "/cold"));
    // ...and the merged counters cover the whole run exactly once.
    assert_eq!(b.logic.requests, 5);
    assert_eq!(b.logic.hits, 3);
    assert_eq!(b.logic.misses, 2);
    let _ = a;
}

/// The §2 load-rebalancing app: stats-driven choice of which subnet's
/// in-progress flows to move.
#[test]
fn rebalance_picks_half_the_load() {
    use openmb_apps::rebalance::RebalanceApp;
    use openmb_apps::scenarios::layout::*;
    let subnets = [
        IpPrefix::new(ip(10, 1, 0, 0), 16),
        IpPrefix::new(ip(10, 2, 0, 0), 16),
        IpPrefix::new(ip(10, 3, 0, 0), 16),
    ];
    let candidates: Vec<HeaderFieldList> =
        subnets.iter().map(|p| HeaderFieldList::from_src_subnet(*p)).collect();
    let app = RebalanceApp::new(
        MB_A_ID,
        MB_B_ID,
        candidates,
        SimDuration::from_millis(500),
        RouteSpec {
            pattern: HeaderFieldList::any(), // replaced by the chosen subset
            priority: 10,
            src: SRC,
            waypoints: vec![MB_B],
            dst: DST,
        },
    );
    let mut setup =
        two_mb_scenario(Monitor::new(), Monitor::new(), Box::new(app), ScenarioParams::default());
    // Load: subnet 1 → 10 flows, subnet 2 → 25 flows, subnet 3 → 15
    // flows (total 50; half = 25 → subnet 2 is the best pick).
    let mut id = 0u64;
    for (sn, count) in [(1u8, 10u16), (2, 25), (3, 15)] {
        for fidx in 0..count {
            id += 1;
            let key = openmb_types::FlowKey::tcp(
                ip(10, sn, (fidx >> 8) as u8, (fidx & 0xff) as u8),
                2000 + fidx,
                ip(192, 168, 1, 1),
                80,
            );
            setup.sim.inject_frame(
                SimTime(id * 2_000_000),
                setup.src,
                setup.switch,
                openmb_simnet::Frame::Data(openmb_types::Packet::new(id, key, vec![0u8; 64])),
            );
        }
    }
    setup.sim.run(100_000_000);
    assert!(setup.sim.is_idle());
    let b: &MbNode<Monitor> = setup.sim.node_as(setup.mb_b);
    assert_eq!(b.logic.perflow_entries(), 25, "the 25-flow subnet moved");
    assert!(b
        .logic
        .assets_sorted()
        .iter()
        .all(|r| r.key.src_ip.octets()[1] == 2 || r.key.dst_ip.octets()[1] == 2));
}

/// §2/R6 failure recovery: the introspection-driven snapshot restores
/// every NAT mapping — same external ports — onto the standby.
#[test]
fn nat_failover_preserves_mappings_and_ports() {
    use openmb_apps::failover::NatFailoverApp;
    use openmb_apps::scenarios::layout::*;
    use openmb_middleboxes::Nat;
    let external = ip(5, 5, 5, 5);
    let app = NatFailoverApp::new(
        MB_A_ID,
        MB_B_ID,
        SimDuration::from_millis(500),
        RouteSpec {
            pattern: HeaderFieldList::any(),
            priority: 10,
            src: SRC,
            waypoints: vec![MB_B],
            dst: DST,
        },
    );
    let mut setup = two_mb_scenario(
        Nat::new(external),
        Nat::new(external),
        Box::new(app),
        ScenarioParams::default(),
    );
    for i in 0..15u16 {
        let key = openmb_types::FlowKey::tcp(
            ip(10, 0, 0, (i % 200) as u8 + 1),
            1000 + i,
            ip(8, 8, 8, 8),
            80,
        );
        // Start after the EnableEvents subscription has reached the NAT
        // (the subscription itself takes a control-channel round trip).
        setup.sim.inject_frame(
            SimTime(5_000_000 + u64::from(i) * 10_000_000),
            setup.src,
            setup.switch,
            openmb_simnet::Frame::Data(openmb_types::Packet::new(
                u64::from(i) + 1,
                key,
                vec![0u8; 64],
            )),
        );
    }
    setup.sim.run(100_000_000);
    assert!(setup.sim.is_idle());
    let primary: &MbNode<Nat> = setup.sim.node_as(setup.mb_a);
    let standby: &MbNode<Nat> = setup.sim.node_as(setup.mb_b);
    assert_eq!(standby.logic.perflow_entries(), 15, "all mappings restored");
    let pre: Vec<u16> = primary.logic.mappings_sorted().iter().map(|m| m.external_port).collect();
    let post: Vec<u16> = standby.logic.mappings_sorted().iter().map(|m| m.external_port).collect();
    assert_eq!(pre, post, "external ports preserved across failover");
}

/// §4.2.2 event filters: a code-filtered subscription only forwards the
/// requested introspection events to the application.
#[test]
fn introspection_code_filter_limits_events() {
    use openmb_apps::scenarios::layout::*;
    use openmb_core::app::{Api, ControlApp};
    use openmb_core::{Completion, Request};
    use openmb_middleboxes::lb::EVENT_FLOW_ASSIGNED;
    use openmb_middleboxes::LoadBalancer;

    struct SubscribeApp;
    impl ControlApp for SubscribeApp {
        fn on_start(&mut self, api: &mut Api<'_>) {
            // Subscribe only to a code the LB never raises: nothing
            // should reach the app even though assignments happen.
            api.submit(Request::EnableEvents {
                mb: MB_A_ID,
                filter: openmb_types::wire::EventFilter { codes: Some(vec![9999]), key: None },
            });
        }
    }
    let backends = [ip(10, 0, 0, 1), ip(10, 0, 0, 2)];
    let mut setup = two_mb_scenario(
        LoadBalancer::new(ip(1, 2, 3, 4), &backends),
        LoadBalancer::new(ip(1, 2, 3, 4), &backends),
        Box::new(SubscribeApp),
        ScenarioParams::default(),
    );
    for i in 0..5u8 {
        let key = openmb_types::FlowKey::tcp(ip(99, 0, 0, i + 1), 1000, ip(1, 2, 3, 4), 80);
        setup.sim.inject_frame(
            SimTime(u64::from(i) * 1_000_000 + 10_000_000),
            setup.src,
            setup.switch,
            openmb_simnet::Frame::Data(openmb_types::Packet::new(
                u64::from(i) + 1,
                key,
                vec![0u8; 10],
            )),
        );
    }
    setup.sim.run(100_000_000);
    let ctrl: &openmb_core::nodes::ControllerNode = setup.sim.node_as(setup.controller);
    let delivered =
        ctrl.completions.iter().filter(|(_, c)| matches!(c, Completion::MbEvent { .. })).count();
    assert_eq!(delivered, 0, "code filter must suppress non-matching events");
    let _ = EVENT_FLOW_ASSIGNED;
}

/// §6.2 scale-up from an instance whose configuration tree is empty:
/// `readConfig(*)` returns no pairs, so there is nothing to write and
/// no `Ack` to wait for; the app must go straight on to `stats`, the
/// move and the reroute, and finish.
#[test]
fn scale_up_from_a_config_less_instance_reaches_done() {
    use std::sync::{Arc, Mutex};

    use openmb_apps::scenarios::layout::*;
    use openmb_core::app::{Api, ControlApp};
    use openmb_core::Completion;
    use openmb_middleboxes::DummyMb;

    /// Hosts the app while the test keeps a handle to read it back.
    struct Shared(Arc<Mutex<ScaleUpApp>>);
    impl ControlApp for Shared {
        fn on_start(&mut self, api: &mut Api<'_>) {
            self.0.lock().unwrap().on_start(api);
        }
        fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
            self.0.lock().unwrap().on_completion(api, c);
        }
        fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
            self.0.lock().unwrap().on_timer(api, token);
        }
    }

    let any = HeaderFieldList::any();
    let app = Arc::new(Mutex::new(ScaleUpApp::new(
        MB_A_ID,
        MB_B_ID,
        any,
        SimDuration::from_millis(100),
        RouteSpec { pattern: any, priority: 10, src: SRC, waypoints: vec![MB_B], dst: DST },
    )));
    let mut setup = two_mb_scenario(
        DummyMb::preloaded(8),
        DummyMb::new(),
        Box::new(Shared(Arc::clone(&app))),
        ScenarioParams::default(),
    );
    setup.sim.run(1_000_000_000);
    let app = app.lock().unwrap();
    assert!(app.is_done(), "a config-less source left scale-up stuck before stats");
    assert_eq!(app.chunks_moved, Some(8));
    let ctrl: &openmb_core::nodes::ControllerNode = setup.sim.node_as(setup.controller);
    let config = ctrl.completions.iter().find_map(|(_, c)| match c {
        Completion::Config { pairs, .. } => Some(pairs.len()),
        _ => None,
    });
    assert_eq!(config, Some(0), "the source's configuration tree is empty");
}
