//! Table 3: performance of RE in live migration — OpenMB (cache clone +
//! coordinated switchover) vs controlling configuration and routing only
//! (empty caches, racing updates).
//!
//! Paper's numbers (500 MB caches, routing takes effect after the
//! encoder sent 10 packets): SDMBN encoded 148.42 MB with 0 MB
//! undecodable; config+routing encoded 97.33 MB, **all** of it
//! undecodable ("the encoded traffic reaches the old decoder where it
//! cannot be recovered ... the two caches get out of sync and stay that
//! way even after routing has been updated").

use std::net::Ipv4Addr;

use openmb_apps::migration::{ReMigrationApp, RouteSpec};
use openmb_apps::scenarios::{re_layout, re_scenario, ScenarioParams};
use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{Completion, Request};
use openmb_core::nodes::MbNode;
use openmb_middleboxes::{ReDecoder, ReEncoder};
use openmb_simnet::{SimDuration, SimTime};
use openmb_traffic::{RedundantPayloads, Trace};
use openmb_types::{ConfigValue, HeaderFieldList, HierarchicalKey, IpPrefix, MbId, OpId};

use crate::report::{f, Table};

fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
    Ipv4Addr::new(a, b, c, d)
}

/// Outcome of one migration run.
#[derive(Debug, Clone, Copy)]
pub struct ReOutcome {
    /// Payload bytes eliminated by encoding (the paper's "Encoded Bytes").
    pub encoded_bytes: u64,
    /// Bytes eliminated during the post-migration (cache-warmup) window —
    /// where the paper's 34% gap between approaches lives.
    pub encoded_bytes_post: u64,
    /// Encoded bytes that could not be reconstructed at any decoder.
    pub undecodable_bytes: u64,
    pub undecodable_packets: u64,
}

/// The config+routing baseline application: duplicate configuration,
/// give the encoder an *empty* second cache (it cannot clone state),
/// switch `CacheFlows` immediately, and update routing only after a
/// delay (the paper: "the routing change takes effect after the encoder
/// has sent 10 packets").
struct ConfigRoutingReApp {
    encoder: MbId,
    trigger: SimDuration,
    routing_delay: SimDuration,
    route: RouteSpec,
    dc_a_prefix: String,
    dc_b_prefix: String,
    state: u8,
    pending: Option<OpId>,
}

impl ControlApp for ConfigRoutingReApp {
    fn on_start(&mut self, api: &mut Api<'_>) {
        api.set_timer(self.trigger, 1);
    }

    fn on_timer(&mut self, api: &mut Api<'_>, token: u64) {
        match token {
            1 => {
                // Empty second cache + immediate CacheFlows switch: the
                // best this baseline can do without state control.
                api.submit(Request::WriteConfig {
                    mb: self.encoder,
                    key: HierarchicalKey::parse("NumCachesEmpty"),
                    values: vec![ConfigValue::Int(2)],
                });
                self.pending = Some(api.submit(Request::WriteConfig {
                    mb: self.encoder,
                    key: HierarchicalKey::parse("CacheFlows"),
                    values: vec![
                        ConfigValue::Str(self.dc_a_prefix.clone()),
                        ConfigValue::Str(self.dc_b_prefix.clone()),
                    ],
                }));
                self.state = 1;
            }
            2 => {
                // Routing catches up late.
                let r = self.route.clone();
                api.route(r.pattern, r.priority, r.src, &r.waypoints, r.dst);
                self.state = 3;
            }
            _ => {}
        }
    }

    fn on_completion(&mut self, api: &mut Api<'_>, c: &Completion) {
        if self.state == 1 && c.op() == self.pending {
            if let Completion::Ack { .. } = c {
                self.state = 2;
                let d = self.routing_delay;
                api.set_timer(d, 2);
            }
        }
    }
}

fn traffic(total_phase: usize, post_start_ns: u64) -> Trace {
    // Interleaved high-redundancy streams to DC A and DC B hosts with a
    // quiet gap around the migration window.
    let mk = |seed: u64, start: u64, n: usize, dst: Ipv4Addr, src_last: u8| {
        RedundantPayloads { seed, redundancy: 0.7, ..Default::default() }.generate(
            n,
            SimTime(start),
            SimDuration::from_micros(1500),
            ip(10, 9, 9, src_last),
            dst,
            1,
        )
    };
    // Post-migration streams reuse the pre-migration seeds: real traffic
    // keeps referencing content seen before the migration, which is
    // exactly what makes the cloned cache valuable (and the baseline's
    // empty cache costly — it must re-learn the whole working set).
    let t = mk(11, 0, total_phase, ip(20, 0, 0, 10), 9)
        .merge(&mk(12, 750_000, total_phase, ip(20, 0, 1, 10), 8))
        .merge(&mk(11, post_start_ns, total_phase, ip(20, 0, 0, 10), 9))
        .merge(&mk(12, post_start_ns + 750_000, total_phase, ip(20, 0, 1, 10), 8));
    // Re-id packets uniquely.
    Trace::new(
        t.events()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let mut p = e.packet.clone();
                p.id = i as u64 + 1;
                openmb_traffic::TimedPacket { time: e.time, packet: p }
            })
            .collect(),
    )
}

fn collect(setup: &openmb_apps::scenarios::ReSetup, saved_pre: u64) -> ReOutcome {
    let enc: &MbNode<ReEncoder> = setup.sim.node_as(setup.encoder);
    let da: &MbNode<ReDecoder> = setup.sim.node_as(setup.dec_a);
    let db: &MbNode<ReDecoder> = setup.sim.node_as(setup.dec_b);
    ReOutcome {
        encoded_bytes: enc.logic.bytes_saved,
        encoded_bytes_post: enc.logic.bytes_saved - saved_pre,
        undecodable_bytes: da.logic.bytes_undecodable + db.logic.bytes_undecodable,
        undecodable_packets: da.logic.packets_undecodable + db.logic.packets_undecodable,
    }
}

/// Run until the post-migration phase begins and snapshot the encoder's
/// savings, then run to completion.
fn run_phases(setup: &mut openmb_apps::scenarios::ReSetup) -> u64 {
    setup.sim.run_until(SimTime(899_000_000), 500_000_000);
    let enc: &MbNode<ReEncoder> = setup.sim.node_as(setup.encoder);
    let saved_pre = enc.logic.bytes_saved;
    setup.sim.run(500_000_000);
    assert!(setup.sim.is_idle());
    saved_pre
}

/// Run the OpenMB (SDMBN) migration.
pub fn run_sdmbn(cache_size: usize) -> ReOutcome {
    use re_layout::*;
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
        re_scenario(cache_size, prefix_a, prefix_b, Box::new(app), ScenarioParams::default());
    traffic(300, 900_000_000).inject(&mut setup.sim, setup.src, setup.switch);
    let saved_pre = run_phases(&mut setup);
    collect(&setup, saved_pre)
}

/// Run the config+routing baseline.
pub fn run_config_routing(cache_size: usize) -> ReOutcome {
    use re_layout::*;
    let prefix_a = IpPrefix::new(ip(20, 0, 0, 0), 24);
    let prefix_b = IpPrefix::new(ip(20, 0, 1, 0), 24);
    let app = ConfigRoutingReApp {
        encoder: ENCODER_ID,
        trigger: SimDuration::from_millis(500),
        // "routing change takes effect after the encoder has sent 10
        // packets": 10 packets at 1.5 ms spacing, measured from the
        // switchover — the post-migration stream delivers them.
        routing_delay: SimDuration::from_millis(415),
        route: RouteSpec {
            pattern: HeaderFieldList::from_dst_subnet(prefix_b),
            priority: 10,
            src: SRC,
            waypoints: vec![ENCODER, DEC_B],
            dst: HOST_B,
        },
        dc_a_prefix: "20.0.0.0/24".into(),
        dc_b_prefix: "20.0.1.0/24".into(),
        state: 0,
        pending: None,
    };
    let mut setup =
        re_scenario(cache_size, prefix_a, prefix_b, Box::new(app), ScenarioParams::default());
    // Same traffic; the post phase starts at 900 ms while routing only
    // catches up at ~915 ms (≈10 B-packets into the post phase).
    traffic(300, 900_000_000).inject(&mut setup.sim, setup.src, setup.switch);
    let saved_pre = run_phases(&mut setup);
    collect(&setup, saved_pre)
}

/// Regenerate Table 3.
pub fn table3() -> Table {
    let cache = 1 << 20;
    let sdmbn = run_sdmbn(cache);
    let baseline = run_config_routing(cache);
    let mut t = Table::new(
        "Table 3: Performance of RE in live migration (1 MiB caches)",
        &[
            "approach",
            "Encoded bytes (KB)",
            "post-migration (KB)",
            "Undecodable bytes (KB)",
            "Undecodable pkts",
        ],
    );
    t.row(vec![
        "SDMBN".into(),
        f(sdmbn.encoded_bytes as f64 / 1e3),
        f(sdmbn.encoded_bytes_post as f64 / 1e3),
        f(sdmbn.undecodable_bytes as f64 / 1e3),
        sdmbn.undecodable_packets.to_string(),
    ]);
    t.row(vec![
        "Config + routing".into(),
        f(baseline.encoded_bytes as f64 / 1e3),
        f(baseline.encoded_bytes_post as f64 / 1e3),
        f(baseline.undecodable_bytes as f64 / 1e3),
        baseline.undecodable_packets.to_string(),
    ]);
    t.note("paper (500 MB caches): SDMBN 148.42 MB encoded / 0 undecodable; config+routing 97.33 MB encoded (34% less, cache warmup) / ALL of it undecodable");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdmbn_beats_config_routing() {
        let cache = 1 << 20;
        let sdmbn = run_sdmbn(cache);
        let baseline = run_config_routing(cache);
        assert_eq!(sdmbn.undecodable_packets, 0, "SDMBN: everything decodable");
        assert!(baseline.undecodable_bytes > 0, "config+routing loses encoded traffic");
        assert!(
            sdmbn.encoded_bytes > baseline.encoded_bytes,
            "cache warmup costs the baseline encoded bytes: {} vs {}",
            sdmbn.encoded_bytes,
            baseline.encoded_bytes
        );
        // The paper's 34% gap is specific to the cache-warmup window.
        assert!(
            (sdmbn.encoded_bytes_post as f64) > 1.2 * baseline.encoded_bytes_post as f64,
            "post-migration savings gap missing: {} vs {}",
            sdmbn.encoded_bytes_post,
            baseline.encoded_bytes_post
        );
    }
}
