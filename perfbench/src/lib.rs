//! Wall-clock benchmark for OpenMB, driven from outside through the
//! crates' public APIs. One [`Workload`] per invocation: set-up, then a
//! fixed number of timed ops in a closed loop, every op's output
//! checked outside the timers. See `README.md` for what each workload
//! stresses and how the metrics are defined.

pub mod gen;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::Path;
use std::time::Instant;

use trace::{ratio, SpanLog};

/// Untimed ops at the end of every set-up: caches fill, tables reach
/// their steady size, and `setup_s` is a second of work, not 20 ms.
pub const WARMUP_OPS: usize = 10;
/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// An end-to-end run starts no further op once it is this many times
/// `--seconds` old. Op counts are fixed, so a machine running at half
/// speed would otherwise double the run; the driver's budget for all
/// its runs cannot absorb that. Three set-ups and the timed ops take
/// about `1.3 × --seconds` when the machine is quiet.
pub const DEADLINE_PER_SECOND: f64 = 1.6;
/// What a failed op is charged: it misses every limit.
pub const OP_TIMEOUT_S: f64 = 10.0;

/// The end-to-end metrics, in the order they are printed.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "items/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p75", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics of the traced run. Every workload prints all
/// of them; a layer that does no work on a workload reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("simnet.engine.self_ns_per_pkt", "ns"),
    ("simnet.engine.events_per_pkt", "count"),
    ("openflow.switch.busy_ns_per_pkt", "ns"),
    ("openflow.switch.calls_per_pkt", "count"),
    ("openflow.flowtable.lookup_ns", "ns"),
    ("core.nodes.mbnode_self_ns_per_pkt", "ns"),
    ("core.nodes.batch_len_mean", "count"),
    ("middleboxes.firewall.ns_per_pkt", "ns"),
    ("middleboxes.nat.ns_per_pkt", "ns"),
    ("middleboxes.monitor.ns_per_pkt", "ns"),
    ("middleboxes.ips.ns_per_pkt", "ns"),
    ("middleboxes.ips.replay_ns_per_pkt", "ns"),
    ("move_live.pkt_share_frac", "frac"),
    ("mb.southbound.get_ns_per_chunk", "ns"),
    ("mb.southbound.put_ns_per_chunk", "ns"),
    ("mb.southbound.del_ns_per_flow", "ns"),
    ("types.crypto.seal_ns_per_chunk", "ns"),
    ("store.hash_ns_per_chunk", "ns"),
    ("store.hit_frac", "frac"),
    ("types.wire.encode_ns_per_msg", "ns"),
    ("types.wire.decode_ns_per_msg", "ns"),
    ("types.wire.bytes_per_flow", "B"),
    ("types.transport.send_busy_ns_per_msg", "ns"),
    ("types.transport.recv_wait_ns_per_msg", "ns"),
    ("types.transport.frames_per_flow", "count"),
    ("types.transport.bytes_per_flow", "B"),
    ("core.tcp.pump_residual_ms_per_op", "ms"),
    ("core.parallel.call_ns_per_msg", "ns"),
    ("core.shard.msgs_per_flow", "count"),
    ("core.shard.ledger_peak", "count"),
    ("core.shard.cache_hit_frac", "frac"),
    ("core.router.admit_ns", "ns"),
    ("core.parallel.scaling_eff", "frac"),
    ("core.nodes.controller_busy_ns_per_flow", "ns"),
    ("run.cpu_busy_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("model.coverage_frac", "frac"),
];

/// How much of a full run to do. Item counts per op never depend on
/// the seed; `div` shrinks them for the smoke tests.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub ops: usize,
    pub warmup: usize,
    pub setups: usize,
    /// Divide every workload's items per op by this.
    pub div: u32,
    /// Seconds after process start past which no further op begins.
    pub deadline_s: f64,
}

impl RunCfg {
    pub fn full<W: Workload>(seconds: usize) -> Self {
        RunCfg {
            ops: W::OPS_PER_SECOND * seconds,
            warmup: WARMUP_OPS,
            setups: SETUPS,
            div: 1,
            deadline_s: DEADLINE_PER_SECOND * seconds as f64,
        }
    }
    /// 1/50 size, three ops: what `cargo test` runs.
    pub fn smoke() -> Self {
        RunCfg { ops: 3, warmup: 1, setups: 1, div: 50, deadline_s: f64::INFINITY }
    }
}

/// One timed op: its wall time and whether every output check passed.
pub struct OpOutcome {
    pub secs: f64,
    pub ok: bool,
}

impl OpOutcome {
    /// A checked op; a failed one is charged the timeout.
    pub fn checked(secs: f64, ok: bool) -> Self {
        OpOutcome { secs: if ok { secs } else { OP_TIMEOUT_S }, ok }
    }
}

/// One benchmark workload. `op` prepares its inputs, times the work,
/// then verifies the outputs and resets state, the last two outside the
/// timers. In a traced build it also appends the op's spans to `log`.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// OS threads that carry an op's work, for `run.cpu_busy_frac`.
    const THREADS: u32;
    /// Timed ops per second of `--seconds`: the count at which this
    /// workload's timed ops take `--seconds` on a quiet 2-core runner.
    const OPS_PER_SECOND: usize;
    fn setup(seed: u64, div: u32) -> Self;
    fn items_per_op(&self) -> u64;
    fn op(&mut self, idx: u64, log: &mut SpanLog) -> OpOutcome;
    /// The per-layer metrics this workload can see, computed from the
    /// spans of its traced ops; may run its own direct-call timings.
    fn layer_metrics(&mut self, log: &SpanLog, ops: &[OpOutcome]) -> Vec<(&'static str, f64)>;
    /// Stop every thread and close every socket the workload opened.
    fn teardown(self) {}
}

/// A finished run: what the last output line is built from.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub items_per_op: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line of the driver contract.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit, then the op counts.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (n, v, u) in &self.metrics {
            out.push_str(&format!("{n:<42} {v:>16.4} {u}\n"));
        }
        out.push_str(&format!("{:<42} {:>16}\n", "items_per_op", self.items_per_op));
        out.push_str(&format!("{:<42} {:>16}\n", "ops_attempted", self.attempted));
        out.push_str(&format!("{:<42} {:>16}\n", "ops_failed", self.failed));
        out
    }
}

/// Build a workload and run its warm-up ops; returns it with the time
/// both took. `start` is process start for the first set-up of a run.
fn set_up<W: Workload>(seed: u64, cfg: RunCfg, start: Instant) -> (W, u64, f64) {
    let mut w = W::setup(seed, cfg.div);
    let mut scratch = SpanLog::default();
    let mut failed = 0;
    for i in 0..cfg.warmup {
        failed += u64::from(!w.op(i as u64, &mut scratch).ok);
    }
    (w, failed, start.elapsed().as_secs_f64())
}

fn op_secs(ops: &[OpOutcome]) -> Vec<f64> {
    ops.iter().map(|o| o.secs).collect()
}

/// The end-to-end run: `cfg.setups` set-ups (the last one is kept),
/// then `cfg.ops` timed ops with no wrapper installed. Past
/// `cfg.deadline_s` from `start` no further op begins.
pub fn run_end_to_end<W: Workload>(seed: u64, cfg: RunCfg, start: Instant) -> Report {
    let mut setup_secs = Vec::new();
    let mut warm_failed = 0;
    let mut kept = None;
    for k in 0..cfg.setups {
        if let Some(prev) = kept.take() {
            W::teardown(prev);
        }
        let t0 = if k == 0 { start } else { Instant::now() };
        let (w, failed, secs) = set_up::<W>(seed, cfg, t0);
        setup_secs.push(secs);
        warm_failed += failed;
        kept = Some(w);
    }
    let mut w = kept.expect("at least one set-up");
    let mut ops = Vec::with_capacity(cfg.ops);
    while ops.len() < cfg.ops && (ops.is_empty() || start.elapsed().as_secs_f64() < cfg.deadline_s)
    {
        ops.push(w.op((cfg.warmup + ops.len()) as u64, &mut SpanLog::default()));
    }
    let items_per_op = w.items_per_op();
    w.teardown();

    // The three timing metrics are taken over the quiet quarter of the ops.
    let quiet = stats::quiet_quarter(&op_secs(&ops));
    let ms: Vec<f64> = quiet.iter().map(|s| s * 1e3).collect();
    let values = [
        stats::rate(&quiet, items_per_op),
        stats::percentile(&ms, 0.5),
        stats::percentile(&ms, 0.75),
        stats::peak_rss_mb(),
        stats::median(&setup_secs),
    ];
    Report {
        attempted: ops.len() as u64,
        failed: warm_failed + ops.iter().filter(|o| !o.ok).count() as u64,
        items_per_op,
        metrics: END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect(),
    }
}

/// The traced run: half the ops on the plain build `P`, half on the
/// wrapped build `T` of the same workload and seed, alternating op by
/// op so that a slow phase of the machine hits both alike and the
/// difference between them is the tracing overhead. Spans go to
/// `<out_dir>/<workload>.spans.json`.
pub fn run_traced<P: Workload, T: Workload>(
    seed: u64,
    cfg: RunCfg,
    out_dir: &Path,
) -> std::io::Result<Report> {
    let half = RunCfg { ops: (cfg.ops / 2).max(1), setups: 1, ..cfg };
    let (mut plain, plain_warm_failed, _) = set_up::<P>(seed, half, Instant::now());
    let (mut traced, warm_failed, _) = set_up::<T>(seed, half, Instant::now());
    let items_per_op = plain.items_per_op();
    let mut log = SpanLog::default();
    let (mut plain_ops, mut ops) = (Vec::new(), Vec::new());
    let (mut cpu, mut wall) = (0.0, 0.0);
    for i in 0..half.ops {
        let idx = (half.warmup + i) as u64;
        plain_ops.push(plain.op(idx, &mut SpanLog::default()));
        // Busy share of the threads that carry the work, over the traced
        // ops and the checks that follow each.
        let (cpu0, t0) = (stats::cpu_seconds(), Instant::now());
        ops.push(traced.op(idx, &mut log));
        cpu += stats::cpu_seconds() - cpu0;
        wall += t0.elapsed().as_secs_f64();
    }
    plain.teardown();
    let mut seen = traced.layer_metrics(&log, &ops);
    traced.teardown();

    let rate = |o: &[OpOutcome]| stats::rate(&stats::quiet_quarter(&op_secs(o)), items_per_op);
    seen.push(("trace.overhead_frac", 1.0 - ratio(rate(&ops), rate(&plain_ops))));
    seen.push(("run.cpu_busy_frac", ratio(cpu, wall * f64::from(T::THREADS))));

    std::fs::create_dir_all(out_dir)?;
    std::fs::write(out_dir.join(format!("{}.spans.json", T::NAME)), log.to_json())?;
    let metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| {
            let v = seen.iter().find(|(name, _)| *name == n).map_or(0.0, |(_, v)| *v);
            (n, v, u)
        })
        .collect();
    let failed = |o: &[OpOutcome]| o.iter().filter(|o| !o.ok).count() as u64;
    Ok(Report {
        attempted: (plain_ops.len() + ops.len()) as u64,
        failed: plain_warm_failed + warm_failed + failed(&plain_ops) + failed(&ops),
        items_per_op,
        metrics,
    })
}
