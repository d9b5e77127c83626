//! Concurrent-operation conformance over the sharded controller
//! (DESIGN.md §14): K ≥ 3 disjoint transfers launched in the same
//! instant against one controller running 4 shards, under randomized
//! fault schedules, with three invariant families:
//!
//! * **per-op isolation** — a completed op leaves its pair's endpoints
//!   byte-identical to a *solo* run of the same op (alone on the
//!   controller, unfaulted); a failed op's rollback leaves its pair at
//!   the pristine pre-op images. Concurrency must be unobservable in
//!   the per-op result.
//! * **bookkeeping** — the controller drains (`open_ops == 0`) and no
//!   op's transfer ledger ever exceeded its window, shard concurrency
//!   notwithstanding.
//! * **replay** — the same seed re-runs to a byte-identical fault log,
//!   timeline, and outcome: the multi-stream shard scheduling stays
//!   deterministic.
//!
//! The suite also asserts the runs genuinely exercise cross-shard
//! concurrency: disjoint pairs must place on ≥ 2 distinct shards
//! (with the layout's MB pairs and a wildcard flowspace the hash in
//! fact spreads K = 4 pairs over all 4 shards), so a routing
//! regression that serializes everything onto one shard fails loudly
//! here rather than only in the bench gate.

use std::collections::BTreeSet;

use openmb_apps::scenarios::multi_layout::{dst_mb, dst_node, src_mb, src_node};
use openmb_apps::scenarios::{multi_pair_scenario, ScenarioParams};
use openmb_core::controller::{ControllerConfig, Request};
use openmb_mb::Middlebox;

use crate::conformance::{
    assert_matches_reference, assert_pristine, ctl_links, drive, fresh_pair, initial_images,
    replay_command, tune, with_mb, ConfMb, ConfOp, Endpoints, Faults, PairMix, Run, Scenario,
    Schedule, ScheduleGen, ALL_OPS, CONC_MBS,
};

/// Shard count every multi-pair run uses.
const SHARDS: u32 = 4;

/// Expand `seed` into a concurrent schedule: 3 or 4 disjoint MB pairs
/// (`shape` holds each pair's op, all issued at the same instant). Same
/// seed, same schedule; a distinct stream from the single-op generator
/// so the suites explore different schedules at the same seed.
pub fn generate_concurrent(seed: u64) -> Schedule<Vec<ConfOp>> {
    let mut g = ScheduleGen::new(seed ^ 0xC0C0_2C0C, seed ^ 0x00DD_BA11);
    let pairs = 3 + g.rng.below(2) as u32;
    let mb = CONC_MBS[g.rng.below(CONC_MBS.len() as u64) as usize];
    let ops: Vec<ConfOp> = (0..pairs).map(|_| ALL_OPS[g.rng.below(3) as usize]).collect();
    let harsh = g.rng.chance(10);
    if harsh {
        // Storm every link at once: several ops exhaust their resumes
        // together and their rollbacks must not cross shards.
        for i in 0..pairs {
            g.storm(&ctl_links(src_node(i), dst_node(i)));
        }
    } else {
        let mix = PairMix {
            drop_from: 500,
            drop_len: |from| 600 - from.min(599),
            window_end: 700,
            partition_from: 400,
            crash_from: 500,
        };
        for i in 0..pairs {
            g.pair_mix(i, &mix, true);
        }
        if g.rng.chance(15) {
            // Controller crash with several ops in flight: the journal
            // must restore every shard's ledgers, not just one op's.
            g.controller_crash(500);
        }
    }
    g.finish(seed, mb, harsh, ops)
}

/// The control-plane-only K-pair scenario on a 4-shard controller with
/// `requests` scheduled, ready for [`drive`] — shared with the chain
/// suite, whose hops are the same disjoint pairs.
pub(crate) fn build_pairs<M: Middlebox + 'static>(
    mk: &mut impl FnMut() -> M,
    pairs: usize,
    requests: Vec<Request>,
) -> Scenario {
    let mut config = ControllerConfig { shards: SHARDS, ..Default::default() };
    tune(&mut config, true);
    Scenario::new(requests, 4096, |app| {
        let params = ScenarioParams::default();
        let setup = multi_pair_scenario(|_| fresh_pair(mk), pairs, config, app, params);
        (setup.sim, setup.pairs.iter().map(|p| (p.0, p.1)).collect())
    })
}

/// Build and drive one multi-pair run.
pub(crate) fn run_pairs<M: Middlebox + 'static>(
    mut mk: impl FnMut() -> M,
    pairs: usize,
    requests: Vec<Request>,
    faults: Faults<'_>,
) -> Run {
    let mut sc = build_pairs(&mut mk, pairs, requests);
    drive::<M>(&mut sc, faults)
}

fn run_ops(mb: ConfMb, ops: &[ConfOp], faults: Faults<'_>) -> Run {
    let requests = (0u32..).zip(ops).map(|(i, &op)| op.request(src_mb(i), dst_mb(i))).collect();
    with_mb!(mb, run_pairs, ops.len(), requests, faults)
}

/// Run the concurrent schedule (faulted or not).
pub fn run_concurrent(s: &Schedule<Vec<ConfOp>>, faulted: bool) -> Run {
    run_ops(s.mb, &s.shape, s.faults(faulted))
}

/// The solo reference for one op kind: the same op, same MB type, same
/// preload, alone on an otherwise idle (still sharded) controller,
/// unfaulted.
fn solo_reference(mb: ConfMb, op: ConfOp) -> Endpoints {
    let mut o = run_ops(mb, &[op], None);
    assert!(
        o.outcome(0) == (true, false) && o.open_ops == 0,
        "solo reference must complete cleanly: {:?}",
        o.pairs[0]
    );
    o.pairs.remove(0)
}

/// Outcome summary of one concurrent seed.
pub struct ConcOutcome {
    pub completed: usize,
    pub failed: usize,
    pub shards_used: usize,
}

/// Run one concurrent seed end-to-end and assert every invariant,
/// panicking with the replay command on violation.
pub fn check_concurrent_seed(seed: u64) -> ConcOutcome {
    let s = generate_concurrent(seed);
    let o = run_concurrent(&s, true);
    let replay = replay_command("concurrent", seed);

    assert!(
        o.violations.is_empty(),
        "seed {seed}: protocol invariants violated {:?} — {replay}",
        o.violations,
    );
    assert_eq!(o.open_ops, 0, "seed {seed}: concurrent bookkeeping leaked — {replay}");
    let distinct: BTreeSet<usize> = o.shards.iter().copied().collect();
    assert!(
        distinct.len() >= 2,
        "seed {seed}: {} disjoint ops all routed to one shard ({:?}) — {replay}",
        s.shape.len(),
        o.shards,
    );

    let initial = initial_images(s.mb);
    // One solo run per distinct op kind, however many pairs share it.
    let mut solo: [Option<Endpoints>; ALL_OPS.len()] = [None, None, None];
    let mut completed = 0;
    for (i, (p, &op)) in o.pairs.iter().zip(&s.shape).enumerate() {
        let ctx = || {
            format!(
                "seed {seed} pair {i} ({op:?} over {:?}{}, {} pairs) violated an invariant — \
                 replay:\n  {replay}",
                s.mb,
                if s.harsh { ", harsh" } else { "" },
                s.shape.len(),
            )
        };
        let (done, failed) = o.outcome(i);
        assert!(
            done != failed,
            "{}\nexactly one terminal outcome expected (completed={done}, failed={failed})",
            ctx(),
        );
        if done {
            completed += 1;
            // Per-op isolation: byte-identical to the op run solo.
            let r = solo[op as usize].get_or_insert_with(|| solo_reference(s.mb, op));
            assert_matches_reference(p, r, ctx);
        } else {
            // Abort: this pair rolls back clean, neighbors unaffected.
            assert_pristine(p, &initial, ctx);
        }
    }
    ConcOutcome { completed, failed: o.pairs.len() - completed, shards_used: distinct.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fast tier-1 sweep: every seed runs K faulted ops plus up to
    /// three solo references.
    #[test]
    fn concurrent_schedules_fast_range() {
        for seed in 0..16 {
            check_concurrent_seed(seed);
        }
    }

    /// Deterministic spread: 4 unfaulted moves over disjoint pairs land
    /// on 4 distinct shards and all complete. A hash or router
    /// regression that serializes them fails here, not just in the
    /// bench gate.
    #[test]
    fn four_disjoint_moves_span_four_shards() {
        let o = run_ops(ConfMb::Monitor, &[ConfOp::Move; 4], None);
        assert_eq!(o.open_ops, 0);
        let distinct: BTreeSet<usize> = o.shards.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "placements: {:?}", o.shards);
        for (i, p) in o.pairs.iter().enumerate() {
            assert_eq!(o.outcome(i), (true, false), "pair {i} must complete: {p:?}");
            assert!(p.dst_entries > 0, "pair {i} moved nothing");
        }
    }

    /// Bridging op (DESIGN.md §14): a wildcard clone whose endpoints
    /// touch two disjoint live moves placed on *different* shards must
    /// defer — no southbound traffic until both moves close — then run
    /// pinned to the earliest conflicting shard. All three ops
    /// complete, and the whole schedule replays byte-identically.
    #[test]
    fn bridging_clone_between_two_disjoint_moves() {
        // This schedule is I4's canonical case: the bridging clone
        // parks on a cross-shard conflict and must stay silent until
        // released — the online monitor proves it from the span stream
        // alone.
        let run = || {
            let requests = vec![
                ConfOp::Move.request(src_mb(0), dst_mb(0)),
                ConfOp::Move.request(src_mb(1), dst_mb(1)),
                // The bridge: one endpoint inside each live move's pair,
                // wildcard flowspace — conflicts with both.
                ConfOp::Clone.request(dst_mb(0), src_mb(1)),
            ];
            run_pairs(openmb_middleboxes::Monitor::new, 2, requests, None)
        };

        let a = run();
        assert_eq!(a.violations, Vec::<String>::new(), "bridging schedule violated an invariant");
        assert_eq!(a.ops.len(), 3, "two moves plus the bridging clone");
        assert_eq!(a.open_ops, 0, "bookkeeping leaked");
        let completed: Vec<bool> = (0..3).map(|i| a.outcome(i).0).collect();
        assert!(completed.iter().all(|&c| c), "all three ops must complete: {completed:?}");
        let shards = &a.shards;
        assert_ne!(
            shards[0], shards[1],
            "the moves must place on distinct shards for the clone to bridge: {shards:?}"
        );
        assert_eq!(
            shards[2], shards[0],
            "bridging clone must pin to the earliest conflicting shard: {shards:?}"
        );

        let b = run();
        assert_eq!(a, b, "bridging schedule replay diverged");
    }

    /// Same seed, byte-identical fault log, timeline, and outcome — the
    /// replay contract holds under multi-stream shard scheduling.
    #[test]
    fn concurrent_replay_is_byte_identical() {
        for seed in [2, 11] {
            let s = generate_concurrent(seed);
            let a = run_concurrent(&s, true);
            let b = run_concurrent(&s, true);
            assert_eq!(a.fault_log, b.fault_log, "seed {seed} fault log diverged");
            assert_eq!(a, b, "seed {seed} full outcome diverged");
        }
    }

    /// The long randomized sweep (CI nightly / `--include-ignored`).
    #[test]
    #[ignore = "long randomized sweep; run with --include-ignored"]
    fn concurrent_schedules_long_range() {
        for seed in 16..96 {
            check_concurrent_seed(seed);
        }
    }
}
