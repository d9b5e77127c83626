//! Chain-move conformance (DESIGN.md §15): one chain of 2–4 hops over
//! disjoint MB pairs, driven as a single atomic transaction
//! ([`openmb_core::Request::ChainMove`]) under
//! randomized per-hop fault schedules, with three invariant families:
//!
//! * **all-or-nothing** — a committed chain leaves every hop's
//!   endpoints byte-identical to a fault-free run of the same chain
//!   (faults are unobservable in the committed result); an aborted
//!   chain rolls *every* hop — including hops that had already
//!   completed their forward move — back to the pristine pre-move
//!   images. There is no third state: exactly one terminal completion
//!   (`ChainComplete` xor `Failed`) per chain.
//! * **bookkeeping** — the controller drains (`open_ops == 0`,
//!   `open_chains == 0`) and no transfer ledger — forward hop or
//!   reverse compensation — ever exceeds the configured window.
//! * **replay** — the same seed re-runs to a byte-identical fault log,
//!   timeline, and outcome, so any violation here is reproducible with
//!   `CONFORMANCE_SEED=chain:<n>`.
//!
//! The per-hop fault mixes (drops, delays, duplicates, partitions, MB
//! crash/restart, controller crash/restore) reuse the single-op
//! suite's vocabulary but draw from a distinct RNG stream, and the
//! windows stretch past the concurrent suite's because hops run
//! *serially*: a late hop's faults only bite if they are still live
//! when the chain reaches that hop.

use std::borrow::Borrow;

use openmb_apps::scenarios::multi_layout::{dst_mb, dst_node, src_mb, src_node};
use openmb_core::chain::ChainHop;
use openmb_core::controller::Completion;

use crate::conformance::{
    assert_matches_reference, assert_pristine, ctl_links, initial_images, replay_command, with_mb,
    ConfMb, Faults, PairMix, Request, Run, Schedule, ScheduleGen, CONC_MBS, OP_AT_MS,
};
use crate::conformance_concurrent::run_pairs;

/// Last instant a non-harsh fault window may extend to. Hops run in
/// series, so this reaches past the concurrent suite's horizon to give
/// later hops a chance of running inside a fault window.
const CHAIN_WINDOW_END_MS: u64 = 1900;

/// Expand `seed` into a chain schedule: `shape` is the chain length
/// (2–4 hops), hop `i` moving `src_mb(i) → dst_mb(i)`. Same seed, same
/// schedule. The XOR constants differ from both other suites' so the
/// three explore different fault mixes at the same seed.
pub fn generate_chain(seed: u64) -> Schedule<usize> {
    let mut g = ScheduleGen::new(seed ^ 0x0C4A_11E5, seed ^ 0x00C4_A11B);
    let hops = 2 + g.rng.below(3) as u32;
    let mb = CONC_MBS[g.rng.below(CONC_MBS.len() as u64) as usize];
    let harsh = g.rng.chance(10);
    if harsh {
        // Storm every link at once: the live hop exhausts its resumes
        // and the rollback has to fight the same storm in reverse.
        for i in 0..hops {
            g.storm(&ctl_links(src_node(i), dst_node(i)));
        }
    } else {
        // Hard outage: one hop's endpoint stays down past the hop's op
        // deadline, so if the outage catches the hop in flight (or
        // pending) the hop aborts and the chain must compensate every
        // hop that already committed. The restart still arrives before
        // the run ends, letting the abort's delete drain and the
        // rollback finish — the seed must end pristine, not merely
        // failed. (An outage that lands after its hop completed leaves
        // the chain to commit with deletes pending until restart —
        // also worth sweeping.)
        let outage_hop = g.rng.chance(30).then(|| g.rng.below(hops as u64) as u32);
        if let Some(i) = outage_hop {
            g.mb_crash((src_node(i), src_mb(i)), (dst_node(i), dst_mb(i)), 600, (4500, 800));
        }
        // Each hop's own small mix is the mid-chain-failure shape that
        // forces compensation of the hops already committed.
        let mix = PairMix {
            drop_from: CHAIN_WINDOW_END_MS - OP_AT_MS - 50,
            drop_len: |_| 600,
            window_end: CHAIN_WINDOW_END_MS,
            partition_from: 800,
            crash_from: 900,
        };
        for i in 0..hops {
            // Short crash/restart cycles keep off the outage hop: two
            // overlapping crash schedules on one node would race.
            g.pair_mix(i, &mix, outage_hop != Some(i));
        }
        if g.rng.chance(15) {
            // Controller crash mid-chain: the journal must restore the
            // chain's phase machine (which hop is live, which hops owe
            // compensation), not just the shard ledgers.
            g.controller_crash(900);
        }
    }
    g.finish(seed, mb, harsh, hops as usize)
}

/// The one request of a run: a `hops`-hop chain, hop `i` moving pair `i`.
pub(crate) fn chain_request(hops: usize) -> Vec<Request> {
    let chain = (0..hops as u32).map(|i| ChainHop { src: src_mb(i), dst: dst_mb(i) }).collect();
    vec![Request::Chain(chain)]
}

fn run_hops(mb: ConfMb, hops: usize, faults: Faults<'_>) -> Run {
    with_mb!(mb, run_pairs, hops, chain_request(hops), faults)
}

/// Run the chain schedule (faulted or not).
pub fn run_chain(s: &Schedule<usize>, faulted: bool) -> Run {
    run_hops(s.mb, s.shape, s.faults(faulted))
}

/// The chain's terminal outcome as read from its completions: there is
/// exactly one chain per run, and at most one of each terminal.
#[derive(Default)]
pub struct Terminal {
    pub committed: bool,
    pub failed: bool,
    /// Debug rendering of the failure error (empty when committed).
    pub error: String,
    /// Total chunks the committed chain reported moving.
    pub chunks_moved: usize,
}

/// Read the run's one chain's [`Terminal`] (panics on a repeated
/// terminal or a hop count that is not the run's).
pub fn terminal(run: &Run) -> Terminal {
    let mut t = Terminal::default();
    for (_, c) in run.completions.iter().filter(|(_, c)| c.op() == Some(run.ops[0])) {
        match c {
            Completion::ChainComplete { hops, chunks_moved, .. } => {
                assert!(!t.committed, "chain emitted ChainComplete twice");
                assert_eq!(*hops, run.pairs.len(), "committed chain must report every hop");
                t.committed = true;
                t.chunks_moved = *chunks_moved;
            }
            Completion::Failed { error, .. } => {
                assert!(!t.failed, "chain emitted Failed twice");
                t.failed = true;
                t.error = format!("{error:?}");
            }
            _ => {}
        }
    }
    t
}

/// Outcome summary of one chain seed.
pub struct ChainOutcome {
    pub hops: usize,
    pub committed: bool,
}

/// Run one chain seed end-to-end and assert every invariant, panicking
/// with the replay command on violation.
pub fn check_chain_seed(seed: u64) -> ChainOutcome {
    let s = generate_chain(seed);
    let o = run_chain(&s, true);
    let how = format!("replay:\n  {}", replay_command("chain", seed));
    let committed = check_chain_run(&s, &o, || run_chain(&s, false), &how);
    ChainOutcome { hops: s.shape, committed }
}

/// Every chain invariant of one faulted run; `reference` yields the
/// same chain run fault-free (only asked for when the chain
/// committed). Returns whether the chain committed.
pub(crate) fn check_chain_run<R: Borrow<Run>>(
    s: &Schedule<usize>,
    o: &Run,
    reference: impl FnOnce() -> R,
    how: &str,
) -> bool {
    let seed = s.seed;
    let ctx = |i: usize| {
        format!(
            "seed {seed} hop {i} (chain of {} over {:?}{}) violated an invariant — {how}",
            s.shape,
            s.mb,
            if s.harsh { ", harsh" } else { "" },
        )
    };
    assert!(
        o.violations.is_empty(),
        "seed {seed}: protocol invariants violated {:?} — {how}",
        o.violations,
    );
    assert_eq!(o.open_chains, 0, "seed {seed}: chain never settled — {how}");
    assert_eq!(o.open_ops, 0, "seed {seed}: chain bookkeeping leaked — {how}");
    assert_eq!(o.ops.len(), 1, "seed {seed}: the chain must be issued exactly once — {how}");
    let t = terminal(o);
    assert!(
        t.committed != t.failed,
        "seed {seed}: exactly one terminal chain outcome expected \
         (committed={}, failed={}, error={:?}) — {how}",
        t.committed,
        t.failed,
        t.error,
    );

    if t.committed {
        assert!(t.chunks_moved > 0, "seed {seed}: committed chain moved no chunks — {how}");
        // All-or-nothing, committed side: byte-identical to the same
        // chain run fault-free.
        let r = reference();
        let (r, rt) = (r.borrow(), terminal(r.borrow()));
        assert!(
            rt.committed && !rt.failed && r.open_ops == 0,
            "fault-free reference chain must commit (seed {seed}): error={:?}",
            rt.error
        );
        for (i, (h, hr)) in o.pairs.iter().zip(&r.pairs).enumerate() {
            assert_matches_reference(h, hr, || ctx(i));
        }
    } else {
        // All-or-nothing, aborted side: every hop pristine — including
        // hops whose forward move had completed before the failure and
        // were compensated in reverse order.
        let initial = initial_images(s.mb);
        for (i, h) in o.pairs.iter().enumerate() {
            assert_pristine(h, &initial, || ctx(i));
        }
    }
    t.committed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fast tier-1 sweep: every seed runs one faulted chain plus, for
    /// committed outcomes, its fault-free reference.
    #[test]
    fn chain_schedules_fast_range() {
        for seed in 0..16 {
            check_chain_seed(seed);
        }
    }

    /// Deterministic commit: an unfaulted 4-hop chain over every MB
    /// type commits, drains, and leaves each hop's destination holding
    /// the moved flow group with its source empty.
    #[test]
    fn four_hop_chain_commits_every_hop_unfaulted() {
        for mb in CONC_MBS {
            let o = run_hops(mb, 4, None);
            let t = terminal(&o);
            assert!(t.committed && !t.failed, "{mb:?}: chain must commit: error={:?}", t.error);
            assert_eq!(o.open_ops, 0, "{mb:?}: bookkeeping leaked");
            assert_eq!(o.open_chains, 0, "{mb:?}: chain never settled");
            assert!(t.chunks_moved > 0, "{mb:?}: chain moved nothing");
            for (i, h) in o.pairs.iter().enumerate() {
                assert!(h.dst_entries > 0, "{mb:?} hop {i} moved nothing");
                assert_eq!(h.src_entries, 0, "{mb:?} hop {i} source must be drained");
            }
        }
    }

    /// Same seed, byte-identical fault log, timeline, and outcome — the
    /// replay contract holds for the chain phase machine too. Seed 2
    /// rolls back (hard outage), seed 9 commits, so both terminal
    /// paths replay.
    #[test]
    fn chain_replay_is_byte_identical() {
        for seed in [2, 9] {
            let s = generate_chain(seed);
            let a = run_chain(&s, true);
            let b = run_chain(&s, true);
            assert_eq!(a.fault_log, b.fault_log, "seed {seed} fault log diverged");
            assert_eq!(a, b, "seed {seed} full outcome diverged");
        }
    }

    /// The long randomized sweep (CI nightly / `--include-ignored`).
    #[test]
    #[ignore = "long randomized sweep; run with --include-ignored"]
    fn chain_schedules_long_range() {
        for seed in 16..96 {
            check_chain_seed(seed);
        }
    }
}
