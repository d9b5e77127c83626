//! The controller engine under the return-the-actions calling
//! convention thread drivers prefer.
//!
//! [`ControllerCore`] *is* the thread-safe engine — per-shard locks,
//! every method `&self` (see [`crate::controller`] for the lock order
//! and the `try_lock` rule). [`ShardedController`] is a newtype over it
//! for callers that would rather receive a fresh `Vec<Action>` per
//! call than thread an output buffer through: the three
//! action-producing entry points benchmark drivers use allocate the
//! `Vec` and forward; everything else — `register_mb`, `submit`,
//! `open_ops`, `transfer_ledger_stats`, … — *is* the engine's method,
//! reached through `Deref`. This file's tests are the engine's
//! real-thread tests.

use openmb_simnet::SimTime;
use openmb_types::wire::Message;
use openmb_types::{HeaderFieldList, MbId, OpId};

use crate::controller::{Action, ControllerConfig, ControllerCore, Request};

/// [`ControllerCore`] for thread drivers: safe to drive from many
/// threads at once, with disjoint shards never contending.
pub struct ShardedController(ControllerCore);

impl std::ops::Deref for ShardedController {
    type Target = ControllerCore;
    fn deref(&self) -> &ControllerCore {
        &self.0
    }
}

impl ShardedController {
    /// A controller with the given tunables; `config.shards` (clamped
    /// to at least 1) fixes the shard count for the controller's life.
    pub fn new(config: ControllerConfig) -> Self {
        ShardedController(ControllerCore::new(config))
    }

    /// `moveInternal`: the engine's [`ControllerCore::submit`] of a
    /// [`Request::Move`], kept for the benchmark's existing call site.
    pub fn move_internal(
        &self,
        src: MbId,
        dst: MbId,
        key: HeaderFieldList,
        now: SimTime,
    ) -> (OpId, Vec<Action>) {
        let mut out = Vec::new();
        (self.0.submit(Request::Move { src, dst, key }, now, &mut out), out)
    }

    /// Process one southbound frame, locking only the owning shard(s).
    pub fn handle_mb_message(&self, from: MbId, msg: Message, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        self.0.handle_mb_message(from, msg, now, &mut out);
        out
    }

    /// Periodic maintenance across every shard.
    pub fn tick(&self, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        self.0.tick(now, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Completion;
    use openmb_types::IpPrefix;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn subnet(b: u8) -> HeaderFieldList {
        let p = IpPrefix::new(Ipv4Addr::new(10, b, 0, 0), 16);
        HeaderFieldList { nw_src: p, nw_dst: p, ..HeaderFieldList::any() }
    }

    #[test]
    fn concurrent_admissions_with_same_flowspace_share_a_shard() {
        let ctrl = Arc::new(ShardedController::new(ControllerConfig {
            shards: 4,
            ..ControllerConfig::default()
        }));
        let a = ctrl.register_mb();
        let b = ctrl.register_mb();
        let c = ctrl.register_mb();
        let d = ctrl.register_mb();
        let mut handles = Vec::new();
        // Every pair contains MB `a`, so whatever order the threads win
        // the race, each later admission conflicts with the first.
        for (s, t) in [(a, b), (a, c), (a, d), (b, a)] {
            let ctrl = Arc::clone(&ctrl);
            handles.push(std::thread::spawn(move || {
                ctrl.move_internal(s, t, subnet(0), SimTime(0)).0
            }));
        }
        let ops: Vec<OpId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All four flowspaces overlap, so every op must carry the same
        // residue (same shard), whatever order the threads won the race.
        let residue = (ops[0].0 - 1) % 4;
        for op in &ops {
            assert_eq!((op.0 - 1) % 4, residue, "conflicting ops split across shards");
        }
    }

    #[test]
    fn disjoint_threads_land_on_disjoint_shards() {
        let ctrl =
            ShardedController::new(ControllerConfig { shards: 4, ..ControllerConfig::default() });
        let a = ctrl.register_mb();
        let b = ctrl.register_mb();
        // Four disjoint subnets must spread over more than one shard
        // (exact placement is the hash's business, spread is the
        // contract — same as the router's own placement test).
        let residues: std::collections::HashSet<u64> = (0..4u8)
            .map(|i| (ctrl.move_internal(a, b, subnet(i), SimTime(0)).0 .0 - 1) % 4)
            .collect();
        assert!(residues.len() > 1, "disjoint moves all hashed to one shard");
    }

    /// Four disjoint moves (pair `(2i, 2i+1)`, subnet `i`) admitted in
    /// index order on an 8+-MB controller; returns their ops. They
    /// spread over more than one shard (the test above).
    fn four_disjoint_moves(ctrl: &ShardedController, mbs: &[MbId]) -> Vec<OpId> {
        (0..4)
            .map(|i| ctrl.move_internal(mbs[2 * i], mbs[2 * i + 1], subnet(i as u8), T0).0)
            .collect()
    }

    const T0: SimTime = SimTime(0);

    fn has_to_mb(out: &[Action]) -> bool {
        out.iter().any(|a| matches!(a, Action::ToMb(..)))
    }

    /// The `(sub-op, source MB)` of every per-flow get in `out`.
    fn gets(out: &[Action]) -> Vec<(OpId, MbId)> {
        out.iter()
            .filter_map(|a| match a {
                Action::ToMb(mb, Message::GetSupportPerflow { op, .. })
                | Action::ToMb(mb, Message::GetReportPerflow { op, .. }) => Some((*op, *mb)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn bridging_clone_defers_instead_of_running_concurrently() {
        let ctrl =
            ShardedController::new(ControllerConfig { shards: 4, ..ControllerConfig::default() });
        let mbs: Vec<MbId> = (0..8).map(|_| ctrl.register_mb()).collect();
        // Two disjoint moves (disjoint flowspaces, disjoint MB pairs)
        // on different shards — such a pair exists because the four
        // bench subnets spread over more than one shard.
        let ops = four_disjoint_moves(&ctrl, &mbs);
        let (i, j) = (0..4)
            .flat_map(|a| (a + 1..4).map(move |b| (a, b)))
            .find(|&(a, b)| ctrl.shard_of_op(ops[a]) != ctrl.shard_of_op(ops[b]))
            .expect("bench subnets spread over more than one shard");
        // A wildcard clone bridging one endpoint of each move conflicts
        // with live transfers on two shards: no placement serializes
        // it, so it must reserve (no southbound traffic) and queue.
        let mut out = Vec::new();
        let op_c =
            ctrl.submit(Request::Clone { src: mbs[2 * i + 1], dst: mbs[2 * j] }, T0, &mut out);
        assert!(!has_to_mb(&out), "a deferred transfer must emit no southbound traffic: {out:?}");
        assert_eq!(ctrl.deferred_transfers(), 1);
        // Reserved on the earliest-admitted conflicting move's shard.
        assert_eq!(ctrl.shard_of_op(op_c), ctrl.shard_of_op(ops[i]));
    }

    /// A move that conflicts with a live transfer on one shard and a
    /// live chain on another defers behind the chain id. Other threads'
    /// admissions and sweeps must neither prune the chain's conflict
    /// entries nor release the move while the chain runs (a shard asked
    /// about a chain id answers "closed" — the engine must not ask it);
    /// the move's gets go out in the very call that commits the chain.
    #[test]
    fn move_overlapping_a_live_chain_waits_for_the_whole_chain() {
        use crate::chain::{ChainHop, ChainSpec};
        /// Run `f` on its own OS thread.
        fn on_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
            std::thread::scope(|s| s.spawn(f).join().unwrap())
        }
        let ctrl =
            ShardedController::new(ControllerConfig { shards: 4, ..ControllerConfig::default() });
        let mbs: Vec<MbId> = (0..14).map(|_| ctrl.register_mb()).collect();
        let ops = four_disjoint_moves(&ctrl, &mbs);
        // Thread 1 admits the chain over MBs 8..12.
        let (chain, mut out) = on_thread(|| {
            let hops = vec![
                ChainHop { src: mbs[8], dst: mbs[9] },
                ChainHop { src: mbs[10], dst: mbs[11] },
            ];
            let mut out = Vec::new();
            (ctrl.submit(Request::ChainMove(ChainSpec::new(subnet(9), hops)), T0, &mut out), out)
        });
        let chain_shard = ctrl.shard_of_op(ctrl.chain_hop_ops(chain)[0]);
        let i = (0..4)
            .find(|&i| ctrl.shard_of_op(ops[i]) != chain_shard)
            .expect("four moves spread over more than one shard");
        // Thread 2 admits a wildcard move touching move i's destination
        // and the chain's ingress MB: it conflicts on two shards, the
        // chain being the later entry — so it reserves on move i's
        // shard, blocked on the chain id.
        let live = ctrl.active_transfers();
        let op = on_thread(|| {
            let (op, out) = ctrl.move_internal(mbs[2 * i + 1], mbs[8], HeaderFieldList::any(), T0);
            assert!(!has_to_mb(&out), "deferred move must emit no traffic: {out:?}");
            // An unrelated admission prunes the conflict table, and a
            // tick sweeps the deferral queue.
            ctrl.move_internal(mbs[12], mbs[13], subnet(20), T0);
            assert!(!has_to_mb(&ctrl.tick(SimTime(1))));
            op
        });
        assert_eq!(ctrl.shard_of_op(op), ctrl.shard_of_op(ops[i]));
        assert_eq!(ctrl.active_transfers(), live + 2, "chain entries pruned while it runs");
        assert_eq!(ctrl.deferred_transfers(), 1);
        // Empty get streams complete hop 0, then hop 1; the second
        // commits the chain and releases the move in the same call.
        for hop in 0..2 {
            let acks = gets(&out);
            assert_eq!(acks.len(), 2, "hop {hop} issues two gets: {out:?}");
            out.clear();
            for (sub, mb) in acks {
                assert_eq!(ctrl.deferred_transfers(), 1);
                let t = SimTime(1_000 * (hop + 1));
                out.extend(ctrl.handle_mb_message(mb, Message::GetAck { op: sub, count: 0 }, t));
            }
        }
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Notify(Completion::ChainComplete { op, hops: 2, .. }) if *op == chain
        )));
        assert_eq!(ctrl.deferred_transfers(), 0);
        let released = gets(&out);
        assert_eq!(released.len(), 2, "released move issues its gets: {out:?}");
        assert!(released.iter().all(|&(_, mb)| mb == mbs[2 * i + 1]));
    }

    /// Two threads each drive a windowed 60-chunk move between real
    /// monitors through one controller; the engine's ledger snapshot —
    /// reachable on this embedding like on any other — shows the window
    /// was exercised and never exceeded.
    #[test]
    fn ledger_peak_stays_within_the_window_on_threaded_drives() {
        use openmb_mb::southbound::handle_southbound;
        use openmb_mb::{Effects, Middlebox};
        use openmb_middleboxes::Monitor;
        use openmb_types::{FlowKey, Packet};
        use std::collections::VecDeque;
        const W: usize = 4;
        let ctrl = ShardedController::new(ControllerConfig {
            shards: 2,
            transfer_window: W as u32,
            ..ControllerConfig::default()
        });
        let mbs: Vec<MbId> = (0..4).map(|_| ctrl.register_mb()).collect();
        let ctrl = &ctrl;
        let drive = |src: MbId, dst: MbId| {
            let (mut a, mut b) = (Monitor::new(), Monitor::new());
            let mut fx = Effects::normal();
            for f in 0..60u16 {
                let key = FlowKey::tcp(
                    Ipv4Addr::new(10, 0, 0, f as u8 + 1),
                    1000 + f,
                    Ipv4Addr::new(192, 168, 1, 1),
                    80,
                );
                a.process_packet(
                    SimTime(u64::from(f)),
                    &Packet::new(u64::from(f), key, vec![0; 64]),
                    &mut fx,
                );
            }
            let (op, out) = ctrl.move_internal(src, dst, HeaderFieldList::any(), T0);
            let mut actions: VecDeque<Action> = out.into();
            let mut moved = None;
            while let Some(act) = actions.pop_front() {
                match act {
                    Action::Notify(Completion::MoveComplete { chunks_moved, .. }) => {
                        moved = Some(chunks_moved)
                    }
                    Action::ToMb(mb, msg) => {
                        let logic = if mb == src { &mut a } else { &mut b };
                        for r in handle_southbound(logic, msg, T0) {
                            actions.extend(ctrl.handle_mb_message(mb, r, T0));
                            assert!(ctrl.transfer_ledger_stats(op).puts_in_flight <= W);
                        }
                    }
                    _ => {}
                }
            }
            assert_eq!(moved, Some(60));
            op
        };
        let (op1, op2) = std::thread::scope(|s| {
            let t1 = s.spawn(|| drive(mbs[0], mbs[1]));
            let t2 = s.spawn(|| drive(mbs[2], mbs[3]));
            (t1.join().unwrap(), t2.join().unwrap())
        });
        for op in [op1, op2] {
            let stats = ctrl.transfer_ledger_stats(op);
            assert_eq!(stats.in_flight_peak, W, "window exercised and respected");
            assert_eq!((stats.puts_in_flight, stats.puts_queued), (0, 0));
        }
    }
}
