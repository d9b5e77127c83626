//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a *seeded schedule* of message-level faults
//! (drop/delay/duplicate, filtered by link direction and frame class)
//! plus node-level crash/restart events at chosen virtual times. The
//! engine applies it inside frame delivery, so the same plan + the same
//! workload produces a byte-identical [`FaultRecord`] log on every run —
//! experiments assert replay equality instead of hoping the race
//! happened the same way twice.
//!
//! Probabilistic rules draw from a private splitmix64 stream seeded by
//! [`FaultPlan::seed`]; the draw happens on every *filter* match (not
//! only on fired faults), so adding a rule with `probability: 0.0`
//! still perturbs nothing and removing one never shifts the stream of
//! the rules before it (each rule owns its own stream, keyed by seed
//! and rule index).

use openmb_types::NodeId;

use crate::time::{SimDuration, SimTime};

/// What a matching [`FaultRule`] does to a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The frame is silently lost.
    Drop,
    /// Delivery is postponed by this extra delay.
    Delay(SimDuration),
    /// The frame is delivered twice.
    Duplicate,
}

/// A message-level fault rule. Fields left `None` match anything.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Only frames sent by this node.
    pub from: Option<NodeId>,
    /// Only frames addressed to this node.
    pub to: Option<NodeId>,
    /// Only control-plane frames (southbound protocol messages); data
    /// packets and SDN messages pass untouched.
    pub control_only: bool,
    /// Chance the fault fires on a matching frame, in `[0, 1]`.
    pub probability: f64,
    /// What happens when the rule fires.
    pub action: FaultAction,
    /// Rule is active for frames sent at `active_from <= t < active_until`.
    pub active_from: SimTime,
    pub active_until: SimTime,
}

impl FaultRule {
    /// A rule matching every control frame on the directed link
    /// `from -> to`, active for the whole run, firing always.
    pub fn on_link(from: NodeId, to: NodeId, action: FaultAction) -> Self {
        FaultRule {
            from: Some(from),
            to: Some(to),
            control_only: true,
            probability: 1.0,
            action,
            active_from: SimTime::ZERO,
            active_until: SimTime(u64::MAX),
        }
    }

    /// Restrict the rule to frames sent in `[from, until)`.
    pub fn between(mut self, from: SimTime, until: SimTime) -> Self {
        self.active_from = from;
        self.active_until = until;
        self
    }

    /// Fire with probability `p` instead of always.
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = p;
        self
    }
}

/// A node crash (and optional restart) at fixed virtual times.
#[derive(Debug, Clone, Copy)]
pub struct CrashEvent {
    pub node: NodeId,
    pub at: SimTime,
    /// When the node comes back, if ever. While down, every frame and
    /// timer addressed to it is discarded.
    pub restart_at: Option<SimTime>,
}

/// A link partition over a virtual-time window: *both* directions of
/// `a <-> b` are suspended at `from` and released at `until`, with
/// frames sent during the window held at the link head and delivered in
/// order on heal — the classic "network blip" a resumable transfer must
/// ride out, as opposed to a crash (which loses the frames).
#[derive(Debug, Clone, Copy)]
pub struct PartitionEvent {
    pub a: NodeId,
    pub b: NodeId,
    pub from: SimTime,
    pub until: SimTime,
}

/// A seeded schedule of faults to inject into a run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the probabilistic rules' private RNG streams.
    pub seed: u64,
    pub rules: Vec<FaultRule>,
    pub crashes: Vec<CrashEvent>,
    pub partitions: Vec<PartitionEvent>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Add a message-level rule.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Crash `node` at `at`, never restarting.
    pub fn crash(mut self, node: NodeId, at: SimTime) -> Self {
        self.crashes.push(CrashEvent { node, at, restart_at: None });
        self
    }

    /// Crash `node` at `at` and restart it at `restart_at`.
    pub fn crash_restart(mut self, node: NodeId, at: SimTime, restart_at: SimTime) -> Self {
        self.crashes.push(CrashEvent { node, at, restart_at: Some(restart_at) });
        self
    }

    /// Partition the bidirectional link `a <-> b` for `[from, until)`.
    pub fn partition(mut self, a: NodeId, b: NodeId, from: SimTime, until: SimTime) -> Self {
        self.partitions.push(PartitionEvent { a, b, from, until });
        self
    }
}

/// One injected fault, as it happened. The engine appends these in
/// virtual-time order; two runs with the same plan and workload must
/// produce identical logs (the determinism contract experiments assert,
/// e.g. by comparing `format!("{log:?}")` bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultRecord {
    Dropped {
        at: SimTime,
        from: NodeId,
        to: NodeId,
        wire_len: usize,
    },
    Delayed {
        at: SimTime,
        from: NodeId,
        to: NodeId,
        by: SimDuration,
    },
    Duplicated {
        at: SimTime,
        from: NodeId,
        to: NodeId,
    },
    Crashed {
        at: SimTime,
        node: NodeId,
    },
    Restarted {
        at: SimTime,
        node: NodeId,
    },
    /// A frame or timer discarded because its target was down.
    LostToCrash {
        at: SimTime,
        node: NodeId,
    },
    /// Both directions of `a <-> b` suspended.
    Partitioned {
        at: SimTime,
        a: NodeId,
        b: NodeId,
    },
    /// The partition lifted; `released` frames held during it resumed
    /// delivery (both directions combined).
    Healed {
        at: SimTime,
        a: NodeId,
        b: NodeId,
        released: usize,
    },
}

/// Per-rule deterministic RNG: splitmix64 over (seed, rule index).
#[derive(Debug, Clone)]
pub(crate) struct RuleRng {
    state: u64,
}

impl RuleRng {
    pub(crate) fn new(seed: u64, rule_idx: usize) -> Self {
        // Decorrelate the per-rule streams without chaining them, so
        // editing one rule never shifts another's draws.
        RuleRng { state: seed ^ (rule_idx as u64).wrapping_mul(0xA076_1D64_78BD_642F) }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_rng_is_deterministic_and_per_rule() {
        let mut a = RuleRng::new(42, 0);
        let mut b = RuleRng::new(42, 0);
        let mut c = RuleRng::new(42, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn plan_builder_collects_rules_and_crashes() {
        let plan = FaultPlan::seeded(7)
            .rule(FaultRule::on_link(NodeId(0), NodeId(1), FaultAction::Drop).with_probability(0.5))
            .crash_restart(NodeId(2), SimTime(10), SimTime(20));
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 1);
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!(plan.crashes[0].restart_at, Some(SimTime(20)));
    }
}
