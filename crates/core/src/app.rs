//! Control applications and the API they program against.
//!
//! A control application (§6) orchestrates middlebox state operations
//! *in tandem with* network forwarding changes. In the paper it runs on
//! top of both the MB controller (our [`ControllerCore`]) and the SDN
//! controller (our [`Topology`] + flow-mod dispatch); [`Api`] exposes
//! both sides plus timers, so an application can express sequences like
//! "move state, and only once the move completes, update routing"
//! (requirement R4).
//!
//! The MB side is the one northbound vocabulary every embedding
//! shares: [`Api::submit`] takes a [`Request`] and returns its op,
//! whose [`Completion`] arrives in [`ControlApp::on_completion`];
//! [`Api::end_op`] closes a transfer early. Compositions of requests
//! (the §6 "copy the whole configuration" idiom, say) belong to the
//! application, not to this API.

use openmb_openflow::Topology;
use openmb_simnet::{SimDuration, SimTime};
use openmb_types::sdn::SdnMessage;
use openmb_types::{HeaderFieldList, MbId, NodeId, OpId};

use crate::controller::{Action, Completion, ControllerCore, Request};

/// A scenario-specific control application hosted on the controller.
pub trait ControlApp {
    /// Called once when the controller starts.
    fn on_start(&mut self, _api: &mut Api<'_>) {}
    /// Called for every northbound completion and subscribed MB event.
    fn on_completion(&mut self, _api: &mut Api<'_>, _c: &Completion) {}
    /// Called when a timer set via [`Api::set_timer`] fires.
    fn on_timer(&mut self, _api: &mut Api<'_>, _token: u64) {}
}

/// A no-op application, for experiments that drive the controller
/// manually.
pub struct NullApp;
impl ControlApp for NullApp {}

/// The borrowed context an embedding assembles to host an [`Api`] view.
///
/// Named fields replace the old six-positional-argument constructor:
/// three of those arguments were `&mut Vec` sinks of different element
/// types, and the compiler could not catch a transposition between the
/// two that shared a shape. Construct one per callback:
///
/// ```ignore
/// let mut api = Api::new(ApiCtx {
///     core: &mut self.core,
///     topo: &mut self.topo,
///     now,
///     actions: &mut actions,
///     sdn: &mut sdn,
///     timers: &mut timers,
/// });
/// ```
pub struct ApiCtx<'a> {
    /// The controller state machine northbound calls are applied to.
    pub core: &'a mut ControllerCore,
    /// The SDN controller's topology view.
    pub topo: &'a mut Topology,
    /// Current virtual time.
    pub now: SimTime,
    /// Sink for controller [`Action`]s the embedding must carry out.
    pub actions: &'a mut Vec<Action>,
    /// Sink for SDN messages to dispatch to switches.
    pub sdn: &'a mut Vec<(NodeId, SdnMessage)>,
    /// Sink for `(delay, token)` timer requests.
    pub timers: &'a mut Vec<(SimDuration, u64)>,
}

/// The application-facing surface: northbound MB-state operations (§5),
/// SDN routing updates, and timers.
pub struct Api<'a> {
    ctx: ApiCtx<'a>,
}

impl<'a> Api<'a> {
    /// Assemble an API view over an embedding's [`ApiCtx`].
    pub fn new(ctx: ApiCtx<'a>) -> Self {
        Api { ctx }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    // ---- northbound API (§5) ----

    /// Open the op `req` asks for ([`ControllerCore::submit`]); its
    /// [`Completion`] reaches [`ControlApp::on_completion`].
    pub fn submit(&mut self, req: Request) -> OpId {
        self.ctx.core.submit(req, self.ctx.now, self.ctx.actions)
    }

    /// `moveInternal`: [`Api::submit`] of a [`Request::Move`], kept for
    /// the benchmark's existing call site.
    pub fn move_internal(&mut self, src: MbId, dst: MbId, key: HeaderFieldList) -> OpId {
        self.submit(Request::Move { src, dst, key })
    }

    /// Explicitly close a move/clone/merge transaction (see
    /// [`ControllerCore::end_op`]).
    pub fn end_op(&mut self, op: OpId) {
        self.ctx.core.end_op(op, self.ctx.now, self.ctx.actions);
    }

    /// Is `mb` currently marked unreachable by the embedding? Placement
    /// decisions consult this so a dead standby is never selected.
    pub fn is_unreachable(&self, mb: MbId) -> bool {
        self.ctx.core.is_unreachable(mb)
    }

    // ---- SDN side ----

    /// The SDN controller's topology view.
    pub fn topology(&mut self) -> &mut Topology {
        self.ctx.topo
    }

    /// Compute a waypointed path and install flow rules along it for
    /// `pattern` at `priority`. Returns false if no path exists.
    /// Rule installation messages travel to the switches with normal
    /// control-channel latency — exactly the window in which packets
    /// still reach the old middlebox (§4.2.1).
    pub fn route(
        &mut self,
        pattern: HeaderFieldList,
        priority: u16,
        src: NodeId,
        waypoints: &[NodeId],
        dst: NodeId,
    ) -> bool {
        let Some(path) = self.ctx.topo.waypoint_path(src, waypoints, dst) else {
            return false;
        };
        for (sw, msg) in self.ctx.topo.path_flow_mods(pattern, priority, &path) {
            self.ctx.sdn.push((sw, msg));
        }
        true
    }

    /// Send a raw SDN message to a switch.
    pub fn send_sdn(&mut self, switch: NodeId, msg: SdnMessage) {
        self.ctx.sdn.push((switch, msg));
    }

    // ---- timers ----

    /// Fire [`ControlApp::on_timer`] with `token` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.ctx.timers.push((delay, token));
    }
}
