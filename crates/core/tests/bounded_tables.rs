//! The bounded-tables soak (DESIGN §10, "Op lifetime"): one controller
//! runs ten times a workload's moves — on the DES, on
//! `ShardedController` with two shards driven by two threads, and on
//! `TcpController` over loopback TCP — and after the warm-up every
//! table it keeps has the size it had then. Retired ops leave the op
//! and sub-op tables, the tombstone ring holds
//! `min(transfers retired, RETIRED_RING)` per shard, and the
//! destinations' content stores stay within their byte budget while
//! every move files new bodies.
//!
//! The stores start full of bodies the size of the moved ones — the
//! state a long-running destination's store is in after its first few
//! megabytes of moves — so each body a move files evicts exactly one
//! older entry and the entry count must not move either. (Filling the
//! 16 MiB budget through moves would cost seconds in a debug build.)
//!
//! `cargo test -p openmb-core --test bounded_tables -- --nocapture`
//! prints the samples; the `_100x` variant is the nightly run.

use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use openmb_core::app::{Api, ControlApp};
use openmb_core::controller::{
    Action, Completion, ControllerConfig, ControllerCore, TableSizes, RETIRED_RING,
};
use openmb_core::nodes::{ControllerCosts, ControllerNode, MbNode, APP_TIMER_BASE};
use openmb_core::tcp::{serve_middlebox_recorded, TcpController};
use openmb_core::Request;
use openmb_core::ShardedController;
use openmb_mb::{handle_southbound_logged, CostModel, Effects, Middlebox, SharedPutLog};
use openmb_middleboxes::DummyMb;
use openmb_obs::Recorder;
use openmb_simnet::{Sim, SimDuration, SimTime};
use openmb_store::{ContentStore, MemoryContentStore, ENTRY_OVERHEAD, MEMORY_STORE_BUDGET};
use openmb_types::crypto::VendorKey;
use openmb_types::transport::TcpTransport;
use openmb_types::{
    ConfigValue, EncryptedChunk, HeaderFieldList, HierarchicalKey, MbId, NodeId, OpId, Packet,
    Result, StateChunk, StateStats,
};

/// Flows per move: DummyMb state, one sealed report chunk each.
const FLOWS: usize = 16;
/// Plaintext bytes of a flow's state: large, so a store's budget is a
/// few thousand entries.
const STATE: usize = 4096;
/// The workload: moves between two samples. The first sample, after
/// one workload, is the warm-up every later one must equal.
const WORKLOAD: usize = 4;

/// A DummyMb holding [`FLOWS`] flows of [`STATE`] bytes each.
fn loaded() -> DummyMb {
    let vendor = VendorKey::derive("dummy");
    let mut mb = DummyMb::new();
    for i in 0..FLOWS {
        let key = HeaderFieldList::exact(DummyMb::flow_for(i));
        let body = EncryptedChunk::seal(&vendor, 0, &[i as u8; STATE]);
        mb.put_report_perflow(StateChunk::new(key, body)).unwrap();
    }
    mb
}

/// A DummyMb whose records change on every export, as a live flow's
/// do. Sealing is convergent: state moved back unchanged seals to the
/// bytes the destination filed two moves earlier and files nothing, so
/// without the churn only the first two moves would file new bodies.
struct Churning(DummyMb);

impl Churning {
    fn loaded() -> Self {
        Churning(loaded())
    }

    fn empty() -> Self {
        Churning(DummyMb::new())
    }
}

impl Middlebox for Churning {
    fn mb_type(&self) -> &'static str {
        self.0.mb_type()
    }
    fn get_config(
        &self,
        key: &HierarchicalKey,
    ) -> Result<Vec<(HierarchicalKey, Vec<ConfigValue>)>> {
        self.0.get_config(key)
    }
    fn set_config(&mut self, key: &HierarchicalKey, values: Vec<ConfigValue>) -> Result<()> {
        self.0.set_config(key, values)
    }
    fn del_config(&mut self, key: &HierarchicalKey) -> Result<()> {
        self.0.del_config(key)
    }
    /// Touches every flow (a packet each) before exporting them.
    fn get_report_perflow(&mut self, op: OpId, key: &HeaderFieldList) -> Result<Vec<StateChunk>> {
        assert_eq!(self.0.perflow_entries(), FLOWS, "only the holder is asked for its state");
        let mut fx = Effects::normal();
        for i in 0..FLOWS {
            let pkt = Packet::new(0, DummyMb::flow_for(i), Vec::new());
            self.0.process_packet(SimTime(0), &pkt, &mut fx);
        }
        self.0.get_report_perflow(op, key)
    }
    fn put_report_perflow(&mut self, chunk: StateChunk) -> Result<()> {
        self.0.put_report_perflow(chunk)
    }
    fn del_report_perflow(&mut self, key: &HeaderFieldList) -> Result<usize> {
        self.0.del_report_perflow(key)
    }
    fn stats(&self, key: &HeaderFieldList) -> StateStats {
        self.0.stats(key)
    }
    fn process_packet(&mut self, now: SimTime, pkt: &Packet, fx: &mut Effects) {
        self.0.process_packet(now, pkt, fx)
    }
    fn end_sync(&mut self, op: OpId) {
        self.0.end_sync(op)
    }
    fn costs(&self) -> CostModel {
        self.0.costs()
    }
    fn perflow_entries(&self) -> usize {
        self.0.perflow_entries()
    }
}

/// Fill `store` to its budget with bodies the size of a moved chunk's,
/// filed under made-up hashes so no reference ever hits them.
fn fill(store: &dyn ContentStore) {
    let body = loaded().get_report_perflow(OpId(1), &HeaderFieldList::any()).unwrap()[0].data.len();
    for i in 0..MEMORY_STORE_BUDGET / (body + ENTRY_OVERHEAD) {
        let mut hash = [0xEE; 32];
        hash[..8].copy_from_slice(&(i as u64).to_le_bytes());
        store.insert_unchecked(hash, vec![0; body].into());
    }
}

/// A store filled to its budget, for the embeddings that hand one to
/// a [`SharedPutLog`].
fn full_store() -> Arc<dyn ContentStore> {
    let store: Arc<dyn ContentStore> = Arc::new(MemoryContentStore::new());
    fill(&*store);
    store
}

/// What one sample holds to the warm-up. `tables.tombstones` and
/// `tables.conflicts` are checked against their bounds and zeroed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sample {
    tables: TableSizes,
    store_len: [usize; 2],
}

/// Per-shard counts of retired moves (what the tombstone ring must
/// hold) and the samples so far.
struct Soak {
    name: &'static str,
    /// Threads issuing moves: each may leave its last move's entry in
    /// the router's conflict table, which prunes only on admission.
    drivers: usize,
    retired: Vec<usize>,
    samples: Vec<Sample>,
}

impl Soak {
    fn new(name: &'static str, shards: usize, drivers: usize) -> Self {
        Soak { name, drivers, retired: vec![0; shards], samples: Vec::new() }
    }

    /// Count `op` as retired: completed, quiesced, its deletes acked.
    fn retired(&mut self, core: &ControllerCore, op: OpId) {
        self.retired[core.shard_of_op(op)] += 1;
    }

    /// Sample the tables and the two destination stores and hold them
    /// to the warm-up.
    fn sample(&mut self, core: &ControllerCore, stores: [&dyn ContentStore; 2]) {
        let mut tables = core.table_sizes();
        let cache_hits = core.transfer_ledger_stats(OpId(0)).cache_hits;
        assert_eq!(cache_hits, 0, "{}: every move files new bodies", self.name);
        let moves: usize = self.retired.iter().sum();
        let stored = stores.map(|s| (s.len(), s.bytes()));
        println!("{} after {moves} moves: {tables:?}, stores (len, bytes) {stored:?}", self.name);
        let ring: usize = self.retired.iter().map(|&n| n.min(RETIRED_RING)).sum();
        assert_eq!(tables.tombstones, ring, "{}: the tombstone ring", self.name);
        assert_eq!(
            (tables.ops, tables.sub_ops, tables.pending_deletes),
            (0, 0, 0),
            "{}",
            self.name
        );
        for (len, bytes) in stored {
            assert!(
                bytes + len * ENTRY_OVERHEAD <= MEMORY_STORE_BUDGET,
                "{}: over budget",
                self.name
            );
        }
        // Which driver admitted last decides how many entries the last
        // prune left; between one and one per driver, never more.
        assert!((1..=self.drivers).contains(&tables.conflicts), "{}: conflicts", self.name);
        tables.tombstones = 0;
        tables.conflicts = 0;
        let s = Sample { tables, store_len: stored.map(|(len, _)| len) };
        if let Some(warm) = self.samples.first() {
            assert_eq!(*warm, s, "{}: a table grew after the warm-up", self.name);
        }
        self.samples.push(s);
    }
}

fn completed_op(c: &Completion) -> OpId {
    match c {
        Completion::MoveComplete { op, chunks_moved: FLOWS } => *op,
        other => panic!("move did not complete with {FLOWS} chunks: {other:?}"),
    }
}

// ---- the DES ---------------------------------------------------------

const CONTROLLER: NodeId = NodeId(0);
const MBS: [NodeId; 2] = [NodeId(1), NodeId(2)];

/// On each timer, move every flow from the MB holding them to the other.
struct PingPong {
    holder: u32,
}

impl ControlApp for PingPong {
    fn on_timer(&mut self, api: &mut Api<'_>, _token: u64) {
        let (src, dst) = (MbId(self.holder), MbId(1 - self.holder));
        api.submit(Request::Move { src, dst, key: HeaderFieldList::any() });
    }

    fn on_completion(&mut self, _api: &mut Api<'_>, c: &Completion) {
        completed_op(c);
        self.holder = 1 - self.holder;
    }
}

fn soak_des(workloads: usize) {
    let mut sim = Sim::new();
    let config =
        ControllerConfig { quiesce_after: SimDuration::from_millis(5), ..Default::default() };
    let app = Box::new(PingPong { holder: 0 });
    let mut ctrl = ControllerNode::new(config, ControllerCosts::default(), app);
    for mb in MBS {
        ctrl.register_mb(mb);
    }
    assert_eq!(sim.add_node(Box::new(ctrl)), CONTROLLER);
    for (i, logic) in [Churning::loaded(), Churning::empty()].into_iter().enumerate() {
        let node = MbNode::new(["a", "b"][i], logic).with_controller(CONTROLLER);
        fill(&**node.shared_log().store());
        assert_eq!(sim.add_node(Box::new(node)), MBS[i]);
        sim.add_link(CONTROLLER, MBS[i], SimDuration::from_micros(100), 1_000_000_000);
    }
    let mut soak = Soak::new("des", 1, 1);
    for n in 1..=workloads * WORKLOAD {
        let at = sim.now().after(SimDuration::from_millis(1));
        sim.inject_timer(at, CONTROLLER, APP_TIMER_BASE + 1);
        sim.run(u64::MAX);
        // The run ends idle: the move completed, quiesced, and its
        // source deletes were acked.
        let ctrl: &mut ControllerNode = sim.node_as_mut(CONTROLLER);
        let [(_, done)] = &ctrl.completions[..] else { panic!("{:?}", ctrl.completions) };
        let op = completed_op(done);
        // The embedding's completion log is the application's to
        // drain, as every long-running app (and the benchmark) does.
        ctrl.completions.clear();
        let ctrl: &ControllerNode = sim.node_as(CONTROLLER);
        soak.retired(&ctrl.core, op);
        if n % WORKLOAD == 0 {
            let store = |i: usize| &**sim.node_as::<MbNode<Churning>>(MBS[i]).shared_log().store();
            soak.sample(&ctrl.core, [store(0), store(1)]);
        }
    }
}

// ---- ShardedController, two threads ----------------------------------

/// One thread's pair: two churning DummyMbs with their put logs,
/// holder first.
struct Pair {
    ids: [MbId; 2],
    mbs: [Churning; 2],
    logs: [SharedPutLog; 2],
}

impl Pair {
    /// Run `actions` to completion against this pair (FIFO); returns
    /// the completions.
    fn drive(&mut self, ctrl: &ShardedController, actions: Vec<Action>) -> Vec<Completion> {
        let mut queue = std::collections::VecDeque::from(actions);
        let mut done = Vec::new();
        while let Some(act) = queue.pop_front() {
            match act {
                Action::ToMb(mb, msg) => {
                    let i = usize::from(mb != self.ids[0]);
                    let (mb_logic, log) = (&mut self.mbs[i], &mut self.logs[i]);
                    for r in handle_southbound_logged(mb_logic, log, msg, SimTime(0)) {
                        queue.extend(ctrl.handle_mb_message(mb, r, SimTime(0)));
                    }
                }
                Action::Notify(c) => done.push(c),
                other => panic!("unexpected {other:?}"),
            }
        }
        done
    }

    /// One move from the holder (`ids[0]`) to the other, closed with
    /// `end_op` the way an application that repointed its route does;
    /// returns the op once its deletes are acked. Swaps the roles.
    fn move_once(&mut self, ctrl: &ShardedController) -> OpId {
        let (src, dst, key) = (self.ids[0], self.ids[1], HeaderFieldList::any());
        let mut out = Vec::new();
        let op = ctrl.submit(Request::Move { src, dst, key }, SimTime(0), &mut out);
        let [c] = &self.drive(ctrl, out)[..] else { panic!("one completion") };
        assert_eq!(completed_op(c), op);
        let mut out = Vec::new();
        ctrl.end_op(op, SimTime(0), &mut out);
        assert!(self.drive(ctrl, out).is_empty());
        self.ids.swap(0, 1);
        self.mbs.swap(0, 1);
        self.logs.swap(0, 1);
        op
    }
}

fn soak_threads(workloads: usize) {
    let ctrl = ShardedController::new(ControllerConfig { shards: 2, ..Default::default() });
    let pairs: Vec<Pair> = (0..2)
        .map(|_| Pair {
            ids: [ctrl.register_mb(), ctrl.register_mb()],
            mbs: [Churning::loaded(), Churning::empty()],
            logs: [SharedPutLog::with_store(full_store()), SharedPutLog::with_store(full_store())],
        })
        .collect();
    // Thread 0's pair's stores are the ones sampled (the other pair's
    // go through the same code).
    let sampled: [Arc<dyn ContentStore>; 2] = pairs[0].logs.each_ref().map(|l| l.store().clone());
    let soak = std::sync::Mutex::new(Soak::new("threads", 2, 2));
    let round = Barrier::new(2);
    let ctrl = &ctrl;
    std::thread::scope(|s| {
        for (t, mut pair) in pairs.into_iter().enumerate() {
            let (soak, round, sampled) = (&soak, &round, &sampled);
            s.spawn(move || {
                for n in 1..=workloads * WORKLOAD {
                    let op = pair.move_once(ctrl);
                    soak.lock().unwrap().retired(ctrl, op);
                    if n % WORKLOAD == 0 {
                        // Both threads between moves: a quiescent cut.
                        round.wait();
                        if t == 0 {
                            soak.lock().unwrap().sample(ctrl, [&*sampled[0], &*sampled[1]]);
                        }
                        round.wait();
                    }
                }
            });
        }
    });
}

// ---- TcpController over loopback ---------------------------------------

fn soak_tcp(workloads: usize) {
    let stop = Arc::new(AtomicBool::new(false));
    let mut controller = TcpController::new(ControllerConfig {
        quiesce_after: SimDuration::from_millis(1),
        ..Default::default()
    });
    let mut stores = Vec::new();
    let mut servers = Vec::new();
    let mut ids = Vec::new();
    for logic in [Churning::loaded(), Churning::empty()] {
        let store = full_store();
        stores.push(store.clone());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::clone(&stop);
        servers.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let transport = TcpTransport::new(stream).unwrap();
            let (mut logic, mut log) = (logic, SharedPutLog::with_store(store));
            serve_middlebox_recorded(
                &mut logic,
                &mut log,
                &transport,
                &stop,
                &Recorder::disabled(),
                "",
            )
            .unwrap();
        }));
        ids.push(controller.register_mb(Arc::new(TcpTransport::connect(addr).unwrap())));
    }
    controller.start();
    let core = controller.engine();
    let mut soak = Soak::new("tcp", 1, 1);
    for n in 1..=workloads * WORKLOAD {
        let (from, to) = if n % 2 == 1 { (ids[0], ids[1]) } else { (ids[1], ids[0]) };
        let done = controller.call(
            Request::Move { src: from, dst: to, key: HeaderFieldList::any() },
            Duration::from_secs(10),
        );
        let op = completed_op(&done.unwrap());
        // The maintenance tick quiesces the move; its source deletes
        // must be acked (the op retired) before the state moves back.
        let deadline = Instant::now() + Duration::from_secs(10);
        while core.table_sizes().ops > 0 {
            assert!(Instant::now() < deadline, "op {op:?} never retired");
            std::thread::sleep(Duration::from_millis(1));
        }
        soak.retired(core, op);
        if n % WORKLOAD == 0 {
            soak.sample(core, [&*stores[0], &*stores[1]]);
        }
    }
    controller.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for s in servers {
        s.join().unwrap();
    }
}

/// Ten workloads on the DES.
#[test]
fn bounded_tables_soak_des() {
    soak_des(10);
}

/// Ten workloads per thread on a two-shard `ShardedController`.
#[test]
fn bounded_tables_soak_threads() {
    soak_threads(10);
}

/// Ten workloads on `TcpController` over loopback TCP.
#[test]
fn bounded_tables_soak_tcp() {
    soak_tcp(10);
}

/// The nightly run: a hundred workloads on every embedding.
#[test]
#[ignore]
fn bounded_tables_soak_100x() {
    soak_des(100);
    soak_threads(100);
    soak_tcp(100);
}
