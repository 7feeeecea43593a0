//! The simulator's node selectors and the live sharded scheduler implement
//! one placement rule (§6.3): a non-accelerable invocation goes to its
//! function's hash home and probes past full nodes; an accelerable one goes
//! to the fitting node with the highest weighted demand coverage. These tests
//! put the same invocation before both on equal, empty clusters and require
//! the same node.

use libra_core::pool::{PoolEntryStatus, PoolSnapshot};
use libra_core::scheduler::{hash_probe, CoverageSelector, NodeSelector, SchedView};
use libra_core::sharding::{ScheduleRequest, ShardedScheduler};
use libra_sim::prelude::*;
use std::sync::Arc;

const FUNCS: u32 = 64;
const ALPHA: f64 = 0.9;

fn nominal() -> ResourceVec {
    ResourceVec::from_cores_mb(2, 512)
}

fn node_capacity() -> ResourceVec {
    ResourceVec::from_cores_mb(8, 8192)
}

/// A simulated cluster of `nodes` equal nodes serving `FUNCS` functions.
fn cluster(nodes: usize) -> Simulation {
    let model = Arc::new(ConstantDemand(TrueDemand {
        cpu_peak_millis: 1000,
        mem_peak_mb: 128,
        base_duration: SimDuration::from_secs(1),
    }));
    let funcs =
        (0..FUNCS).map(|f| FunctionSpec::new(format!("f{f}"), nominal(), model.clone())).collect();
    Simulation::new(funcs, vec![node_capacity(); nodes], SimConfig::default())
}

/// Places the single invocation of a one-arrival trace with either
/// `hash_probe` or `CoverageSelector`, and records the node and the
/// decision's simulated time.
struct Probe {
    pred: Option<Prediction>,
    view: SchedView,
    coverage: bool,
    placed: Option<(NodeId, SimTime)>,
}

impl Probe {
    fn hashing() -> Self {
        Probe { pred: None, view: SchedView::new(), coverage: false, placed: None }
    }
}

impl Platform for Probe {
    fn name(&self) -> String {
        "placement-probe".into()
    }

    fn predict(&mut self, _world: &World, _inv: InvocationId) -> Option<Prediction> {
        self.pred
    }

    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        let node = if self.coverage {
            CoverageSelector.select(world, shard, inv, &self.view, ALPHA)
        } else {
            hash_probe(world, shard, inv)
        };
        if self.placed.is_none() {
            self.placed = node.map(|n| (n, world.now()));
        }
        node
    }
}

fn place_in_sim(nodes: usize, func: u32, probe: &mut Probe) -> (NodeId, SimTime) {
    let mut trace = Trace::new();
    trace.push(SimTime::ZERO, FunctionId(func), InputMeta::new(1, 0));
    cluster(nodes).run(&trace, probe);
    probe.placed.expect("an empty cluster places every invocation")
}

#[test]
fn live_non_accelerable_placement_matches_hash_probe() {
    for nodes in [2, 3, 5, 8] {
        let sched = ShardedScheduler::spawn(1, nodes, node_capacity(), ALPHA);
        for func in 0..FUNCS {
            let (sim_node, _) = place_in_sim(nodes, func, &mut Probe::hashing());
            let d = sched.schedule_on(
                0,
                ScheduleRequest {
                    nominal: nominal(),
                    extra: ResourceVec::ZERO,
                    func,
                    duration: SimDuration::from_secs(1),
                    now: SimTime::ZERO,
                },
            );
            let live_node = d.node.expect("an empty cluster places every request");
            // Keep the live cluster empty for the next function.
            sched.release(0, live_node, nominal());
            assert_eq!(
                live_node, sim_node.0,
                "function {func} on {nodes} nodes: live and simulator disagree"
            );
        }
    }
}

#[test]
fn live_accelerable_placement_matches_coverage_selector() {
    let nodes = 5;
    let entry = |cpu, expiry_s| PoolEntryStatus {
        cpu_idle_millis: cpu,
        mem_idle_mb: 256,
        expiry: SimTime::from_secs(expiry_s),
    };
    // Node 3 covers the 2-core extra for the whole run; nodes 1 and 4 only
    // partly (too little volume, or expiring too soon).
    let snapshots: Vec<(u32, PoolSnapshot)> = vec![
        (1, vec![entry(1_000, 100)]),
        (3, vec![entry(4_000, 100)]),
        (4, vec![entry(4_000, 1)]),
    ];
    let pred = Prediction {
        cpu_millis: 4_000,
        mem_mb: 512,
        duration: SimDuration::from_secs(2),
        path: PredictionPath::Ml,
    };

    let mut view = SchedView::new();
    for (node, snap) in &snapshots {
        view.snapshots.insert(NodeId(*node), snap.clone());
    }
    let mut probe = Probe { pred: Some(pred), view, coverage: true, placed: None };
    let (sim_node, now) = place_in_sim(nodes, 7, &mut probe);

    let sched = ShardedScheduler::spawn(1, nodes, node_capacity(), ALPHA);
    for (node, snap) in &snapshots {
        sched.push_snapshot(*node, snap);
    }
    let d = sched.schedule_on(
        0,
        ScheduleRequest {
            nominal: nominal(),
            extra: pred.peak().saturating_sub(&nominal()),
            func: 7,
            duration: pred.duration,
            now,
        },
    );
    assert_eq!(sim_node, NodeId(3), "the simulator must chase the covering pool");
    assert_eq!(d.node, Some(sim_node.0), "live and simulator disagree on coverage");
}
