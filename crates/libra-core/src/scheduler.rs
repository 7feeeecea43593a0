//! Timeliness-aware function scheduling (§6).
//!
//! The scheduler classifies invocations by comparing user-defined resources
//! with the profiler's estimates (§6.3):
//!
//! * **non-accelerable** (user allocation covers the demand): hashed to a
//!   stable node for warm-container locality, rehashing on full nodes;
//! * **accelerable** (demand exceeds the allocation): greedily sent to the
//!   node with the maximum *weighted demand coverage* (§6.2) among those
//!   with room for the user allocation.
//!
//! The rule lives here once ([`hash_home`], [`probe`], [`coverage_argmax`]);
//! the live shards (`sharding`) and the batch greedy (`batch`) call it too.
//!
//! Every scheduler shard sees the same per-node pool status, learned from
//! piggybacked health pings (§6.4) — snapshots are therefore slightly stale,
//! exactly like production.

use crate::coverage::demand_coverage;
use crate::pool::PoolSnapshot;
use libra_sim::engine::World;
use libra_sim::ids::{InvocationId, NodeId};
use libra_sim::resources::ResourceVec;
use libra_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A pool snapshot older than this (i.e. this many missed health pings at
/// the default 500 ms interval) is stale: the node may be partitioned or
/// dead, and its advertised idle resources cannot be trusted.
pub const STALE_VIEW_AFTER: SimDuration = SimDuration(2_000_000);

/// The scheduler-side view of cluster pool state, refreshed by health pings.
#[derive(Debug, Default)]
pub struct SchedView {
    /// Last-known pool snapshot per node.
    pub snapshots: BTreeMap<NodeId, PoolSnapshot>,
    /// When each node's last health ping arrived.
    pub pings: BTreeMap<NodeId, SimTime>,
}

impl SchedView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a health ping from `node` at `now`.
    pub fn note_ping(&mut self, node: NodeId, now: SimTime) {
        self.pings.insert(node, now);
    }

    /// True when the node has pinged before but not recently — missed pings
    /// mean its snapshot describes a pool that may no longer exist. A node
    /// that has never pinged is *not* stale: at startup there is simply no
    /// snapshot yet, which the coverage loop already treats as empty.
    pub fn is_stale(&self, node: NodeId, now: SimTime) -> bool {
        self.pings.get(&node).is_some_and(|&last| now.since(last) > STALE_VIEW_AFTER)
    }

    /// True when every known node's view is stale — the scheduler has lost
    /// contact with the pool layer entirely and must stop trusting it.
    pub fn all_stale(&self, now: SimTime) -> bool {
        !self.pings.is_empty() && self.pings.keys().all(|&n| self.is_stale(n, now))
    }
}

/// Classification of an invocation (§6.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvClass {
    /// User-defined resources cover (or exceed) the estimated demand.
    NonAccelerable,
    /// Estimated demand exceeds the user-defined resources in some dimension;
    /// carries the extra volume wanted.
    Accelerable(ResourceVec),
}

/// Classify from the prediction stored on the invocation (engine stores it
/// at arrival). Unprofiled invocations are non-accelerable by definition.
pub fn classify(world: &World, inv: InvocationId) -> InvClass {
    let rec = world.inv(inv);
    match rec.pred {
        None => InvClass::NonAccelerable,
        Some(p) => {
            let extra = p.peak().saturating_sub(&rec.nominal);
            if extra.is_zero() {
                InvClass::NonAccelerable
            } else {
                InvClass::Accelerable(extra)
            }
        }
    }
}

/// A pluggable node-selection strategy. Libra's coverage-greedy algorithm,
/// OpenWhisk's hashing, and the RR/JSQ/MWS baselines of §8.4 all implement
/// this; the surrounding platform (profiler + harvesting + safeguard) stays
/// identical, which is how the paper isolates the scheduling comparison.
pub trait NodeSelector: Send {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Pick a node for `inv` within `shard`, or `None` to park it until
    /// capacity frees up.
    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        view: &SchedView,
        alpha: f64,
    ) -> Option<NodeId>;
}

/// Deterministic function-id hash (splitmix), the one placement hash.
fn hash_func(f: u32) -> u64 {
    let mut z = (f as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The hash home of `func` among node indices `0..n` (0 when `n == 0`).
pub fn hash_home(func: u32, n: usize) -> usize {
    (hash_func(func) % n.max(1) as u64) as usize
}

/// Linear probe over node indices `0..n`: the first index, starting at
/// `start` and wrapping around, whose node `fits`.
pub fn probe(start: usize, n: usize, mut fits: impl FnMut(usize) -> bool) -> Option<usize> {
    (0..n).map(|k| (start + k) % n).find(|&i| fits(i))
}

/// Greedy argmax over node indices `0..n` of `coverage` (`None`: no room),
/// with the winning coverage. A node wins only by beating the best so far by
/// more than 1e-12, so ties go to the lowest index.
pub fn coverage_argmax(
    n: usize,
    mut coverage: impl FnMut(usize) -> Option<f64>,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in (0..n).filter_map(|i| Some((i, coverage(i)?))) {
        if best.is_none_or(|(_, bc)| c > bc + 1e-12) {
            best = Some((i, c));
        }
    }
    best
}

fn node_at(i: usize) -> Option<NodeId> {
    u32::try_from(i).ok().map(NodeId)
}

/// The node at index `i` if `need` fits its slice in `shard`.
fn fitting_node(world: &World, shard: usize, need: ResourceVec, i: usize) -> Option<NodeId> {
    node_at(i).filter(|&node| need.fits_within(&world.free_in_shard(node, shard)))
}

/// Hash with linear probing: the first node (starting at the function's hash
/// home) whose shard slice fits the user allocation. This is both the
/// OpenWhisk default algorithm and Libra's path for non-accelerable
/// invocations.
pub fn hash_probe(world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
    let rec = world.inv(inv);
    let n = world.num_nodes();
    probe(hash_home(rec.func.0, n), n, |i| fitting_node(world, shard, rec.nominal, i).is_some())
        .and_then(node_at)
}

/// OpenWhisk's default algorithm as a pluggable selector: pure
/// function-hashing with linear probing for every invocation (baseline 1 of
/// §8.4).
#[derive(Debug, Default)]
pub struct HashSelector;

impl NodeSelector for HashSelector {
    fn name(&self) -> &'static str {
        "Default"
    }

    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        _view: &SchedView,
        _alpha: f64,
    ) -> Option<NodeId> {
        hash_probe(world, shard, inv)
    }
}

/// Libra's scheduler: hashing for non-accelerable invocations, greedy
/// maximum weighted demand coverage for accelerable ones (§6.3).
#[derive(Debug, Default)]
pub struct CoverageSelector;

impl NodeSelector for CoverageSelector {
    fn name(&self) -> &'static str {
        "libra"
    }

    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        view: &SchedView,
        alpha: f64,
    ) -> Option<NodeId> {
        match classify(world, inv) {
            InvClass::NonAccelerable => hash_probe(world, shard, inv),
            InvClass::Accelerable(extra) => {
                let rec = world.inv(inv);
                let Some(pred) = rec.pred else {
                    // Accelerable implies a prediction; if the record lost
                    // it, place like a non-accelerable invocation.
                    debug_assert!(false, "accelerable {inv:?} without prediction");
                    return hash_probe(world, shard, inv);
                };
                let now = world.now();
                // Lost contact with every pool: stop chasing coverage and
                // fall back to the non-accelerable placement path, which
                // needs no pool knowledge at all.
                if view.all_stale(now) {
                    return hash_probe(world, shard, inv);
                }
                let empty = PoolSnapshot::new();
                coverage_argmax(world.num_nodes(), |i| {
                    let node = fitting_node(world, shard, rec.nominal, i)?;
                    // A stale snapshot describes a pool that may be gone
                    // (crashed node, dropped pings): treat it as empty.
                    let fresh = view.snapshots.get(&node).filter(|_| !view.is_stale(node, now));
                    let snap = fresh.unwrap_or(&empty);
                    Some(demand_coverage(snap, extra, now, pred.duration, alpha))
                })
                .and_then(|(i, _)| node_at(i))
            }
        }
    }
}

/// Timeliness-blind ablation of Libra's scheduler: accelerable invocations
/// chase the node with the largest idle *volume*, ignoring expiries. Exists
/// to quantify how much the time dimension of demand coverage (§6.2) is
/// worth; not part of the paper's system.
#[derive(Debug, Default)]
pub struct VolumeSelector;

impl NodeSelector for VolumeSelector {
    fn name(&self) -> &'static str {
        "volume-only"
    }

    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        view: &SchedView,
        _alpha: f64,
    ) -> Option<NodeId> {
        match classify(world, inv) {
            InvClass::NonAccelerable => hash_probe(world, shard, inv),
            InvClass::Accelerable(_) => {
                let need = world.inv(inv).nominal;
                coverage_argmax(world.num_nodes(), |i| {
                    let node = fitting_node(world, shard, need, i)?;
                    let vol: u64 = view
                        .snapshots
                        .get(&node)
                        .map(|s| s.iter().map(|e| e.cpu_idle_millis).sum())
                        .unwrap_or(0);
                    Some(vol as f64) // exact below 2^53: the margin is a strict `>`
                })
                .and_then(|(i, _)| node_at(i))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_sim::prelude::*;
    use std::sync::Arc;

    fn build_world(nodes: usize) -> Simulation {
        let model = Arc::new(ConstantDemand(TrueDemand {
            cpu_peak_millis: 1000,
            mem_peak_mb: 128,
            base_duration: SimDuration::from_secs(1),
        }));
        let funcs = vec![
            FunctionSpec::new("a", ResourceVec::from_cores_mb(2, 512), model.clone()),
            FunctionSpec::new("b", ResourceVec::from_cores_mb(2, 512), model),
        ];
        Simulation::new(
            funcs,
            vec![ResourceVec::from_cores_mb(8, 8192); nodes],
            SimConfig::default(),
        )
    }

    /// Drives one arrival through a custom platform so `world.inv` exists.
    struct Probe {
        selected: Vec<NodeId>,
        pred: Option<Prediction>,
    }

    impl Platform for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn predict(&mut self, _w: &World, _i: InvocationId) -> Option<Prediction> {
            self.pred
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            let mut sel = CoverageSelector;
            let view = SchedView::new();
            let n = sel.select(world, shard, inv, &view, 0.9);
            if let Some(node) = n {
                self.selected.push(node);
            }
            n
        }
    }

    #[test]
    fn same_function_hashes_to_same_node() {
        let sim = build_world(4);
        let mut t = Trace::new();
        for i in 0..6 {
            t.push(SimTime::from_secs(i * 3), FunctionId(0), InputMeta::new(1, i));
        }
        let mut p = Probe { selected: Vec::new(), pred: None };
        let res = sim.run(&t, &mut p);
        assert_eq!(res.records.len(), 6);
        assert!(
            p.selected.windows(2).all(|w| w[0] == w[1]),
            "non-accelerable invocations of one function stay on one node: {:?}",
            p.selected
        );
    }

    #[test]
    fn classify_uses_prediction() {
        let sim = build_world(1);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        // prediction above nominal -> accelerable
        struct C {
            seen: Option<InvClass>,
        }
        impl Platform for C {
            fn name(&self) -> String {
                "c".into()
            }
            fn predict(&mut self, _w: &World, _i: InvocationId) -> Option<Prediction> {
                Some(Prediction {
                    cpu_millis: 4000,
                    mem_mb: 128,
                    duration: SimDuration::from_secs(1),
                    path: PredictionPath::Ml,
                })
            }
            fn select_node(
                &mut self,
                world: &World,
                shard: usize,
                inv: InvocationId,
            ) -> Option<NodeId> {
                self.seen = Some(classify(world, inv));
                hash_probe(world, shard, inv)
            }
        }
        let mut c = C { seen: None };
        sim.run(&t, &mut c);
        assert_eq!(c.seen, Some(InvClass::Accelerable(ResourceVec::new(2000, 0))));
    }

    #[test]
    fn hash_probe_falls_through_full_nodes() {
        // Fill node capacity via long-running invocations, then check probing.
        let sim = build_world(2);
        let mut t = Trace::new();
        // Four 2-core invocations of fn 0 fill its home node's 8-core slice;
        // the fifth must land elsewhere.
        for i in 0..5 {
            t.push(SimTime(i), FunctionId(0), InputMeta::new(1, i));
        }
        struct H {
            nodes: Vec<NodeId>,
        }
        impl Platform for H {
            fn name(&self) -> String {
                "h".into()
            }
            fn select_node(
                &mut self,
                world: &World,
                shard: usize,
                inv: InvocationId,
            ) -> Option<NodeId> {
                let n = hash_probe(world, shard, inv);
                if let Some(node) = n {
                    self.nodes.push(node);
                }
                n
            }
        }
        let mut h = H { nodes: Vec::new() };
        sim.run(&t, &mut h);
        let first = h.nodes[0];
        assert!(h.nodes[..4].iter().all(|&n| n == first));
        assert_ne!(h.nodes[4], first, "fifth invocation must rehash to the other node");
    }
}
