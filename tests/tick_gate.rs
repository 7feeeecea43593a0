//! The monitor-tick gate is observably inert.
//!
//! The engine runs the per-invocation `MonitorTick` chain only for platforms
//! whose `PlatformOverheads::monitor` is set. OpenWhisk Default and
//! `NullPlatform` never harvest, so they turn it off. Forcing `monitor` back
//! on around either must change nothing but the event count: the same
//! records, utilisation samples, summary, warm/cold counts and fault
//! counters, on the golden-trace seed workloads, fault-free and under a
//! chaos plan that jitters ticks.

use libra::baselines::OpenWhiskDefault;
use libra::chaos::{build_plan, ChaosConfig, ClusterShape};
use libra::sim::engine::{NullPlatform, SimConfig, Simulation, World};
use libra::sim::fault::{FaultKind, FaultPlan};
use libra::sim::ids::{InvocationId, NodeId};
use libra::sim::metrics::RunResult;
use libra::sim::platform::{Platform, PlatformOverheads};
use libra::sim::resources::ResourceVec;
use libra::sim::time::SimDuration;
use libra::sim::trace::Trace;
use libra::workloads::trace::TraceGen;
use libra::workloads::{sebs_suite, testbeds, ALL_APPS};

/// Runs `P` with the monitor forced on. Both wrapped platforms override
/// only `name`, `overheads` and `select_node`; every other hook keeps its
/// default here as it does on the bare platform.
struct Monitored<P>(P);

impl<P: Platform> Platform for Monitored<P> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn overheads(&self) -> PlatformOverheads {
        PlatformOverheads { monitor: true, ..self.0.overheads() }
    }
    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        self.0.select_node(world, shard, inv)
    }
}

struct Scenario {
    name: &'static str,
    trace: Trace,
    nodes: Vec<ResourceVec>,
    config: SimConfig,
    faults: FaultPlan,
}

/// The two `tests/golden_trace.rs` workloads; the chaos one also records
/// execution-timeline spans, so they are compared too.
fn scenarios() -> Vec<Scenario> {
    let single = Scenario {
        name: "single_set seed=42 single-node",
        trace: TraceGen::standard(&ALL_APPS, 42).single_set(),
        nodes: testbeds::single_node(),
        config: SimConfig::default(),
        faults: FaultPlan::empty(),
    };
    let trace = TraceGen::standard(&ALL_APPS, 42).poisson(200, 120.0);
    let span = trace.entries.last().map(|e| e.at).unwrap_or_default();
    let chaos = ChaosConfig {
        node_crashes: 2.0,
        invocation_aborts: 5.0,
        shard_stalls: 1.5,
        ping_drops: 8.0,
        ping_delays: 4.0,
        tick_jitters: 6.0,
        ..ChaosConfig::quiet(1000, SimDuration(span.0) + SimDuration::from_secs(5))
    };
    let shape = ClusterShape { nodes: 4, shards: 4, invocations: trace.len() as u32 };
    let faults = build_plan(&chaos, &shape);
    assert!(
        faults.events().iter().any(|f| matches!(f.kind, FaultKind::TickJitter(_))),
        "the chaos plan must jitter ticks"
    );
    let multi = Scenario {
        name: "poisson(200,120rpm) seed=42 multi-node chaos",
        trace,
        nodes: testbeds::multi_node(),
        config: SimConfig { shards: 4, trace_spans: true, ..SimConfig::default() },
        faults,
    };
    vec![single, multi]
}

fn run(s: &Scenario, platform: &mut dyn Platform) -> RunResult {
    Simulation::new(sebs_suite(), s.nodes.clone(), s.config.clone())
        .run_with_faults(&s.trace, platform, &s.faults)
}

/// Every field of a run except the event-queue counters.
fn observable(r: &RunResult) -> String {
    format!("{:?}", RunResult { event_pushes: 0, event_pops: 0, ..r.clone() })
}

fn assert_gate_is_inert<P: Platform>(mut make: impl FnMut() -> P) {
    for s in scenarios() {
        let bare = run(&s, &mut make());
        let ticked = run(&s, &mut Monitored(make()));
        assert_eq!(
            bare.records.len() as u64 + bare.aborted,
            s.trace.len() as u64,
            "{}: every arrival must complete or abort",
            s.name
        );
        assert!(
            observable(&bare) == observable(&ticked),
            "{} under {}: ticks changed the run",
            s.name,
            bare.platform
        );
        assert!(
            bare.event_pushes < ticked.event_pushes,
            "{}: the bare run must skip the ticks ({} vs {} pushes)",
            s.name,
            bare.event_pushes,
            ticked.event_pushes
        );
    }
}

#[test]
fn default_without_ticks_matches_default_with_ticks() {
    assert!(!OpenWhiskDefault.overheads().monitor);
    assert_gate_is_inert(|| OpenWhiskDefault);
}

#[test]
fn null_platform_without_ticks_matches_null_platform_with_ticks() {
    assert!(!NullPlatform.overheads().monitor);
    assert_gate_is_inert(|| NullPlatform);
}
