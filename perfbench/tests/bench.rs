//! Tests of the benchmark's own code: the timing shim changes nothing the
//! simulator computes, and every metric the benchmark prints is one that
//! `BENCHMARK.json` names.

use libra_baselines::OpenWhiskDefault;
use libra_core::{LibraConfig, LibraPlatform};
use libra_perfbench::report::{per_layer, Outcome, END_TO_END};
use libra_perfbench::shim::{Layers, Timed, HOOKS};
use libra_perfbench::sim::fingerprint;
use libra_sim::engine::{SimConfig, Simulation, World};
use libra_sim::ids::{FunctionId, InvocationId, NodeId};
use libra_sim::platform::{Platform, PlatformOverheads};
use libra_sim::time::{SimDuration, SimTime};
use libra_workloads::{sebs_suite, testbeds, TraceGen, ALL_APPS};

/// The `single` seed workload (165 invocations on one node), run under
/// `platform`; returns the whole result as text.
fn single(platform: &mut dyn Platform) -> String {
    let trace = TraceGen::standard(&ALL_APPS, 42).single_set();
    let sim = Simulation::new(sebs_suite(), testbeds::single_node(), SimConfig::default());
    let result = sim.run(&trace, platform);
    assert_eq!(result.records.len(), trace.len());
    format!("{result:?}|{}", fingerprint(&result, &platform.report()))
}

#[test]
fn shimmed_libra_matches_bare_libra_on_single() {
    let bare = single(&mut LibraPlatform::new(LibraConfig::libra()));
    let mut timed = Timed::new(LibraPlatform::new(LibraConfig::libra()));
    let shimmed = single(&mut timed);
    assert_eq!(bare, shimmed, "the shim changed the simulation");
    let s = &timed.stats;
    assert_eq!(s.hooks[0].calls, s.trains + s.predicts, "every predict is a train or a predict");
    assert!(s.trains >= 1 && s.trains <= 10, "{} trains for ten functions", s.trains);
    let (lends, _) = timed.loan_counts();
    assert!(lends > 0, "Libra lends on the single set");
}

#[test]
fn shimmed_default_matches_bare_default_on_single() {
    let bare = single(&mut OpenWhiskDefault);
    let mut timed = Timed::new(OpenWhiskDefault);
    assert_eq!(bare, single(&mut timed));
    assert_eq!(timed.stats.trains + timed.stats.refits, 0, "Default has no profiler");
    assert!(timed.stats.hooks[1].calls >= 165, "every invocation is placed");
}

/// `Default` with its own overheads, eager prewarms and a short keep-alive:
/// it overrides the hooks whose defaults would hide a shim that fails to
/// forward them.
struct Eager;

impl Layers for Eager {}

impl Platform for Eager {
    fn name(&self) -> String {
        "eager".into()
    }

    fn overheads(&self) -> PlatformOverheads {
        PlatformOverheads { frontend: SimDuration(700), ..PlatformOverheads::default() }
    }

    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        OpenWhiskDefault.select_node(world, shard, inv)
    }

    fn prewarm_after_arrival(&mut self, _: &World, _: FunctionId) -> Option<SimDuration> {
        Some(SimDuration::from_secs(2))
    }

    fn warm_keep(&mut self, world: &World, _: FunctionId, idle_peers: usize) -> Option<SimTime> {
        (idle_peers == 0).then(|| world.now() + SimDuration::from_secs(5))
    }
}

#[test]
fn shim_forwards_overheads_and_warm_lifecycle_hooks() {
    let bare = single(&mut Eager);
    let mut timed = Timed::new(Eager);
    assert_eq!(bare, single(&mut timed));
    assert!(bare.contains("prewarms: ") && !bare.contains("prewarms: 0,"), "Eager prewarms");
    let calls =
        |hook: &str| timed.stats.hooks[HOOKS.iter().position(|h| *h == hook).unwrap()].calls;
    assert!(calls("prewarm_after_arrival") >= 165 && calls("warm_keep") > 0);
}

/// `(name, unit)` of each metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| {
        let rest = &obj[obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2..];
        rest.split('"').nth(1).expect("string value").to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn printed(out: &Outcome, traced: bool) -> Vec<(String, String)> {
    out.metrics(traced).into_iter().map(|(n, u, _)| (n, u.to_string())).collect()
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    let mut out = Outcome { attempted: 1, ..Outcome::default() };
    for (name, _) in END_TO_END {
        out.set(name, 1.0);
    }
    assert_eq!(printed(&out, false), declared("end_to_end"));
    assert_eq!(printed(&out, true), declared("per_layer"));
    assert_eq!(per_layer().len(), declared("per_layer").len());
    assert!(out.json(false).starts_with("{\"correct\": true"));
}
