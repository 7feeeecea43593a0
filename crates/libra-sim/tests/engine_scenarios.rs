//! Scenario tests for the engine's physics: lending rules, charge-based
//! admission, preemptive release under load, oversubscription scaling, and
//! the queueing/retry machinery.

use libra_sim::prelude::*;
use std::sync::Arc;

fn demand(cores: u64, mem: u64, secs: u64) -> Arc<ConstantDemand> {
    Arc::new(ConstantDemand(TrueDemand {
        cpu_peak_millis: cores * 1000,
        mem_peak_mb: mem,
        base_duration: SimDuration::from_secs(secs),
    }))
}

fn spec(name: &str, alloc_cores: u64, alloc_mem: u64, d: Arc<ConstantDemand>) -> FunctionSpec {
    FunctionSpec::new(name, ResourceVec::from_cores_mb(alloc_cores, alloc_mem), d)
}

/// First-fit placement + a scripted `on_start` action.
struct Scripted<F: FnMut(&mut SimCtx<'_>, InvocationId)> {
    on_start: F,
}

impl<F: FnMut(&mut SimCtx<'_>, InvocationId)> Platform for Scripted<F> {
    fn name(&self) -> String {
        "scripted".into()
    }
    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        let need = world.inv(inv).nominal;
        world.node_ids().find(|&n| need.fits_within(&world.free_in_shard(n, shard)))
    }
    fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        (self.on_start)(ctx, inv);
    }
}

#[test]
fn lend_is_refused_across_nodes() {
    // Two 4-core nodes; two 4-core functions land on different nodes.
    let funcs =
        vec![spec("a", 4, 1024, demand(1, 128, 10)), spec("b", 4, 1024, demand(8, 128, 10))];
    let sim =
        Simulation::new(funcs, vec![ResourceVec::from_cores_mb(4, 4096); 2], SimConfig::default());
    let mut trace = Trace::new();
    trace.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
    trace.push(SimTime::ZERO, FunctionId(1), InputMeta::new(1, 0));

    let mut lend_results = Vec::new();
    let mut p = Scripted {
        on_start: |ctx: &mut SimCtx<'_>, inv: InvocationId| {
            if inv == InvocationId(0) {
                ctx.set_own_grant(inv, ResourceVec::new(1000, 1024));
            } else {
                lend_results.push(ctx.lend(InvocationId(0), inv, ResourceVec::new(1000, 0)));
            }
        },
    };
    let res = sim.run(&trace, &mut p);
    assert_eq!(res.records.len(), 2);
    assert_eq!(lend_results, vec![false], "cross-node lending must be refused");
}

#[test]
fn partial_return_loan_gives_back_exactly_what_was_asked() {
    let funcs = vec![
        spec("donor", 4, 1024, demand(1, 128, 30)),
        spec("taker", 2, 1024, demand(6, 128, 10)),
    ];
    let sim =
        Simulation::new(funcs, vec![ResourceVec::from_cores_mb(8, 8192)], SimConfig::default());
    let mut trace = Trace::new();
    trace.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
    trace.push(SimTime::ZERO, FunctionId(1), InputMeta::new(1, 0));

    let mut observed = Vec::new();
    let mut p = Scripted {
        on_start: |ctx: &mut SimCtx<'_>, inv: InvocationId| {
            if inv == InvocationId(0) {
                ctx.set_own_grant(inv, ResourceVec::new(1000, 1024));
            } else {
                assert!(ctx.lend(InvocationId(0), inv, ResourceVec::new(3000, 0)));
                // give back a third of it
                let ret = ctx.return_loan(inv, InvocationId(0), ResourceVec::new(1000, 0));
                observed.push(ret);
                observed.push(ctx.inv(inv).borrowed_total());
            }
        },
    };
    let _ = sim.run(&trace, &mut p);
    assert_eq!(observed[0], ResourceVec::new(1000, 0), "exact partial return");
    assert_eq!(observed[1], ResourceVec::new(2000, 0), "remaining loan volume");
}

#[test]
fn preemptive_release_restores_full_speed_immediately() {
    // One function throttled by over-harvesting, then rescued via
    // preemptive release at the first monitor tick.
    let funcs = vec![spec("f", 4, 1024, demand(4, 128, 8))];
    let sim =
        Simulation::new(funcs, vec![ResourceVec::from_cores_mb(8, 8192)], SimConfig::default());
    let mut trace = Trace::new();
    trace.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));

    struct Rescue {
        released: bool,
    }
    impl Platform for Rescue {
        fn name(&self) -> String {
            "rescue".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            let need = world.inv(inv).nominal;
            world.node_ids().find(|&n| need.fits_within(&world.free_in_shard(n, shard)))
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            ctx.set_own_grant(inv, ResourceVec::new(1000, 1024)); // 4x throttle
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            let u = ctx.usage(inv);
            if u.cpu_throttled && !self.released {
                self.released = true;
                let broken = ctx.preemptive_release(inv);
                assert!(broken.is_empty(), "nothing was lent out");
            }
        }
    }
    let res = sim.run(&trace, &mut Rescue { released: false });
    let r = &res.records[0];
    assert!(r.flags.safeguarded);
    // 8s at full speed + ~0.1s throttled window: well under the 32s
    // fully-throttled run.
    assert!(r.exec.as_secs_f64() < 9.0, "exec {:.1}s", r.exec.as_secs_f64());
    assert!(r.speedup > -0.1, "speedup {:.2}", r.speedup);
}

#[test]
fn harvested_capacity_admits_more_invocations() {
    // Node fits exactly two 4-core nominal reservations. With harvesting
    // (each invocation really uses 1 core), the third invocation gets in as
    // soon as grants shrink — no waiting for completions.
    let funcs = vec![spec("f", 4, 1024, demand(1, 128, 10))];
    let sim =
        Simulation::new(funcs, vec![ResourceVec::from_cores_mb(8, 8192)], SimConfig::default());
    let mut trace = Trace::new();
    for i in 0..4 {
        trace.push(SimTime(i), FunctionId(0), InputMeta::new(1, i));
    }

    // Without harvesting: 4 × 4-core reservations on an 8-core node → two
    // waves → completion ≈ 21s.
    let baseline = Simulation::new(
        vec![spec("f", 4, 1024, demand(1, 128, 10))],
        vec![ResourceVec::from_cores_mb(8, 8192)],
        SimConfig::default(),
    )
    .run(&trace, &mut NullPlatform);
    assert!(baseline.completion_time.as_secs_f64() > 19.0);

    // With harvesting at start: grants drop to ~1 core each → all four run
    // concurrently → completion ≈ 11s.
    let mut p = Scripted {
        on_start: |ctx: &mut SimCtx<'_>, inv: InvocationId| {
            ctx.set_own_grant(inv, ResourceVec::new(1000, 256));
        },
    };
    let harvested = sim.run(&trace, &mut p);
    assert!(
        harvested.completion_time.as_secs_f64() < 13.0,
        "harvest-admitted completion {:.1}s",
        harvested.completion_time.as_secs_f64()
    );
}

#[test]
fn oversubscription_scales_rates_proportionally() {
    // Two 4-core invocations harvested to 1 core each on an 8-core node,
    // then both preemptively released back to 4 cores while a third 4-core
    // invocation (admitted into the harvested space) still runs: Σ grants =
    // 12 > 8 → everyone runs at 2/3 speed until someone finishes.
    let funcs = vec![spec("f", 4, 1024, demand(4, 128, 6))];
    let sim =
        Simulation::new(funcs, vec![ResourceVec::from_cores_mb(8, 8192)], SimConfig::default());
    let mut trace = Trace::new();
    for i in 0..3 {
        trace.push(SimTime(i), FunctionId(0), InputMeta::new(1, i));
    }

    struct HarvestThenRestore;
    impl Platform for HarvestThenRestore {
        fn name(&self) -> String {
            "htr".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            let need = world.inv(inv).nominal;
            world.node_ids().find(|&n| need.fits_within(&world.free_in_shard(n, shard)))
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            if inv.0 < 2 {
                ctx.set_own_grant(inv, ResourceVec::new(1000, 256));
            }
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            // restore at ~1s
            if inv.0 < 2
                && ctx.now() > SimTime::from_secs(1)
                && ctx.inv(inv).own_grant.cpu_millis < 4000
            {
                let _ = ctx.preemptive_release(inv);
            }
        }
    }
    let res = sim.run(&trace, &mut HarvestThenRestore);
    assert_eq!(res.records.len(), 3);
    // Everyone finishes; no invocation is starved outright (rate floor) and
    // the run ends in bounded time despite Σ grants > capacity.
    assert!(res.completion_time.as_secs_f64() < 40.0);
    // During the oversubscribed window rates scale < 1, so execs exceed the
    // 6s base for the restored pair.
    let slowest = res.records.iter().map(|r| r.exec.as_secs_f64()).fold(0.0, f64::max);
    assert!(slowest > 6.4, "proportional sharing must show up, slowest {slowest:.2}s");
}

#[test]
fn joining_an_oversubscribed_node_slows_every_resident() {
    // Two 4-core invocations are harvested to 1 core at start, which admits
    // a third 4-core and a 2-core one into the freed space; both pairs'
    // first ticks restore them before the late pair starts. Each late start
    // then oversubscribes the node (Σ running = 12, then 14 cores on 8), so
    // the early pair must slow down the moment the others join, not only
    // when their own allocation next changes.
    let funcs = vec![spec("f", 4, 1024, demand(4, 128, 6)), spec("g", 2, 512, demand(2, 128, 6))];
    let sim =
        Simulation::new(funcs, vec![ResourceVec::from_cores_mb(8, 8192)], SimConfig::default());
    let mut trace = Trace::new();
    for (i, f) in [0, 0, 0, 1].into_iter().enumerate() {
        trace.push(SimTime(i as u64), FunctionId(f), InputMeta::new(1, i as u64));
    }

    struct HarvestThenRestoreEarly;
    impl Platform for HarvestThenRestoreEarly {
        fn name(&self) -> String {
            "htr-early".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            let need = world.inv(inv).nominal;
            world.node_ids().find(|&n| need.fits_within(&world.free_in_shard(n, shard)))
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            if inv.0 < 2 {
                ctx.set_own_grant(inv, ResourceVec::new(1000, 256));
            }
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            if inv.0 < 2 && ctx.inv(inv).own_grant.cpu_millis < 4000 {
                let _ = ctx.preemptive_release(inv);
            }
        }
    }
    let res = sim.run(&trace, &mut HarvestThenRestoreEarly);
    assert_eq!(res.records.len(), 4);
    let start = |i: u32| {
        let r = res.records.iter().find(|r| r.inv == InvocationId(i)).unwrap();
        (r.arrival + r.latency).as_micros() - r.exec.as_micros()
    };
    assert!(start(2) > start(0) + 300_000, "the late pair starts after the restores");
    // Unslowed, the early pair would finish ~6.1 s after starting; sharing
    // 8 cores among 14 allocated stretches that past 8 s.
    for r in res.records.iter().filter(|r| r.inv.0 < 2) {
        let exec = r.exec.as_secs_f64();
        assert!(exec > 8.0, "{:?} ignored the oversubscribed join: exec {exec:.2}s", r.inv);
    }
}

#[test]
fn exec_start_keeps_the_finish_tie_order_of_a_full_refresh() {
    // A starts at 101.302 ms (1 ms front end, 302 µs decision, 100 ms cold
    // start) and runs exactly until the 1.0 s utilisation sample, whose event
    // is queued at 0.5 s, after A's Finish. An exec start on A's node
    // refreshes its residents, which orders A's Finish behind every event
    // already queued for the same instant, even when nothing is re-pushed.
    let a =
        TrueDemand { cpu_peak_millis: 2000, mem_peak_mb: 128, base_duration: SimDuration(898_698) };
    let funcs = vec![
        FunctionSpec::new("a", ResourceVec::from_cores_mb(2, 512), Arc::new(ConstantDemand(a))),
        spec("b", 2, 512, demand(2, 128, 2)),
    ];
    let sample_at_1s = |b_arrives: SimTime| {
        let config =
            SimConfig { cold_start: SimDuration::from_millis(100), ..SimConfig::default() };
        let sim = Simulation::new(funcs.clone(), vec![ResourceVec::from_cores_mb(8, 8192)], config);
        let mut trace = Trace::new();
        trace.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        trace.push(b_arrives, FunctionId(1), InputMeta::new(1, 1));
        let res = sim.run(&trace, &mut NullPlatform);
        let a = res.records.iter().find(|r| r.inv == InvocationId(0)).unwrap();
        assert_eq!((a.arrival + a.latency).as_micros(), 1_000_000, "A must end on the sample");
        res.util.iter().find(|u| u.at == SimTime::from_secs(1)).unwrap().cpu_used_millis
    };
    let (b_after, b_before) = (SimTime::from_millis(1500), SimTime::from_millis(600));
    assert_eq!(sample_at_1s(b_after), 0, "A's Finish was queued first, so it runs first");
    assert_eq!(sample_at_1s(b_before), 4000, "B's start moved A's Finish behind the sample");
}

#[test]
fn decision_latency_grows_with_cluster_size() {
    let funcs = vec![spec("f", 1, 256, demand(1, 64, 1))];
    let mut results = Vec::new();
    for nodes in [1usize, 64] {
        let sim = Simulation::new(
            funcs.clone(),
            vec![ResourceVec::from_cores_mb(8, 8192); nodes],
            SimConfig::default(),
        );
        let mut trace = Trace::new();
        trace.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let res = sim.run(&trace, &mut NullPlatform);
        results.push(res.mean_sched_delay);
    }
    assert!(results[1] > results[0], "per-node decision cost must show: {results:?}");
}

#[test]
fn queued_invocations_keep_arrival_order_per_shard() {
    // A saturated node: later arrivals must not overtake earlier ones of the
    // same shard queue (FIFO service).
    let funcs = vec![spec("f", 8, 2048, demand(8, 256, 2))];
    let sim =
        Simulation::new(funcs, vec![ResourceVec::from_cores_mb(8, 8192)], SimConfig::default());
    let mut trace = Trace::new();
    for i in 0..5 {
        trace.push(SimTime(i * 10), FunctionId(0), InputMeta::new(1, i));
    }
    let res = sim.run(&trace, &mut NullPlatform);
    let mut by_arrival: Vec<_> = res.records.iter().collect();
    by_arrival.sort_by_key(|r| r.arrival);
    let ends: Vec<_> = by_arrival.iter().map(|r| r.arrival + r.latency).collect();
    assert!(ends.windows(2).all(|w| w[0] <= w[1]), "FIFO violated: {ends:?}");
}
