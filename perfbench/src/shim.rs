//! The timing shim: a [`Platform`] wrapper that forwards every hook to the
//! platform under test and times the call from outside.
//!
//! Nothing inside the program is instrumented. The shim reads only what a
//! platform exposes publicly: the Libra profiler's `is_trained` and
//! `train_micros`, and the control plane's action trace. A run through the
//! shim must be bit-identical to a bare run; the benchmark checks this on
//! every traced run.

use crate::stats::LogHist;
use libra_core::{Action, ControlPlane, LibraPlatform, Profiler};
use libra_sim::engine::{SimCtx, World};
use libra_sim::ids::{FunctionId, InvocationId, NodeId};
use libra_sim::invocation::{Actuals, Loan, Prediction};
use libra_sim::platform::{LoanEnd, Platform, PlatformOverheads, PlatformReport};
use libra_sim::time::{SimDuration, SimTime};
use std::time::Instant;

/// Read-only views into a platform's layers, for the shim's counters.
pub trait Layers {
    /// The demand profiler, if the platform has one.
    fn profiler(&self) -> Option<&Profiler> {
        None
    }

    /// The harvest control plane, if the platform has one.
    fn control(&self) -> Option<&ControlPlane> {
        None
    }

    /// Ask the control plane to keep its action trace (for loan counts).
    fn record_actions(&mut self) {}
}

impl Layers for LibraPlatform {
    fn profiler(&self) -> Option<&Profiler> {
        LibraPlatform::profiler(self)
    }

    fn control(&self) -> Option<&ControlPlane> {
        Some(self.core())
    }

    fn record_actions(&mut self) {
        self.enable_action_trace();
    }
}

impl Layers for libra_baselines::OpenWhiskDefault {}

/// The timed hooks, in report order.
pub const HOOKS: [&str; 10] = [
    "predict",
    "select_node",
    "on_start",
    "on_tick",
    "on_complete",
    "on_ping",
    "on_loan_ended",
    "on_oom",
    "prewarm_after_arrival",
    "warm_keep",
];

const PREDICT: usize = 0;
const SELECT_NODE: usize = 1;
const ON_START: usize = 2;
const ON_TICK: usize = 3;
const ON_COMPLETE: usize = 4;
const ON_PING: usize = 5;
const ON_LOAN_ENDED: usize = 6;
const ON_OOM: usize = 7;
const PREWARM: usize = 8;
const WARM_KEEP: usize = 9;

/// Calls and time spent in one hook.
#[derive(Clone, Debug, Default)]
pub struct HookStats {
    /// Calls made.
    pub calls: u64,
    /// Total time inside the hook, ns.
    pub ns: u64,
    /// Per-call durations.
    pub hist: LogHist,
}

impl HookStats {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
        self.hist.push(ns);
    }
}

/// Everything one traced rep measured at the platform boundary.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// Per-hook stats, indexed like [`HOOKS`].
    pub hooks: [HookStats; 10],
    /// Hooks not in [`HOOKS`] (crash/abort handling), ns.
    pub other_ns: u64,
    /// `select_node` calls that parked the invocation (`None`).
    pub parked: u64,
    /// `predict` calls that trained the profiler (first-seen function).
    pub trains: u64,
    /// Time in those calls, ns.
    pub train_ns: u64,
    /// `predict` calls served by a trained profiler.
    pub predicts: u64,
    /// Time in those calls, ns.
    pub predict_ns: u64,
    /// `on_complete` calls during which the profiler refit its forests.
    pub refits: u64,
    /// Time in those calls, ns.
    pub refit_ns: u64,
}

impl LayerStats {
    /// Total time inside the platform, ns.
    pub fn platform_ns(&self) -> u64 {
        self.hooks.iter().map(|h| h.ns).sum::<u64>() + self.other_ns
    }
}

/// A platform wrapped in the timing shim.
pub struct Timed<P> {
    inner: P,
    /// What the shim measured so far.
    pub stats: LayerStats,
}

impl<P: Platform + Layers> Timed<P> {
    /// Wrap `inner`; its control plane keeps an action trace from now on.
    pub fn new(mut inner: P) -> Self {
        inner.record_actions();
        Timed { inner, stats: LayerStats::default() }
    }

    /// The wrapped platform.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Loans the control plane opened (`Lend` actions) and loans its
    /// safeguard ended (`Revoke` for [`LoanEnd::Safeguard`]).
    pub fn loan_counts(&self) -> (u64, u64) {
        let Some(core) = self.inner.control() else { return (0, 0) };
        let (mut lends, mut safeguarded) = (0, 0);
        for a in core.action_trace() {
            match a {
                Action::Lend { .. } => lends += 1,
                Action::Revoke { reason: LoanEnd::Safeguard, .. } => safeguarded += 1,
                _ => {}
            }
        }
        (lends, safeguarded)
    }

    fn refits_so_far(&self) -> usize {
        self.inner.profiler().map_or(0, |p| p.train_micros.len())
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl<P: Platform + Layers> Platform for Timed<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn init(&mut self, world: &World) {
        let t = Instant::now();
        self.inner.init(world);
        self.stats.other_ns += ns_since(t);
    }

    fn overheads(&self) -> PlatformOverheads {
        self.inner.overheads()
    }

    fn predict(&mut self, world: &World, inv: InvocationId) -> Option<Prediction> {
        let f = world.inv(inv).func.idx();
        let training = self.inner.profiler().map(|p| !p.is_trained(f));
        let t = Instant::now();
        let out = self.inner.predict(world, inv);
        let ns = ns_since(t);
        self.stats.hooks[PREDICT].add(ns);
        match training {
            Some(true) => {
                self.stats.trains += 1;
                self.stats.train_ns += ns;
            }
            Some(false) => {
                self.stats.predicts += 1;
                self.stats.predict_ns += ns;
            }
            None => {}
        }
        out
    }

    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        let t = Instant::now();
        let out = self.inner.select_node(world, shard, inv);
        self.stats.hooks[SELECT_NODE].add(ns_since(t));
        if out.is_none() {
            self.stats.parked += 1;
        }
        out
    }

    fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        let t = Instant::now();
        self.inner.on_start(ctx, inv);
        self.stats.hooks[ON_START].add(ns_since(t));
    }

    fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        let t = Instant::now();
        self.inner.on_tick(ctx, inv);
        self.stats.hooks[ON_TICK].add(ns_since(t));
    }

    fn on_complete(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId, actuals: &Actuals) {
        let before = self.refits_so_far();
        let t = Instant::now();
        self.inner.on_complete(ctx, inv, actuals);
        let ns = ns_since(t);
        self.stats.hooks[ON_COMPLETE].add(ns);
        if self.refits_so_far() > before {
            self.stats.refits += 1;
            self.stats.refit_ns += ns;
        }
    }

    fn on_loan_ended(&mut self, ctx: &mut SimCtx<'_>, loan: &Loan, reason: LoanEnd) {
        let t = Instant::now();
        self.inner.on_loan_ended(ctx, loan, reason);
        self.stats.hooks[ON_LOAN_ENDED].add(ns_since(t));
    }

    fn on_oom(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        let t = Instant::now();
        self.inner.on_oom(ctx, inv);
        self.stats.hooks[ON_OOM].add(ns_since(t));
    }

    fn on_ping(&mut self, world: &World, node: NodeId) {
        let t = Instant::now();
        self.inner.on_ping(world, node);
        self.stats.hooks[ON_PING].add(ns_since(t));
    }

    fn on_node_crash(&mut self, ctx: &mut SimCtx<'_>, node: NodeId) {
        let t = Instant::now();
        self.inner.on_node_crash(ctx, node);
        self.stats.other_ns += ns_since(t);
    }

    fn on_abort(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        let t = Instant::now();
        self.inner.on_abort(ctx, inv);
        self.stats.other_ns += ns_since(t);
    }

    fn prewarm_after_arrival(&mut self, world: &World, func: FunctionId) -> Option<SimDuration> {
        let t = Instant::now();
        let out = self.inner.prewarm_after_arrival(world, func);
        self.stats.hooks[PREWARM].add(ns_since(t));
        out
    }

    fn warm_keep(&mut self, world: &World, func: FunctionId, idle_peers: usize) -> Option<SimTime> {
        let t = Instant::now();
        let out = self.inner.warm_keep(world, func, idle_peers);
        self.stats.hooks[WARM_KEEP].add(ns_since(t));
        out
    }

    fn report(&self) -> PlatformReport {
        self.inner.report()
    }
}
