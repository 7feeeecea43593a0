//! The simulator workloads: set-up, timed reps, correctness checks and the
//! metrics they yield.
//!
//! A run simulates a fixed set of request streams, seeded from the run's
//! seed, so the simulated statistics (means over the streams) are
//! a deterministic function of the seed while depending on more than one
//! stream's luck. The streams are simulated again, in order, while the run's
//! time lasts; repeats must reproduce the first pass bit for bit.

use crate::report::{peak_rss_mb, reset_peak_rss, Outcome};
use crate::shim::{Layers, Timed, HOOKS};
use crate::stats::{median, tail_percentile};
use libra_baselines::OpenWhiskDefault;
use libra_core::{LibraConfig, LibraPlatform};
use libra_sim::engine::{SimConfig, Simulation};
use libra_sim::metrics::{MetricsMode, RunResult, SKETCH_CAPACITY};
use libra_sim::platform::{Platform, PlatformReport};
use libra_sim::trace::Trace;
use libra_workloads::trace::HugeTier;
use libra_workloads::{sebs_suite, testbeds, TraceGen, ALL_APPS};
use std::time::{Duration, Instant};

/// A simulator workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimWorkload {
    /// OpenWhisk `Default` on prefixes of the `huge` tier.
    DefaultHuge,
    /// Full Libra on the paper's ten SeBS functions over 50 Jetstream nodes.
    LibraSebs,
}

/// Arrival rate of `libra-sebs`, requests per minute.
const LIBRA_SEBS_RPM: f64 = 600.0;
/// Seed of the deployed function catalogue: the functions' input datasets
/// (the pools each function's inputs are drawn from). The stream seeds
/// drive the requests: arrival times, which function each request invokes,
/// and which of its inputs it carries.
const CATALOGUE_SEED: u64 = 42;

/// Extra set-ups after each visit continue for this long (at least one),
/// so `setup_s` is a median over many set-ups spread across the run.
const SETUP_SAMPLING: Duration = Duration::from_millis(25);

impl SimWorkload {
    /// Request streams simulated per run. A stream's engine time varies
    /// with its requests (by 15 % from stream to stream under Libra, whose
    /// forest refits depend on the data), so a run spans several.
    fn streams(self) -> u64 {
        match self {
            SimWorkload::DefaultHuge => 4,
            SimWorkload::LibraSebs => 8,
        }
    }

    /// Invocations per stream.
    fn invocations(self) -> usize {
        match self {
            SimWorkload::DefaultHuge => 50_000,
            SimWorkload::LibraSebs => 1_000,
        }
    }

    /// Seed of stream `i` of a run seeded `seed`: runs seeded `s` and `s + 1`
    /// share no stream.
    fn stream_seed(self, seed: u64, i: u64) -> u64 {
        seed.wrapping_mul(self.streams()).wrapping_add(i)
    }

    /// Everything a rep needs: the stream's trace and a fresh engine.
    fn setup(self, stream: u64) -> (Trace, Simulation) {
        match self {
            SimWorkload::DefaultHuge => {
                let mut tier = HugeTier::standard(CATALOGUE_SEED);
                tier.gen.seed = stream;
                tier.invocations = self.invocations();
                let config = SimConfig {
                    shards: tier.shards,
                    metrics: MetricsMode::Streaming,
                    ..SimConfig::default()
                };
                let trace = tier.trace();
                (trace, Simulation::new(tier.suite(), tier.node_caps(), config))
            }
            SimWorkload::LibraSebs => {
                let mut gen = TraceGen::standard(&ALL_APPS, CATALOGUE_SEED);
                gen.seed = stream;
                let trace = gen.poisson(self.invocations(), LIBRA_SEBS_RPM);
                let config = SimConfig { metrics: MetricsMode::Streaming, ..SimConfig::default() };
                (trace, Simulation::new(sebs_suite(), testbeds::jetstream(50), config))
            }
        }
    }
}

/// What one rep produced.
struct Rep {
    /// Set-up time (trace generation, engine and platform build), s.
    setup_s: f64,
    /// Engine wall time, s.
    run_s: f64,
    /// Peak resident set size during the rep, MB.
    peak_rss_mb: f64,
    /// Invocations in the trace.
    invocations: u64,
    /// The engine's result.
    result: RunResult,
    /// Every simulated statistic and exact count, for bit-exact comparison.
    fingerprint: String,
    /// Failed correctness checks.
    problems: Vec<String>,
    /// Per-layer metrics, when the rep ran through the timing shim.
    layers: Option<Vec<(String, f64)>>,
}

/// Everything simulated, as text: `f64` `Debug` output round-trips, so two
/// fingerprints are equal exactly when every statistic is bit-identical.
pub fn fingerprint(r: &RunResult, report: &PlatformReport) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.summary,
        (r.event_pushes, r.event_pops, r.completion_time, r.mean_sched_delay),
        (r.warm_hits, r.cold_starts, r.prewarms),
        (r.aborted, r.crash_requeues, r.faults_injected, r.pool_violations),
        (r.records.len(), r.util.len()),
        report,
    )
}

/// Every invocation accounted for, the safety ledger exact, and (under
/// Libra) the control plane's loans conserved and its ledger drained.
fn check<P: Layers>(r: &RunResult, invocations: u64, platform: &P) -> Vec<String> {
    let mut problems = Vec::new();
    if r.summary.completed != invocations || r.aborted != 0 {
        problems.push(format!(
            "{} completed and {} aborted of {invocations} invocations",
            r.summary.completed, r.aborted
        ));
    }
    if r.pool_violations != 0 {
        problems.push(format!("{} pool violations", r.pool_violations));
    }
    if let Some(core) = platform.control() {
        if let Err(why) = core.check_conservation() {
            problems.push(format!("loan conservation: {why}"));
        }
        if core.ledger_len() != 0 {
            problems.push(format!("{} ledger entries survive the run", core.ledger_len()));
        }
    }
    problems
}

fn timed_run(sim: Simulation, trace: &Trace, platform: &mut dyn Platform) -> (RunResult, f64) {
    let t = Instant::now();
    let result = sim.run(trace, platform);
    (result, t.elapsed().as_secs_f64())
}

fn rep_with<P: Platform + Layers>(w: SimWorkload, stream: u64, shim: bool, make: fn() -> P) -> Rep {
    reset_peak_rss();
    let t = Instant::now();
    let (trace, sim) = w.setup(stream);
    let platform = make();
    let setup_s = t.elapsed().as_secs_f64();
    let invocations = trace.len() as u64;
    let (result, run_s, report, problems, layers) = if shim {
        let mut p = Timed::new(platform);
        let (result, run_s) = timed_run(sim, &trace, &mut p);
        let report = p.report();
        let layers = layer_metrics(&p, &result, &report, run_s, trace.len());
        let problems = check(&result, invocations, p.inner());
        (result, run_s, report, problems, Some(layers))
    } else {
        let mut p = platform;
        let (result, run_s) = timed_run(sim, &trace, &mut p);
        let report = p.report();
        let problems = check(&result, invocations, &p);
        (result, run_s, report, problems, None)
    };
    Rep {
        setup_s,
        run_s,
        peak_rss_mb: peak_rss_mb(),
        invocations,
        fingerprint: fingerprint(&result, &report),
        problems,
        layers,
        result,
    }
}

/// One rep of stream `stream` of `w`, bare or through the timing shim.
fn rep(w: SimWorkload, stream: u64, shim: bool) -> Rep {
    match w {
        SimWorkload::DefaultHuge => rep_with(w, stream, shim, OpenWhiskDefault::default),
        SimWorkload::LibraSebs => {
            rep_with(w, stream, shim, || LibraPlatform::new(LibraConfig::libra()))
        }
    }
}

fn extra(report: &PlatformReport, key: &str) -> f64 {
    report.extra.iter().find(|(k, _)| k == key).map_or(0.0, |(_, v)| *v)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics<P: Platform + Layers>(
    p: &Timed<P>,
    r: &RunResult,
    report: &PlatformReport,
    run_s: f64,
    invocations: usize,
) -> Vec<(String, f64)> {
    let s = &p.stats;
    let n = invocations.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let mut out = vec![
        ("engine.events_per_inv".to_string(), r.event_pops as f64 / n),
        ("engine.self_us_per_inv".to_string(), (run_s * 1e6 - us(s.platform_ns())) / n),
    ];
    for (name, h) in HOOKS.iter().zip(&s.hooks) {
        out.push((format!("platform.{name}.calls"), h.calls as f64));
        out.push((format!("platform.{name}.us_total"), us(h.ns)));
        out.push((format!("platform.{name}.us_p99"), us(h.hist.percentile(99.0))));
    }
    let selects = s.hooks[1].calls as f64;
    let (lends, safeguarded) = p.loan_counts();
    out.extend([
        ("scheduler.parked_share".to_string(), ratio(s.parked as f64, selects)),
        ("profiler.trains".to_string(), s.trains as f64),
        ("profiler.train_us".to_string(), us(s.train_ns)),
        ("profiler.refits".to_string(), s.refits as f64),
        ("profiler.refit_us".to_string(), us(s.refit_ns)),
        ("profiler.predicts".to_string(), s.predicts as f64),
        ("profiler.predict_us".to_string(), us(s.predict_ns)),
        ("ml.forest_fits".to_string(), (6 * s.trains + 3 * s.refits) as f64),
        ("controlplane.loans_expired".to_string(), extra(report, "loans_expired")),
        ("controlplane.loans_reharvested".to_string(), extra(report, "loans_reharvested")),
        ("controlplane.safeguard_releases".to_string(), report.safeguard_triggers as f64),
        ("pool.puts".to_string(), report.pool_puts as f64),
        ("pool.gets".to_string(), report.pool_gets as f64),
        ("pool.lend_per_get".to_string(), ratio(lends as f64, report.pool_gets as f64)),
        ("controlplane.safeguard_share".to_string(), ratio(safeguarded as f64, lends as f64)),
    ]);
    out
}

/// Run `w` for about `seconds`, visiting the streams in turn until the next
/// visit would overrun the budget. A visit is one bare rep, or (traced) a
/// bare rep then a shimmed one. Untraced runs always visit every stream;
/// traced runs visit at least the first.
pub fn run(w: SimWorkload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // reps[i] holds stream i's reps, its first rep bare.
    let mut reps: Vec<Vec<Rep>> = (0..w.streams()).map(|_| Vec::new()).collect();
    let mut setups = Vec::new();
    let mut visits = 0u32;
    loop {
        let i = visits as u64 % w.streams();
        let stream = w.stream_seed(seed, i);
        reps[i as usize].push(rep(w, stream, false));
        if traced {
            reps[i as usize].push(rep(w, stream, true));
        }
        // Extra set-ups after every visit, so the set-up samples span the
        // run as the engine's do: one process's speed can shift for seconds
        // at a time (its core's neighbours change), which a burst at one
        // moment would catch whole.
        let sampling = Instant::now();
        while sampling.elapsed() < SETUP_SAMPLING {
            let t = Instant::now();
            let built = w.setup(stream);
            setups.push(t.elapsed().as_secs_f64());
            drop(std::hint::black_box(built));
        }
        visits += 1;
        let per_visit = start.elapsed() / visits;
        let must_continue = !traced && reps.iter().any(Vec::is_empty);
        if !must_continue && start.elapsed() + per_visit > budget {
            break;
        }
    }
    reps.retain(|r| !r.is_empty());
    setups.extend(reps.iter().flatten().map(|r| r.setup_s));
    summarise(&reps, &setups, traced)
}

/// Mean over the streams of `f` of each stream's first rep.
fn stream_mean(reps: &[Vec<Rep>], f: impl Fn(&RunResult) -> f64) -> f64 {
    reps.iter().map(|r| f(&r[0].result)).sum::<f64>() / reps.len() as f64
}

fn summarise(reps: &[Vec<Rep>], setups: &[f64], traced: bool) -> Outcome {
    let mut out = Outcome::default();
    for (i, stream) in reps.iter().enumerate() {
        for (k, r) in stream.iter().enumerate() {
            out.attempted += r.invocations;
            let mut problems = r.problems.clone();
            if r.fingerprint != stream[0].fingerprint {
                problems.push("simulated statistics differ from the stream's first rep".into());
            }
            let missing = r.invocations.saturating_sub(r.result.summary.completed);
            out.failed += if problems.is_empty() { missing } else { r.invocations };
            out.problems.extend(problems.into_iter().map(|p| format!("stream {i} rep {k}: {p}")));
        }
    }
    // Throughput of one pass: all streams' invocations over the sum of each
    // stream's median engine time.
    let pass_rate = |shim: bool| {
        let (mut inv, mut secs) = (0.0, 0.0);
        for stream in reps {
            let times: Vec<f64> =
                stream.iter().filter(|r| r.layers.is_some() == shim).map(|r| r.run_s).collect();
            inv += stream[0].invocations as f64;
            secs += median(&times);
        }
        inv / secs
    };
    let n_reps: usize = reps.iter().map(Vec::len).sum();
    out.notes.push(format!(
        "{} streams of {} invocations, {n_reps} reps; simulated statistics are means over streams",
        reps.len(),
        reps[0][0].invocations,
    ));
    if !traced {
        let quantile = |r: &RunResult, want: f64| {
            let kept = (r.summary.latency_sketch.seen() as usize).min(SKETCH_CAPACITY);
            let p = tail_percentile(kept, want).unwrap_or(50.0);
            r.summary.latency_sketch.quantile(p) * 1e3
        };
        out.set("inv_per_s", pass_rate(false));
        out.set("latency_p50_ms", stream_mean(reps, |r| quantile(r, 50.0)));
        out.set("latency_p99_ms", stream_mean(reps, |r| quantile(r, 99.0)));
        out.set("latency_ratio_mean", stream_mean(reps, |r| 1.0 - r.summary.speedup.mean()));
        out.set("cpu_util_mean", stream_mean(reps, |r| r.summary.cpu_util.mean()));
        let rss: Vec<f64> = reps.iter().flatten().map(|r| r.peak_rss_mb).collect();
        out.set("peak_rss_mb", median(&rss));
        out.set("setup_s", median(setups));
        return out;
    }
    out.set("trace.overhead_ratio", pass_rate(true) / pass_rate(false));
    // Per-layer values: each stream's median over its traced reps, then the
    // mean over the streams.
    let Some(names) = reps[0].iter().find_map(|r| r.layers.as_ref()) else {
        return out;
    };
    for (j, (name, _)) in names.iter().enumerate() {
        let per_stream: Vec<f64> = reps
            .iter()
            .map(|stream| {
                let vals: Vec<f64> =
                    stream.iter().filter_map(|r| r.layers.as_ref().map(|l| l[j].1)).collect();
                median(&vals)
            })
            .collect();
        out.set(name, per_stream.iter().sum::<f64>() / per_stream.len() as f64);
    }
    out
}
