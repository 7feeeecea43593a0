//! bench_sim — the simulator scale benchmark (`BENCH_sim.json`).
//!
//! Runs the `huge` trace tier (1M invocations at 20k RPM across a 400-
//! function Zipf catalogue, on 1,000 × 48-core nodes) through the engine in
//! [`MetricsMode::Streaming`] and reports throughput: invocations/sec of
//! wall time, event-queue operations/sec, peak RSS, and the arena's
//! concurrency high-water mark. This is the workload the slab arena,
//! streamed arrivals, intrusive resident lists and online metrics exist
//! for — the pre-refactor engine held every invocation and record alive
//! for the whole run and scaled its memory with trace length.
//!
//! Flags:
//! * `--smoke`            run the scaled-down CI tier (~20k invocations,
//!   100 nodes, same per-node load) instead of the full tier;
//! * `--check <baseline>` compare against a committed `BENCH_sim.json` of
//!   the same tier and exit non-zero if the tiers differ, if the event-queue
//!   pushes or pops differ from the baseline's at all (the simulation is
//!   deterministic, so any change means the engine does different work), or
//!   if invocations/sec fell below half the baseline;
//! * `--seed <n>`         trace seed (default 42).
//!
//! Output path: `BENCH_sim.json` in the working directory, or
//! `LIBRA_BENCH_JSON` if set.

use libra_sim::engine::{NullPlatform, SimConfig, Simulation};
use libra_sim::metrics::MetricsMode;
use libra_workloads::trace::HugeTier;
use std::io::Write as _;
use std::time::Instant;

/// Peak resident set size (VmHWM) in MB, from `/proc/self/status`.
/// Returns 0 on platforms without procfs — the field is informational.
fn peak_rss_mb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb / 1024;
        }
    }
    0
}

/// Pull the raw value of a `"key": <value>` field (quotes stripped) out of
/// a flat JSON file without a parser (the workspace is dependency-free by
/// policy; the bench JSON is flat).
fn json_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = text.find(&needle)? + needle.len();
    let rest = &text[start..];
    let end = rest.find([',', '\n', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().position(|a| a == "--check").and_then(|i| args.get(i + 1)).cloned();
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    let (tier_name, tier) =
        if smoke { ("smoke", HugeTier::smoke(seed)) } else { ("huge", HugeTier::standard(seed)) };
    eprintln!(
        "[bench_sim] tier={tier_name} invocations={} functions={} nodes={}",
        tier.invocations,
        tier.gen.kinds.len(),
        tier.nodes
    );

    let t_gen = Instant::now();
    let trace = tier.trace();
    let gen_sec = t_gen.elapsed().as_secs_f64();
    eprintln!("[bench_sim] trace generated in {gen_sec:.2}s");

    let config =
        SimConfig { shards: tier.shards, metrics: MetricsMode::Streaming, ..SimConfig::default() };
    let sim = Simulation::new(tier.suite(), tier.node_caps(), config);

    let t_run = Instant::now();
    let result = sim.run(&trace, &mut NullPlatform);
    let wall_sec = t_run.elapsed().as_secs_f64();

    let total = result.summary.completed + result.aborted;
    assert_eq!(
        total as usize, tier.invocations,
        "the run must account for every invocation in the trace"
    );
    assert!(result.records.is_empty(), "streaming mode must not buffer records");
    assert_eq!(result.pool_violations, 0, "safety ledger must stay exact at scale");

    let inv_per_sec = result.summary.completed as f64 / wall_sec.max(1e-9);
    let event_ops = result.event_pushes + result.event_pops;
    let events_per_sec = event_ops as f64 / wall_sec.max(1e-9);
    let rss_mb = peak_rss_mb();

    println!(
        "tier={tier_name} completed={} aborted={} wall={wall_sec:.2}s \
         inv/s={inv_per_sec:.0} events/s={events_per_sec:.0} peak_rss={rss_mb}MB \
         peak_live={} p50={:.3}s p99={:.3}s mean_cpu_util={:.3}",
        result.summary.completed,
        result.aborted,
        result.summary.peak_live_invocations,
        result.summary.latency_sketch.quantile(50.0),
        result.summary.latency_sketch.quantile(99.0),
        result.summary.cpu_util.mean(),
    );

    let json = format!(
        "{{\n  \"bench\": \"sim_scale\",\n  \"tier\": \"{tier_name}\",\n  \
         \"invocations\": {},\n  \"nodes\": {},\n  \"functions\": {},\n  \
         \"completed\": {},\n  \"aborted\": {},\n  \"trace_gen_sec\": {gen_sec:.3},\n  \
         \"wall_sec\": {wall_sec:.3},\n  \"inv_per_sec\": {inv_per_sec:.1},\n  \
         \"event_pushes\": {},\n  \"event_pops\": {},\n  \
         \"events_per_sec\": {events_per_sec:.1},\n  \"peak_rss_mb\": {rss_mb},\n  \
         \"peak_live_invocations\": {},\n  \"latency_p50_sec\": {:.6},\n  \
         \"latency_p99_sec\": {:.6},\n  \"latency_mean_sec\": {:.6}\n}}\n",
        tier.invocations,
        tier.nodes,
        tier.gen.kinds.len(),
        result.summary.completed,
        result.aborted,
        result.event_pushes,
        result.event_pops,
        result.summary.peak_live_invocations,
        result.summary.latency_sketch.quantile(50.0),
        result.summary.latency_sketch.quantile(99.0),
        result.summary.latency.mean(),
    );

    let path = std::env::var("LIBRA_BENCH_JSON").unwrap_or_else(|_| "BENCH_sim.json".to_string());
    let mut f = std::fs::File::create(&path).expect("create bench json");
    f.write_all(json.as_bytes()).expect("write bench json");
    println!("[wrote {path}]");

    if let Some(baseline_path) = check {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let field = |key: &str| {
            json_field(&baseline, key).unwrap_or_else(|| panic!("no {key} in {baseline_path}"))
        };
        let mut failures = Vec::new();
        let base_tier = field("tier");
        if base_tier != tier_name {
            failures.push(format!("baseline tier {base_tier} is not {tier_name}"));
        }
        // Deterministic counters are gated exactly.
        for (key, got) in [("event_pushes", result.event_pushes), ("event_pops", result.event_pops)]
        {
            let want = field(key);
            println!("exact check: {key} {got} vs baseline {want}");
            if got.to_string() != want {
                failures.push(format!("{key} {got} != baseline {want}"));
            }
        }
        // Wall-clock throughput only gets a coarse 2x tripwire.
        let base_rate: f64 = field("inv_per_sec")
            .parse()
            .unwrap_or_else(|e| panic!("inv_per_sec in {baseline_path}: {e}"));
        let floor = base_rate / 2.0;
        println!(
            "regression check: {inv_per_sec:.0} inv/s vs baseline {base_rate:.0} \
             (floor {floor:.0})"
        );
        if inv_per_sec < floor {
            failures.push("throughput below half the committed baseline".to_string());
        }
        if !failures.is_empty() {
            eprintln!("bench_sim: REGRESSION — {}", failures.join("; "));
            std::process::exit(1);
        }
    }
}
