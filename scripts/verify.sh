#!/usr/bin/env bash
# Full verification gate: formatting, lints, build, tests.
# Run from the repo root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> libra-lint (call-graph reachability: determinism, panic-freedom, charge pairing, casts; emits LINT.json)"
cargo run -q -p libra-lint -- --json LINT.json

echo "==> cargo doc (workspace, deny rustdoc warnings)"
# --exclude libra-cli: its `libra` bin collides with the root `libra` lib in
# the doc output path (cargo #6313); the CLI has no API docs to gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet --exclude libra-cli

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (tier-1: root facade crate)"
cargo test -q

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> gateway smoke (500 seeded requests over loopback, scrape /metrics)"
# gateway_loadgen exits nonzero on any 5xx-from-bugs, dropped request, or
# missing metrics series; seeded traffic keeps the run reproducible.
cargo run --release -q -p libra-gateway --bin gateway_loadgen -- --seed 42 --requests 500

echo "==> pool-bench smoke (emits BENCH_pool.json)"
cargo run --release -p libra-bench --bin bench_pool

echo "==> sim-scale smoke (emits BENCH_sim.json, gated against the committed smoke baseline)"
# Scaled-down huge tier (~20k invocations, 100 nodes); fails if the event
# pushes/pops differ from benchmarks/BENCH_sim.smoke.baseline.json at all, or
# if wall-clock invocations/sec drop below half of it.
cargo run --release -p libra-bench --bin bench_sim -- --smoke --check benchmarks/BENCH_sim.smoke.baseline.json

echo "==> trace-export smoke (seed workload with tracing on, grep the HTML timeline)"
# The single-set seed workload with span tracing enabled must export a
# self-contained HTML timeline that actually carries exec-stage spans.
TRACE_OUT="$(mktemp -d)"
cargo run --release -q -p libra-cli --bin libra -- \
  run --platform libra --kind single --seed 42 --trace-out "$TRACE_OUT/timeline.html"
grep -q 'data-kind="exec"' "$TRACE_OUT/timeline.html"
grep -q 'data-kind="scheduler"' "$TRACE_OUT/timeline.html"
rm -rf "$TRACE_OUT"

echo "==> exp keepalive smoke (policy x harvester sweep, determinism check)"
# One repetition of the keep-alive sweep at two thread counts; the CSVs must
# be byte-identical (order-preserving fan-out) or the sweep is nondeterministic.
KA_A="$(mktemp -d)"; KA_B="$(mktemp -d)"
LIBRA_REPS=1 LIBRA_THREADS=1 LIBRA_RESULTS_DIR="$KA_A" \
  cargo run --release -q -p libra-bench --bin exp -- keepalive > /dev/null
LIBRA_REPS=1 LIBRA_THREADS=4 LIBRA_RESULTS_DIR="$KA_B" \
  cargo run --release -q -p libra-bench --bin exp -- keepalive > /dev/null
cmp "$KA_A/exp_keepalive.csv" "$KA_B/exp_keepalive.csv"
rm -rf "$KA_A" "$KA_B"

echo "==> exp fig06 reproduces the committed results/fig06*.csv"
# The Fig 6 CDFs are deterministic; a diff means the simulation drifted from
# what results/ records (regenerate deliberately, never to get green).
FIG06_OUT="$(mktemp -d)"
LIBRA_RESULTS_DIR="$FIG06_OUT" cargo run --release -q -p libra-bench --bin exp -- fig06 > /dev/null
for f in results/fig06*.csv; do cmp "$f" "$FIG06_OUT/$(basename "$f")"; done
[ "$(ls "$FIG06_OUT" | wc -l)" -eq "$(ls results/fig06*.csv | wc -l)" ]
rm -rf "$FIG06_OUT"

echo "==> exp fig09_10_11 fig16 reproduce the committed scheduling and weight sweeps"
# Together these run every NodeSelector (Default, RR, JSQ, MWS, Libra) and
# the alpha sweep, so they pin simulator placement.
SWEEP_OUT="$(mktemp -d)"
LIBRA_RESULTS_DIR="$SWEEP_OUT" cargo run --release -q -p libra-bench --bin exp -- fig09_10_11 fig16 > /dev/null
for f in fig09_10_11_scheduling_sweep.csv fig16_weight_sweep.csv; do cmp "results/$f" "$SWEEP_OUT/$f"; done
rm -rf "$SWEEP_OUT"

echo "verify: all green"
