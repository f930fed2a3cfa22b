#!/usr/bin/env bash
# Full offline quality gate: build, tests, formatting, lints.
#
# Everything runs with --offline: the tree has no registry dependencies by
# design (see README "Building offline"), so this must pass on a machine
# with no network access at all.

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --offline --workspace
run cargo test -q --offline --workspace
run cargo fmt --all --check

# Pinned lint set. `-D warnings` promotes every default clippy lint plus
# rustc warnings to errors; the extra pins deny leftover debugging and
# placeholder macros that are warn-by-default (or allow-by-default) and
# would otherwise slip through a green build. Extend the list here rather
# than in per-crate attributes so every crate is held to the same bar.
run cargo clippy --offline --workspace --all-targets -- \
    -D warnings \
    -D clippy::dbg_macro \
    -D clippy::todo \
    -D clippy::unimplemented

# Stricter bar for library code only (`--lib` excludes tests, benches and
# bins, where unwrap/expect on infallible setup is idiomatic): every
# `unsafe` block needs a SAFETY comment, and library code may not unwrap —
# fallible paths must surface typed errors or documented expects.
run cargo clippy --offline --workspace --lib -- \
    -D warnings \
    -D clippy::dbg_macro \
    -D clippy::todo \
    -D clippy::unimplemented \
    -D clippy::undocumented_unsafe_blocks \
    -D clippy::unwrap_used

# Rustdoc gate: a broken, ambiguous or private intra-doc link (for
# example one naming a function that no longer exists) fails the build.
run env RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Benchmark self-tests: Tiny runs of the repo benchmark (e2ebench/) check
# every pinned paper-matrix and compile-verify output against
# e2ebench/expected/ and cross-check the policy-sweep streamed replays
# against the paper-matrix results, so a generator or simulator change
# that moves one bit fails here, not only in the benchmark pipeline.
run cargo test --release --offline --manifest-path e2ebench/Cargo.toml

# Static legality gate: lint every app, symbolically verify the disk-major
# plan, and exactly verify all four scheduler outputs per app. Exits
# non-zero on any Error-severity diagnostic, so an illegal schedule or a
# malformed program fails the build before any benchmark runs.
run ./target/release/dpm-analyze tiny results/ANALYZE_tiny.json

# Fault-injection determinism suite in release mode: same seed => bit-identical
# reports at 1/2/8 threads, zero plan indistinguishable from no plan, no plan
# ever loses or duplicates work.
run cargo test -q --offline --release --test fault_determinism

# Serial-vs-parallel harness: asserts the work-stealing pool reproduces the
# serial figure-9(a) results byte-for-byte (with the profiler off AND on —
# profiling must not perturb simulation output), attributes >=95% of the
# profiled pass's wall time to named scopes (exported to
# results/PROF_tiny.{txt,json}), runs the skewed-weights stealing
# microbench, and records wall times, steal counts, and idle fractions.
# The speedup gate (matrix >1x AND skew >=1.5x) applies only on hosts with
# >=4 cores; below that the record reports the measured values and says
# explicitly that the gate was skipped.
run ./target/release/parallel_bench tiny BENCH_parallel.json

# Oversubscription smoke: same harness at 4x the host's cores. The speedup
# gate is skipped by construction (DPM_PARALLEL_SMOKE=1); what this checks
# is that a heavily oversubscribed work-stealing pool neither deadlocks nor
# loses bit-identity. The record is written for inspection but NOT fed to
# bench-report — its timings measure contention, not performance.
run env DPM_PARALLEL_SMOKE=1 ./target/release/parallel_bench tiny results/BENCH_parallel_smoke.json

# Closed-form counting and cached projection-chain gate: asserts the
# closed-form counts match enumeration, requires >=10x on the counting
# microbench, and runs the figure-9(a) matrix at Scale::Small (the first
# scale past Tiny). Baseline comparison moved to bench-report below.
run ./target/release/poly_bench small BENCH_poly.json

# Chaos sweep: the figure-9(a) matrix under escalating fault rates with a
# fixed seed. Asserts serial == parallel byte-for-byte under every plan,
# re-checks all simulator invariants in release mode, and records the
# per-rate fault/energy aggregates in BENCH_chaos.json (tracked).
run ./target/release/chaos_bench tiny BENCH_chaos.json

# Streaming-pipeline gate: generation → codec spill → replay → simulate at
# Tiny and Small with a counting allocator, plus the experiment pipeline's
# one-pass fan-out into three policies' simulators; hard-fails unless both
# peak heaps are flat across a 16x request growth (O(disks + window)
# memory) and the codec stays within 16 bytes/request.
run ./target/release/stream_bench BENCH_stream.json

# Tiered-placement gate: the whole suite through flat / compiler-placed /
# heuristic / online-migrated scenarios on a starved heterogeneous array.
# Hard-fails unless the compiler-guided placement beats the flat baseline
# and never loses to the heat-blind heuristic, a single-class tier config
# replays bit-identical to the flat simulator, and migration byte
# accounting balances (2x the event log's logical bytes).
run ./target/release/tier_bench tiny BENCH_tier.json

# Prediction-soundness gate: the static energy oracle's closed-form
# bounds must contain the simulated energy of every Tiny-suite cell x
# policy, the walked iteration counts must match dpm-poly's closed
# forms, and insert_power_hints must emit directive tables that
# verify_hints accepts. Also trends bound tightness and the spin-down
# prediction hit-rate.
run ./target/release/oracle_bench tiny BENCH_oracle.json

# Bench-trend regression gate: schema-checks the six BenchRecord files
# just produced, fails on any failed gate or on metrics regressed beyond
# DPM_BENCH_TOL (default 8x) vs scripts/BENCH_*_baseline.json, and appends
# every record to results/BENCH_TREND.jsonl so the perf trajectory
# accumulates run over run. (The BenchRecord wire format itself is pinned
# by tests/golden/bench_record.json via the workspace test run above.)
run ./target/release/bench-report BENCH_parallel.json BENCH_poly.json BENCH_chaos.json BENCH_stream.json BENCH_tier.json BENCH_oracle.json

echo "All checks passed."
