#!/usr/bin/env bash
# Tier-1 verification: offline build + tests, then formatting and lints.
# The workspace has zero external dependencies, so everything runs with
# --offline against an empty registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

# replay_lanes BIN ARTIFACT...: runs ./target/release/BIN --smoke at
# DUET_NUM_THREADS=1, 4 and 7 and requires every ARTIFACT to come out
# byte-identical across the three runs. Extra env for the runs goes in
# front of the call (`DUET_RECORDER=1 replay_lanes ...` exports it to
# all three). The 7-thread artifacts stay in place for follow-up checks;
# the caller removes them.
replay_lanes() {
    local bin="$1" t a
    shift
    rm -f "$@"
    for t in 1 4 7; do
        DUET_NUM_THREADS=$t "./target/release/$bin" --smoke >/dev/null
        if [ "$t" != 7 ]; then
            for a in "$@"; do mv "$a" "$a.t$t"; done
        fi
    done
    for a in "$@"; do
        cmp "$a.t1" "$a.t4"
        cmp "$a.t1" "$a"
        rm -f "$a.t1" "$a.t4"
    done
}

echo "== cargo build --release --offline =="
cargo build --workspace --release --offline

echo "== cargo test --offline =="
cargo test -q --workspace --offline

echo "== perfbench build + tests =="
# The benchmark (perfbench/) is a separate workspace with path
# dependencies on crates/*, so the workspace-wide steps above do not
# build it. Building and testing it here makes a library API change that
# breaks the benchmark fail verify.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== cargo test (DUET_NUM_THREADS=4) =="
# Simulator results must be bitwise thread-count invariant; re-run the
# sim suite with a pinned 4-thread fan-out to catch divergence.
DUET_NUM_THREADS=4 cargo test -q -p duet-sim --offline

echo "== cargo build + test (--features simd) =="
# The SIMD micro-kernel lane: compiles the feature-gated intrinsics and
# runs the full suite plus the ULP-equivalence pins. The SIMD tests
# auto-skip (pass trivially) on CPUs without AVX2/NEON, so this lane is
# safe everywhere; dispatch falls back to the scalar kernels at runtime.
cargo build --workspace --release --offline --features duet-tensor/simd
cargo test -q --workspace --offline --features duet-tensor/simd

echo "== telemetry smoke (sim_bench --smoke under DUET_TRACE) =="
# End-to-end telemetry check: a reduced sweep with metrics + tracing on
# must produce a parseable, balanced Chrome trace (trace_check uses the
# in-tree duet_obs::json parser). duet-obs itself is linted/tested by the
# workspace-wide sweeps above. Smoke mode writes BENCH_sim_smoke.json /
# METRICS_sim_smoke.json, never the committed full-sweep BENCH_sim.json;
# all smoke outputs are scratch and removed after validation.
rm -f results/trace_verify.json results/BENCH_sim_smoke.json results/METRICS_sim_smoke.json
DUET_METRICS=1 DUET_TRACE=results/trace_verify.json ./target/release/sim_bench --smoke
test -s results/trace_verify.json
test -s results/BENCH_sim_smoke.json
./target/release/trace_check results/trace_verify.json
rm -f results/trace_verify.json results/BENCH_sim_smoke.json results/METRICS_sim_smoke.json

echo "== sparse skip-throughput smoke (sparse_bench --smoke under DUET_METRICS=1) =="
# Word-parallel map scanning must visit the same sensitive set as the
# bit-serial reference (in-binary checksum assertion); metrics on to
# exercise the kernels' counters. Smoke output is scratch. Note the
# release binary here is the simd-featured build from the lane above, so
# on capable CPUs the GEMM scalar-vs-SIMD comparison runs for real.
rm -f results/BENCH_sparse_smoke.json
DUET_METRICS=1 ./target/release/sparse_bench --smoke
test -s results/BENCH_sparse_smoke.json
rm -f results/BENCH_sparse_smoke.json

echo "== fault campaign determinism (fault_campaign --smoke at 1/4/7 threads) =="
# The fault-injection campaign must be a pure function of its seed:
# FAULTS_smoke.json (no timings, no thread counts) has to come out
# byte-identical at any DUET_NUM_THREADS. Smoke output is scratch.
replay_lanes fault_campaign results/FAULTS_smoke.json
rm -f results/FAULTS_smoke.json

echo "== serving determinism + flight recorder (serve_bench --smoke at 1/4/7 threads) =="
# The serving layer charges virtual ticks from each batch's own MAC
# accounting, so a seeded open-loop trace — responses, per-tenant
# p50/p90/p99, occupancy — must replay byte-identically at any
# DUET_NUM_THREADS. The binary itself asserts the two serving
# invariants (zero dropped requests, θ-degradation under overload).
# With DUET_RECORDER=1 the run also drains the flight recorder to
# RECORDER_serve_smoke.jsonl, whose canonically sorted event stream must
# be byte-identical across thread counts too. obs_report then joins the
# stream — it exits nonzero unless every enqueue balances with a respond
# and per-request stages sum to end-to-end latency — and its
# SERVE_REPORT_smoke.json must parse. Smoke outputs are scratch.
rm -f results/SERVE_REPORT_smoke.json
DUET_RECORDER=1 replay_lanes serve_bench \
    results/BENCH_serve_smoke.json results/RECORDER_serve_smoke.jsonl
./target/release/obs_report --smoke >/dev/null
test -s results/SERVE_REPORT_smoke.json
rm -f results/BENCH_serve_smoke.json results/RECORDER_serve_smoke.jsonl results/SERVE_REPORT_smoke.json

echo "== chaos campaign determinism + control loop (control_bench --smoke at 1/4/7 threads) =="
# The closed-loop θ-controller under chaos: the seeded campaign (guard
# trips, speculator corruption, stalls, backlog spikes) must be a pure
# function of its seed, so BENCH_control_smoke.json — calibrated bands,
# per-trip recovery ticks, setpoint-tracking error, response checksum —
# has to come out byte-identical at any DUET_NUM_THREADS. The binary
# itself asserts the control invariants in-binary (zero dropped
# requests, bounded re-admission after every injected trip, steady-tail
# setpoint error inside the deadband). Smoke output is scratch.
replay_lanes control_bench results/BENCH_control_smoke.json
rm -f results/BENCH_control_smoke.json

echo "== dual transformer (equivalence at 1/4/7 threads + transformer_bench --smoke) =="
# The dual-attention refactor's contract: θ = −∞ is bitwise the dense
# model for every piece (DualProjection, DualAttention, DualFfn, the
# whole block, and the re-backed DualModuleLayer), at any engine pool
# width. The smoke exhibit then runs the distilled transformer LM end
# to end — it asserts the bitwise pin and the MAC-savings invariant
# in-binary — and its artifact must be byte-identical at 1/4/7
# threads. Smoke outputs are scratch.
for t in 1 4 7; do
    DUET_NUM_THREADS=$t cargo test -q -p duet-core --offline --test transformer_equivalence
done
replay_lanes transformer_bench results/BENCH_transformer_smoke.json
rm -f results/BENCH_transformer_smoke.json

echo "== bench regression gate (bench_check vs results/baselines) =="
# Every committed results/BENCH_*.json is diffed against its checked-in
# baseline: deterministic metrics (ticks, checksums, counts) must match;
# hardware-dependent timings (_ns/_ms/gflops/...) only report drift.
# After an intentional change, refresh with
#   DUET_BENCH_BASELINE_UPDATE=1 ./target/release/bench_check
# and commit the updated results/baselines/.
./target/release/bench_check

echo "== serve determinism test (DUET_NUM_THREADS=4) =="
# The in-process workers sweep {1,4,7} plus the env-driven path must
# agree bit for bit when the env pins a different pool width.
DUET_NUM_THREADS=4 cargo test -q -p duet-serve --offline

echo "== checkpoint kill/resume (bitwise resume + corruption rejection) =="
# The crash-safe trainer's contract: killing a run at an epoch boundary
# and resuming reproduces the uninterrupted weights bitwise, and any
# corrupted checkpoint byte surfaces a typed error, never a panic.
cargo test -q -p duet-workloads --offline kill_and_resume_reproduces_uninterrupted_weights_bitwise
cargo test -q -p duet-workloads --offline corrupted_checkpoint_surfaces_typed_error
cargo test -q -p duet-workloads --offline every_single_byte_corruption_is_rejected

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo clippy --workspace --all-targets --offline --features duet-bench/criterion -- -D warnings
# the shimmed serde derives must stay lint-clean too
cargo clippy --workspace --all-targets --offline --features duet/serde -- -D warnings
# and the feature-gated SIMD intrinsics
cargo clippy --workspace --all-targets --offline --features duet-tensor/simd -- -D warnings

echo "== cargo clippy (unwrap_used in library code) =="
# Library code in the core pipeline crates must not use .unwrap() —
# caller-facing failure paths are typed errors or documented panics.
# Tests and bins are exempt (--lib only).
cargo clippy --offline -p duet-core -p duet-sim -p duet-workloads --lib -- -D clippy::unwrap_used

echo "verify: OK"
