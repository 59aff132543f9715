#!/usr/bin/env sh
# The full verification gate, in the order fastest-feedback-first:
#
#   1. pressio-lint      — workspace static analysis (see lint-allow.txt):
#                          the v1 line rules plus the v2 token-tree passes
#                          (wire-taint, plugin-surface key consistency,
#                          lock discipline). --strict-allowlist makes stale
#                          allowlist entries fail the build.
#   2. cargo clippy      — compiler lints, warnings are errors
#   3. cargo test        — unit + integration tests, including the live
#                          plugin-contract checker (crates/tools/tests),
#                          the golden-stream corpus (tests/golden_streams.rs),
#                          the metrics reference suite
#                          (crates/metrics/tests/reference.rs), the
#                          lint seeded-regression fixtures
#                          (crates/tools/tests/lint_fixtures.rs), and the
#                          mgard allocation budget — allocations per call on
#                          a 64^3 field, counted by the test binary's own
#                          allocator, which must not scale with the grid
#                          (crates/mgard/tests/alloc_budget.rs)
#   4. loom model checks — the execution engine's submit/steal/help paths,
#                          the trace ring's push/drain/overflow paths, and
#                          the serve admission/drain primitives
#                          (accept-vs-shed conservation, drain
#                          termination), replayed under a seeded
#                          cooperative scheduler
#                          (crates/core/tests/loom_{exec,trace,cancel,serve}.rs;
#                          the `loom` feature routes crates/core/src/sync.rs
#                          through shims/loom and is never in release
#                          builds)
#   5. pressio fuzz-decode — every decoder against deterministically
#                          corrupted streams: structured errors only,
#                          no panics, no hangs
#   5b. pressio chaos     — seeded fault injection at the exec pool's
#                          scheduling points (worker/task panics, delays,
#                          spurious cancels, forced budget failures) while
#                          sweeping every pooled plugin and the guard
#                          stacks: the pool must self-heal, stops must be
#                          structured errors, and a faulted handle must
#                          stay bit-identical to a fresh one afterwards
#                          (needs --features chaos; the hooks compile to
#                          nothing in normal builds)
#   5c. serve smoke       — the admission-controlled daemon end-to-end:
#                          round-trip every default profile over real
#                          sockets, push an overload burst past capacity
#                          (sheds must be structured Busy with zero
#                          aborts), reject malformed frames structurally,
#                          drain gracefully on SIGTERM with exit code 0,
#                          and hold the committed BENCH_serve.json to the
#                          pressio-serve/bench-v1 invariants (ramp past 2x
#                          capacity, zero errors, clean drain, no leaked
#                          watchdog workers); and the copy budget — body-sized
#                          allocations per 1 MiB request, all threads, counted
#                          by the test binary's own allocator
#                          (crates/tools/tests/serve_copy_budget.rs)
#   6. pressio trace --check — tracing smoke: a traced sz round trip must
#                          produce a non-empty, well-nested span tree with
#                          both handle-level spans
#   7. pressio bench --check — the *committed* BENCH_overhead.json must
#                          satisfy the pressio-bench/overhead-v3 schema,
#                          including self-consistency of the derived
#                          overhead_pct / speedup fields, the host-clamp
#                          rule (nthreads_effective == min(requested,
#                          host_threads) — oversubscribed baselines are
#                          structurally invalid), recomputable
#                          serial_fallback flags, and the entropy section
#                          (rans never loses to deflate on ratio and
#                          decodes strictly faster); then the quick harness
#                          runs end-to-end into target/ and its output is
#                          checked the same way.
#   8. pressio bench --gate — the one timing we do gate: the committed
#                          parallel speedup must not regress by more than
#                          10% against a fresh measurement at the largest
#                          committed sweep edge (<= 128^3). Raw wall-clock
#                          is still never compared across hosts — the gate
#                          compares the *ratio* serial/parallel on this
#                          host, and skips itself (loudly) when the
#                          committed baseline was recorded with a
#                          different host_threads count.
#   9. benchmark/smoke.sh — the stand-alone benchmark package (its own
#                          manifest and lock, outside the workspace) still
#                          formats, lints, tests and runs every workload for
#                          a second against this tree: it compiles against
#                          public signatures nothing else here builds.
#
# Usage: ./ci.sh                 full gate (all of the above)
#        ./ci.sh --quick        lint + workspace tests only (inner loop)
#        ./ci.sh --concurrency  loom model checks only
#        ./ci.sh --chaos        fault-injection sweep only
#        ./ci.sh --serve        serve daemon smoke tier only
set -eu

cd "$(dirname "$0")"

TIER=full
case "${1:-}" in
  "") ;;
  --quick) TIER=quick ;;
  --concurrency) TIER=concurrency ;;
  --chaos) TIER=chaos ;;
  --serve) TIER=serve ;;
  *) echo "usage: ./ci.sh [--quick|--concurrency|--chaos|--serve]" >&2; exit 2 ;;
esac

run_lint() {
    echo "== pressio-lint"
    cargo run -q -p pressio-tools --bin pressio-lint -- --root . --strict-allowlist
}

run_tests() {
    echo "== tests (unit + integration + golden corpus + metrics references)"
    cargo test -q --workspace
}

run_loom() {
    echo "== loom model checks (exec pool + trace ring + cancellation + serve admission/drain)"
    cargo test -q -p pressio-core --features loom --test loom_exec --test loom_trace --test loom_cancel --test loom_serve
}

run_chaos() {
    echo "== chaos fault-injection sweep (pool self-heal + handle reuse)"
    cargo test -q -p pressio-tools --features chaos --test chaos_smoke
    cargo run -q -p pressio-tools --features chaos --bin pressio -- chaos --seeds 64 --seed 1
    echo "== chaos serve sweep (faulted request bursts, clean recovery, drain hygiene)"
    cargo run -q -p pressio-tools --features chaos --bin pressio -- chaos --serve --seeds 64 --seed 1
}

if [ "$TIER" = quick ]; then
    run_lint
    run_tests
    echo "== ci.sh: quick tier passed (lint + tests; run ./ci.sh for the full gate)"
    exit 0
fi

if [ "$TIER" = concurrency ]; then
    run_loom
    echo "== ci.sh: concurrency tier passed"
    exit 0
fi

if [ "$TIER" = chaos ]; then
    run_chaos
    echo "== ci.sh: chaos tier passed"
    exit 0
fi

run_serve() {
    echo "== serve smoke (profile round trips, overload shedding, malformed frames, drain)"
    cargo test -q -p pressio-tools --test serve_smoke
    echo "== serve copy budget (body-sized allocations per request, all threads)"
    cargo test -q -p pressio-tools --test serve_copy_budget
    echo "== serve daemon graceful drain on SIGTERM (exit code must be 0)"
    cargo build -q --release -p pressio-tools
    ./target/release/pressio serve --tcp 127.0.0.1:0 &
    SERVE_PID=$!
    sleep 1
    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID"
    echo "== serve load harness (ramp past 2x capacity, emits to target/)"
    ./target/release/pressio bench --serve --quick --out target/BENCH_serve_ci.json
    ./target/release/pressio bench --serve --check --out target/BENCH_serve_ci.json
    echo "== committed BENCH_serve.json: schema + overload invariants"
    ./target/release/pressio bench --serve --check --out BENCH_serve.json
}

if [ "$TIER" = serve ]; then
    run_serve
    echo "== ci.sh: serve tier passed"
    exit 0
fi

run_lint

echo "== clippy (deny warnings)"
cargo clippy --workspace --all-targets -q -- -D warnings

run_tests
run_loom

echo "== decoder corruption fuzz"
cargo run -q -p pressio-tools --bin pressio -- fuzz-decode --iterations 64 --seed 1

run_chaos
run_serve

echo "== trace smoke (span tree well-nested)"
cargo run -q --release -p pressio-tools --bin pressio -- trace sz --check

echo "== committed BENCH_overhead.json: schema + self-consistency"
cargo run -q --release -p pressio-tools --bin pressio -- bench --check --out BENCH_overhead.json

echo "== bench harness end-to-end (quick, emits to target/)"
cargo run -q --release -p pressio-tools --bin pressio -- bench --quick --out target/BENCH_overhead_ci.json
cargo run -q --release -p pressio-tools --bin pressio -- bench --check --out target/BENCH_overhead_ci.json

echo "== bench speedup gate (committed baseline vs fresh measurement)"
cargo run -q --release -p pressio-tools --bin pressio -- bench --gate --out BENCH_overhead.json

echo "== benchmark package smoke (fmt, clippy, tests, one second of every workload)"
benchmark/smoke.sh

echo "== ci.sh: all gates passed"
