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
#                          first of the two performance gates (see below)
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
#                          drain gracefully on SIGTERM with exit code 0;
#                          and the second performance gate (see below)
#   6. pressio trace --check — tracing smoke: a traced sz round trip must
#                          produce a non-empty, well-nested span tree with
#                          both handle-level spans
#   7. benchmark/smoke.sh — the stand-alone benchmark package (its own
#                          manifest and lock, outside the workspace) still
#                          formats, lints, tests and runs every workload for
#                          a second against this tree: it compiles against
#                          public signatures nothing else here builds.
#
# The performance gates are counts, not times. Wall-clock on a shared host
# is too noisy to gate on, so CI holds two deterministic proxies, each
# counted by its test binary's own allocator:
#   - crates/mgard/tests/alloc_budget.rs — mgard allocations per call on a
#     64^3 field, which must not scale with the grid (step 3);
#   - crates/tools/tests/serve_copy_budget.rs — body-sized allocations per
#     1 MiB daemon request, across all threads (step 5c).
# Timings are the stand-alone benchmark's job (benchmark/README.md).
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

echo "== benchmark package smoke (fmt, clippy, tests, one second of every workload)"
benchmark/smoke.sh

echo "== ci.sh: all gates passed"
