#!/usr/bin/env bash
# Tier-1 verification: formatting, lints, build, tests — everything a PR
# must keep green. Runs fully offline (the workspace has no registry
# dependencies; see DESIGN.md "Dependency policy").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== sim-lint (workspace lint: unwrap policy, metric names, diagnostic codes)"
# SIM-L001 no unwrap/expect on user-reachable paths, SIM-L002 metric-name
# literals match the central registry, SIM-L003 diagnostic codes unique
# and documented in DESIGN.md. Exit 1 on findings fails the build.
cargo run -q --release -p sim --bin sim-lint

echo "== cargo build --release"
cargo build --release

echo "== cargo test"
cargo test -q

echo "== integration tests (root package: lifecycle, properties, crash matrix)"
# Includes the fault-injection crash-recovery matrix (bounded crash-point
# sweep) and the file-backed close/reopen round trip.
cargo test -q -p sim

echo "== sim-oracle differential gate (200 deterministic workloads)"
# Reference interpreter vs. the real engine on all three disk backends;
# same seed => byte-identical report. On divergence the oracle shrinks
# the workload and writes oracle-failure.simwl (replay with --replay).
cargo run -q --release -p sim --bin sim-oracle -- --iters 200 --seed 0xS1M

echo "== sim-oracle statistics gate (120 workloads with mid-workload analyze)"
# Mixes !analyze into the generated control ops: plans are re-chosen under
# the cost-based model mid-workload (generation bump) and every retrieve
# must still agree with the reference interpreter, lock-step.
cargo run -q --release -p sim --bin sim-oracle -- --iters 120 --stats --seed 0xSTATS

echo "== sim-oracle concurrent gate (120 interleaved two-session workloads)"
# Seeded interleavings over ConcurrentDb (strict 2PL + snapshot reads),
# replayed serially on the reference interpreter: every committed txn's
# statement outcomes and every snapshot read must match a serial order.
cargo run -q --release -p sim --bin sim-oracle -- --concurrent 120 --seed 0xS1M

if [ "${ORACLE_DEEP:-0}" = "1" ]; then
    echo "== sim-oracle deep profile (long fuzz + injected-crash sweeps)"
    # Scheduled/dispatch CI only: longer workloads, a bigger seed space,
    # and ORACLE_DEEP=1 extends tests/oracle_corpus.rs with fault sweeps.
    cargo run -q --release -p sim --bin sim-oracle -- --iters 2000 --seed 0xDEEPHUNT
    cargo run -q --release -p sim --bin sim-oracle -- --iters 500 --steps 60 --seed 0xFUZZB
    ORACLE_DEEP=1 cargo test -q -p sim --test oracle_corpus
fi

echo "== durability smoke + WAL/recovery metrics dump"
cargo run -q -p sim --example durability_metrics

echo "== sim-check schema gate (UNIVERSITY + ADDS scale)"
# Fails on any Error-level diagnostic from the bundled example schemas.
cargo run -q -p sim --example schema_check

echo "== miri (sim-types + sim-check + sim-luc value codec, undefined-behavior check)"
# The workspace forbids unsafe, but the value codecs still exercise every
# byte-level encoding path — run them under Miri when the component exists.
if cargo miri --version >/dev/null 2>&1; then
    MIRIFLAGS="-Zmiri-strict-provenance" cargo miri test -p sim-types -q
    # sim-check rides along: the plan verifier runs on every plan-cache
    # miss, so it must stay Miri-clean.
    MIRIFLAGS="-Zmiri-strict-provenance" cargo miri test -p sim-check -q
    MIRIFLAGS="-Zmiri-strict-provenance" cargo miri test -p sim-luc -q value_codec
else
    echo "   miri component not installed; skipping (rustup +nightly component add miri)"
fi

echo "== bench harness: paper claims + counted smoke gates + relational baseline"
# crates/bench is its own workspace; its default members are the harness
# and crates/bench/relational, the baseline engine only E6/E10 use. Its
# tests hold the paper's claims (tests/paper_claims.rs: E4, E5(a), E6, E7,
# E10) and the mechanism gates (tests/smoke_gates.rs) in counted units.
(cd crates/bench && cargo clippy --all-targets --features bench -- -D warnings && cargo test -q)

echo "== sim-bench (the BENCHMARK.json benchmark): builds against the public API, seed-42 digests"
# simbench/ is frozen between benchmark PRs. A refactor that breaks its use
# of the engine's API, or changes a pinned result digest, must fail here
# rather than in the benchmark driver.
(cd simbench && cargo test -q --offline)

echo "== PR6 bench smoke (check mode): observability overhead + recorder retention"
# Asserts the flight recorder + event log cost < 5% of statement wall time
# and that the recorder retains >= 64 statements; dumps BENCH_pr6.json.
(cd crates/bench && cargo run -q --bin pr6_smoke)

echo "== smoke gates, release: the counted gates plus three wall-clock ratios"
# The ratios (plan verification < 5% of planning, snapshot readers >= 0.5x
# idle throughput under a writer, 64 clients >= 3x one connection's commit
# rate) mean something only in an optimized build, and only with the CPU
# to themselves: one test at a time.
(cd crates/bench && cargo test -q --release --test smoke_gates -- --test-threads=1)

echo "== sim-dump smoke: offline introspection of a freshly crashed directory"
# crash_dir leaves committed work only in the WAL plus a torn final frame;
# sim-dump must classify that as benign (exit 0) and emit valid JSON.
DUMP_DIR="target/sim-dump-smoke"
cargo run -q --release -p sim --example crash_dir -- "$DUMP_DIR" --torn
cargo run -q --release -p sim --bin sim-dump -- --json "$DUMP_DIR" > /dev/null
cargo run -q --release -p sim --bin sim-dump -- "$DUMP_DIR" | grep -q "TORN"
rm -rf "$DUMP_DIR"

echo "CI OK"
