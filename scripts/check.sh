#!/usr/bin/env bash
# Repo-wide static gate: formatting, lints, and the fast test suite.
# Run before every push; scripts/reproduce.sh runs it first so benchmark
# numbers are never produced from a tree that fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt (check) =="
cargo fmt --all -- --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests (root package) =="
cargo test -q

echo "== reference-evaluator differential suite =="
# The engine must detect exactly what docs/SEMANTICS.md says: property tests
# compare its firing multiset with an independent brute-force reference
# evaluator on generated programs covering every constructor, under both
# merge settings.
cargo test -q -p rceda --test reference_equivalence

echo "== retention-bound differential suite =="
# Enforcing the solved retention bounds (eager eviction) must preserve the
# firing multiset exactly vs the conservative max_lag-padded eviction.
cargo test -q -p rceda --test bounds_equivalence

echo "== batch-size differential suite =="
# Chunking must never change detection: property tests compare the firing
# multiset and the detection counters of per-observation `process` against
# larger batches x bounds on/off x obs levels.
cargo test -q -p rceda --test batch_equivalence

echo "== subsumption-drop differential suite =="
# Every relaxation the W006 prover admits must be semantically safe:
# dropping a provably-subsumed rule preserves the survivors' firing
# multiset under both merge settings.
cargo test -q -p rceda --test subsumption_drop

echo "== lowered/interpreted firing differential suite =="
# The runtime's load-time-lowered firing path must leave the same rows (in
# order), procedure log and error texts as the interpretive bind/eval_cond/
# execute chain on the same detections.
cargo test -q -p rfid-rules --test lowered_equivalence

echo "== store index property suite =="
# Random insert/update/delete sequences: indexed equality lookups equal a
# full scan, in row-id order, and no index key keeps an empty posting list.
cargo test -q -p rfid-store --test proptests

echo "== pipebench smoke test =="
# The end-to-end benchmark builds against the public rules/store APIs; its
# smoke test runs every workload at 1% size with every output check on.
cargo test -q --release --manifest-path pipebench/Cargo.toml

echo "== rceda-lint (canonical rule programs) =="
# The Rule 1-5 program and the 512-rule containment workload must lint
# free of error-level findings; rceda-lint exits 1 on any E-code.
cargo run -q --release -p rceda-lint -- --sim default --sim paper-scale

echo "== rceda-lint cost (static hotspot report) =="
# The cost subcommand must rank the 512-rule paper-scale program; the JSON
# run exercises the machine-readable path and the schema stamp.
cargo run -q --release -p rceda-lint -- cost --sim paper-scale --top 5
cargo run -q --release -p rceda-lint -- cost --json --sim default >/dev/null

echo "== rceda-obs (telemetry snapshot + provenance trace) =="
# The observability layer must drive end to end on the Rule 1-5 program:
# a counters-level snapshot exports, and the flight recorder replays at
# least one firing's derivation chain (exit 1 if nothing was recorded).
cargo run -q --release -p rceda-obs -- snapshot --events 5000 --format jsonl >/dev/null
cargo run -q --release -p rceda-obs -- explain --events 5000 --last 1 >/dev/null

echo "check.sh: all gates passed"
