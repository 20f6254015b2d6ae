#!/usr/bin/env sh
# Fast CI entrypoint: lints, the tier-1 gate, a build and self-check of the
# benchmark, the member crates' tests, a figure reproduction, the Table 1,
# Fig. 5 and Fig. 6 drift checks, the cross-stage invariant check, the
# pruning differential suites, a paper-scale (d6) bounded-compose smoke, and
# the exact work-counter gates (d1, the d1 session, d1-d5 at default
# budgets).
#
# Everything here runs fully offline — the workspace has zero external
# dependencies (see crates/testkit). Usage: scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> lint: cargo fmt --check"
cargo fmt --all --check

echo "==> lint: cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> lint: mbr-lint (determinism/observability/panic-safety invariants)"
cargo run --release -q --bin mbr-lint

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> build: the benchmark (perfbench compiles against the public API)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> bench: perfbench self-check (traced replay must match compose)"
python3 perfbench/selfcheck.py

echo "==> tier-1: cargo test -q (MBR_THREADS=1, serial)"
MBR_THREADS=1 cargo test -q

echo "==> tier-1: cargo test -q (MBR_THREADS=4, parallel)"
MBR_THREADS=4 cargo test -q

echo "==> tests: every member crate (the root package ran twice above)"
cargo test -q --workspace --exclude mbr

echo "==> repro: fig3 weight table"
cargo run --release -q -p mbr-bench --bin repro -- fig3

echo "==> repro: EXPERIMENTS.md Table 1, Fig. 5 and Fig. 6 blocks match a fresh run"
repro_block() { sed -n "/<!-- $1:begin -->/,/<!-- $1:end -->/p" "$2"; }
for exp in table1 fig5 fig6; do
    cargo run --release -q -p mbr-bench --bin repro -- "$exp" > "target/$exp.txt"
    repro_block "$exp" "target/$exp.txt" > "target/$exp.md"
    test -s "target/$exp.md"
    repro_block "$exp" EXPERIMENTS.md | diff -u - "target/$exp.md"
done

echo "==> bench: par suite smoke (quick samples)"
MBR_BENCH_QUICK=1 MBR_BENCH_OUT=target cargo run --release -q -p mbr-bench --bin bench -- par

echo "==> bench: incr suite smoke (quick samples, counter guards)"
MBR_BENCH_QUICK=1 MBR_BENCH_OUT=target cargo run --release -q -p mbr-bench --bin bench -- incr

echo "==> bench: scale suite smoke (quick samples, paper-scale d6 stages)"
MBR_BENCH_QUICK=1 MBR_BENCH_OUT=target cargo run --release -q -p mbr-bench --bin bench -- scale
test -s target/BENCH_scale.json

echo "==> bench: soa suite smoke (quick samples, thread-invariance guard)"
MBR_BENCH_QUICK=1 MBR_BENCH_OUT=target cargo run --release -q -p mbr-bench --bin bench -- soa
test -s target/BENCH_soa.json

echo "==> pruning: solver-level differential suite (release)"
cargo test --release -q -p mbr-lp --test differential

echo "==> pruning: flow-level byte-identity differential (release)"
cargo test --release -q --test pruning

echo "==> scale: d6 bounded-compose smoke (release, zero check errors)"
MBR_SCALE_TESTS=1 cargo test --release -q --test file_scale -- --ignored

echo "==> check: flow invariants on d1 (traced)"
MBR_TRACE=target/trace-d1.jsonl cargo run --release -q --bin check -- d1

echo "==> check: incremental ECO differential (session vs batch, all presets)"
cargo run --release -q --bin check -- --eco-seed 1 all

echo "==> obs: validate the d1 trace"
cargo run --release -q -p mbr-obs --bin trace-validate -- target/trace-d1.jsonl

echo "==> obs: profile the d1 trace (hot paths + collapsed stacks)"
cargo run --release -q -p mbr-obs --bin mbr-profile -- \
    target/trace-d1.jsonl --top 15 --folded target/trace-d1.folded
test -s target/trace-d1.folded

echo "==> perf: second traced run must perfdiff clean (determinism)"
MBR_TRACE=target/trace-d1-b.jsonl cargo run --release -q --bin check -- d1 > /dev/null
cargo run --release -q -p mbr-obs --bin mbr-perfdiff -- \
    target/trace-d1.jsonl target/trace-d1-b.jsonl

echo "==> perf: regression gate against PERF_baseline.json"
cargo run --release -q -p mbr-obs --bin mbr-perfdiff -- \
    --baseline PERF_baseline.json target/trace-d1.jsonl --out target/PERFDIFF_report.txt

echo "==> check: session-only traced run (incremental work counters)"
MBR_TRACE=target/trace-session-d1.jsonl cargo run --release -q --bin check -- \
    --eco-seed 1 --session-only d1

echo "==> perf: incremental-work gate against PERF_baseline_incr.json"
cargo run --release -q -p mbr-obs --bin mbr-perfdiff -- \
    --baseline PERF_baseline_incr.json target/trace-session-d1.jsonl

echo "==> check: every preset at default budgets (traced)"
MBR_TRACE=target/trace-all.jsonl cargo run --release -q --bin check -- all > /dev/null

echo "==> perf: exact-counter gate on d1-d5 against PERF_baseline_presets.json"
cargo run --release -q -p mbr-obs --bin mbr-perfdiff -- \
    --baseline PERF_baseline_presets.json target/trace-all.jsonl

echo "verify: OK"
