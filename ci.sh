#!/bin/sh
# Repo CI gate: fmt-check, static-analysis lint, clippy -D warnings,
# release build, tests. Thin wrapper over `cargo xtask ci` so local runs
# and automation share one definition of "green", plus the batch-engine
# smoke gate (prepared-context matrices must stay bit-identical to the
# naive path on every measure), the fault-injection smoke gate (no
# corrupted or hostile input may panic, overflow the stack, or blow past
# the resource limits in any parser), the server smoke gate (the
# query service answers every concurrent request 200/429, sheds instead
# of queueing unboundedly, and drains cleanly on shutdown), and the ANN
# smoke gate (exact vector-store rankings bit-identical to the naive
# scan, approximate recall@10 at least 0.95; writes
# results/BENCH_ann.json), and the alignment smoke gate (blocked
# candidate generation never materializes n*m and leaves no source
# without candidates, stable-matching F1 at least greedy F1 at every
# blocking width and strictly better on average, stable precision above
# its floor; writes results/BENCH_align.json), and the snapshot smoke
# gate (SSTSNAP1 round trip bit-identical on every measure and faster
# than a cold parse; the full run writes results/BENCH_snapshot.json),
# and the benchmark gate (perfbench, a workspace of its own, must build
# against the current crates, pass its self-tests, and finish a short
# batch_matrix run whose result line reports "correct":true).
set -eu
cd "$(dirname "$0")"
# Archive the machine-readable findings document first (written even
# when the gate is red — the artifact is the diagnosis); the lint exits
# nonzero on any non-audited finding and prints per-rule counts.
mkdir -p results
cargo xtask lint --json > results/LINT.json
cargo xtask ci
cargo run --release -p sst-bench --bin matrix_bench -- --smoke
cargo run --release -p sst-bench --bin fault_smoke -- --smoke
cargo run --release -p sst-bench --bin server_smoke -- --smoke
cargo run --release -p sst-bench --bin ann_bench -- --smoke
cargo run --release -p sst-bench --bin align_bench -- --smoke
cargo run --release -p sst-bench --bin snapshot_bench -- --smoke
cargo test --release --offline --manifest-path perfbench/Cargo.toml
bench_line=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload batch_matrix --seed 1 --seconds 1 --trace 0 | tail -n 1)
case "$bench_line" in
*'"correct":true'*) ;;
*)
    echo "ci.sh: perfbench batch_matrix smoke run is not correct: $bench_line" >&2
    exit 1
    ;;
esac
# The archived full-run matrix benchmark must agree with the smoke gate:
# every measure row records an honest bit_identical flag, and a stale or
# regressed archive with any false flag fails the build.
if [ -f results/BENCH_matrix.json ] && grep -q '"bit_identical":false' results/BENCH_matrix.json; then
    echo "ci.sh: results/BENCH_matrix.json records a bit_identical:false measure" >&2
    exit 1
fi
# Likewise the archived snapshot benchmark: a round trip that is not
# bit-identical must fail the build, stale archive or not.
if [ -f results/BENCH_snapshot.json ] && grep -q '"identity": false' results/BENCH_snapshot.json; then
    echo "ci.sh: results/BENCH_snapshot.json records identity: false" >&2
    exit 1
fi
