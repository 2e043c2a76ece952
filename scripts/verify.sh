#!/usr/bin/env bash
# Offline verification: build, test, and smoke the quick grids against
# the committed goldens. No network access required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== clippy =="
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== clippy panic-freedom gate (VM + codec libraries) =="
# The decoder and both VMs must surface faults as structured errors,
# never panics (tests are exempt: --lib skips #[cfg(test)] code).
cargo clippy -p wb-wasm -p wb-wasm-vm -p wb-jsvm --lib -q -- \
  -D warnings -D clippy::panic -D clippy::unwrap_used

echo "== build =="
cargo build --release --workspace

echo "== benchmark build (perfbench against the workspace crates) =="
# Same target dir as perfbench/run.py, so an API change that breaks the
# benchmark fails here rather than in the benchmark run.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== tests =="
cargo test -q
# The root package's tests above are tier-1; the member crates' suites
# (CLI, memo, cache identity, audits, ...) run here.
cargo test -q --workspace --release

echo "== static analysis (wb analyze) =="
./target/release/wb analyze --all

echo "== fused-vs-reference differential =="
cargo test -q -p wb-harness --release --test fused_reference_differential

echo "== trap parity (wasm vs js vs native, all levels) =="
cargo test -q -p wb-harness --release --test trap_parity

echo "== fault injection (wb inject) =="
./target/release/wb inject --all

echo "== quick-grid smoke (wb regen: cached, uncached, reference exec, shared engine) =="
./target/release/wb regen --quick --out results/quick fig5 >/dev/null
./target/release/wb regen --quick --stats --out results/quick fig12_13 >/dev/null
# The cache must not change a byte of any emitted table.
./target/release/wb regen --quick --no-cache --out results/quick fig12_13 >/dev/null
# Neither may the fused engine: the plain interpreter is the goldens'
# reference semantics.
./target/release/wb regen --quick --reference-exec --out results/quick fig5 >/dev/null
# One process, one shared engine: the memo must not change a byte either.
./target/release/wb regen --quick --out results/quick fig5 fig12_13 >/dev/null

echo "== non-grid artifacts (ctxswitch, table9, table10, table12, ablations) =="
./target/release/wb regen --out results ctxswitch table9 table10 table12 ablations >/dev/null

echo "== golden stability =="
git diff --exit-code results/

echo "verify: OK"
