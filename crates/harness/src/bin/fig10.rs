//! Fig 10: JS and Wasm speedups with the JIT on
//! ([`wb_harness::experiments::fig10`]).

fn main() {
    wb_harness::experiments::run_bin("fig10", wb_harness::experiments::fig10);
}
