//! Fig 5: Wasm/JS execution time and code size across `-O` levels
//! ([`wb_harness::experiments::fig5`]).

fn main() {
    wb_harness::experiments::run_bin("fig5", wb_harness::experiments::fig5);
}
