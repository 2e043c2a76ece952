//! Fig 6: the x86 (native control) build across `-O` levels
//! ([`wb_harness::experiments::fig6`]).

fn main() {
    wb_harness::experiments::run_bin("fig6", wb_harness::experiments::fig6);
}
