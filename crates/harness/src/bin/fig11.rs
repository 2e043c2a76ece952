//! Fig 11: five-number summaries of the `-O` level ratios
//! ([`wb_harness::experiments::fig11`]).

fn main() {
    wb_harness::experiments::run_bin("fig11", wb_harness::experiments::fig11);
}
