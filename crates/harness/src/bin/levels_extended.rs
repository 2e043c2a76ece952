//! Extension: all seven `-O` levels over a representative slice
//! ([`wb_harness::experiments::levels_extended`]).

fn main() {
    wb_harness::experiments::run_bin("levels_extended", wb_harness::experiments::levels_extended);
}
