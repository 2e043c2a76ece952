//! Table 2: geometric means of the `-O` level ratios of JS, Wasm and x86
//! ([`wb_harness::experiments::table2`]).

fn main() {
    wb_harness::experiments::run_bin("table2", wb_harness::experiments::table2);
}
