//! Figs 12/13 + Table 8: Wasm and JS across the six deployment settings
//! ([`wb_harness::experiments::fig12_13`]).

fn main() {
    wb_harness::experiments::run_bin("fig12_13", wb_harness::experiments::fig12_13);
}
