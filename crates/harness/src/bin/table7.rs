//! Table 7: Wasm tier policies on Chrome and Firefox
//! ([`wb_harness::experiments::table7`]).

fn main() {
    wb_harness::experiments::run_bin("table7", wb_harness::experiments::table7);
}
