//! §4.2.2: Cheerp vs Emscripten ([`wb_harness::experiments::compilers`]).

fn main() {
    wb_harness::experiments::run_bin("compilers", wb_harness::experiments::compilers);
}
