//! # wb-bench — wall-clock benchmarks (std-only)
//!
//! Two benchmark families, both plain `harness = false` programs driven
//! by the small [`timing`] module (no external bench framework, so the
//! workspace builds offline):
//!
//! * **Simulator hot paths** (`benches/simulator.rs`): wall-clock
//!   performance of the substrates themselves — Wasm decode/validate/
//!   interpret, MiniJS parse/compile/run, MiniC compilation, GC.
//! * **Experiment regeneration** (`benches/experiments.rs`): one group
//!   per paper table/figure, timing the virtual-measurement pipeline
//!   that regenerates each artifact (on reduced grids so `cargo bench`
//!   stays tractable). The *virtual* numbers the study reports come from
//!   the `wb-harness` binaries; these benches track the cost of producing
//!   them.
//!
//! Shared helpers live here so both bench files stay declarative.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;

use wb_benchmarks::{Benchmark, InputSize};
use wb_core::{try_run_compiled_js, try_run_native, try_run_wasm, JsSpec, Measurement, WasmSpec};
use wb_env::ResourceLimits;
use wb_minic::OptLevel;

/// A small representative slice of the corpus (one per category family),
/// used by the per-experiment regeneration benches.
pub fn representative_benchmarks() -> Vec<Benchmark> {
    [
        "gemm",
        "jacobi-2d",
        "durbin",
        "floyd-warshall",
        "AES",
        "DFADD",
        "SHA",
    ]
    .iter()
    .map(|n| wb_benchmarks::suite::find(n).expect("representative benchmark exists"))
    .collect()
}

/// Run one benchmark's Wasm build at a size/level (bench helper).
pub fn wasm_once(b: &Benchmark, size: InputSize, level: OptLevel) -> Measurement {
    let mut spec = WasmSpec::new(b.source);
    spec.defines = b.defines(size);
    spec.level = level;
    try_run_wasm(&spec, None).expect("bench wasm run")
}

/// Run one benchmark's JS build at a size/level (bench helper).
pub fn js_once(b: &Benchmark, size: InputSize, level: OptLevel) -> Measurement {
    let mut spec = JsSpec::new(b.source);
    spec.defines = b.defines(size);
    spec.level = level;
    try_run_compiled_js(&spec, None).expect("bench js run")
}

/// Run one benchmark's native build at a size/level (bench helper).
pub fn native_once(b: &Benchmark, size: InputSize, level: OptLevel) -> Measurement {
    let (defines, limits) = (b.defines(size), ResourceLimits::default());
    try_run_native(b.source, &defines, level, "bench_main", limits, None).expect("bench native run")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representatives_resolve_and_run() {
        let reps = representative_benchmarks();
        assert_eq!(reps.len(), 7);
        let m = wasm_once(&reps[0], InputSize::XS, OptLevel::O2);
        assert!(!m.output.is_empty());
    }
}
