//! The §4.2.1 counter-intuition, live: compile the ADPCM-style benchmark
//! at every optimization level for all three targets and watch `-Ofast`
//! lose to `-Oz` on WebAssembly while winning on x86.
//!
//! ```sh
//! cargo run --release --example optimization_levels
//! ```

use wasmbench::benchmarks::suite;
use wasmbench::benchmarks::InputSize;
use wasmbench::core::{try_run_compiled_js, try_run_native, try_run_wasm, JsSpec, WasmSpec};
use wasmbench::env::ResourceLimits;
use wasmbench::minic::OptLevel;

fn main() {
    let bench = suite::find("ADPCM").expect("ADPCM is in the corpus");
    let defines = bench.defines(InputSize::M);
    println!(
        "benchmark: {} ({}) — {}\n",
        bench.name,
        bench.suite.name(),
        bench.description
    );

    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>14}",
        "level", "wasm time", "js time", "x86 time", "wasm binary"
    );
    let mut baseline_wasm = None;
    for level in OptLevel::EVALUATED {
        let mut wspec = WasmSpec::new(bench.source);
        wspec.defines = defines.clone();
        wspec.level = level;
        let w = try_run_wasm(&wspec, None).expect("wasm");

        let mut jspec = JsSpec::new(bench.source);
        jspec.defines = defines.clone();
        jspec.level = level;
        let j = try_run_compiled_js(&jspec, None).expect("js");

        let limits = ResourceLimits::default();
        let n = try_run_native(bench.source, &defines, level, "bench_main", limits, None)
            .expect("native");

        assert_eq!(w.output, j.output);
        assert_eq!(w.output, n.output);
        if level == OptLevel::O2 {
            baseline_wasm = Some(w.time.0);
        }
        println!(
            "{:<8} {:>12} {:>12} {:>12} {:>12} B",
            level.to_string(),
            w.time.to_string(),
            j.time.to_string(),
            n.time.to_string(),
            w.code_size
        );
    }

    // The Fig 7 effect: -Ofast on the Wasm target skips dead-global-store
    // elimination (the LLVM#37449-style miscompile), so ADPCM executes
    // dead stores that -O2 removed.
    let mut ofast = WasmSpec::new(bench.source);
    ofast.defines = defines.clone();
    ofast.level = OptLevel::Ofast;
    let w = try_run_wasm(&ofast, None).expect("wasm");
    println!(
        "\nFig 7 check: ADPCM -Ofast/-O2 wasm time = {:.3}x (dead stores retained at -Ofast)",
        w.time.0 / baseline_wasm.expect("baseline measured")
    );
}
