//! Table 9: manually-written JavaScript vs Cheerp-generated JavaScript vs
//! WebAssembly — LOC, execution time and memory on desktop Chrome.

use wb_benchmarks::manual_js::all_manual;
use wb_benchmarks::InputSize;
use wb_core::report::{kilobytes, millis, Table};
use wb_core::{try_run_manual_js, JsSpec};
use wb_harness::{Cli, GridEngine, Run};

fn main() {
    let cli = Cli::from_env();
    let engine = GridEngine::from_cli(&cli);

    let rows = engine.map(all_manual(), |m| {
        // Manual implementation.
        let src = m.full_source();
        let mut spec = JsSpec::new(&src);
        spec.entry = "bench_main";
        let manual = try_run_manual_js(&spec).unwrap_or_else(|f| {
            eprintln!("error: {}/manual-js [{}]: {f}", m.name, f.error.kind());
            std::process::exit(1);
        });
        // Counterpart compiled versions at the manual benchmark's scale
        // (XS-ish fixed sizes; the paper used the default inputs).
        let counterpart = wb_benchmarks::suite::find(m.counterpart).unwrap_or_else(|| {
            eprintln!("error: {}: unknown counterpart '{}'", m.name, m.counterpart);
            std::process::exit(2);
        });
        let run = Run::new(counterpart, InputSize::S);
        let cheerp = engine.js(&run);
        let wasm = engine.wasm(&run);
        (m, manual, cheerp, wasm)
    });

    let mut t = Table::new(
        "Table 9: manually-written JS vs Cheerp JS vs Wasm (Chrome desktop)",
        &[
            "Benchmark",
            "LOC",
            "Manual ms",
            "Cheerp ms",
            "WASM ms",
            "Manual KB",
            "Cheerp KB",
            "WASM KB",
        ],
    );
    for (m, manual, cheerp, wasm) in &rows {
        t.row(vec![
            m.name.into(),
            m.loc().to_string(),
            millis(manual.time),
            millis(cheerp.time),
            millis(wasm.time),
            kilobytes(manual.memory_bytes),
            kilobytes(cheerp.memory_bytes),
            kilobytes(wasm.memory_bytes),
        ]);
    }
    cli.emit("table9", &t);
    engine.finish_with(&cli, "table9");
}
