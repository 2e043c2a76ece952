//! The §4.5 experiment on one benchmark: run gemm in all six deployment
//! settings (Chrome/Firefox/Edge × desktop/mobile) and print the Table 8
//! style comparison, plus the JS↔Wasm context-switch microbenchmark.
//!
//! ```sh
//! cargo run --release --example browser_shootout
//! ```

use wasmbench::benchmarks::{suite, InputSize};
use wasmbench::core::apps::context_switch_bench;
use wasmbench::core::{try_run_compiled_js, try_run_wasm, JsSpec, WasmSpec};
use wasmbench::env::{Browser, Environment, Platform};

fn main() {
    let bench = suite::find("gemm").expect("gemm is in the corpus");
    let defines = bench.defines(InputSize::M);

    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>12}",
        "environment", "wasm time", "js time", "wasm KB", "js KB"
    );
    for env in Environment::all_six() {
        let mut wspec = WasmSpec::new(bench.source);
        wspec.defines = defines.clone();
        wspec.env = env;
        let w = try_run_wasm(&wspec, None).expect("wasm");

        let mut jspec = JsSpec::new(bench.source);
        jspec.defines = defines.clone();
        jspec.env = env;
        let j = try_run_compiled_js(&jspec, None).expect("js");

        println!(
            "{:<22} {:>12} {:>12} {:>12} {:>12}",
            env.label(),
            w.time.to_string(),
            j.time.to_string(),
            w.memory_bytes / 1024,
            j.memory_bytes / 1024
        );
    }

    println!("\nJS↔Wasm context-switch cost per boundary crossing (desktop):");
    let chrome = context_switch_bench(Environment::desktop_chrome(), 200).expect("bench");
    for browser in Browser::ALL {
        let env = Environment::new(browser, Platform::Desktop);
        let ns = context_switch_bench(env, 200).expect("bench");
        println!(
            "  {:<8} {:>8.1} ns  ({:.2}x of Chrome)",
            browser.name(),
            ns.0,
            ns.0 / chrome.0
        );
    }
}
