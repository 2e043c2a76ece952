//! Per-experiment regeneration benches: one group per paper
//! table/figure, timing the pipeline that produces each artifact on a
//! reduced grid (std-only timing harness; run with
//! `cargo bench -p wb-bench --bench experiments`). The full-grid
//! artifacts come from the `wb-harness` binaries
//! (`cargo run -p wb-harness --bin <exp>`).

use std::hint::black_box;
use wb_bench::timing::Bench;
use wb_bench::{js_once, native_once, representative_benchmarks, wasm_once};
use wb_benchmarks::apps::longjs::LongOp;
use wb_benchmarks::InputSize;
use wb_core::apps;
use wb_core::stats::speedup_split;
use wb_env::{Environment, JitMode, TierPolicy};
use wb_minic::OptLevel;

/// Fig 5 / Fig 6 / Table 2 / Fig 11: opt-level sweep on one benchmark.
fn bench_opt_levels() {
    let gemm = wb_benchmarks::suite::find("gemm").expect("gemm");
    let g = Bench::group("fig5_fig6_table2_fig11");
    for level in OptLevel::EVALUATED {
        g.run(&format!("wasm_{}", level.name()), || {
            wasm_once(&gemm, InputSize::S, level).time
        });
        g.run(&format!("x86_{}", level.name()), || {
            native_once(&gemm, InputSize::S, level).time
        });
    }
}

/// Fig 9 / Tables 3–6: the input-size sweep row for one benchmark.
fn bench_input_sizes() {
    let jacobi = wb_benchmarks::suite::find("jacobi-2d").expect("jacobi-2d");
    let g = Bench::group("fig9_tables3_6");
    for size in [InputSize::XS, InputSize::M] {
        g.run(&format!("pair_{}", size.code()), || {
            let w = wasm_once(&jacobi, size, OptLevel::O2);
            let j = js_once(&jacobi, size, OptLevel::O2);
            speedup_split(&[(j.time.0, w.time.0)])
        });
    }
}

/// Fig 10 / Table 7: the JIT/tier configurations on one benchmark.
fn bench_jit_configs() {
    let aes = wb_benchmarks::suite::find("AES").expect("AES");
    let g = Bench::group("fig10_table7");
    g.run("js_jit_on_off", || {
        let mut spec = wb_core::JsSpec::new(aes.source);
        spec.defines = aes.defines(InputSize::S);
        let on = wb_core::try_run_compiled_js(&spec, None).expect("runs");
        spec.jit = JitMode::Disabled;
        let off = wb_core::try_run_compiled_js(&spec, None).expect("runs");
        off.time.0 / on.time.0
    });
    g.run("wasm_tier_policies", || {
        let mut spec = wb_core::WasmSpec::new(aes.source);
        spec.defines = aes.defines(InputSize::S);
        let default = wb_core::try_run_wasm(&spec, None).expect("runs");
        spec.tier_policy = TierPolicy::BasicOnly;
        let basic = wb_core::try_run_wasm(&spec, None).expect("runs");
        spec.tier_policy = TierPolicy::OptimizingOnly;
        let opt = wb_core::try_run_wasm(&spec, None).expect("runs");
        (basic.time.0 / default.time.0, opt.time.0 / default.time.0)
    });
}

/// Figs 12/13 / Table 8: the six-environment sweep for one benchmark.
fn bench_environments() {
    let durbin = wb_benchmarks::suite::find("durbin").expect("durbin");
    Bench::group("fig12_13_table8").run("six_envs", || {
        let mut total = 0.0;
        for env in Environment::all_six() {
            let mut spec = wb_core::WasmSpec::new(durbin.source);
            spec.defines = durbin.defines(InputSize::S);
            spec.env = env;
            total += wb_core::try_run_wasm(&spec, None).expect("runs").time.0;
        }
        total
    });
}

/// Table 9: a manual-JS row.
fn bench_manual_js() {
    let manual = wb_benchmarks::manual_js::all_manual();
    let sha = manual
        .iter()
        .find(|m| m.name == "SHA (W3C)")
        .expect("SHA (W3C)");
    let src = sha.full_source();
    Bench::group("table9").run("sha_w3c", || {
        let spec = wb_core::JsSpec::new(&src);
        wb_core::try_run_manual_js(&spec).expect("runs").time
    });
}

/// Tables 10/12: the application drivers.
fn bench_apps() {
    let env = Environment::desktop_chrome();
    let g = Bench::group("table10_table12");
    g.run("longjs_mul_pair", || {
        let w = apps::longjs_wasm(LongOp::Multiplication, env).expect("wasm");
        let j = apps::longjs_js(LongOp::Multiplication, env).expect("js");
        (w.arith.total(), j.arith.total())
    });
    g.run("hyphen_en_pair", || {
        let w = apps::hyphen_wasm(wb_benchmarks::apps::hyphen::Lang::EnUs, env).expect("wasm");
        let j = apps::hyphen_js(wb_benchmarks::apps::hyphen::Lang::EnUs, env).expect("js");
        w.time.0 / j.time.0
    });
    g.run("ctxswitch_microbench", || {
        apps::context_switch_bench(env, 100).expect("runs")
    });
}

/// §4.2.2: the Cheerp/Emscripten pair on the representative slice.
fn bench_compilers() {
    let reps = representative_benchmarks();
    Bench::group("compilers_4_2_2").run("cheerp_vs_emscripten", || {
        let bench = &reps[0];
        let cheerp = wasm_once(bench, InputSize::XS, OptLevel::O2);
        let mut spec = wb_core::WasmSpec::new(bench.source);
        spec.defines = bench.defines(InputSize::XS);
        spec.toolchain = wb_env::Toolchain::Emscripten;
        let emscripten = wb_core::try_run_wasm(&spec, None).expect("runs");
        black_box(cheerp.time.0 / emscripten.time.0)
    });
}

fn main() {
    bench_opt_levels();
    bench_input_sizes();
    bench_jit_configs();
    bench_environments();
    bench_manual_js();
    bench_apps();
    bench_compilers();
}
