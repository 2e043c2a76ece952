//! Drivers for the real-world application analogues (§4.1.3, Table 10)
//! and the §4.5 JS↔Wasm context-switch microbenchmark.

use crate::host::standard_imports;
use crate::measure::{try_run_manual_js, try_run_wasm, JsSpec, Measurement, RunError, WasmSpec};
use std::collections::HashMap;
use wb_benchmarks::apps::{ffmpeg, hyphen, longjs};
use wb_env::{calibration, Environment, Nanos, Toolchain, VirtualClock};
use wb_jsvm::{JsValue, JsVm, JsVmConfig};
use wb_minic::Compiler;
use wb_wasm_vm::{Instance, Value, WasmVmConfig};

/// Per-worker spawn + marshalling overhead in the WebWorker pool model
/// (worker creation, `postMessage` of the stripe boundaries).
pub const WORKER_SPAWN: Nanos = Nanos(300_000.0); // 0.3 ms

/// Run one Long.js operation on the Wasm implementation (hand-written
/// i64 module, like upstream `wasm.wat`): the driver loops in "JS",
/// crossing the boundary for every operation with the operands split into
/// (hi, lo) i32 pairs, exactly as Long.js does.
pub fn longjs_wasm(op: longjs::LongOp, env: Environment) -> Result<Measurement, RunError> {
    let module = longjs::wasm_module();
    let bytes = wb_wasm::encode_module(&module);
    let profile = env.profile();
    let config = WasmVmConfig::for_env(&profile); // hand-written: no toolchain overhead
    let mut inst = Instance::instantiate(&bytes, config, HashMap::new())?;
    let (a, b) = op.operands();
    let (a_hi, a_lo) = ((a >> 32) as i32, a as i32);
    let (b_hi, b_lo) = ((b >> 32) as i32, b as i32);
    let mut acc: i32 = 0;
    for _ in 0..longjs::ITERATIONS {
        let r = inst.invoke(
            op.func(),
            &[
                Value::I32(a_hi),
                Value::I32(a_lo),
                Value::I32(b_hi),
                Value::I32(b_lo),
            ],
        )?;
        if let Some(Value::I32(lo)) = r {
            acc |= lo;
        }
    }
    let mut m = Measurement::of_wasm(&inst, env, bytes.len());
    m.output.push(acc.to_string());
    Ok(m)
}

/// Run one Long.js operation on the JS implementation (16-bit limb
/// library, like upstream `long.js`).
pub fn longjs_js(op: longjs::LongOp, env: Environment) -> Result<Measurement, RunError> {
    let profile = env.profile();
    let mut vm = JsVm::new(JsVmConfig::for_env(&profile));
    vm.load(longjs::JS_SOURCE)?;
    let (a, b) = op.operands();
    let r = vm.call(
        op.func(),
        &[
            JsValue::Num(longjs::ITERATIONS as f64),
            JsValue::Num(a as f64),
            JsValue::Num(b as f64),
        ],
    )?;
    let mut m = Measurement::of_js(&vm, env, longjs::JS_SOURCE.len());
    if let JsValue::Num(v) = r {
        m.output.push(format!("{}", v as i64));
    }
    Ok(m)
}

/// Hyphenopoly, Wasm build (MiniC → Cheerp-profile Wasm).
pub fn hyphen_wasm(lang: hyphen::Lang, env: Environment) -> Result<Measurement, RunError> {
    let mut spec = WasmSpec::new(hyphen::C_SOURCE);
    spec.defines = vec![
        ("TEXTLEN".into(), hyphen::TEXT_BYTES.to_string()),
        ("LANG".into(), lang.define().to_string()),
    ];
    spec.env = env;
    try_run_wasm(&spec, None).map_err(|f| f.error)
}

/// Hyphenopoly, hand-written JS build.
pub fn hyphen_js(lang: hyphen::Lang, env: Environment) -> Result<Measurement, RunError> {
    let mut spec = JsSpec::new(hyphen::JS_SOURCE);
    spec.env = env;
    spec.entry = match lang {
        hyphen::Lang::EnUs => "bench_main",
        hyphen::Lang::Fr => "bench_fr",
    };
    try_run_manual_js(&spec).map_err(|f| f.error)
}

/// FFmpeg analogue, Wasm build: the stream is striped across
/// [`ffmpeg::WORKER_COUNT`] simulated WebWorkers, each running its own
/// instance; wall time = max(worker time) + spawn overhead (ffmpeg.wasm's
/// pthread-pool structure).
pub fn ffmpeg_wasm(env: Environment) -> Result<Measurement, RunError> {
    let stripe = ffmpeg::STREAM_BYTES / ffmpeg::WORKER_COUNT;
    let mut worker_times = Vec::new();
    let mut output = Vec::new();
    let mut total_counts = wb_env::OpCounts::new();
    let mut arith = wb_env::ArithCounts::default();
    let mut memory = 0u64;
    let mut code_size = 0u64;
    let mut switches = 0u64;
    for w in 0..ffmpeg::WORKER_COUNT {
        let compiler = Compiler::cheerp()
            .define("STREAMLEN", stripe)
            .define("CHUNK", ffmpeg::CHUNK_BYTES)
            .define("SEED0", 20260706 + w);
        let out = compiler.compile_wasm(ffmpeg::C_SOURCE)?;
        let bytes = wb_wasm::encode_module(&out.module);
        let profile = env.profile();
        let mut config = WasmVmConfig::for_env(&profile);
        config.exec_overhead = calibration::toolchain_exec_overhead(Toolchain::Cheerp);
        let mut inst = Instance::instantiate(&bytes, config, standard_imports(out.strings))?;
        inst.invoke("bench_main", &[])?;
        let worker = Measurement::of_wasm(&inst, env, bytes.len());
        worker_times.push(worker.time);
        output.extend(worker.output);
        total_counts = total_counts.merged(&worker.counts);
        arith = merge_arith(arith, worker.arith);
        memory += worker.memory_bytes;
        code_size = worker.code_size;
        switches += worker.context_switches;
    }
    let max_worker = worker_times
        .iter()
        .fold(Nanos::ZERO, |acc, t| if t.0 > acc.0 { *t } else { acc });
    let time = max_worker + WORKER_SPAWN * ffmpeg::WORKER_COUNT as f64;
    let mut clock = VirtualClock::new();
    clock.advance(time, wb_env::TimeBucket::Exec);
    Ok(Measurement {
        time,
        clock,
        memory_bytes: memory, // all workers' instances are resident
        code_size,
        counts: total_counts,
        arith,
        output,
        context_switches: switches,
    })
}

/// FFmpeg analogue, JS build: single-threaded (node-ffmpeg has no
/// parallelization).
pub fn ffmpeg_js(env: Environment) -> Result<Measurement, RunError> {
    let mut spec = JsSpec::new(ffmpeg::JS_SOURCE);
    spec.env = env;
    try_run_manual_js(&spec).map_err(|f| f.error)
}

fn merge_arith(a: wb_env::ArithCounts, b: wb_env::ArithCounts) -> wb_env::ArithCounts {
    wb_env::ArithCounts {
        add: a.add + b.add,
        mul: a.mul + b.mul,
        div: a.div + b.div,
        rem: a.rem + b.rem,
        shift: a.shift + b.shift,
        and: a.and + b.and,
        or: a.or + b.or,
    }
}

/// The §4.5 context-switch microbenchmark: ping-pong across the JS↔Wasm
/// boundary `calls` times and report the boundary time per call.
pub fn context_switch_bench(env: Environment, calls: u32) -> Result<Nanos, RunError> {
    let mut mb = wb_wasm::ModuleBuilder::new();
    let mut f = mb.func("nop", vec![], vec![]);
    f.op(wb_wasm::Instr::Nop).done();
    mb.finish_func(f, true);
    let bytes = wb_wasm::encode_module(&mb.build());
    let profile = env.profile();
    let mut inst = Instance::instantiate(&bytes, WasmVmConfig::for_env(&profile), HashMap::new())?;
    for _ in 0..calls {
        inst.invoke("nop", &[])?;
    }
    let report = inst.report();
    Ok(Nanos(report.clock.context_switch_time.0 / calls as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_benchmarks::apps::longjs::LongOp;
    use wb_env::{Browser, Platform};

    #[test]
    fn longjs_wasm_beats_js_and_uses_fewer_ops() {
        let env = Environment::desktop_chrome();
        for op in LongOp::ALL {
            let w = longjs_wasm(op, env).unwrap();
            let j = longjs_js(op, env).unwrap();
            // Table 10: Wasm faster on every Long.js operation.
            assert!(
                w.time.0 < j.time.0,
                "{}: wasm {} vs js {}",
                op.name(),
                w.time,
                j.time
            );
            // Table 12: JS executes many times more arithmetic ops.
            assert!(
                j.arith.total() > 4 * w.arith.total(),
                "{}: js {} vs wasm {}",
                op.name(),
                j.arith.total(),
                w.arith.total()
            );
        }
    }

    #[test]
    fn hyphen_versions_agree_and_are_close() {
        let env = Environment::desktop_chrome();
        let w = hyphen_wasm(wb_benchmarks::apps::hyphen::Lang::EnUs, env).unwrap();
        let j = hyphen_js(wb_benchmarks::apps::hyphen::Lang::EnUs, env).unwrap();
        assert_eq!(w.output, j.output, "same hyphenation counts");
        let ratio = w.time.0 / j.time.0;
        // Table 10: ratio ≈ 0.94 (close, Wasm marginally faster).
        assert!(ratio < 1.1, "ratio {ratio}");
        assert!(ratio > 0.3, "ratio {ratio}");
    }

    #[test]
    fn ffmpeg_wasm_parallelism_wins_big() {
        let env = Environment::desktop_chrome();
        let w = ffmpeg_wasm(env).unwrap();
        let j = ffmpeg_js(env).unwrap();
        let ratio = w.time.0 / j.time.0;
        // Table 10: ratio ≈ 0.275 (4 workers).
        assert!(ratio < 0.6, "ratio {ratio}");
    }

    #[test]
    fn firefox_context_switch_is_far_cheaper() {
        let chrome = context_switch_bench(Environment::desktop_chrome(), 50).unwrap();
        let firefox =
            context_switch_bench(Environment::new(Browser::Firefox, Platform::Desktop), 50)
                .unwrap();
        let ratio = firefox.0 / chrome.0;
        // §4.5: Firefox ≈ 0.13× of Chrome. The Firefox Wasm speed factor
        // (0.61×) also scales its switch cost, so allow a band.
        assert!(ratio < 0.2, "ratio {ratio}");
    }
}
