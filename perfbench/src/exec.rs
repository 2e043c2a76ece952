//! Running one cell, untraced or traced.
//!
//! The untraced path goes through the public entry points the grid bins
//! and tables use (`GridEngine::try_*`, `try_run_manual_js`,
//! `apps::*_js`). The traced path runs the same steps as
//! `wb_core::measure` by calling each layer's public functions itself,
//! with a span around every call, so it must produce bit-identical
//! virtual measurements; `main` checks that it does.

use crate::trace::Spans;
use crate::workload::{Backend, Cell, Program};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use wb_benchmarks::apps::{hyphen, longjs};
use wb_core::artifacts::{CachedJs, CachedNative, CachedWasm};
use wb_core::host::standard_imports;
use wb_core::{
    apps, measure::reported_wasm_memory, try_run_manual_js, ArtifactCache, ArtifactKey,
    ArtifactKind, JsSpec, Measurement, RunError, RunFailure,
};
use wb_env::{
    calibration, ArithCounts, Environment, JitMode, ResourceLimits, TimeBucket, Toolchain,
    VirtualClock,
};
use wb_harness::{panic_message, GridEngine, Run};
use wb_jsvm::{JsValue, JsVm, JsVmConfig};
use wb_minic::{Compiler, OptLevel};
use wb_wasm_vm::{Instance, PreparedModule, Trap, WasmVmConfig};

/// `kind: message` of a failed cell.
pub type Failure = String;

fn describe(e: &RunError) -> Failure {
    format!("{}: {e}", e.kind())
}

/// Untraced: the cell through the program's own entry points.
pub fn run_untraced(engine: &GridEngine, cell: &Cell) -> Result<Measurement, Failure> {
    match cell {
        Cell::Grid { run, backend } => match backend {
            Backend::Wasm => engine.try_wasm(run),
            Backend::Js => engine.try_js(run),
            _ => engine.try_native(run),
        }
        .map_err(|f| describe(&f.error)),
        Cell::Manual { program, env, jit } => {
            let run = || -> Result<Measurement, RunError> {
                match (program, jit) {
                    (Program::LongJs(op), JitMode::Enabled) => apps::longjs_js(*op, *env),
                    (Program::Hyphen(lang), JitMode::Enabled) => apps::hyphen_js(*lang, *env),
                    // No public entry point runs Long.js with the JIT off;
                    // drive the VM the way `apps::longjs_js` does.
                    (Program::LongJs(op), _) => {
                        longjs_js(*op, *env, *jit, &mut Spans::off()).map_err(|f| f.error)
                    }
                    _ => {
                        let (source, entry) = manual_source(program);
                        let mut spec = JsSpec::new(&source);
                        spec.env = *env;
                        spec.jit = *jit;
                        spec.entry = entry;
                        try_run_manual_js(&spec).map_err(|f| f.error)
                    }
                }
            };
            std::panic::catch_unwind(AssertUnwindSafe(run))
                .unwrap_or_else(|p| Err(RunError::Panic(panic_message(p))))
                .map_err(|e| describe(&e))
        }
    }
}

fn manual_source(program: &Program) -> (String, &'static str) {
    match program {
        Program::Manual(m) => (m.full_source(), "bench_main"),
        Program::Hyphen(lang) => (
            hyphen::JS_SOURCE.to_string(),
            match lang {
                hyphen::Lang::EnUs => "bench_main",
                hyphen::Lang::Fr => "bench_fr",
            },
        ),
        Program::LongJs(_) => unreachable!("Long.js needs call arguments"),
    }
}

/// Traced: the same cell with a span around each layer call. A panic is
/// retried once, as `GridEngine` does by default; the second value
/// counts retries.
pub fn run_traced(
    cache: &ArtifactCache,
    cell: &Cell,
    spans: &mut Spans,
) -> (Result<Measurement, Failure>, u32) {
    let mut retries = 0;
    loop {
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            spans.span("harness.cell", |s| traced_cell(cache, cell, s))
        }));
        match attempt {
            Ok(r) => return (r.map_err(|f| describe(&f.error)), retries),
            Err(_) if retries == 0 => retries += 1,
            Err(p) => return (Err(describe(&RunError::Panic(panic_message(p)))), retries),
        }
    }
}

fn traced_cell(
    cache: &ArtifactCache,
    cell: &Cell,
    s: &mut Spans,
) -> Result<Measurement, RunFailure> {
    match cell {
        Cell::Grid { run, backend } => match backend {
            Backend::Wasm => wasm(cache, run, s),
            Backend::Js => compiled_js(cache, run, s),
            _ => native(cache, run, s),
        },
        Cell::Manual { program, env, jit } => match program {
            Program::LongJs(op) => longjs_js(*op, *env, *jit, s),
            _ => {
                let (source, entry) = manual_source(program);
                js_vm(&source, *env, *jit, entry, &[], s).map(|(m, _)| m)
            }
        },
    }
}

fn compiler_for(
    defines: &[(String, String)],
    level: OptLevel,
    toolchain: Toolchain,
    heap: Option<u64>,
) -> Compiler {
    let mut c = Compiler::new(toolchain).opt_level(level);
    if let Some(h) = heap {
        c = c.heap_limit(h);
    }
    for (k, v) in defines {
        c = c.define(k, v.clone());
    }
    c
}

fn host_trap(what: &str, e: impl std::fmt::Display) -> Trap {
    Trap::Host {
        message: format!("{what} failed: {e}"),
    }
}

fn wasm(cache: &ArtifactCache, run: &Run, s: &mut Spans) -> Result<Measurement, RunFailure> {
    let b = &run.benchmark;
    let defines = b.defines(run.size);
    let heap = Some(256 << 20);
    let key = ArtifactKey::compute(
        ArtifactKind::Wasm,
        b.source,
        &defines,
        run.level,
        run.toolchain,
        heap,
        false,
    );
    let artifact = s.span("core.cache_get", |s| {
        cache.wasm(key, || -> Result<CachedWasm, RunFailure> {
            let compiler = compiler_for(&defines, run.level, run.toolchain, heap);
            let out = s.span("minic.wasm_compile", |_| compiler.compile_wasm(b.source))?;
            let bytes = s.span("wasm.encode", |_| wb_wasm::encode_module(&out.module));
            s.add("minic.wasm_bytes", bytes.len() as f64);
            let module = s
                .span("wasm.decode", |_| wb_wasm::decode_module(&bytes))
                .map_err(|e| host_trap("decode", e))?;
            s.span("wasm.validate", |_| wb_wasm::validate(&module))
                .map_err(|e| host_trap("validation", e))?;
            let prepared = s.span("wasmvm.prepare", |_| PreparedModule::new(module));
            Ok(CachedWasm {
                bytes,
                strings: out.strings,
                prepared: Arc::new(prepared),
            })
        })
    })?;
    let profile = run.env.profile();
    let mut config = WasmVmConfig::for_env(&profile);
    config.tier_policy = run.tier_policy;
    config.exec_overhead = calibration::toolchain_exec_overhead(run.toolchain);
    config.limits = run.limits;
    let mut inst = s.span("wasmvm.instantiate", |_| {
        Instance::instantiate_prepared(
            Arc::clone(&artifact.prepared),
            artifact.bytes.len(),
            config,
            standard_imports(artifact.strings.clone()),
        )
    })?;
    let result = s.span("wasmvm.invoke", |_| inst.invoke("bench_main", &[]));
    let report = inst.report();
    s.add("wasmvm.ops", report.counts.total() as f64);
    let m = Measurement {
        time: report.total,
        clock: report.clock.clone(),
        memory_bytes: reported_wasm_memory(run.env, report.memory.linear_bytes),
        code_size: artifact.bytes.len() as u64,
        counts: report.counts,
        arith: report.arith,
        output: inst.output.clone(),
        context_switches: report.context_switches,
    };
    result.map(|_| m).map_err(RunFailure::from)
}

fn compiled_js(cache: &ArtifactCache, run: &Run, s: &mut Spans) -> Result<Measurement, RunFailure> {
    let b = &run.benchmark;
    let defines = b.defines(run.size);
    let key = ArtifactKey::compute(
        ArtifactKind::Js,
        b.source,
        &defines,
        run.level,
        run.toolchain,
        None,
        false,
    );
    let artifact = s.span("core.cache_get", |s| {
        cache.js(key, || -> Result<CachedJs, RunFailure> {
            let compiler = compiler_for(&defines, run.level, run.toolchain, None);
            let out = s.span("minic.js_compile", |_| compiler.compile_js(b.source))?;
            s.add("minic.js_bytes", out.source.len() as f64);
            Ok(CachedJs { source: out.source })
        })
    })?;
    js_vm(&artifact.source, run.env, run.jit, "bench_main", &[], s).map(|(m, _)| m)
}

fn native(cache: &ArtifactCache, run: &Run, s: &mut Spans) -> Result<Measurement, RunFailure> {
    let b = &run.benchmark;
    let defines = b.defines(run.size);
    let heap = Some(1 << 30);
    let key = ArtifactKey::compute(
        ArtifactKind::Native,
        b.source,
        &defines,
        run.level,
        Toolchain::Cheerp,
        heap,
        false,
    );
    let artifact = s.span("core.cache_get", |s| {
        cache.native(key, || -> Result<CachedNative, RunFailure> {
            let compiler = compiler_for(&defines, run.level, Toolchain::Cheerp, heap);
            let prog = s.span("minic.native_compile", |_| {
                compiler.compile_native(b.source)
            })?;
            Ok(CachedNative { prog })
        })
    })?;
    let out = s
        .span("native.run", |_| {
            artifact.prog.run_with_limits("bench_main", &[], run.limits)
        })
        .map_err(|e| RunFailure::from(RunError::Native(e)))?;
    s.add("native.ops", out.counts.total() as f64);
    let mut clock = VirtualClock::new();
    clock.advance(out.exec_time, TimeBucket::Exec);
    Ok(Measurement {
        time: out.exec_time,
        clock,
        memory_bytes: out.data_bytes,
        code_size: artifact.prog.code_size(),
        counts: out.counts,
        arith: ArithCounts::default(),
        output: out.output,
        context_switches: 0,
    })
}

/// Load `source` into a fresh JS VM and call `entry(args…)`; on success
/// the call's numeric result, if any, is returned beside the measurement.
fn js_vm(
    source: &str,
    env: Environment,
    jit: JitMode,
    entry: &str,
    args: &[JsValue],
    s: &mut Spans,
) -> Result<(Measurement, JsValue), RunFailure> {
    let profile = env.profile();
    let mut config = JsVmConfig::for_env(&profile);
    config.jit = jit;
    config.limits = ResourceLimits::default();
    let mut vm = JsVm::new(config);
    s.span("jsvm.load", |_| vm.load(source))?;
    let result = s.span("jsvm.call", |_| vm.call(entry, args));
    let report = vm.report();
    let (ic_hits, ic_misses) = vm.ic_stats();
    s.add("jsvm.ops", report.counts.total() as f64);
    s.add("jsvm.ic_hits", ic_hits as f64);
    s.add("jsvm.ic_misses", ic_misses as f64);
    s.add("jsvm.gc_count", report.heap.gc_count as f64);
    s.add("jsvm.allocs", report.heap.alloc_count as f64);
    s.add("jsvm.jit_compiles", report.jit_compiles as f64);
    let m = Measurement {
        time: report.total,
        clock: report.clock.clone(),
        memory_bytes: profile.js.baseline_memory_bytes + report.heap.peak_live_bytes,
        code_size: source.len() as u64,
        counts: report.counts,
        arith: report.arith,
        output: vm.output.clone(),
        context_switches: 0,
    };
    match result {
        Ok(v) => Ok((m, v)),
        Err(e) => Err(RunFailure {
            error: RunError::Js(e),
            partial: Some(Box::new(m)),
        }),
    }
}

/// Long.js on the JS VM, as `apps::longjs_js` runs it, under `jit`.
fn longjs_js(
    op: longjs::LongOp,
    env: Environment,
    jit: JitMode,
    s: &mut Spans,
) -> Result<Measurement, RunFailure> {
    let (a, b) = op.operands();
    let args = [
        JsValue::Num(longjs::ITERATIONS as f64),
        JsValue::Num(a as f64),
        JsValue::Num(b as f64),
    ];
    let (mut m, r) = js_vm(longjs::JS_SOURCE, env, jit, op.func(), &args, s)?;
    if let JsValue::Num(v) = r {
        m.output.push(format!("{}", v as i64));
    }
    Ok(m)
}
