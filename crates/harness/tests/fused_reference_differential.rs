//! Suite-wide fused-vs-reference differential test.
//!
//! Runs every benchmark at XS through both execution engines — the fused
//! micro-op engine (default) and the plain per-op interpreter
//! (`--reference-exec`) — across backends, Wasm tier policies and JS JIT
//! modes, asserting the resulting [`Measurement`]s are bit-identical.
//! This is the end-to-end proof of the cost-equivalence invariant the
//! per-VM differential tests check in miniature.

use wb_benchmarks::InputSize;
use wb_core::{try_run_compiled_js, try_run_wasm, Measurement};
use wb_env::{JitMode, TierPolicy};
use wb_harness::{parallel_map, Run};

fn assert_measurements_identical(a: &Measurement, b: &Measurement, what: &str) {
    assert_eq!(a.time.0.to_bits(), b.time.0.to_bits(), "{what}: time");
    let buckets = [
        ("load", a.clock.load_time, b.clock.load_time),
        ("compile", a.clock.compile_time, b.clock.compile_time),
        ("exec", a.clock.exec_time, b.clock.exec_time),
        ("gc", a.clock.gc_time, b.clock.gc_time),
        ("grow", a.clock.mem_grow_time, b.clock.mem_grow_time),
        (
            "ctx",
            a.clock.context_switch_time,
            b.clock.context_switch_time,
        ),
    ];
    for (name, x, y) in buckets {
        assert_eq!(x.0.to_bits(), y.0.to_bits(), "{what}: {name} time");
    }
    assert_eq!(a.memory_bytes, b.memory_bytes, "{what}: memory");
    assert_eq!(a.code_size, b.code_size, "{what}: code size");
    assert_eq!(a.counts.0, b.counts.0, "{what}: op counts");
    assert_eq!(a.arith, b.arith, "{what}: arith profile");
    assert_eq!(a.output, b.output, "{what}: program output");
    assert_eq!(
        a.context_switches, b.context_switches,
        "{what}: context switches"
    );
}

#[test]
fn wasm_suite_matches_across_engines_and_tier_policies() {
    let mut cells = Vec::new();
    for b in wb_benchmarks::all_benchmarks() {
        for tier_policy in [
            TierPolicy::Default,
            TierPolicy::BasicOnly,
            TierPolicy::OptimizingOnly,
        ] {
            let mut run = Run::new(b.clone(), InputSize::XS);
            run.tier_policy = tier_policy;
            cells.push(run);
        }
    }
    parallel_map(cells, |run| {
        let what = format!("{} wasm {:?}", run.benchmark.name, run.tier_policy);
        // `Run::new` runs the fused engine; flip only `reference_exec`.
        let mut spec = run.wasm_spec();
        let fused = try_run_wasm(&spec, None).unwrap_or_else(|e| panic!("{what}: {e}"));
        spec.reference_exec = true;
        let reference = try_run_wasm(&spec, None).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_measurements_identical(&fused, &reference, &what);
    });
}

#[test]
fn js_suite_matches_across_engines_and_jit_modes() {
    let mut cells = Vec::new();
    for b in wb_benchmarks::all_benchmarks() {
        for jit in [JitMode::Enabled, JitMode::Disabled] {
            let mut run = Run::new(b.clone(), InputSize::XS);
            run.jit = jit;
            cells.push(run);
        }
    }
    parallel_map(cells, |run| {
        let what = format!("{} js {:?}", run.benchmark.name, run.jit);
        // `Run::new` runs the fused engine; flip only `reference_exec`.
        let mut spec = run.js_spec();
        let fused = try_run_compiled_js(&spec, None).unwrap_or_else(|e| panic!("{what}: {e}"));
        spec.reference_exec = true;
        let reference = try_run_compiled_js(&spec, None).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_measurements_identical(&fused, &reference, &what);
    });
}
