//! Differential trap-parity suite (ISSUE 5, satellite c): the same
//! faulting program must surface the same [`TrapKind`] on every backend
//! (Wasm VM, MiniJS VM with wasm-parity trap checks, native reference)
//! at every optimization level — and the virtual charges accumulated
//! *before* the trap must be bit-identical between the fused and
//! reference execution paths, and across repeated runs.
//!
//! Fixture notes: divisors and indices are loaded from runtime-written
//! global arrays so no opt level can fold the fault away; the OOB index
//! (2^27 elements ≈ 512 MiB of int) lands far past committed linear
//! memory, because Wasm bounds are page-granular while JS/native check
//! array extents. `INT_MIN / -1` is deliberately out of scope — Wasm
//! traps (overflow) where native semantics differ.

use wb_core::{
    try_run_compiled_js, try_run_native, try_run_wasm, JsSpec, Measurement, RunFailure, TrapKind,
    WasmSpec,
};
use wb_env::ResourceLimits;
use wb_minic::OptLevel;

/// Runtime-opaque division by zero: `zeros[3]` is written in a loop, so
/// the divisor is only known at run time.
const DIV0_SRC: &str = "int zeros[8];\n\
    void bench_main() {\n\
      for (int i = 0; i < 8; i++) zeros[i] = i / 9;\n\
      print_int(100 / zeros[3]);\n\
    }";

/// Runtime-opaque out-of-bounds read far past page bounds: index is
/// 2^27 + data[2] - 2, i.e. ~512 MiB into a 64-byte array.
const OOB_SRC: &str = "int data[16];\n\
    void bench_main() {\n\
      for (int i = 0; i < 16; i++) data[i] = i;\n\
      int big = 134217728 + data[2] - 2;\n\
      print_int(data[big]);\n\
    }";

/// Unbounded-enough recursion; the configured call-depth limit (64) is
/// what actually fires, identically on all backends.
const RECURSE_SRC: &str = "int rec(int n) {\n\
      if (n <= 0) return 0;\n\
      return rec(n - 1) + 1;\n\
    }\n\
    void bench_main() { print_int(rec(5000)); }";

/// The three fixtures with their expected unified trap kind and limits.
fn fixtures() -> Vec<(&'static str, &'static str, ResourceLimits, TrapKind)> {
    let shallow = ResourceLimits {
        max_call_depth: 64,
        ..ResourceLimits::default()
    };
    vec![
        (
            "div0",
            DIV0_SRC,
            ResourceLimits::default(),
            TrapKind::DivByZero,
        ),
        (
            "oob",
            OOB_SRC,
            ResourceLimits::default(),
            TrapKind::OutOfBounds,
        ),
        ("recurse", RECURSE_SRC, shallow, TrapKind::StackOverflow),
    ]
}

fn wasm_failure(src: &str, level: OptLevel, limits: ResourceLimits, reference: bool) -> RunFailure {
    let mut spec = WasmSpec::new(src);
    spec.level = level;
    spec.limits = limits;
    spec.reference_exec = reference;
    try_run_wasm(&spec, None).expect_err("fixture must trap on wasm")
}

fn js_failure(src: &str, level: OptLevel, limits: ResourceLimits, reference: bool) -> RunFailure {
    let mut spec = JsSpec::new(src);
    spec.level = level;
    spec.limits = limits;
    spec.reference_exec = reference;
    spec.trap_checks = true;
    try_run_compiled_js(&spec, None).expect_err("fixture must trap on js")
}

fn native_failure(src: &str, level: OptLevel, limits: ResourceLimits) -> RunFailure {
    try_run_native(src, &[], level, "bench_main", limits, None)
        .expect_err("fixture must trap on native")
}

/// Bit-exact signature of the charges accumulated before the trap.
fn sig(m: &Measurement) -> (u64, u64, u64, u64, u64, u64) {
    (
        m.time.0.to_bits(),
        m.clock.load_time.0.to_bits(),
        m.clock.compile_time.0.to_bits(),
        m.clock.exec_time.0.to_bits(),
        m.counts.total(),
        m.arith.total(),
    )
}

fn partial_sig(f: &RunFailure, what: &str) -> (u64, u64, u64, u64, u64, u64) {
    sig(f
        .partial
        .as_ref()
        .unwrap_or_else(|| panic!("{what}: trap must carry a partial measurement")))
}

#[test]
fn trap_kinds_agree_across_backends_at_every_level() {
    for (name, src, limits, want) in fixtures() {
        for level in OptLevel::ALL {
            let w = wasm_failure(src, level, limits, false);
            let j = js_failure(src, level, limits, false);
            let n = native_failure(src, level, limits);
            for (backend, f) in [("wasm", &w), ("js", &j), ("native", &n)] {
                assert_eq!(
                    f.error.kind(),
                    want,
                    "{name}/{level:?}/{backend}: got {} ({})",
                    f.error.kind(),
                    f.error
                );
            }
        }
    }
}

#[test]
fn pre_trap_charges_match_fused_and_reference_paths() {
    // The fused micro-op engines must charge exactly what the plain
    // interpreters charge right up to the trap — the fault-path
    // extension of the PR 2 bit-identical-measurement invariant.
    for (name, src, limits, _) in fixtures() {
        for level in OptLevel::ALL {
            let fused = wasm_failure(src, level, limits, false);
            let reference = wasm_failure(src, level, limits, true);
            assert_eq!(
                partial_sig(&fused, name),
                partial_sig(&reference, name),
                "{name}/{level:?}: wasm fused vs reference pre-trap charges"
            );
            let fused = js_failure(src, level, limits, false);
            let reference = js_failure(src, level, limits, true);
            assert_eq!(
                partial_sig(&fused, name),
                partial_sig(&reference, name),
                "{name}/{level:?}: js fused vs reference pre-trap charges"
            );
        }
    }
}

#[test]
fn pre_trap_charges_are_repeatable() {
    for (name, src, limits, want) in fixtures() {
        let a = wasm_failure(src, OptLevel::O2, limits, false);
        let b = wasm_failure(src, OptLevel::O2, limits, false);
        assert_eq!(
            partial_sig(&a, name),
            partial_sig(&b, name),
            "{name}: wasm pre-trap charges must be deterministic"
        );
        let a = js_failure(src, OptLevel::O2, limits, false);
        let b = js_failure(src, OptLevel::O2, limits, false);
        assert_eq!(
            partial_sig(&a, name),
            partial_sig(&b, name),
            "{name}: js pre-trap charges must be deterministic"
        );
        // Native runs carry no partial (the reference evaluator has no
        // virtual clock of its own) but must still fault identically.
        let a = native_failure(src, OptLevel::O2, limits);
        let b = native_failure(src, OptLevel::O2, limits);
        assert_eq!(a.error.kind(), want, "{name}: native kind");
        assert_eq!(a.error.kind(), b.error.kind(), "{name}: native repeatable");
    }
}
