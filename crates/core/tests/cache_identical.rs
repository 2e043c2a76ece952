//! The cache invariant, end to end: a run served from the artifact
//! cache must produce a bit-identical [`Measurement`] to an uncached
//! run — same virtual time (to the bit), same memory, same output,
//! same counts — across all three backends and across environments.

use wb_core::{
    native_artifact_key, try_run_compiled_js, try_run_native, try_run_wasm, ArtifactCache,
    ArtifactKey, JsSpec, Measurement, WasmSpec,
};
use wb_env::{Browser, Environment, JitMode, Platform, ResourceLimits, TierPolicy, Toolchain};
use wb_minic::OptLevel;

const KERNEL: &str = "#define N 20\n\
    double A[N][N];\n\
    void bench_main() {\n\
      for (int i = 0; i < N; i++)\n\
        for (int j = 0; j < N; j++)\n\
          A[i][j] = (double)(i * j % N) / N;\n\
      double s = 0.0;\n\
      for (int i = 0; i < N; i++)\n\
        for (int j = 0; j < N; j++) s += A[i][j] * A[j][i];\n\
      print_double(s);\n\
    }";

fn assert_identical(a: &Measurement, b: &Measurement, what: &str) {
    assert_eq!(
        a.time.0.to_bits(),
        b.time.0.to_bits(),
        "{what}: virtual time"
    );
    assert_eq!(a.memory_bytes, b.memory_bytes, "{what}: memory");
    assert_eq!(a.code_size, b.code_size, "{what}: code size");
    assert_eq!(a.output, b.output, "{what}: output");
    assert_eq!(a.counts.total(), b.counts.total(), "{what}: op counts");
    assert_eq!(a.context_switches, b.context_switches, "{what}: crossings");
}

#[test]
fn cached_wasm_runs_are_bit_identical() {
    let cache = ArtifactCache::new();
    let spec = WasmSpec::new(KERNEL);
    let uncached = try_run_wasm(&spec, None).unwrap();
    let miss = try_run_wasm(&spec, Some(&cache)).unwrap();
    let hit = try_run_wasm(&spec, Some(&cache)).unwrap();
    assert_identical(&uncached, &miss, "wasm cache miss");
    assert_identical(&uncached, &hit, "wasm cache hit");
    let s = cache.stats();
    assert_eq!((s.misses, s.hits), (1, 1));
}

#[test]
fn cached_wasm_is_identical_across_environments_and_tiers() {
    // One compile key serves many run configurations; each must match
    // its own uncached twin exactly.
    let cache = ArtifactCache::new();
    for env in [
        Environment::desktop_chrome(),
        Environment::new(Browser::Firefox, Platform::Desktop),
        Environment::new(Browser::Edge, Platform::Mobile),
    ] {
        for tier in [
            TierPolicy::Default,
            TierPolicy::BasicOnly,
            TierPolicy::OptimizingOnly,
        ] {
            let mut spec = WasmSpec::new(KERNEL);
            spec.env = env;
            spec.tier_policy = tier;
            let uncached = try_run_wasm(&spec, None).unwrap();
            let cached = try_run_wasm(&spec, Some(&cache)).unwrap();
            assert_identical(&uncached, &cached, "wasm env/tier grid");
        }
    }
    // 9 cells, one compile: run-time knobs are not part of the key.
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().hits, 8);
}

#[test]
fn cached_js_runs_are_bit_identical() {
    let cache = ArtifactCache::new();
    let spec = JsSpec::new(KERNEL);
    let uncached = try_run_compiled_js(&spec, None).unwrap();
    let miss = try_run_compiled_js(&spec, Some(&cache)).unwrap();
    let hit = try_run_compiled_js(&spec, Some(&cache)).unwrap();
    assert_identical(&uncached, &miss, "js cache miss");
    assert_identical(&uncached, &hit, "js cache hit");
}

#[test]
fn cached_native_runs_are_bit_identical() {
    let cache = ArtifactCache::new();
    let run = |cache| {
        let limits = ResourceLimits::default();
        try_run_native(KERNEL, &[], OptLevel::O2, "bench_main", limits, cache).unwrap()
    };
    let uncached = run(None);
    let miss = run(Some(&cache));
    let hit = run(Some(&cache));
    assert_identical(&uncached, &miss, "native cache miss");
    assert_identical(&uncached, &hit, "native cache hit");
}

#[test]
fn distinct_configurations_do_not_share_artifacts() {
    // Changing a compile-relevant knob must miss, and the result must
    // still match its uncached twin.
    let cache = ArtifactCache::new();
    for level in [OptLevel::O0, OptLevel::O2, OptLevel::Ofast] {
        let mut spec = WasmSpec::new(KERNEL);
        spec.level = level;
        let uncached = try_run_wasm(&spec, None).unwrap();
        let cached = try_run_wasm(&spec, Some(&cache)).unwrap();
        assert_identical(&uncached, &cached, "per-level");
    }
    assert_eq!(cache.stats().misses, 3, "each level compiles once");
}

/// One named field change to a spec.
type Edit<S> = (&'static str, fn(&mut S));

/// Assert that every edit in `changes` moves `base`'s artifact key and
/// every edit in `keeps` leaves it alone.
fn assert_key_inputs<S: Clone>(
    base: &S,
    key: fn(&S) -> ArtifactKey,
    changes: &[Edit<S>],
    keeps: &[Edit<S>],
) {
    for (edits, moves) in [(changes, true), (keeps, false)] {
        for (what, edit) in edits {
            let mut spec = base.clone();
            edit(&mut spec);
            assert_eq!(key(&spec) != key(base), moves, "{what}");
        }
    }
}

#[test]
fn artifact_keys_track_compile_inputs_only() {
    // A spec's key must change with every input its build reads, and
    // with none of the settings only its run reads: otherwise the cache
    // would serve a stale build, or compile one build twice.
    assert_key_inputs(
        &WasmSpec::new(KERNEL),
        WasmSpec::artifact_key,
        &[
            ("wasm source", |s| s.source = "void bench_main() {}"),
            ("wasm defines", |s| {
                s.defines = vec![("N".into(), "8".into())]
            }),
            ("wasm level", |s| s.level = OptLevel::O3),
            ("wasm toolchain", |s| s.toolchain = Toolchain::Emscripten),
            ("wasm heap limit", |s| s.heap_limit = Some(1 << 20)),
        ],
        &[
            ("wasm env", |s| s.env = Environment::desktop_firefox()),
            ("wasm tier policy", |s| {
                s.tier_policy = TierPolicy::BasicOnly
            }),
            ("wasm limits", |s| {
                s.limits = ResourceLimits::default().with_fuel(10)
            }),
            ("wasm reference exec", |s| s.reference_exec = true),
            ("wasm entry", |s| s.entry = "main"),
        ],
    );
    assert_key_inputs(
        &JsSpec::new(KERNEL),
        JsSpec::artifact_key,
        &[
            ("js source", |s| s.source = "void bench_main() {}"),
            ("js defines", |s| s.defines = vec![("N".into(), "8".into())]),
            ("js level", |s| s.level = OptLevel::O3),
            ("js toolchain", |s| s.toolchain = Toolchain::Emscripten),
            ("js trap checks", |s| s.trap_checks = true),
        ],
        &[
            ("js env", |s| s.env = Environment::desktop_firefox()),
            ("js jit", |s| s.jit = JitMode::Disabled),
            ("js limits", |s| {
                s.limits = ResourceLimits::default().with_fuel(10)
            }),
            ("js reference exec", |s| s.reference_exec = true),
            ("js entry", |s| s.entry = "main"),
        ],
    );
    let native = native_artifact_key(KERNEL, &[], OptLevel::O2);
    let defines = [("N".to_string(), "8".to_string())];
    for (what, key) in [
        (
            "source",
            native_artifact_key("void bench_main() {}", &[], OptLevel::O2),
        ),
        (
            "defines",
            native_artifact_key(KERNEL, &defines, OptLevel::O2),
        ),
        ("level", native_artifact_key(KERNEL, &[], OptLevel::O3)),
    ] {
        assert_ne!(key, native, "native {what}");
    }
    // The backend is part of every key.
    let wasm = WasmSpec::new(KERNEL).artifact_key();
    let js = JsSpec::new(KERNEL).artifact_key();
    assert!(wasm != js && js != native && native != wasm);
}
