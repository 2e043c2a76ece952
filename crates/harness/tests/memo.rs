//! The grid engine's measurement memo: a memoized cell must be
//! bit-identical to executing it alone, cells that differ in any run
//! setting their backend reads must never share a result, and failures
//! must never be stored.

use wb_benchmarks::InputSize;
use wb_core::{ArtifactCache, Measurement, RunFailure, TrapKind};
use wb_env::{Browser, Environment, JitMode, Platform, ResourceLimits, TierPolicy};
use wb_harness::{GridEngine, MemoStats, Run};

#[derive(Debug, Clone, Copy)]
enum Backend {
    Wasm,
    Js,
    Native,
}

const BACKENDS: [Backend; 3] = [Backend::Wasm, Backend::Js, Backend::Native];

fn alone(run: &Run, backend: Backend) -> Result<Measurement, RunFailure> {
    match backend {
        Backend::Wasm => run.try_wasm_with(None),
        Backend::Js => run.try_js_with(None),
        Backend::Native => run.try_native_with(None),
    }
}

fn on_engine(engine: &GridEngine, run: &Run, backend: Backend) -> Result<Measurement, RunFailure> {
    match backend {
        Backend::Wasm => engine.try_wasm(run),
        Backend::Js => engine.try_js(run),
        Backend::Native => engine.try_native(run),
    }
}

/// Every field of a measurement, with times compared bit for bit.
fn assert_bit_identical(got: &Measurement, want: &Measurement, what: &str) {
    assert_eq!(got.time.0.to_bits(), want.time.0.to_bits(), "{what}: time");
    // `Debug` prints each f64 bucket in shortest round-trip form, so
    // equal text means equal bits.
    assert_eq!(
        format!("{:?}", got.clock),
        format!("{:?}", want.clock),
        "{what}: clock"
    );
    assert_eq!(got.memory_bytes, want.memory_bytes, "{what}: memory");
    assert_eq!(got.code_size, want.code_size, "{what}: code size");
    assert_eq!(got.counts, want.counts, "{what}: counts");
    assert_eq!(got.arith, want.arith, "{what}: arith");
    assert_eq!(got.output, want.output, "{what}: output");
    assert_eq!(
        got.context_switches, want.context_switches,
        "{what}: context switches"
    );
}

/// The base cell and one variant per run setting.
fn variants() -> Vec<(&'static str, Run)> {
    // At S the JS JIT kicks in, so the JIT mode moves JS time;
    // optimizing-only moves Wasm compile time at any size.
    let b = wb_benchmarks::find("trisolv").expect("trisolv in corpus");
    let base = Run::new(b, InputSize::S);
    let mut env = base.clone();
    env.env = Environment::new(Browser::Firefox, Platform::Mobile);
    let mut tier = base.clone();
    tier.tier_policy = TierPolicy::OptimizingOnly;
    let mut jit = base.clone();
    jit.jit = JitMode::Disabled;
    let mut limits = base.clone();
    limits.limits = ResourceLimits::default().with_max_call_depth(4_096);
    let mut reference = base.clone();
    reference.reference_exec = true;
    vec![
        ("base", base),
        ("env", env),
        ("tier", tier),
        ("jit", jit),
        ("limits", limits),
        ("reference_exec", reference),
    ]
}

#[test]
fn memoized_cells_match_unmemoized_runs_at_every_job_count() {
    static CACHE: std::sync::OnceLock<ArtifactCache> = std::sync::OnceLock::new();
    let variants = variants();
    let expected: Vec<Vec<Measurement>> = variants
        .iter()
        .map(|(name, run)| {
            BACKENDS
                .iter()
                .map(|&backend| {
                    alone(run, backend).unwrap_or_else(|e| panic!("{name} {backend:?}: {e}"))
                })
                .collect()
        })
        .collect();
    // The variants must actually measure differently, or the test could
    // not see one served another's result.
    let time = |v: usize, backend: usize| expected[v][backend].time.0;
    assert_ne!(time(0, 0), time(1, 0), "env changes Wasm time");
    assert_ne!(time(0, 0), time(2, 0), "tier policy changes Wasm time");
    assert_ne!(time(0, 1), time(3, 1), "JIT changes JS time");

    // Three copies of every (variant, backend) cell, interleaved so that
    // repeats land on different workers.
    let grid: Vec<(usize, usize)> = (0..3)
        .flat_map(|_| (0..variants.len()).flat_map(|v| (0..BACKENDS.len()).map(move |b| (v, b))))
        .collect();
    for jobs in [1, 2, 4] {
        let cache = if jobs == 2 {
            Some(CACHE.get_or_init(ArtifactCache::new))
        } else {
            None
        };
        let engine = GridEngine::with_settings(cache, Some(jobs));
        let results = engine.map(grid.clone(), |(v, b)| {
            on_engine(&engine, &variants[v].1, BACKENDS[b])
        });
        for (&(v, b), got) in grid.iter().zip(&results) {
            let what = format!("jobs {jobs}, {} {:?}", variants[v].0, BACKENDS[b]);
            let got = got.as_ref().unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_bit_identical(got, &expected[v][b], &what);
        }
        // Distinct keys: Wasm ignores the JIT mode and compiled JS the
        // tier policy (5 each); native reads only the artifact and the
        // limits (2).
        assert_eq!(
            engine.memo_stats(),
            MemoStats {
                hits: grid.len() as u64 - 12,
                misses: 12
            },
            "jobs {jobs}"
        );
    }
}

#[test]
fn failed_cells_are_never_memoized() {
    let b = wb_benchmarks::find("trisolv").expect("trisolv in corpus");
    let healthy = Run::new(b, InputSize::XS);
    let mut starved = healthy.clone();
    starved.limits = ResourceLimits::default().with_fuel(10);
    for backend in BACKENDS {
        let engine = GridEngine::with_settings(None, Some(1));
        for round in 1..=2u64 {
            let fail = on_engine(&engine, &starved, backend)
                .expect_err("a 10-step fuel budget cannot finish the kernel");
            assert_eq!(fail.error.kind(), TrapKind::FuelExhausted, "{backend:?}");
            assert_eq!(
                engine.memo_stats(),
                MemoStats {
                    hits: 0,
                    misses: round
                },
                "{backend:?}: the failed cell must run again"
            );
        }
        let m = on_engine(&engine, &healthy, backend).expect("default limits measure");
        assert_bit_identical(
            &m,
            &alone(&healthy, backend).expect("default limits measure"),
            &format!("{backend:?}"),
        );
        assert_eq!(engine.failure_count(), 1, "quarantined once, by label");
    }
}
