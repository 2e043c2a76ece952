//! Tests for the harness CLI parsing, the `Run` grid-cell helper the
//! experiments are built from, and the `wb` binary's command line.

use wb_benchmarks::InputSize;
use wb_core::{try_run_compiled_js, try_run_native, try_run_wasm, ArtifactCache, Measurement};
use wb_env::Environment;
use wb_harness::{parallel_map, parallel_map_jobs, Cli, GridEngine, Run};

/// A cell's uncached Wasm measurement.
fn wasm(run: &Run) -> Measurement {
    try_run_wasm(&run.wasm_spec(), None).expect("wasm")
}

/// A cell's uncached compiled-JS measurement.
fn js(run: &Run) -> Measurement {
    try_run_compiled_js(&run.js_spec(), None).expect("js")
}

/// A cell's uncached native measurement.
fn native(run: &Run) -> Measurement {
    let defines = run.benchmark.defines(run.size);
    try_run_native(
        run.benchmark.source,
        &defines,
        run.level,
        "bench_main",
        run.limits,
        None,
    )
    .expect("native")
}

// --- Cli parsing -----------------------------------------------------------

#[test]
fn parses_key_value_and_key_eq_value_and_bare_flags() {
    let cli = Cli::from_args(["--filter", "gemm", "--out=custom", "--quick"]);
    assert_eq!(cli.get("filter"), Some("gemm"));
    assert_eq!(cli.get("out"), Some("custom"));
    assert!(cli.has("quick"));
    assert!(!cli.has("browser"));
    assert_eq!(cli.get("missing"), None);
}

#[test]
fn bare_flag_before_another_flag_is_boolean() {
    // `--quick --filter x`: `--quick` must not swallow `--filter`.
    let cli = Cli::from_args(["--quick", "--filter", "x"]);
    assert!(cli.has("quick"));
    assert_eq!(cli.get("quick"), Some("true"));
    assert_eq!(cli.get("filter"), Some("x"));
}

#[test]
fn positional_noise_without_dashes_is_ignored() {
    let cli = Cli::from_args(["stray", "--filter", "lu"]);
    assert_eq!(cli.get("filter"), Some("lu"));
    assert!(!cli.has("stray"));
}

#[test]
fn filter_restricts_benchmarks_case_insensitively() {
    let all = Cli::from_args(Vec::<String>::new()).benchmarks();
    assert_eq!(all.len(), 41, "paper corpus: 30 PolyBench + 11 CHStone");

    let some = Cli::from_args(["--filter", "GEMM"]).benchmarks();
    assert!(!some.is_empty() && some.len() < all.len());
    assert!(some.iter().all(|b| b.name.contains("gemm")));

    let none = Cli::from_args(["--filter", "no-such-kernel"]).benchmarks();
    assert!(none.is_empty());
}

#[test]
fn quick_mode_reduces_the_size_grid() {
    let full = Cli::from_args(Vec::<String>::new()).sizes();
    assert_eq!(full, InputSize::ALL.to_vec());
    let quick = Cli::from_args(["--quick"]).sizes();
    assert_eq!(quick, vec![InputSize::XS, InputSize::M, InputSize::XL]);
}

#[test]
fn quick_mode_subsamples_the_benchmark_suite() {
    let quick = Cli::from_args(["--quick"]).benchmarks();
    assert_eq!(quick.len(), 11, "every 4th of the 41 benchmarks");
    // An explicit filter wins over the subsample.
    let filtered = Cli::from_args(["--quick", "--filter", "gemm"]).benchmarks();
    assert!(filtered.iter().all(|b| b.name.contains("gemm")));
}

#[test]
fn jobs_flag_parses_and_rejects_zero() {
    assert_eq!(Cli::from_args(Vec::<String>::new()).jobs(), None);
    assert_eq!(Cli::from_args(["--jobs", "3"]).jobs(), Some(3));
    assert_eq!(Cli::from_args(["--jobs=1"]).jobs(), Some(1));
    assert_eq!(Cli::from_args(["--jobs", "0"]).jobs(), None);
}

// --- parallel_map ------------------------------------------------------------

#[test]
fn parallel_map_preserves_input_order() {
    let items: Vec<u64> = (0..200).collect();
    let out = parallel_map(items.clone(), |x| x * x);
    let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
    assert_eq!(out, expect);
}

#[test]
fn parallel_map_handles_empty_and_single_item() {
    let empty: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
    assert!(empty.is_empty());
    assert_eq!(parallel_map(vec![7], |x| x + 1), vec![8]);
}

#[test]
fn parallel_map_with_one_job_runs_in_submission_order() {
    // With a single worker the FIFO queue fixes the execution order, not
    // just the output order.
    let executed = std::sync::Mutex::new(Vec::new());
    let out = parallel_map_jobs((0..50).collect(), Some(1), |x: u32| {
        executed.lock().unwrap().push(x);
        x
    });
    assert_eq!(out, (0..50).collect::<Vec<_>>());
    assert_eq!(executed.into_inner().unwrap(), (0..50).collect::<Vec<_>>());
}

#[test]
fn parallel_map_respects_job_bounds() {
    for jobs in [Some(1), Some(2), Some(64), None] {
        let out = parallel_map_jobs((0..20).collect(), jobs, |x: u64| x * 2);
        assert_eq!(out, (0..20).map(|x| x * 2).collect::<Vec<_>>());
    }
}

// --- GridEngine --------------------------------------------------------------

#[test]
fn grid_engine_shares_compiles_across_cells_and_workers() {
    static CACHE: std::sync::OnceLock<ArtifactCache> = std::sync::OnceLock::new();
    let cache = CACHE.get_or_init(ArtifactCache::new);
    let engine = GridEngine::with_settings(Some(cache), Some(4));
    let b = wb_benchmarks::find("trisolv").expect("trisolv in corpus");
    let baseline = wasm(&Run::new(b.clone(), InputSize::XS));

    // 6 environments, one compile key: same artifact, same measurements
    // as the uncached baseline in the matching environment.
    let runs: Vec<Run> = Environment::all_six()
        .iter()
        .map(|&env| {
            let mut run = Run::new(b.clone(), InputSize::XS);
            run.env = env;
            run
        })
        .collect();
    let results = engine.map(runs.clone(), |run| engine.wasm(&run));
    assert_eq!(results.len(), 6);
    let chrome = &results[runs
        .iter()
        .position(|r| r.env == Environment::desktop_chrome())
        .unwrap()];
    assert_eq!(chrome.time.0.to_bits(), baseline.time.0.to_bits());
    assert_eq!(chrome.output, baseline.output);

    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "one compile for six cells");
    assert_eq!(stats.hits, 5);
}

// --- Run ---------------------------------------------------------------------

#[test]
fn run_defaults_are_the_study_baseline() {
    let b = wb_benchmarks::find("gemm").expect("gemm in corpus");
    let run = Run::new(b, InputSize::XS);
    assert_eq!(run.env, Environment::desktop_chrome());
    assert_eq!(run.toolchain, wb_env::Toolchain::Cheerp);
    assert_eq!(run.level, wb_minic::OptLevel::O2);
    assert_eq!(run.tier_policy, wb_env::TierPolicy::Default);
    assert_eq!(run.jit, wb_env::JitMode::Enabled);
}

#[test]
fn run_executes_all_three_backends_with_identical_output() {
    let b = wb_benchmarks::find("durbin").expect("durbin in corpus");
    let run = Run::new(b, InputSize::XS);
    let w = wasm(&run);
    let j = js(&run);
    let n = native(&run);
    assert!(!w.output.is_empty());
    assert_eq!(w.output, j.output, "Wasm and JS must agree");
    assert_eq!(w.output, n.output, "Wasm and native must agree");
    // Wasm runs cross the boundary at least twice (call in, return out).
    assert!(w.context_switches >= 2);
    // Every backend reports positive time, memory and code size.
    for m in [&w, &j, &n] {
        assert!(m.time.0 > 0.0);
        assert!(m.memory_bytes > 0);
        assert!(m.code_size > 0);
        assert!(m.counts.total() > 0);
    }
}

#[test]
fn run_grid_cell_is_deterministic() {
    let b = wb_benchmarks::find("trisolv").expect("trisolv in corpus");
    let run = Run::new(b, InputSize::XS);
    let a = wasm(&run);
    let b2 = wasm(&run);
    assert_eq!(
        a.time.0, b2.time.0,
        "virtual time must be exactly reproducible"
    );
    assert_eq!(a.memory_bytes, b2.memory_bytes);
    assert_eq!(a.output, b2.output);
    assert_eq!(a.counts.total(), b2.counts.total());
}

#[test]
fn larger_inputs_take_longer_on_every_backend() {
    let b = wb_benchmarks::find("bicg").expect("bicg in corpus");
    let xs = Run::new(b.clone(), InputSize::XS);
    let m = Run::new(b, InputSize::M);
    assert!(wasm(&m).time.0 > wasm(&xs).time.0);
    assert!(js(&m).time.0 > js(&xs).time.0);
    assert!(native(&m).time.0 > native(&xs).time.0);
}

// --- wb ----------------------------------------------------------------------

/// Run `wb` with `args`, returning (exit code, stderr).
fn run_wb(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_wb"))
        .args(args)
        .output()
        .expect("spawn wb");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Assert a one-line `error:` diagnostic with exit status `code`.
fn assert_one_error_line(args: &[&str], code: i32, prefix: &str) {
    let (status, stderr) = run_wb(args);
    assert_eq!(status, Some(code), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with(prefix), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn malformed_numeric_flags_are_usage_errors_not_panics() {
    for args in [
        ["regen", "--jobs", "abc", "fig5"],
        ["regen", "--retries", "-1", "fig5"],
    ] {
        assert_one_error_line(&args, 2, "error: --");
    }
}

#[test]
fn unwritable_out_dir_is_one_error_line_not_a_panic() {
    let args = [
        "regen",
        "--quick",
        "--filter",
        "trisolv",
        "--out",
        "/dev/null/x",
        "fig5",
    ];
    assert_one_error_line(&args, 1, "error: cannot create /dev/null/x");
}

#[test]
fn filter_matching_no_benchmark_is_a_usage_error() {
    for name in ["table2", "fig5", "fig11", "fig9_chrome", "compilers"] {
        let dir = std::env::temp_dir().join(format!("wb-nofilter-{}-{name}", std::process::id()));
        let out = dir.to_str().expect("utf-8 temp dir");
        let args = ["regen", "--filter", "nosuch", "--out", out, name];
        assert_one_error_line(&args, 2, "error: --filter 'nosuch' matches no benchmark");
        assert!(!dir.exists(), "{name}: wrote {}", dir.display());
    }
}

#[test]
fn analyze_rejects_unknown_kernel_names() {
    let (code, stderr) = run_wb(&["analyze", "--kernels", "gemm,gemmm"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.starts_with("unknown kernel 'gemmm'"), "{stderr}");
    assert!(stderr.contains("gemm, "), "known names listed: {stderr}");
}

#[test]
fn analyze_unwritable_report_is_one_error_line_not_a_panic() {
    let args = [
        "analyze",
        "--quick",
        "--kernels",
        "trisolv",
        "--out",
        "/dev/null/x",
    ];
    assert_one_error_line(&args, 1, "error: cannot write /dev/null/x");
}

#[test]
fn wb_regen_of_several_artifacts_writes_what_separate_runs_write() {
    let dir = std::env::temp_dir().join(format!("wb-regen-test-{}", std::process::id()));
    let (alone, shared) = (dir.join("alone"), dir.join("shared"));
    let (alone, shared) = (
        alone.to_str().expect("utf-8 temp dir"),
        shared.to_str().expect("utf-8 temp dir"),
    );
    for name in ["fig5", "fig6", "fig11"] {
        let (code, stderr) = run_wb(&["regen", "--filter", "trisolv", "--out", alone, name]);
        assert_eq!(code, Some(0), "{name}: {stderr}");
    }
    let (code, stderr) = run_wb(&[
        "regen", "--stats", "--filter", "trisolv", "--out", shared, "fig5", "fig6", "fig11",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    // Fig 11 re-reads every Fig 5 and Fig 6 cell: 8 Wasm/JS + 4 native
    // measured, 12 served from the memo.
    assert!(
        stderr.contains("[memo] 12 hits / 12 misses"),
        "memo line missing or wrong: {stderr}"
    );
    for csv in ["fig5_time", "fig5_code_size", "fig6_time", "fig11"] {
        let read = |d: &str| std::fs::read(format!("{d}/{csv}.csv")).expect(csv);
        assert_eq!(read(alone), read(shared), "{csv}.csv differs");
    }
    for usage in [
        vec!["regen"],
        vec!["regen", "no_such_figure"],
        vec!["regen", "--bogus"],
    ] {
        let (code, stderr) = run_wb(&usage);
        assert_eq!(code, Some(2), "{usage:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
