//! # wb-harness — the `wb` front door
//!
//! `wb regen <name>…` regenerates paper artifacts: each prints the
//! paper's rows as an aligned text table on stdout and writes its CSVs
//! under `results/` (`--out <dir>` to change). The names are the entries
//! of [`experiments::ALL`]:
//!
//! | name | artifact |
//! |---|---|
//! | `fig5` | Fig 5 — Wasm/JS time & code size across `-O` levels |
//! | `fig6` | Fig 6 — x86 control across `-O` levels |
//! | `table2` | Table 2 — geomean opt-level ratios (JS/Wasm/x86) |
//! | `fig11` | Fig 11 — five-number summaries of opt-level ratios |
//! | `compilers` | §4.2.2 — Cheerp vs Emscripten |
//! | `levels_extended` | extension — all seven `-O` levels on a slice |
//! | `fig10` | Fig 10 — JIT on/off speedups |
//! | `table7` | Table 7 — Wasm tier policies on Chrome & Firefox |
//! | `fig12_13` | Figs 12/13 + Table 8 — six environments |
//! | `fig9_chrome` | Fig 9 + Tables 3/4 — input-size sweep on Chrome |
//! | `fig9_firefox` | Tables 5/6 — input-size sweep on Firefox |
//! | `ctxswitch` | §4.5 — JS↔Wasm context-switch microbenchmark |
//! | `table9` | Table 9 — manual JS vs Cheerp JS vs Wasm |
//! | `table10` | Table 10 — Long.js / Hyphenopoly / FFmpeg |
//! | `table12` | Table 12 — Long.js arithmetic operation counts |
//! | `ablations` | extension — per-mechanism ablations |
//!
//! Grid flags: `--filter <substr>` restricts benchmarks, `--quick` runs
//! a reduced grid, `--jobs N` bounds the worker pool (default:
//! `available_parallelism`), `--no-cache` disables the shared artifact
//! cache, `--stats` prints its hit/miss summary next to the measurement
//! memo's and `--reference-exec` runs both VMs on their plain per-op
//! interpreters instead of the fused micro-op engines (the measured
//! numbers are bit-identical either way — this flag exists to prove
//! exactly that). `wb regen` runs every named artifact through one
//! [`GridEngine`], which compiles each distinct `(source, defines,
//! level, toolchain, heap)` configuration exactly once per process and
//! measures each distinct cell exactly once, so a cell that several
//! artifacts need (Table 2 and Fig 11 re-read Fig 5 ∪ Fig 6; most
//! artifacts include the default Chrome `-O2` cell) is measured once for
//! all of them — measured virtual numbers are unaffected.
//!
//! The five non-grid artifacts (`ctxswitch`, `table9`, `table10`,
//! `table12`, `ablations`) measure fixed cells and ignore `--filter` and
//! `--quick`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod inject;

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use wb_benchmarks::{Benchmark, InputSize};
use wb_core::report::Table;
use wb_core::{
    native_artifact_key, try_run_compiled_js, try_run_native, try_run_wasm, ArtifactCache,
    ArtifactKey, JsSpec, Measurement, RunError, RunFailure, TrapKind, WasmSpec,
};
use wb_env::{Environment, JitMode, Nanos, ResourceLimits, TierPolicy, Toolchain, VirtualClock};
use wb_minic::OptLevel;

/// Best-effort text of a caught panic payload (`&str` or `String`
/// payloads cover everything `panic!` produces in this workspace).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Unwrap a run result or exit with the one-line diagnostic every
/// artifact promises on failure: `error: <label> [<kind>]: <msg>`.
pub fn run_or_exit<T>(label: &str, result: Result<T, RunError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {label} [{}]: {e}", e.kind());
        std::process::exit(1);
    })
}

/// Minimal CLI flags: `--key value` / `--key=value` / bare `--flag`.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    flags: HashMap<String, String>,
}

impl Cli {
    /// Parse from `std::env::args`.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse from an explicit argument list (testable core of [`Cli::from_env`]).
    pub fn from_args<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut flags = HashMap::new();
        let mut args = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = args.next() {
            if let Some(stripped) = arg.strip_prefix("--") {
                if let Some((k, v)) = stripped.split_once('=') {
                    flags.insert(k.to_string(), v.to_string());
                } else if args.peek().map(|n| !n.starts_with("--")).unwrap_or(false) {
                    let v = args.next().expect("peeked");
                    flags.insert(stripped.to_string(), v);
                } else {
                    flags.insert(stripped.to_string(), "true".to_string());
                }
            }
        }
        Cli { flags }
    }

    /// String flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    /// Boolean flag.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Benchmarks after `--filter`. Under `--quick` (and no filter) the
    /// suite is subsampled to every fourth benchmark for a fast smoke
    /// grid that still spans both PolyBench and CHStone.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        let all = wb_benchmarks::all_benchmarks();
        match self.get("filter") {
            Some(f) => all
                .into_iter()
                .filter(|b| b.name.to_lowercase().contains(&f.to_lowercase()))
                .collect(),
            None if self.has("quick") => all.into_iter().step_by(4).collect(),
            None => all,
        }
    }

    /// Numeric flag. A malformed value ends the process with a one-line
    /// `error:` diagnostic and exit status 2 (a usage error, like an
    /// unknown flag), never a panic.
    fn number<T: std::str::FromStr>(&self, key: &str, expects: &str) -> Option<T> {
        self.get(key).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("error: --{key} expects {expects}, got '{v}'");
                std::process::exit(2);
            })
        })
    }

    /// Worker-thread bound from `--jobs N`. `None` means "use
    /// [`std::thread::available_parallelism`]" (resolved at pool build).
    pub fn jobs(&self) -> Option<usize> {
        self.number("jobs", "a positive integer").filter(|&n| n > 0)
    }

    /// Whether `--reference-exec` asks for the plain per-op interpreters
    /// (fused micro-op engines disabled in both VMs).
    pub fn reference_exec(&self) -> bool {
        self.has("reference-exec")
    }

    /// Whether `--keep-going` asks the grid to degrade gracefully: a
    /// failed cell is recorded (and annotated in the partial-results
    /// CSV) instead of aborting the whole run.
    pub fn keep_going(&self) -> bool {
        self.has("keep-going")
    }

    /// Bounded retry count from `--retries N` (default 1). Only panics
    /// are retried — deterministic traps fail identically every time.
    pub fn retries(&self) -> u32 {
        self.number("retries", "a non-negative integer")
            .unwrap_or(1)
    }

    /// Input sizes: all five, or `XS,M,XL` under `--quick`.
    pub fn sizes(&self) -> Vec<InputSize> {
        if self.has("quick") {
            vec![InputSize::XS, InputSize::M, InputSize::XL]
        } else {
            InputSize::ALL.to_vec()
        }
    }

    /// CSV output directory (`results/` by default), created on demand.
    /// One that cannot be created ends the process with a one-line
    /// `error:` diagnostic and exit status 1, never a panic; `wb regen`
    /// resolves it before the first cell runs.
    pub fn out_dir(&self) -> PathBuf {
        let dir = PathBuf::from(self.get("out").unwrap_or("results"));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            exit_io("create", &dir, e);
        }
        dir
    }

    /// Write `table`'s CSV as `<out>/<file>` (exits like
    /// [`Cli::out_dir`] on a write error) and return its path.
    fn write_csv(&self, file: &str, table: &Table) -> PathBuf {
        let path = self.out_dir().join(file);
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            exit_io("write", &path, e);
        }
        path
    }

    /// Write a table's CSV next to printing it.
    pub fn emit(&self, name: &str, table: &Table) {
        println!("{}", table.render());
        let path = self.write_csv(&format!("{name}.csv"), table);
        eprintln!("[wrote {}]", path.display());
    }
}

/// The one-line diagnostic for an output file or directory that cannot
/// be written; exits with status 1.
pub fn exit_io(action: &str, path: &std::path::Path, e: std::io::Error) -> ! {
    eprintln!("error: cannot {action} {}: {e}", path.display());
    std::process::exit(1);
}

/// Run a closure per item on a scoped thread pool, preserving order.
/// The VMs are single-threaded; each worker builds its own.
///
/// Ordering guarantee: workers claim items strictly front-to-back
/// (FIFO), and the result vector is returned in input order regardless
/// of which worker finished when.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_jobs(items, None, f)
}

/// [`parallel_map`] with an explicit worker bound (`--jobs N`). Workers
/// drain the queue front-to-back (FIFO), so cells are claimed in grid
/// order — the first wave of workers hits each distinct compile key
/// early, which maximizes artifact-cache sharing for everyone behind it.
///
/// A panicking cell does **not** wedge the pool: every other item still
/// runs to completion, and only then is the first panic re-raised on the
/// caller's thread (with the original message). Callers that want
/// panics as per-cell values use [`parallel_map_catch`].
pub fn parallel_map_jobs<T, R, F>(items: Vec<T>, jobs: Option<usize>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let results = parallel_map_catch(items, jobs, f);
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|msg| panic!("grid cell {i} panicked: {msg}")))
        .collect()
}

/// [`parallel_map_jobs`], but a panicking cell yields `Err(message)`
/// instead of killing its worker thread: the pool keeps draining the
/// queue and every input produces an output. This is the isolation
/// boundary the grid engine's graceful-degradation mode is built on.
pub fn parallel_map_catch<T, R, F>(
    items: Vec<T>,
    jobs: Option<usize>,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let n_threads = jobs.unwrap_or(cores).max(1).min(items.len().max(1));
    let items: VecDeque<(usize, T)> = items.into_iter().enumerate().collect();
    let queue = std::sync::Mutex::new(items);
    let results = std::sync::Mutex::new(Vec::<(usize, Result<R, String>)>::new());
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| loop {
                // Recover from a queue lock poisoned by a panic that
                // escaped `catch_unwind` (e.g. a panic while unwinding):
                // the remaining items must still drain.
                let item = queue
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .pop_front();
                match item {
                    Some((i, t)) => {
                        let r = std::panic::catch_unwind(AssertUnwindSafe(|| f(t)))
                            .map_err(panic_message);
                        results
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .push((i, r));
                    }
                    None => break,
                }
            });
        }
    });
    let mut out = results
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// The shared execution engine behind the artifacts `wb regen` runs: one
/// process-wide artifact cache (so identical compiles across grid cells
/// and across worker threads happen once), a measurement memo (so
/// identical cells are measured once), a `--jobs` bound for the thread
/// pool, and a `--stats` summary.
///
/// Flags: `--no-cache` disables artifact sharing (each cell compiles
/// from scratch — the measured virtual numbers are bit-identical either
/// way), `--jobs N` caps worker threads, `--stats` prints cache
/// hit/miss/bytes-saved and memo hit/miss counters to stderr at the end.
///
/// The memo is always on and lives as long as the engine. A cell's
/// measurement is a pure function of its `MemoKey`, so the first
/// caller of a key measures it while later and concurrent callers of
/// the same key wait for that result and get a clone of it. Only
/// successful measurements are stored: a failed cell is executed again
/// (and retried, and quarantined) every time it is asked for.
pub struct GridEngine {
    cache: Option<&'static ArtifactCache>,
    jobs: Option<usize>,
    stats: bool,
    reference_exec: bool,
    keep_going: bool,
    retries: u32,
    failures: Mutex<Vec<CellFailure>>,
    quarantine: Mutex<HashSet<MemoKey>>,
    memo: Mutex<HashMap<MemoKey, MemoSlot>>,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
}

/// Everything a cell's measurement depends on, and so the cell's
/// identity: the compile artifact (source, defines, level, toolchain,
/// heap limit and backend, hashed into its [`ArtifactKey`] by wb-core)
/// plus the run configuration its backend reads. Fields a backend
/// ignores are left out — `None`, or `false` for native's
/// `reference_exec` (native runs ignore the environment, tier policy,
/// JIT mode and `reference_exec`; Wasm ignores the JIT mode; compiled JS
/// ignores the tier policy) — so cells differing only there share one
/// measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    artifact: ArtifactKey,
    env: Option<Environment>,
    tier_policy: Option<TierPolicy>,
    jit: Option<JitMode>,
    limits: ResourceLimits,
    reference_exec: bool,
}

/// One memo entry. Its lock is held while the key's first caller
/// measures, which is what makes concurrent callers wait instead of
/// measuring the same cell twice.
type MemoSlot = Arc<Mutex<Option<Measurement>>>;

/// Measurement-memo counters ([`GridEngine::memo_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Cells served a stored measurement.
    pub hits: u64,
    /// Cells that executed (successfully or not).
    pub misses: u64,
}

impl MemoStats {
    /// Fraction of cells served from the memo (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One failed grid cell, as recorded on the engine's quarantine list and
/// written to the `<name>_failures.csv` partial-results annex.
#[derive(Debug)]
pub struct CellFailure {
    /// The cell's [`Run::label`].
    pub cell: String,
    /// Backend-independent fault class.
    pub kind: TrapKind,
    /// Human-readable error text.
    pub message: String,
    /// Virtual time accumulated before the fault, when the VM got far
    /// enough to have any.
    pub partial_time: Option<Nanos>,
    /// How many attempts were made (1 + retries actually used).
    pub attempts: u32,
}

/// Deterministic backoff before retry `attempt` (1-based): a fixed
/// exponential schedule, a pure function of the attempt number — no
/// jitter, so two runs of the same failing grid retry on the same
/// schedule. Wall-clock sleeps never touch virtual measurements.
fn backoff(attempt: u32) -> std::time::Duration {
    std::time::Duration::from_millis(10u64 << (attempt - 1).min(6))
}

impl GridEngine {
    /// Build from CLI flags.
    pub fn from_cli(cli: &Cli) -> Self {
        let cache = if cli.has("no-cache") {
            None
        } else {
            Some(ArtifactCache::global())
        };
        GridEngine {
            stats: cli.has("stats"),
            reference_exec: cli.reference_exec(),
            keep_going: cli.keep_going(),
            retries: cli.retries(),
            ..GridEngine::with_settings(cache, cli.jobs())
        }
    }

    /// An engine with explicit settings (testable core of
    /// [`GridEngine::from_cli`]).
    pub fn with_settings(cache: Option<&'static ArtifactCache>, jobs: Option<usize>) -> Self {
        GridEngine {
            cache,
            jobs,
            stats: false,
            reference_exec: false,
            keep_going: false,
            retries: 1,
            failures: Mutex::new(Vec::new()),
            quarantine: Mutex::new(HashSet::new()),
            memo: Mutex::new(HashMap::new()),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
        }
    }

    /// [`GridEngine::with_settings`] on the plain per-op interpreters
    /// (`--reference-exec`).
    pub fn with_reference_exec(mut self) -> Self {
        self.reference_exec = true;
        self
    }

    /// [`GridEngine::with_settings`] in graceful-degradation mode
    /// (`--keep-going`): failed cells are quarantined instead of
    /// aborting the run.
    pub fn with_keep_going(mut self) -> Self {
        self.keep_going = true;
        self
    }

    /// Map the grid over the worker pool (order-preserving, FIFO,
    /// bounded by `--jobs`).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        parallel_map_jobs(items, self.jobs, f)
    }

    /// Execute a cell's Wasm build through the shared cache. Strict by
    /// default (one-line diagnostic on stderr, exit 1); under
    /// `--keep-going` a failed cell yields its partial measurement (or a
    /// zeroed one) and lands on the quarantine list.
    pub fn wasm(&self, run: &Run) -> Measurement {
        self.degrade(run, "wasm", self.try_wasm(run))
    }

    /// Execute a cell's compiled-JS build through the shared cache
    /// (strict / keep-going semantics as [`GridEngine::wasm`]).
    pub fn js(&self, run: &Run) -> Measurement {
        self.degrade(run, "js", self.try_js(run))
    }

    /// Execute a cell's native control build through the shared cache
    /// (strict / keep-going semantics as [`GridEngine::wasm`]).
    pub fn native(&self, run: &Run) -> Measurement {
        self.degrade(run, "native", self.try_native(run))
    }

    /// Fallible Wasm cell, served from the memo when an identical cell
    /// already measured: panics are caught at the cell boundary, only
    /// panics are retried (deterministic traps fail identically), and a
    /// cell that exhausts its attempts is quarantined.
    pub fn try_wasm(&self, run: &Run) -> Result<Measurement, RunFailure> {
        let mut spec = run.wasm_spec();
        spec.reference_exec |= self.reference_exec;
        let key = MemoKey {
            artifact: spec.artifact_key(),
            env: Some(spec.env),
            tier_policy: Some(spec.tier_policy),
            jit: None,
            limits: spec.limits,
            reference_exec: spec.reference_exec,
        };
        self.memoized(key, run, "wasm", || try_run_wasm(&spec, self.cache))
    }

    /// Fallible compiled-JS cell (semantics as [`GridEngine::try_wasm`]).
    pub fn try_js(&self, run: &Run) -> Result<Measurement, RunFailure> {
        let mut spec = run.js_spec();
        spec.reference_exec |= self.reference_exec;
        let key = MemoKey {
            artifact: spec.artifact_key(),
            env: Some(spec.env),
            tier_policy: None,
            jit: Some(spec.jit),
            limits: spec.limits,
            reference_exec: spec.reference_exec,
        };
        self.memoized(key, run, "js", || try_run_compiled_js(&spec, self.cache))
    }

    /// Fallible native cell (semantics as [`GridEngine::try_wasm`]).
    pub fn try_native(&self, run: &Run) -> Result<Measurement, RunFailure> {
        let (source, defines) = (run.benchmark.source, run.benchmark.defines(run.size));
        let (level, limits) = (run.level, run.limits);
        let key = MemoKey {
            artifact: native_artifact_key(source, &defines, level),
            env: None,
            tier_policy: None,
            jit: None,
            limits,
            reference_exec: false,
        };
        self.memoized(key, run, "native", || {
            try_run_native(source, &defines, level, "bench_main", limits, self.cache)
        })
    }

    /// Memo hits and misses so far.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.memo_hits.load(Ordering::Relaxed),
            misses: self.memo_misses.load(Ordering::Relaxed),
        }
    }

    /// Single-flight lookup: the key's first caller holds its slot while
    /// [`GridEngine::attempt`] runs; everyone after it (or blocked on it)
    /// gets a clone of the stored result. An `Err` is returned but not
    /// stored, so the next caller executes the cell again.
    fn memoized(
        &self,
        key: MemoKey,
        run: &Run,
        backend: &str,
        f: impl Fn() -> Result<Measurement, RunFailure>,
    ) -> Result<Measurement, RunFailure> {
        let slot = Arc::clone(
            self.memo
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .entry(key)
                .or_default(),
        );
        let mut stored = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(m) = stored.as_ref() {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(m.clone());
        }
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        let outcome = self.attempt(key, run, backend, f);
        if let Ok(m) = &outcome {
            *stored = Some(m.clone());
        }
        outcome
    }

    /// Per-cell isolation + bounded retry. Each attempt runs under
    /// `catch_unwind`, so a panicking cell becomes [`RunError::Panic`]
    /// instead of tearing down the worker. Panics get up to `--retries`
    /// re-attempts on the deterministic [`backoff`] schedule;
    /// deterministic faults (traps, limits, compile errors) fail
    /// identically every time, so they don't.
    fn attempt(
        &self,
        key: MemoKey,
        run: &Run,
        backend: &str,
        f: impl Fn() -> Result<Measurement, RunFailure>,
    ) -> Result<Measurement, RunFailure> {
        let mut attempts = 0u32;
        let failure = loop {
            attempts += 1;
            let outcome = match std::panic::catch_unwind(AssertUnwindSafe(&f)) {
                Ok(r) => r,
                Err(payload) => Err(RunFailure {
                    error: RunError::Panic(panic_message(payload)),
                    partial: None,
                }),
            };
            match outcome {
                Ok(m) => return Ok(m),
                Err(fail) => {
                    let retryable = matches!(fail.error, RunError::Panic(_));
                    if retryable && attempts <= self.retries {
                        std::thread::sleep(backoff(attempts));
                        continue;
                    }
                    break fail;
                }
            }
        };
        self.record_failure(key, run.label(backend), &failure, attempts);
        Err(failure)
    }

    /// Put a spent cell on the quarantine list (deduplicated by cell
    /// identity, its `MemoKey`).
    fn record_failure(&self, key: MemoKey, label: String, failure: &RunFailure, attempts: u32) {
        let mut quarantine = self
            .quarantine
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if !quarantine.insert(key) {
            return; // already quarantined; don't double-report
        }
        drop(quarantine);
        self.failures
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(CellFailure {
                cell: label,
                kind: failure.error.kind(),
                message: failure.error.to_string(),
                partial_time: failure.partial.as_ref().map(|m| m.time),
                attempts,
            });
    }

    /// Strict-vs-keep-going policy for the infallible cell methods.
    fn degrade(
        &self,
        run: &Run,
        backend: &'static str,
        outcome: Result<Measurement, RunFailure>,
    ) -> Measurement {
        match outcome {
            Ok(m) => m,
            Err(fail) if self.keep_going => {
                fail.partial.map(|m| *m).unwrap_or_else(zero_measurement)
            }
            Err(fail) => {
                eprintln!(
                    "error: {} [{}]: {}",
                    run.label(backend),
                    fail.error.kind(),
                    fail.error
                );
                std::process::exit(1);
            }
        }
    }

    /// The quarantine list: every cell that exhausted its attempts.
    pub fn failures(&self) -> std::sync::MutexGuard<'_, Vec<CellFailure>> {
        self.failures
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Number of quarantined cells.
    pub fn failure_count(&self) -> usize {
        self.failures().len()
    }

    /// Write the partial-results annex `<name>_failures.csv` (one row
    /// per quarantined cell) when any cell failed, and print the
    /// quarantine summary. No file is written on a clean grid, so
    /// default runs produce byte-identical `results/` trees.
    pub fn emit_failures(&self, cli: &Cli, name: &str) {
        let failures = self.failures();
        if failures.is_empty() {
            return;
        }
        let mut table = Table::new(
            &format!("{name}: quarantined cells (partial results)"),
            &["cell", "kind", "attempts", "partial virtual ns", "error"],
        );
        for f in failures.iter() {
            table.row(vec![
                f.cell.clone(),
                f.kind.to_string(),
                f.attempts.to_string(),
                f.partial_time
                    .map(|t| format!("{}", t.0))
                    .unwrap_or_else(|| "-".to_string()),
                f.message.clone(),
            ]);
        }
        let path = cli.write_csv(&format!("{name}_failures.csv"), &table);
        eprintln!(
            "[quarantine] {} cell(s) failed; annotated in {}",
            failures.len(),
            path.display()
        );
    }

    /// Print the `--stats` / quarantine summary and, under
    /// `--keep-going`, write the failure annex. Call once, after the
    /// grid. Exits nonzero when cells were quarantined, so a degraded
    /// grid is still visible to scripts.
    pub fn finish_with(&self, cli: &Cli, name: &str) {
        self.emit_failures(cli, name);
        self.finish();
        if self.failure_count() > 0 {
            std::process::exit(2);
        }
    }

    /// Print the `--stats` summary (call once, after the grid).
    pub fn finish(&self) {
        for f in self.failures().iter() {
            eprintln!(
                "[quarantine] {} [{}] after {} attempt(s): {}",
                f.cell, f.kind, f.attempts, f.message
            );
        }
        if !self.stats {
            return;
        }
        match self.cache {
            Some(cache) => {
                let s = cache.stats();
                eprintln!(
                    "[cache] {} hits / {} misses ({:.1}% hit rate), {} artifact bytes not re-built",
                    s.hits,
                    s.misses,
                    100.0 * s.hit_rate(),
                    s.bytes_saved
                );
            }
            None => eprintln!("[cache] disabled (--no-cache)"),
        }
        let m = self.memo_stats();
        eprintln!(
            "[memo] {} hits / {} misses ({:.1}% of cells served without running)",
            m.hits,
            m.misses,
            100.0 * m.hit_rate()
        );
    }
}

/// The sentinel a quarantined cell contributes under `--keep-going`
/// when it faulted before producing any measurement state.
fn zero_measurement() -> Measurement {
    Measurement {
        time: Nanos::ZERO,
        clock: VirtualClock::new(),
        memory_bytes: 0,
        code_size: 0,
        counts: wb_env::OpCounts::new(),
        arith: wb_env::ArithCounts::default(),
        output: Vec::new(),
        context_switches: 0,
    }
}

/// One benchmark run request (a grid cell).
#[derive(Debug, Clone)]
pub struct Run {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Dataset size.
    pub size: InputSize,
    /// Optimization level.
    pub level: OptLevel,
    /// Toolchain.
    pub toolchain: Toolchain,
    /// Environment.
    pub env: Environment,
    /// Wasm tier policy.
    pub tier_policy: TierPolicy,
    /// JS JIT mode.
    pub jit: JitMode,
    /// Use the plain per-op interpreters instead of the fused engines.
    pub reference_exec: bool,
    /// Resource ceilings (fuel, memory, call depth). Default-unlimited,
    /// so study grids are bit-identical to the pre-limit engine; the
    /// fault-injection harness tightens them per cell.
    pub limits: ResourceLimits,
}

impl Run {
    /// Default configuration of a benchmark at a size (the study
    /// baseline: Cheerp `-O2`, desktop Chrome, default tiers).
    pub fn new(benchmark: Benchmark, size: InputSize) -> Self {
        Run {
            benchmark,
            size,
            level: OptLevel::O2,
            toolchain: Toolchain::Cheerp,
            env: Environment::desktop_chrome(),
            tier_policy: TierPolicy::Default,
            jit: JitMode::Enabled,
            reference_exec: false,
            limits: ResourceLimits::default(),
        }
    }

    /// `benchmark/size/level/toolchain/env/backend` label, used on
    /// quarantine lists and failure CSVs. Wasm cells append their tier
    /// policy and JS cells their JIT mode, the run settings only that
    /// backend reads.
    pub fn label(&self, backend: &str) -> String {
        let mut label = format!(
            "{}/{:?}/{}/{:?}/{}-{}/{backend}",
            self.benchmark.name,
            self.size,
            self.level.name(),
            self.toolchain,
            self.env.browser.name(),
            self.env.platform.name(),
        );
        match backend {
            "wasm" => label += &format!("/tier-{:?}", self.tier_policy),
            "js" => label += &format!("/jit-{:?}", self.jit),
            _ => {}
        }
        label
    }

    /// The cell's Wasm build and run ([`wb_core::try_run_wasm`] input).
    pub fn wasm_spec(&self) -> WasmSpec<'static> {
        WasmSpec {
            defines: self.benchmark.defines(self.size),
            level: self.level,
            toolchain: self.toolchain,
            env: self.env,
            tier_policy: self.tier_policy,
            reference_exec: self.reference_exec,
            limits: self.limits,
            ..WasmSpec::new(self.benchmark.source)
        }
    }

    /// The cell's compiled-JS build and run
    /// ([`wb_core::try_run_compiled_js`] input).
    pub fn js_spec(&self) -> JsSpec<'static> {
        JsSpec {
            defines: self.benchmark.defines(self.size),
            level: self.level,
            toolchain: self.toolchain,
            env: self.env,
            jit: self.jit,
            reference_exec: self.reference_exec,
            limits: self.limits,
            ..JsSpec::new(self.benchmark.source)
        }
    }
}
