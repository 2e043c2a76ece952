//! One round of one benchmark workload.
//!
//! ```text
//! perfbench --workload <regen_mix|compile_levels|js_handwritten>
//!           --seed <n> --round <n> --jobs <n> --root <repo>
//!           [--trace [--trace-out <file>] | --setup-only]
//! perfbench --calibrate [--jobs <n>]
//! ```
//!
//! Generates the round's cells from `(seed, round)`, loads the committed
//! goldens, builds the grid engine, then runs every cell on `--jobs`
//! workers and checks the outputs. Prints one JSON object: set-up and
//! grid wall time, process CPU and peak RSS, per-cell latencies, the
//! correctness verdict, the workload's properties and a digest of every
//! virtual measurement. Times leave out the host-speed probe slices the
//! workers run between cells (see `probe`); the object carries every
//! slice and each cell's start so that `run.py` can scale the times to
//! the host speed around them. With `--trace` the cells run through the
//! traced path instead and the object also carries the per-layer split.
//! With `--setup-only` it times the set-up, prints
//! `{"setup_s": …, "setup_probe_ms": …}` and stops.
//! `perfbench/run.py` drives rounds and aggregates them.

mod exec;
mod gate;
mod probe;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use wb_core::{ArtifactCache, Measurement};
use wb_harness::{Cli, GridEngine};
use workload::Workload;

/// Process CPU time (user + system, all threads), seconds.
fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread (user + system), seconds.
fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// One of Linux's CPU-time clocks, seconds.
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec laid out as the C
    // struct on 64-bit Linux; clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over every virtual quantity of a measurement: time bits,
/// clock split, memory, code size, op and arithmetic counts, output.
fn digest(h: &mut u64, m: &Measurement) {
    let text = format!(
        "{}|{:?}|{}|{}|{}|{:?}|{:?}|{:?}",
        m.time.0.to_bits(),
        m.clock,
        m.memory_bytes,
        m.code_size,
        m.context_switches,
        m.counts,
        m.arith,
        m.output
    );
    for b in text.bytes().chain([0xff]) {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_obj<'a, V: std::fmt::Display + 'a>(
    entries: impl IntoIterator<Item = (&'a str, V)>,
) -> String {
    let body: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// `--calibrate`: run every `regen_mix` artifact once and print the
/// cost table `regen_costs.tsv` holds.
fn calibrate(jobs: usize) -> ExitCode {
    let cells = workload::regen_universe();
    let engine = GridEngine::with_settings(Some(ArtifactCache::global()), Some(jobs));
    let ms = engine.map(cells.iter().collect(), |cell| {
        let t = Instant::now();
        let ok = exec::run_untraced(&engine, cell).is_ok();
        (t.elapsed().as_secs_f64() * 1e3, ok)
    });
    let mut costs: Vec<(String, f64)> = Vec::new();
    for (cell, (ms, ok)) in cells.iter().zip(ms) {
        if !ok {
            eprintln!("error: {} failed", cell.spec());
            return ExitCode::from(1);
        }
        let group = cell.output_group();
        match costs.last_mut() {
            Some((g, total)) if *g == group => *total += ms,
            _ => costs.push((group, ms)),
        }
    }
    println!(
        "# artifact (kernel/size/level/toolchain)\tsingle-thread ms over its regen_mix cells, \
         --jobs {jobs}"
    );
    for (g, total) in costs {
        println!("{g}\t{total:.0}");
    }
    ExitCode::SUCCESS
}

/// One cell's start (seconds since the round's epoch), wall latency,
/// result, panic retries and (traced) spans.
struct Outcome {
    start_s: f64,
    ms: f64,
    result: Result<Measurement, exec::Failure>,
    retries: u32,
    spans: trace::Spans,
}

/// Median of times in seconds, in milliseconds (0 for none).
fn median_ms(secs: &[f64]) -> f64 {
    let mut v = secs.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).map_or(0.0, |s| s * 1e3)
}

/// Set-up repetitions per round (odd, for a plain median).
const SETUP_REPEATS: usize = 11;

fn main() -> ExitCode {
    let cli = Cli::from_env();
    if cli.has("calibrate") {
        return calibrate(cli.jobs().unwrap_or(1));
    }
    let arg = |k: &str| cli.get(k).and_then(|v| v.parse::<u64>().ok());
    let (Some(workload), Some(seed), Some(round), Some(jobs), Some(root)) = (
        cli.get("workload").and_then(Workload::parse),
        arg("seed"),
        arg("round"),
        cli.jobs(),
        cli.get("root").map(PathBuf::from),
    ) else {
        eprintln!(
            "usage: perfbench --workload <regen_mix|compile_levels|js_handwritten> \
             --seed <n> --round <n> --jobs <n> --root <repo> \
             [--trace [--trace-out <file>] | --setup-only]"
        );
        return ExitCode::from(2);
    };
    let traced = cli.has("trace");

    // Set-up: seed → cells, golden rows loaded, engine built. It takes
    // about a millisecond, so it is timed SETUP_REPEATS times and the
    // median reported, each time just after a probe slice.
    let cache = ArtifactCache::global();
    let mut setup_times = Vec::new();
    let mut setup_slices = Vec::new();
    let mut setup = || -> Result<_, String> {
        setup_slices.push(probe::slice().wall_s);
        let t = Instant::now();
        let cells = workload::generate(workload, seed, round);
        let goldens = gate::Goldens::load(&root.join("results"))?;
        let engine = GridEngine::with_settings(Some(cache), Some(jobs));
        setup_times.push(t.elapsed().as_secs_f64());
        Ok((cells, goldens, engine))
    };
    let mut state = setup();
    for _ in 1..SETUP_REPEATS {
        state = setup();
    }
    let (cells, goldens, engine) = match state {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: loading goldens: {e}");
            return ExitCode::from(2);
        }
    };
    setup_times.sort_by(f64::total_cmp);
    let setup_s = setup_times[setup_times.len() / 2];
    let setup_probe_ms = median_ms(&setup_slices);
    if cli.has("setup-only") {
        println!("{{\"setup_s\":{setup_s},\"setup_probe_ms\":{setup_probe_ms}}}");
        return ExitCode::SUCCESS;
    }

    let cpu0 = process_cpu_s();
    let epoch = Instant::now();
    let pacer = probe::Pacer::new(epoch);
    let outcomes: Vec<Outcome> = if traced {
        engine.map(cells.iter().collect(), |cell| {
            pacer.tick();
            let mut spans = trace::Spans::new(epoch);
            let (result, retries) = exec::run_traced(cache, cell, &mut spans);
            let (start_s, ms) = spans.spans.first().map_or((0.0, 0.0), |s| {
                (s.start as f64 * 1e-9, (s.end - s.start) as f64 * 1e-6)
            });
            Outcome {
                start_s,
                ms,
                result,
                retries,
                spans,
            }
        })
    } else {
        engine.map(cells.iter().collect(), |cell| {
            pacer.tick();
            let t = Instant::now();
            let result = exec::run_untraced(&engine, cell);
            Outcome {
                start_s: t.duration_since(epoch).as_secs_f64(),
                ms: t.elapsed().as_secs_f64() * 1e3,
                result,
                retries: 0,
                spans: trace::Spans::off(),
            }
        })
    };
    let raw_wall = epoch.elapsed();
    let raw_cpu_s = process_cpu_s() - cpu0;
    // The probe slices ran on the workers, so they lengthened the
    // makespan by about their sum over the workers.
    let samples = pacer.into_samples();
    let slices: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let probe_s: f64 = slices.iter().sum();
    let wall = raw_wall.saturating_sub(Duration::from_secs_f64(probe_s / jobs as f64));
    let cpu_s = raw_cpu_s - samples.iter().map(|s| s.cpu_s).sum::<f64>();

    let results: Vec<Option<&Measurement>> =
        outcomes.iter().map(|o| o.result.as_ref().ok()).collect();
    let mut verdict = gate::check(&goldens, &cells, &results);
    let mut failed = 0;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (cell, o) in cells.iter().zip(&outcomes) {
        match &o.result {
            Ok(m) => digest(&mut h, m),
            Err(e) => {
                failed += 1;
                verdict.failures.push(format!("{}: {e}", cell.spec()));
            }
        }
    }

    let props = workload::properties(&cells);
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"workload\":{},\"seed\":{seed},\"round\":{round},\"jobs\":{jobs},\"traced\":{traced},\
         \"cells\":{},\"failed\":{failed},\"setup_s\":{setup_s},\"wall_s\":{},\"cpu_s\":{cpu_s},\
         \"peak_rss_mib\":{},\"checks\":{},\"check_failures\":[{}],\"digest\":\"{h:016x}\",\
         \"raw_wall_s\":{},\"raw_cpu_s\":{raw_cpu_s},\"probe_slices\":{},\"probe_ms\":{},\
         \"setup_probe_ms\":{setup_probe_ms}",
        json_str(cli.get("workload").unwrap_or_default()),
        cells.len(),
        wall.as_secs_f64(),
        peak_rss_mib(),
        verdict.checks,
        verdict
            .failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(","),
        raw_wall.as_secs_f64(),
        slices.len(),
        median_ms(&slices),
    );
    let cell_ms: Vec<String> = outcomes.iter().map(|o| o.ms.to_string()).collect();
    let _ = write!(out, ",\"cell_ms\":[{}]", cell_ms.join(","));
    let cell_start: Vec<String> = outcomes.iter().map(|o| o.start_s.to_string()).collect();
    let _ = write!(out, ",\"cell_start_s\":[{}]", cell_start.join(","));
    let probe: Vec<String> = samples
        .iter()
        .map(|s| format!("[{},{},{}]", s.mid_s, s.wall_s, s.cpu_s))
        .collect();
    let _ = write!(out, ",\"probe\":[{}]", probe.join(","));
    let _ = write!(
        out,
        ",\"properties\":{{\"cells_per_backend\":{},\"size_mix\":{},\"repeats\":{},\"artifact_reuse\":{}}}",
        json_obj(props.per_backend.iter().map(|(k, v)| (*k, v))),
        json_obj(props.size_mix.iter().map(|(k, v)| (*k, v))),
        props.repeats,
        props.artifact_reuse
    );
    if traced {
        let retries: u32 = outcomes.iter().map(|o| o.retries).sum();
        let spans: Vec<trace::Spans> = outcomes.into_iter().map(|o| o.spans).collect();
        let wall_ns = wall.as_nanos() as u64;
        let stats = cache.stats();
        let layers = trace::summarize(
            &spans,
            jobs,
            wall_ns,
            &[
                ("core.cache_hits", stats.hits as f64),
                ("core.cache_misses", stats.misses as f64),
                ("harness.failed_cells", failed as f64),
                ("harness.retries", f64::from(retries)),
            ],
        );
        let _ = write!(
            out,
            ",\"layers\":{}",
            json_obj(layers.iter().map(|(k, v)| (k.as_str(), v)))
        );
        if let Some(path) = cli.get("trace-out") {
            if let Err(e) =
                std::fs::write(path, trace::to_jsonl(&spans, raw_wall.as_nanos() as u64))
            {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    out.push('}');
    println!("{out}");
    if failed > 0 || !verdict.failures.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
