//! The grid experiments: one function per paper artifact, each building
//! its cells, measuring them on a caller-supplied [`GridEngine`] and
//! emitting its tables through [`Cli::emit`].
//!
//! A grid binary is [`run_bin`] over one of these; `wb regen` runs any
//! set of them ([`ALL`]) through a single engine, so the artifacts share
//! its artifact cache and measurement memo and a cell several of them
//! need is measured once.

use crate::{Cli, GridEngine, Run};
use wb_benchmarks::{Benchmark, InputSize, Suite};
use wb_core::report::{kilobytes, millis, ratio, Table};
use wb_core::stats::{five_number, geomean, mean, speedup_split};
use wb_core::Measurement;
use wb_env::{Browser, Environment, JitMode, Platform, TierPolicy, Toolchain};
use wb_minic::OptLevel;

/// A grid experiment: measures its cells on the engine and writes its
/// CSVs under the CLI's `--out` directory.
pub type Experiment = fn(&Cli, &GridEngine);

/// Every grid experiment by name, in `wb regen --all` order.
pub const ALL: &[(&str, Experiment)] = &[
    ("fig5", fig5),
    ("fig6", fig6),
    ("table2", table2),
    ("fig11", fig11),
    ("compilers", compilers),
    ("levels_extended", levels_extended),
    ("fig10", fig10),
    ("table7", table7),
    ("fig12_13", fig12_13),
    ("fig9_chrome", fig9_chrome),
    ("fig9_firefox", fig9_firefox),
];

/// The experiment called `name` in [`ALL`].
pub fn find(name: &str) -> Option<Experiment> {
    ALL.iter().find(|(n, _)| *n == name).map(|&(_, e)| e)
}

/// The whole `main` of a single-experiment binary: parse the flags,
/// resolve the `--out` directory before any cell runs, run `experiment`
/// on a fresh engine, then [`GridEngine::finish_with`].
pub fn run_bin(name: &str, experiment: Experiment) {
    let cli = Cli::from_env();
    let engine = GridEngine::from_cli(&cli);
    cli.out_dir();
    experiment(&cli, &engine);
    engine.finish_with(&cli, name);
}

/// The four `-O` levels of Figs 5/6, Table 2 and Fig 11; `-O2` (index 1)
/// is the baseline every ratio divides by.
const LEVELS: [OptLevel; 4] = [OptLevel::O1, OptLevel::O2, OptLevel::Ofast, OptLevel::Oz];

/// The study baseline cell of `b` at `level` (M input).
fn at_level(b: &Benchmark, level: OptLevel) -> Run {
    let mut run = Run::new(b.clone(), InputSize::M);
    run.level = level;
    run
}

/// Fig 5: execution time and code size of WebAssembly and JavaScript at
/// `-O1`, `-Ofast` and `-Oz`, relative to `-O2`, per benchmark (desktop
/// Chrome, default = medium input).
pub fn fig5(cli: &Cli, engine: &GridEngine) {
    let rows = engine.map(cli.benchmarks(), |b| {
        let mut wasm_time = Vec::new();
        let mut wasm_size = Vec::new();
        let mut js_time = Vec::new();
        let mut js_size = Vec::new();
        for level in LEVELS {
            let run = at_level(&b, level);
            let w = engine.wasm(&run);
            wasm_time.push(w.time.0);
            wasm_size.push(w.code_size as f64);
            let j = engine.js(&run);
            js_time.push(j.time.0);
            js_size.push(j.code_size as f64);
        }
        (b.name, wasm_time, wasm_size, js_time, js_size)
    });

    // Relative to -O2 (index 1), like the figure's y-axis.
    let rel = |v: &[f64], i: usize| v[i] / v[1];
    let columns = [
        "benchmark",
        "wasm O1/O2",
        "wasm Ofast/O2",
        "wasm Oz/O2",
        "js O1/O2",
        "js Ofast/O2",
        "js Oz/O2",
    ];
    let mut time_table = Table::new(
        "Fig 5 (top): execution time relative to -O2 (Chrome desktop, M input)",
        &columns,
    );
    let mut size_table = Table::new("Fig 5 (bottom): code size relative to -O2", &columns);
    for (name, wt, ws, jt, js) in &rows {
        time_table.row(vec![
            name.to_string(),
            ratio(rel(wt, 0)),
            ratio(rel(wt, 2)),
            ratio(rel(wt, 3)),
            ratio(rel(jt, 0)),
            ratio(rel(jt, 2)),
            ratio(rel(jt, 3)),
        ]);
        size_table.row(vec![
            name.to_string(),
            ratio(rel(ws, 0)),
            ratio(rel(ws, 2)),
            ratio(rel(ws, 3)),
            ratio(rel(js, 0)),
            ratio(rel(js, 2)),
            ratio(rel(js, 3)),
        ]);
    }
    cli.emit("fig5_time", &time_table);
    cli.emit("fig5_code_size", &size_table);

    // Per-level winner census (§4.2.1's "no silver bullet" paragraph).
    let mut fastest = [0usize; 4];
    for (_, wt, _, _, _) in &rows {
        let mut best = 0;
        for i in 1..4 {
            if wt[i] < wt[best] {
                best = i;
            }
        }
        fastest[best] += 1;
    }
    let mut census = Table::new(
        "Fastest Wasm binary per optimization level (§4.2.1)",
        &["level", "benchmarks fastest"],
    );
    for (i, level) in LEVELS.iter().enumerate() {
        census.row(vec![level.to_string(), fastest[i].to_string()]);
    }
    cli.emit("fig5_fastest_census", &census);
}

/// Fig 6: execution time and code size of the x86 (native control)
/// build at `-O1`, `-Ofast` and `-Oz`, relative to `-O2`.
pub fn fig6(cli: &Cli, engine: &GridEngine) {
    let rows = engine.map(cli.benchmarks(), |b| {
        let mut time = Vec::new();
        let mut size = Vec::new();
        for level in LEVELS {
            let n = engine.native(&at_level(&b, level));
            time.push(n.time.0);
            size.push(n.code_size as f64);
        }
        (b.name, time, size)
    });

    let mut time_table = Table::new(
        "Fig 6 (top): x86 execution time relative to -O2",
        &["benchmark", "O1/O2", "Ofast/O2", "Oz/O2"],
    );
    let mut size_table = Table::new(
        "Fig 6 (bottom): x86 code size relative to -O2",
        &["benchmark", "O1/O2", "Ofast/O2", "Oz/O2"],
    );
    for (name, t, s) in &rows {
        time_table.row(vec![
            name.to_string(),
            ratio(t[0] / t[1]),
            ratio(t[2] / t[1]),
            ratio(t[3] / t[1]),
        ]);
        size_table.row(vec![
            name.to_string(),
            ratio(s[0] / s[1]),
            ratio(s[2] / s[1]),
            ratio(s[3] / s[1]),
        ]);
    }
    cli.emit("fig6_time", &time_table);
    cli.emit("fig6_code_size", &size_table);
}

/// Per-benchmark, per-level metrics of Table 2 and Fig 11, in this
/// order: JS time, code size, memory; Wasm time, code size, memory;
/// x86 time, code size. Both artifacts are built from the Fig 5 ∪ Fig 6
/// cells.
fn level_metrics(cli: &Cli, engine: &GridEngine) -> Vec<Vec<[f64; 8]>> {
    engine.map(cli.benchmarks(), |b| {
        LEVELS
            .iter()
            .map(|&level| {
                let run = at_level(&b, level);
                let w = engine.wasm(&run);
                let j = engine.js(&run);
                let n = engine.native(&run);
                [
                    j.time.0,
                    j.code_size as f64,
                    j.memory_bytes as f64,
                    w.time.0,
                    w.code_size as f64,
                    w.memory_bytes as f64,
                    n.time.0,
                    n.code_size as f64,
                ]
            })
            .collect()
    })
}

/// Table 2: geometric means of compiler-optimization results — execution
/// time, code size and memory of JS, Wasm and x86 at
/// `-O1`/`-Ofast`/`-Oz` relative to `-O2`.
pub fn table2(cli: &Cli, engine: &GridEngine) {
    let per_bench = level_metrics(cli, engine);

    // Geomean of per-benchmark ratios level/O2 (O2 is index 1) of
    // metric `mi` (a `level_metrics` column).
    let gm_ratio = |mi: usize, level: usize| -> String {
        let vals: Vec<f64> = per_bench
            .iter()
            .map(|levels| levels[level][mi] / levels[1][mi])
            .collect();
        ratio(geomean(&vals).expect("positive ratios"))
    };

    let mut t = Table::new(
        "Table 2: geometric means of compiler optimization results (vs -O2)",
        &["Metric", "Targets", "JS", "WASM", "x86"],
    );
    let metric_rows: [(&str, usize); 3] = [("O1/O2", 0), ("Ofast/O2", 2), ("Oz/O2", 3)];
    for (label, idx) in metric_rows {
        t.row(vec![
            "Exec. Time".into(),
            label.into(),
            gm_ratio(0, idx),
            gm_ratio(3, idx),
            gm_ratio(6, idx),
        ]);
    }
    for (label, idx) in metric_rows {
        t.row(vec![
            "Code Size".into(),
            label.into(),
            gm_ratio(1, idx),
            gm_ratio(4, idx),
            gm_ratio(7, idx),
        ]);
    }
    for (label, idx) in metric_rows {
        t.row(vec![
            "Memory".into(),
            label.into(),
            gm_ratio(2, idx),
            gm_ratio(5, idx),
            "-".into(),
        ]);
    }
    cli.emit("table2", &t);
}

/// Fig 11: five-number summaries (min/Q1/median/Q3/max) of the
/// optimization-level ratios — execution time, code size and memory of
/// JS, Wasm and x86 at `-O1`/`-Ofast`/`-Oz` relative to `-O2`.
pub fn fig11(cli: &Cli, engine: &GridEngine) {
    let per_bench = level_metrics(cli, engine);

    let mut t = Table::new(
        "Fig 11: five-number summaries of opt-level ratios (vs -O2)",
        &["series", "min", "q1", "median", "q3", "max"],
    );
    let metrics = [
        ("JS Time", 0),
        ("JS CS", 1),
        ("JS Mem", 2),
        ("WASM Time", 3),
        ("WASM CS", 4),
        ("WASM Mem", 5),
        ("x86 Time", 6),
        ("x86 CS", 7),
    ];
    let level_pairs = [("O1/O2", 0usize), ("Ofast/O2", 2), ("Oz/O2", 3)];
    for (metric, mi) in metrics {
        for (label, li) in level_pairs {
            let ratios: Vec<f64> = per_bench
                .iter()
                .map(|levels| levels[li][mi] / levels[1][mi])
                .collect();
            let f = five_number(&ratios).expect("non-empty");
            t.row(vec![
                format!("{metric} {label}"),
                format!("{:.3}", f.min),
                format!("{:.3}", f.q1),
                format!("{:.3}", f.median),
                format!("{:.3}", f.q3),
                format!("{:.3}", f.max),
            ]);
        }
    }
    cli.emit("fig11", &t);
}

/// §4.2.2: Cheerp vs Emscripten — execution time and memory of the 41
/// benchmarks compiled by both toolchains at `-O2` on desktop Chrome.
pub fn compilers(cli: &Cli, engine: &GridEngine) {
    let rows = engine.map(cli.benchmarks(), |b| {
        let run = Run::new(b.clone(), InputSize::M);
        let cheerp = engine.wasm(&run);
        let mut em = run;
        em.toolchain = Toolchain::Emscripten;
        let emscripten = engine.wasm(&em);
        (b.name, cheerp, emscripten)
    });

    let mut t = Table::new(
        "§4.2.2: Cheerp vs Emscripten (-O2, Chrome desktop, M input)",
        &[
            "benchmark",
            "cheerp ms",
            "emscripten ms",
            "time ratio",
            "cheerp KB",
            "emscripten KB",
        ],
    );
    let mut time_ratios = Vec::new();
    let mut mem_ratios = Vec::new();
    for (name, c, e) in &rows {
        time_ratios.push(c.time.0 / e.time.0);
        mem_ratios.push(e.memory_bytes as f64 / c.memory_bytes as f64);
        t.row(vec![
            name.to_string(),
            millis(c.time),
            millis(e.time),
            ratio(c.time.0 / e.time.0),
            kilobytes(c.memory_bytes),
            kilobytes(e.memory_bytes),
        ]);
    }
    t.row(vec![
        "geomean".into(),
        "-".into(),
        "-".into(),
        format!(
            "{:.2}x faster (Emscripten)",
            geomean(&time_ratios).expect("positive")
        ),
        "-".into(),
        format!(
            "{:.2}x more memory (Emscripten)",
            geomean(&mem_ratios).expect("positive")
        ),
    ]);
    cli.emit("compilers", &t);
}

/// Extension beyond the paper's grid: sweep **all seven** optimization
/// levels (the paper dropped `-O0`, `-O3`/`-O4` and `-Os` as
/// unrepresentative, §3.2) over a representative benchmark slice, so the
/// full Fig 1 design space is visible.
pub fn levels_extended(cli: &Cli, engine: &GridEngine) {
    let names = ["gemm", "jacobi-2d", "durbin", "AES", "SHA"];
    let benchmarks: Vec<_> = names
        .iter()
        .filter_map(|n| wb_benchmarks::suite::find(n))
        .filter(|b| {
            cli.get("filter")
                .map(|f| b.name.to_lowercase().contains(&f.to_lowercase()))
                .unwrap_or(true)
        })
        .collect();

    let rows = engine.map(benchmarks, |b| {
        let mut wasm = Vec::new();
        let mut size = Vec::new();
        for level in OptLevel::ALL {
            let w = engine.wasm(&at_level(&b, level));
            wasm.push(w.time.0);
            size.push(w.code_size as f64);
        }
        (b.name, wasm, size)
    });

    let base = OptLevel::ALL
        .iter()
        .position(|l| *l == OptLevel::O2)
        .expect("O2 in ALL");
    let headers: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(OptLevel::ALL.iter().map(|l| format!("{l}/‑O2")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();

    let mut time_table = Table::new(
        "Extended levels: Wasm execution time relative to -O2 (all 7 levels)",
        &header_refs,
    );
    let mut size_table = Table::new(
        "Extended levels: Wasm code size relative to -O2",
        &header_refs,
    );
    for (name, wasm, size) in &rows {
        let mut trow = vec![name.to_string()];
        let mut srow = vec![name.to_string()];
        for i in 0..OptLevel::ALL.len() {
            trow.push(ratio(wasm[i] / wasm[base]));
            srow.push(ratio(size[i] / size[base]));
        }
        time_table.row(trow);
        size_table.row(srow);
    }
    cli.emit("levels_extended_time", &time_table);
    cli.emit("levels_extended_size", &size_table);
}

/// Fig 10: performance improvement with JIT optimization — execution
/// time without JIT divided by time with JIT, per benchmark, for JS
/// (`--no-opt`) and Wasm (`--liftoff --no-wasm-tier-up`) on Chrome.
pub fn fig10(cli: &Cli, engine: &GridEngine) {
    let rows = engine.map(cli.benchmarks(), |b| {
        let base = Run::new(b.clone(), InputSize::M);

        let js_jit = engine.js(&base);
        let mut no_jit = base.clone();
        no_jit.jit = JitMode::Disabled;
        let js_nojit = engine.js(&no_jit);

        let wasm_default = engine.wasm(&base);
        let mut basic_only = base.clone();
        basic_only.tier_policy = TierPolicy::BasicOnly;
        let wasm_basic = engine.wasm(&basic_only);

        (
            b.name,
            b.suite,
            js_nojit.time.0 / js_jit.time.0,
            wasm_basic.time.0 / wasm_default.time.0,
        )
    });

    for (suite, tag) in [
        (Suite::PolyBenchC, "polybench"),
        (Suite::CHStone, "chstone"),
    ] {
        let mut js_table = Table::new(
            &format!("Fig 10: JS speedup with JIT — {}", suite.name()),
            &["benchmark", "speedup"],
        );
        let mut wasm_table = Table::new(
            &format!("Fig 10: Wasm speedup with JIT (tier-up) — {}", suite.name()),
            &["benchmark", "speedup"],
        );
        let mut js_vals = Vec::new();
        let mut wasm_vals = Vec::new();
        for (name, s, js, wasm) in &rows {
            if *s != suite {
                continue;
            }
            js_table.row(vec![name.to_string(), format!("{js:.2}x")]);
            wasm_table.row(vec![name.to_string(), format!("{wasm:.2}x")]);
            js_vals.push(*js);
            wasm_vals.push(*wasm);
        }
        if js_vals.is_empty() {
            continue;
        }
        for (t, vals) in [(&mut js_table, &js_vals), (&mut wasm_table, &wasm_vals)] {
            t.row(vec![
                "geomean".into(),
                format!("{:.2}x", geomean(vals).expect("positive")),
            ]);
            t.row(vec![
                "average".into(),
                format!("{:.2}x", mean(vals).expect("non-empty")),
            ]);
        }
        cli.emit(&format!("fig10_js_{tag}"), &js_table);
        cli.emit(&format!("fig10_wasm_{tag}"), &wasm_table);
    }
}

/// Table 7: Wasm performance with three tier configurations on Chrome
/// and Firefox — the execution-speed ratio of the default two-tier
/// setting to basic-only and to optimizing-only.
pub fn table7(cli: &Cli, engine: &GridEngine) {
    let chrome = Environment::desktop_chrome();
    let firefox = Environment::new(Browser::Firefox, Platform::Desktop);

    // ratio = time(single-tier) / time(default): > 1 means default faster.
    let rows = engine.map(cli.benchmarks(), |b| {
        let measure = |env: Environment, policy: TierPolicy| {
            let mut run = Run::new(b.clone(), InputSize::M);
            run.env = env;
            run.tier_policy = policy;
            engine.wasm(&run).time.0
        };
        let mut out = Vec::new();
        for env in [chrome, firefox] {
            let default = measure(env, TierPolicy::Default);
            let basic = measure(env, TierPolicy::BasicOnly);
            let optimizing = measure(env, TierPolicy::OptimizingOnly);
            out.push((basic / default, optimizing / default));
        }
        (b.suite, out)
    });

    let mut t = Table::new(
        "Table 7: Wasm speed ratio of default tiers to basic/optimizing-only",
        &[
            "Benchmark",
            "Metric",
            "LiftOff",
            "Baseline",
            "TurboFan",
            "Ion",
        ],
    );
    for (suite, label) in [
        (Some(Suite::PolyBenchC), "PolyBenchC"),
        (Some(Suite::CHStone), "CHStone"),
        (None, "Overall"),
    ] {
        let mut cols: [Vec<f64>; 4] = Default::default();
        for (s, vals) in &rows {
            if suite.is_some() && Some(*s) != suite {
                continue;
            }
            cols[0].push(vals[0].0); // Chrome basic-only (LiftOff)
            cols[1].push(vals[1].0); // Firefox basic-only (Baseline)
            cols[2].push(vals[0].1); // Chrome optimizing-only (TurboFan)
            cols[3].push(vals[1].1); // Firefox optimizing-only (Ion)
        }
        if cols[0].is_empty() {
            continue;
        }
        t.row(vec![
            label.into(),
            "Geo. mean".into(),
            ratio(geomean(&cols[0]).expect("positive")),
            ratio(geomean(&cols[1]).expect("positive")),
            ratio(geomean(&cols[2]).expect("positive")),
            ratio(geomean(&cols[3]).expect("positive")),
        ]);
        t.row(vec![
            label.into(),
            "Average".into(),
            ratio(mean(&cols[0]).expect("non-empty")),
            ratio(mean(&cols[1]).expect("non-empty")),
            ratio(mean(&cols[2]).expect("non-empty")),
            ratio(mean(&cols[3]).expect("non-empty")),
        ]);
    }
    cli.emit("table7", &t);
}

/// One measured Figs 12/13 cell: (benchmark name, environment, wasm, js).
type EnvCell = (&'static str, Environment, Measurement, Measurement);

/// One number of a Figs 12/13 cell, averaged per environment.
type CellMetric = fn(&EnvCell) -> f64;

/// Figs 12/13 + Table 8: execution time and memory of Wasm and JS across
/// the six deployment settings (Chrome/Firefox/Edge × desktop/mobile).
pub fn fig12_13(cli: &Cli, engine: &GridEngine) {
    let envs = Environment::all_six();
    let grid: Vec<(Benchmark, Environment)> = cli
        .benchmarks()
        .into_iter()
        .flat_map(|b| envs.iter().map(move |e| (b.clone(), *e)))
        .collect();

    let cells = engine.map(grid, |(b, env)| {
        let mut run = Run::new(b.clone(), InputSize::M);
        run.env = env;
        let w = engine.wasm(&run);
        let j = engine.js(&run);
        (b.name, env, w, j)
    });

    // Figs 12/13 per-benchmark rows.
    let mut fig = Table::new(
        "Figs 12/13: per-benchmark time (ms) and memory (KB), six environments (-O2, M input)",
        &[
            "benchmark",
            "environment",
            "wasm ms",
            "js ms",
            "wasm KB",
            "js KB",
        ],
    );
    for (name, env, w, j) in &cells {
        fig.row(vec![
            name.to_string(),
            env.label(),
            millis(w.time),
            millis(j.time),
            kilobytes(w.memory_bytes),
            kilobytes(j.memory_bytes),
        ]);
    }
    cli.emit("fig12_13", &fig);

    // Table 8: arithmetic averages per environment.
    let mut t8 = Table::new(
        "Table 8: arithmetic averages across 41 benchmarks",
        &["metric", "Chrome", "Firefox", "Edge"],
    );
    let avg = |env: Environment, f: CellMetric| -> f64 {
        let vals: Vec<f64> = cells
            .iter()
            .filter(|(_, e, _, _)| *e == env)
            .map(f)
            .collect();
        mean(&vals).expect("non-empty")
    };
    let js_ms: CellMetric = |c| c.3.time.as_millis();
    let wasm_ms: CellMetric = |c| c.2.time.as_millis();
    for (platform, tag) in [(Platform::Desktop, "D."), (Platform::Mobile, "M.")] {
        let metrics: [(&str, CellMetric); 4] = [
            ("JS Exec. Time (ms)", js_ms),
            ("WASM Exec. Time (ms)", wasm_ms),
            ("JS Memory (KB)", |c| c.3.memory_bytes as f64 / 1024.0),
            ("WASM Memory (KB)", |c| c.2.memory_bytes as f64 / 1024.0),
        ];
        for (metric, getter) in metrics {
            let mut row = vec![format!("{tag} {metric}")];
            for browser in Browser::ALL {
                let v = avg(Environment::new(browser, platform), getter);
                row.push(format!("{v:.2}"));
            }
            t8.row(row);
        }
    }
    cli.emit("table8", &t8);

    // §4.5 relative-time summary (the paper's headline ratios).
    let mut rel = Table::new(
        "§4.5: execution time relative to Chrome (same platform)",
        &["platform", "language", "Chrome", "Firefox", "Edge"],
    );
    for platform in Platform::ALL {
        for (lang, time_of) in [("JS", js_ms), ("WASM", wasm_ms)] {
            let base = avg(Environment::new(Browser::Chrome, platform), time_of);
            let mut row = vec![platform.name().to_string(), lang.to_string()];
            for browser in Browser::ALL {
                let v = avg(Environment::new(browser, platform), time_of);
                row.push(ratio(v / base));
            }
            rel.row(row);
        }
    }
    cli.emit("table8_relative", &rel);
}

/// [`fig9`] on desktop Chrome (Fig 9 + Tables 3/4).
pub fn fig9_chrome(cli: &Cli, engine: &GridEngine) {
    fig9(cli, engine, Environment::desktop_chrome());
}

/// [`fig9`] on desktop Firefox (Tables 5/6).
pub fn fig9_firefox(cli: &Cli, engine: &GridEngine) {
    fig9(
        cli,
        engine,
        Environment::new(Browser::Firefox, Platform::Desktop),
    );
}

/// Fig 9 + Tables 3/4 (Chrome) and Tables 5/6 (Firefox): execution time
/// and memory of Wasm and JS across the five input sizes in `env`.
pub fn fig9(cli: &Cli, engine: &GridEngine, env: Environment) {
    let sizes = cli.sizes();
    let browser = env.browser.name();

    let grid: Vec<(Benchmark, InputSize)> = cli
        .benchmarks()
        .into_iter()
        .flat_map(|b| sizes.iter().map(move |s| (b.clone(), *s)))
        .collect();

    let cells = engine.map(grid, |(b, size)| {
        let mut run = Run::new(b.clone(), size);
        run.env = env;
        let w = engine.wasm(&run);
        let j = engine.js(&run);
        assert_eq!(w.output, j.output, "{} {size}: outputs must agree", b.name);
        (b.name, size, w, j)
    });

    // Fig 9 per-benchmark rows.
    let mut fig = Table::new(
        &format!("Fig 9: time (ms) and memory (KB) per input size — {browser} desktop"),
        &[
            "benchmark",
            "size",
            "wasm ms",
            "js ms",
            "wasm/js time",
            "wasm KB",
            "js KB",
        ],
    );
    for (name, size, w, j) in &cells {
        fig.row(vec![
            name.to_string(),
            size.code().into(),
            millis(w.time),
            millis(j.time),
            ratio(w.time.0 / j.time.0),
            kilobytes(w.memory_bytes),
            kilobytes(j.memory_bytes),
        ]);
    }
    cli.emit(&format!("fig9_{}", browser.to_lowercase()), &fig);

    // Tables 3/5: SD/SU split per size.
    let mut split = Table::new(
        &format!("Table 3/5: {browser} execution time statistics"),
        &[
            "Input Size",
            "SD #",
            "SD gmean",
            "SU #",
            "SU gmean",
            "All gmean",
        ],
    );
    for size in &sizes {
        let pairs: Vec<(f64, f64)> = cells
            .iter()
            .filter(|(_, s, _, _)| s == size)
            .map(|(_, _, w, j)| (j.time.0, w.time.0))
            .collect();
        let s = speedup_split(&pairs).expect("non-empty grid");
        let all = if s.all_gmean >= 1.0 {
            format!("{:.2}x up", s.all_gmean)
        } else {
            format!("{:.2}x down", 1.0 / s.all_gmean)
        };
        split.row(vec![
            size.name().into(),
            s.slowdown_count.to_string(),
            format!("{:.2}x", s.slowdown_gmean),
            s.speedup_count.to_string(),
            format!("{:.2}x", s.speedup_gmean),
            all,
        ]);
    }
    cli.emit(&format!("table3_5_{}", browser.to_lowercase()), &split);

    // Tables 4/6: average memory per size.
    let mut memory = Table::new(
        &format!("Table 4/6: {browser} average memory usage (KB)"),
        &["Input Size", "JavaScript", "WebAssembly"],
    );
    for size in &sizes {
        let js_mem: Vec<f64> = cells
            .iter()
            .filter(|(_, s, _, _)| s == size)
            .map(|(_, _, _, j)| j.memory_bytes as f64)
            .collect();
        let wasm_mem: Vec<f64> = cells
            .iter()
            .filter(|(_, s, _, _)| s == size)
            .map(|(_, _, w, _)| w.memory_bytes as f64)
            .collect();
        memory.row(vec![
            size.name().into(),
            kilobytes(mean(&js_mem).expect("non-empty") as u64),
            kilobytes(mean(&wasm_mem).expect("non-empty") as u64),
        ]);
    }
    cli.emit(&format!("table4_6_{}", browser.to_lowercase()), &memory);
}
