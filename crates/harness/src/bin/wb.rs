//! `wb` — the repo's front door for regeneration, static verification
//! and fault injection.
//!
//! ```text
//! wb regen --all                   # every artifact, one process
//! wb regen --quick --out results/quick fig5 fig12_13
//! wb regen table7 > results/table7.txt   # CSVs + the text golden
//! wb analyze --all                 # full corpus sweep (verify.sh gate)
//! wb analyze --quick               # 3-kernel smoke subset
//! wb analyze --kernels gemm,AES    # named kernels only
//! wb analyze --all --out report.json
//! wb inject --all                  # every fault family (verify.sh gate)
//! wb inject --fault decode --quick # one family, reduced corpus
//! ```
//!
//! `regen` runs the named artifacts ([`wb_harness::experiments::ALL`])
//! one after another through one shared grid engine, so a cell that
//! several of them need is measured once, printing each table on stdout
//! and writing its CSVs. It takes the grid flags (`--filter`, `--quick`,
//! `--out`, `--jobs`, `--retries`, `--no-cache`, `--stats`,
//! `--reference-exec`, `--keep-going`); Fig 9 is named per browser
//! (`fig9_chrome`, `fig9_firefox`). A `--filter` that matches no
//! benchmark is a usage error.
//!
//! `analyze` runs the `wb-analysis` sweep — IR verification between
//! every pass at every opt level, Wasm type-checking of every emitted
//! module, the fusion cost-equivalence audit of both VMs, and the
//! corpus lints — and prints a one-line summary. Failures of the hard
//! checks (everything but lints) list their diagnostics and set a
//! non-zero exit status. `--out` additionally writes the
//! machine-readable JSON report. `--kernels` takes benchmark names
//! exactly as the corpus spells them; an unknown one is a usage error.
//!
//! `inject` runs the fault-injection harness ([`wb_harness::inject`]):
//! decode corruption, fuel/memory/stack exhaustion and forced worker
//! panics, asserting every fault surfaces as a structured error with
//! zero uncaught panics.

use wb_analysis::{analyze, AnalysisConfig};
use wb_benchmarks::InputSize;
use wb_harness::{exit_io, experiments, Cli, GridEngine};

/// The usage text; the experiment list is [`experiments::ALL`].
fn usage() -> String {
    let names: Vec<&str> = experiments::ALL.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: wb regen [--all | <experiment>...] [--quick] [--filter s] [--out dir] [--jobs N] [--retries N] [--no-cache] [--stats] [--reference-exec] [--keep-going]\n       experiments: {}\n       wb analyze [--all|--quick] [--kernels a,b] [--sizes XS,M] [--no-fusion] [--out report.json]\n       wb inject [--all|--fault <name>] [--quick]",
        names.join(" ")
    )
}

/// Print `message` and the usage, and exit with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{}", usage());
    std::process::exit(2);
}

fn regen_main(args: &[String]) {
    // Experiment names are positional, so a bare flag must never take
    // the next argument as its value: value flags are normalized to
    // `--key=value` before `Cli` sees them.
    let mut flags = Vec::new();
    let mut names = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            names.push(arg.as_str());
            continue;
        };
        let (name, inline) = match flag.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (flag, None),
        };
        match name {
            "filter" | "out" | "jobs" | "retries" => {
                let value = inline
                    .or_else(|| args.next().map(String::as_str))
                    .unwrap_or_else(|| usage_error(&format!("flag '--{name}' needs a value")));
                flags.push(format!("--{name}={value}"));
            }
            "all" | "quick" | "no-cache" | "stats" | "reference-exec" | "keep-going"
                if inline.is_none() =>
            {
                flags.push(arg.clone())
            }
            _ => usage_error(&format!("unknown flag '{arg}'")),
        }
    }
    let cli = Cli::from_args(flags);
    let selected: Vec<experiments::Experiment> = if cli.has("all") {
        if !names.is_empty() {
            usage_error("--all takes no experiment names");
        }
        experiments::ALL.iter().map(|&(_, e)| e).collect()
    } else if names.is_empty() {
        usage_error("name the experiments to run, or pass --all")
    } else {
        names
            .iter()
            .map(|&name| {
                experiments::find(name).unwrap_or_else(|| {
                    let known: Vec<&str> = experiments::ALL.iter().map(|(n, _)| *n).collect();
                    usage_error(&format!(
                        "unknown experiment '{name}' (known: {})",
                        known.join(", ")
                    ))
                })
            })
            .collect()
    };
    if let Some(filter) = cli.get("filter") {
        if cli.benchmarks().is_empty() {
            eprintln!("error: --filter '{filter}' matches no benchmark");
            std::process::exit(2);
        }
    }
    let engine = GridEngine::from_cli(&cli);
    // An unwritable `--out` fails now, not after the whole grid ran.
    cli.out_dir();
    for experiment in selected {
        experiment(&cli, &engine);
    }
    engine.finish_with(&cli, "regen");
}

fn inject_main(args: &[String]) {
    for flag in args.iter().filter_map(|a| a.strip_prefix("--")) {
        let name = flag.split_once('=').map_or(flag, |(k, _)| k);
        if !matches!(name, "all" | "fault" | "quick") {
            eprintln!("unknown flag '--{name}'\n{}", usage());
            std::process::exit(2);
        }
    }
    let cli = Cli::from_args(args.iter().cloned());
    let quick = cli.has("quick");
    let reports = match cli.get("fault") {
        Some(name) => match wb_harness::inject::run_fault(name, quick) {
            Some(r) => vec![r],
            None => {
                eprintln!(
                    "unknown fault '{name}' (known: {})",
                    wb_harness::inject::ALL_FAULTS.join(", ")
                );
                std::process::exit(2);
            }
        },
        None => wb_harness::inject::run_all(quick),
    };
    let mut uncaught = 0usize;
    let mut unexpected = 0usize;
    println!("fault     probes  expected  unexpected  uncaught-panics");
    for r in &reports {
        println!(
            "{:<8}  {:>6}  {:>8}  {:>10}  {:>15}",
            r.fault, r.probes, r.expected, r.unexpected, r.uncaught_panics
        );
        for d in &r.diagnostics {
            eprintln!("  {}: {d}", r.fault);
        }
        uncaught += r.uncaught_panics;
        unexpected += r.unexpected;
    }
    println!("inject: {uncaught} uncaught panics, {unexpected} unexpected outcomes");
    if uncaught + unexpected > 0 {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => {}
        Some("regen") => {
            regen_main(&args[1..]);
            return;
        }
        Some("inject") => {
            inject_main(&args[1..]);
            return;
        }
        _ => {
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
    for flag in args[1..].iter().filter_map(|a| a.strip_prefix("--")) {
        let name = flag.split_once('=').map_or(flag, |(k, _)| k);
        if !matches!(
            name,
            "all" | "quick" | "kernels" | "sizes" | "no-fusion" | "out"
        ) {
            eprintln!("unknown flag '--{name}'\n{}", usage());
            std::process::exit(2);
        }
    }
    let cli = Cli::from_args(args[1..].iter().cloned());

    let mut cfg = if cli.has("quick") {
        AnalysisConfig::quick()
    } else {
        AnalysisConfig::full()
    };
    if let Some(list) = cli.get("kernels") {
        let known: Vec<&str> = wb_benchmarks::all_benchmarks()
            .iter()
            .map(|b| b.name)
            .collect();
        cfg.kernels = list
            .split(',')
            .map(|kernel| {
                if !known.contains(&kernel) {
                    eprintln!("unknown kernel '{kernel}' (known: {})", known.join(", "));
                    std::process::exit(2);
                }
                kernel.to_string()
            })
            .collect();
    }
    if let Some(list) = cli.get("sizes") {
        cfg.sizes = list
            .split(',')
            .map(|s| match s {
                "XS" => InputSize::XS,
                "S" => InputSize::S,
                "M" => InputSize::M,
                "L" => InputSize::L,
                "XL" => InputSize::XL,
                other => {
                    eprintln!("unknown size '{other}' (use XS,S,M,L,XL)");
                    std::process::exit(2);
                }
            })
            .collect();
    }
    if cli.has("no-fusion") {
        cfg.fusion = false;
    }

    let t0 = std::time::Instant::now();
    let report = analyze(&cfg);
    let elapsed = t0.elapsed();

    println!(
        "analyze: {} ({:.2}s)",
        report.summary(),
        elapsed.as_secs_f64()
    );
    for lint in &report.lints {
        println!(
            "  lint [{}] {} ({}, {}): {}",
            lint.finding.lint, lint.kernel, lint.size, lint.finding.func, lint.finding.message
        );
    }
    for failure in report.failures() {
        println!(
            "  FAIL {} {} [{}]: {}",
            failure.kernel,
            failure.level,
            failure.subject,
            failure.error.as_deref().unwrap_or("?")
        );
    }

    if let Some(path) = cli.get("out") {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            exit_io("write", std::path::Path::new(path), e);
        }
        println!("[wrote {path}]");
    }

    if !report.ok() {
        std::process::exit(1);
    }
}
