//! The correctness gate: committed goldens, and output agreement across
//! every backend that ran one artifact.

use crate::workload::{Backend, Cell, Program};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use wb_benchmarks::InputSize;
use wb_core::report::{kilobytes, millis, ratio};
use wb_core::Measurement;
use wb_env::{Environment, JitMode, TierPolicy, Toolchain};
use wb_minic::OptLevel;

/// Golden rows keyed by `file/row-key`, each a map from column header
/// to the value as formatted in the committed CSV.
pub struct Goldens {
    rows: HashMap<String, HashMap<String, String>>,
}

/// `(file, key columns)` of every golden the gate checks against.
const GOLDEN_FILES: [(&str, &[&str]); 4] = [
    ("fig9_chrome.csv", &["benchmark", "size"]),
    ("fig12_13.csv", &["benchmark", "environment"]),
    ("table9.csv", &["Benchmark"]),
    ("table10.csv", &["Benchmark"]),
];

fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = vec![String::new()];
    let mut quoted = false;
    for ch in line.chars() {
        match ch {
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(String::new()),
            c => fields.last_mut().expect("one field").push(c),
        }
    }
    fields
}

impl Goldens {
    pub fn load(results: &Path) -> Result<Goldens, String> {
        let mut rows = HashMap::new();
        for (file, key_cols) in GOLDEN_FILES {
            let path = results.join(file);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut lines = text.lines();
            let header = split_csv_line(lines.next().unwrap_or_default());
            for line in lines.filter(|l| !l.is_empty()) {
                let row: HashMap<String, String> =
                    header.iter().cloned().zip(split_csv_line(line)).collect();
                let key: Vec<&str> = key_cols
                    .iter()
                    .map(|c| row.get(*c).map_or("", String::as_str))
                    .collect();
                rows.insert(format!("{file}/{}", key.join("/")), row);
            }
        }
        Ok(Goldens { rows })
    }

    fn row(&self, key: &str) -> Option<&HashMap<String, String>> {
        self.rows.get(key)
    }
}

/// The golden row a cell reproduces and the `(time, memory)` columns it
/// fills, if any committed golden covers it.
fn golden_columns(cell: &Cell) -> Option<(String, &'static str, Option<&'static str>)> {
    let chrome = Environment::desktop_chrome();
    match cell {
        Cell::Grid { run, backend } => {
            let study = run.level == OptLevel::O2
                && run.toolchain == Toolchain::Cheerp
                && match backend {
                    Backend::Wasm => run.tier_policy == TierPolicy::Default,
                    Backend::Js => run.jit == JitMode::Enabled,
                    _ => false,
                };
            if !study {
                return None;
            }
            let (ms, kb) = if *backend == Backend::Wasm {
                ("wasm ms", "wasm KB")
            } else {
                ("js ms", "js KB")
            };
            let key = if run.size == InputSize::M && run.env != chrome {
                format!("fig12_13.csv/{}/{}", run.benchmark.name, run.env.label())
            } else if run.env == chrome {
                format!("fig9_chrome.csv/{}/{}", run.benchmark.name, run.size.code())
            } else {
                return None;
            };
            Some((key, ms, Some(kb)))
        }
        Cell::Manual { program, env, jit } => {
            if *env != chrome || *jit != JitMode::Enabled {
                return None;
            }
            match program {
                Program::Manual(m) => Some((
                    format!("table9.csv/{}", m.name),
                    "Manual ms",
                    Some("Manual KB"),
                )),
                _ => Some((
                    format!("table10.csv/{}", program.name()),
                    "JS Time (ms)",
                    None,
                )),
            }
        }
    }
}

/// The gate's verdict on one round.
#[derive(Default)]
pub struct Verdict {
    /// Checks made (golden columns compared, artifact groups compared).
    pub checks: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Verdict {
    fn expect(&mut self, what: &str, got: &str, want: Option<&String>) {
        self.checks += 1;
        match want {
            Some(w) if w == got => {}
            Some(w) => self.failures.push(format!("{what}: got {got}, golden {w}")),
            None => self.failures.push(format!("{what}: golden row missing")),
        }
    }
}

/// Check every measured cell against the goldens that cover it, and
/// every artifact group's outputs against each other.
pub fn check(goldens: &Goldens, cells: &[Cell], results: &[Option<&Measurement>]) -> Verdict {
    let mut v = Verdict::default();
    // fig9's ratio column needs both halves of a (kernel, size) pair.
    let mut fig9_pairs: BTreeMap<String, [Option<f64>; 2]> = BTreeMap::new();
    let mut outputs: BTreeMap<String, (&Vec<String>, String)> = BTreeMap::new();
    for (cell, m) in cells.iter().zip(results) {
        let Some(m) = m else { continue };
        if let Some((key, ms_col, kb_col)) = golden_columns(cell) {
            let row = goldens.row(&key);
            v.expect(
                &format!("{key} {ms_col}"),
                &millis(m.time),
                row.and_then(|r| r.get(ms_col)),
            );
            if let Some(kb_col) = kb_col {
                v.expect(
                    &format!("{key} {kb_col}"),
                    &kilobytes(m.memory_bytes),
                    row.and_then(|r| r.get(kb_col)),
                );
            }
            if key.starts_with("fig9") {
                let pair = fig9_pairs.entry(key).or_default();
                pair[usize::from(cell.backend() != Backend::Wasm)] = Some(m.time.0);
            }
        }
        let group = cell.output_group();
        match outputs.get(&group) {
            None => {
                outputs.insert(group, (&m.output, cell.spec()));
            }
            Some((first, first_spec)) => {
                if *first != &m.output {
                    v.failures.push(format!(
                        "{group}: output of {} differs from {first_spec}",
                        cell.spec()
                    ));
                }
            }
        }
    }
    v.checks += outputs.len();
    for (key, pair) in fig9_pairs {
        if let [Some(w), Some(j)] = pair {
            v.expect(
                &format!("{key} wasm/js time"),
                &ratio(w / j),
                goldens.row(&key).and_then(|r| r.get("wasm/js time")),
            );
        }
    }
    v
}
