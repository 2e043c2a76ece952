//! Wall-clock spans recorded by the benchmark around its calls into each
//! layer's public functions. Spans live in memory per cell and are merged
//! and written out once the round ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the round's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span within the same cell; `None` for the
    /// cell span, whose parent is the workload span.
    pub parent: Option<usize>,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The span and counter recorder of one cell. A disabled recorder runs
/// the wrapped calls and records nothing.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
    pub counters: BTreeMap<&'static str, f64>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            enabled: true,
            epoch,
            stack: Vec::new(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn off() -> Self {
        Spans {
            enabled: false,
            ..Spans::new(Instant::now())
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `layer.call`; `layer.call_s` is the
    /// metric its durations add up to.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end = self.now();
        r
    }

    /// Add to a named counter recorded at this call site.
    pub fn add(&mut self, counter: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(counter).or_insert(0.0) += v;
        }
    }
}

/// The layer a span belongs to: its name up to the first dot.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per-layer totals over every cell of a round. `cells` holds each
/// cell's recorder, `wall_ns` is the workload span's duration and
/// `extra` holds round-wide counters (the artifact cache's).
pub fn summarize(
    cells: &[Spans],
    jobs: usize,
    wall_ns: u64,
    extra: &[(&str, f64)],
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for (k, v) in extra {
        m.insert(k.to_string(), *v);
    }
    let mut add = |k: &str, v: f64| *m.entry(k.to_string()).or_insert(0.0) += v;
    let secs = |ns: u64| ns as f64 * 1e-9;
    let mut longest = 0u64;
    let mut n_spans = 0usize;
    for cell in cells {
        n_spans += cell.spans.len();
        let mut child_ns = vec![0u64; cell.spans.len()];
        for s in &cell.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur();
            }
        }
        for (i, s) in cell.spans.iter().enumerate() {
            let self_ns = s.dur().saturating_sub(child_ns[i]);
            match s.name {
                "harness.cell" => {
                    add("harness.cells", 1.0);
                    add("harness.busy_s", secs(s.dur()));
                    add("harness.unattributed_s", secs(self_ns));
                    longest = longest.max(s.dur());
                }
                "core.cache_get" => add("core.cache_wait_s", secs(self_ns)),
                name => {
                    add(&format!("{}.self_s", layer(name)), secs(self_ns));
                    add(&format!("{name}_s"), secs(s.dur()));
                    if layer(name) == "minic" {
                        add("minic.compiles", 1.0);
                    }
                }
            }
        }
        for (k, v) in &cell.counters {
            add(k, *v);
        }
    }
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let wall = secs(wall_ns);
    let busy = get(&m, "harness.busy_s");
    let jobs = jobs as f64;
    let derived = [
        ("harness.worker_util", ratio(busy, jobs * wall)),
        (
            "harness.critical_path_ratio",
            ratio(secs(longest), busy / jobs),
        ),
        ("harness.tail_idle_s", jobs * wall - busy),
        (
            "core.cache_hit_ratio",
            ratio(
                get(&m, "core.cache_hits"),
                get(&m, "core.cache_hits") + get(&m, "core.cache_misses"),
            ),
        ),
        (
            "wasmvm.ops_per_s",
            ratio(get(&m, "wasmvm.ops"), get(&m, "wasmvm.invoke_s")),
        ),
        (
            "jsvm.ops_per_s",
            ratio(get(&m, "jsvm.ops"), get(&m, "jsvm.call_s")),
        ),
        (
            "jsvm.ic_hit_ratio",
            ratio(
                get(&m, "jsvm.ic_hits"),
                get(&m, "jsvm.ic_hits") + get(&m, "jsvm.ic_misses"),
            ),
        ),
        (
            "native.ops_per_s",
            ratio(get(&m, "native.ops"), get(&m, "native.run_s")),
        ),
        ("trace.spans", n_spans as f64),
    ];
    for (k, v) in derived {
        m.insert(k.to_string(), v);
    }
    m
}

/// The round's spans as JSON lines. Span ids are global: 0 is the
/// workload span, and each cell span is parented to it.
pub fn to_jsonl(cells: &[Spans], wall_ns: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"{{"id":0,"name":"workload","cell":null,"parent":null,"start_ns":0,"end_ns":{wall_ns}}}"#
    );
    let mut base = 1;
    for (c, cell) in cells.iter().enumerate() {
        for (i, s) in cell.spans.iter().enumerate() {
            let parent = s.parent.map_or(0, |p| base + p);
            let _ = writeln!(
                out,
                r#"{{"id":{},"name":"{}","cell":{c},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                base + i,
                s.name,
                s.start,
                s.end
            );
        }
        base += cell.spans.len();
    }
    out
}
