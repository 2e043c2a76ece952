//! Seeded workload generation. Every cell a round runs is drawn here from
//! `(workload, seed, round)`; the program under test only ever sees the
//! generated cells.

use std::collections::{BTreeMap, HashMap, HashSet};
use wb_benchmarks::apps::{hyphen, longjs};
use wb_benchmarks::manual_js::{all_manual, ManualJs};
use wb_benchmarks::{suite, Benchmark, InputSize};
use wb_core::{ArtifactKey, ArtifactKind};
use wb_env::rng::Lcg;
use wb_env::{Browser, Environment, JitMode, Platform, TierPolicy, Toolchain};
use wb_harness::Run;
use wb_minic::OptLevel;

/// The three workloads. See `perfbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RegenMix,
    CompileLevels,
    JsHandwritten,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "regen_mix" => Some(Workload::RegenMix),
            "compile_levels" => Some(Workload::CompileLevels),
            "js_handwritten" => Some(Workload::JsHandwritten),
            _ => None,
        }
    }
}

/// Each artifact's single-thread cost, measured at the commit that
/// added the benchmark (`perfbench --calibrate`). Only used to balance
/// the halves; an artifact missing from the table counts as 100 ms.
const REGEN_COSTS: &str = include_str!("../regen_costs.tsv");

/// The kernels `levels_extended` sweeps over all seven levels.
const LEVELS_EXTENDED: [&str; 5] = ["gemm", "jacobi-2d", "durbin", "AES", "SHA"];
/// Kernels whose XS execution outweighs their compile; `compile_levels`
/// leaves them out, as selfbench's compile-bound slice does.
const COMPILE_EXCLUDED: [&str; 3] = ["AES", "MIPS", "BLOWFISH"];

/// Which backend a cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Wasm,
    Js,
    Native,
    ManualJs,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Wasm => "wasm",
            Backend::Js => "js",
            Backend::Native => "native",
            Backend::ManualJs => "manual_js",
        }
    }
}

/// A hand-written MiniJS program (Table 9 / Table 10).
#[derive(Debug, Clone)]
pub enum Program {
    /// One of table9's manual programs.
    Manual(ManualJs),
    /// Long.js, one operation.
    LongJs(longjs::LongOp),
    /// Hyphenopoly, one language.
    Hyphen(hyphen::Lang),
}

impl Program {
    pub fn name(&self) -> String {
        match self {
            Program::Manual(m) => m.name.to_string(),
            Program::LongJs(op) => format!("Long.js {}", op.name()),
            Program::Hyphen(lang) => format!("Hyphenopoly {}", lang.name()),
        }
    }
}

/// One grid cell.
#[derive(Debug, Clone)]
pub enum Cell {
    /// A compiled kernel on one backend, as the grid bins run it.
    Grid { run: Run, backend: Backend },
    /// A hand-written program on the JS VM.
    Manual {
        program: Program,
        env: Environment,
        jit: JitMode,
    },
}

impl Cell {
    pub fn backend(&self) -> Backend {
        match self {
            Cell::Grid { backend, .. } => *backend,
            Cell::Manual { .. } => Backend::ManualJs,
        }
    }

    /// The artifact group whose cells must all print the same output:
    /// `(kernel, size, level, toolchain)` for compiled kernels, the
    /// program for hand-written ones.
    pub fn output_group(&self) -> String {
        match self {
            Cell::Grid { run, .. } => group(run.benchmark.name, run.size, run.level, run.toolchain),
            Cell::Manual { program, .. } => program.name(),
        }
    }

    /// Everything the measurement depends on, normalised per backend:
    /// two cells with equal specs must measure bit-identically.
    pub fn spec(&self) -> String {
        match self {
            Cell::Grid { run, backend } => {
                let base = format!("{}/{:?}/{}", run.benchmark.name, run.size, run.level.name());
                match backend {
                    Backend::Wasm => format!(
                        "wasm/{base}/{:?}/{}/{:?}",
                        run.toolchain,
                        run.env.label(),
                        run.tier_policy
                    ),
                    Backend::Js => format!(
                        "js/{base}/{:?}/{}/{:?}",
                        run.toolchain,
                        run.env.label(),
                        run.jit
                    ),
                    _ => format!("native/{base}"),
                }
            }
            Cell::Manual { program, env, jit } => {
                format!("manual/{}/{}/{jit:?}", program.name(), env.label())
            }
        }
    }

    /// The artifact-cache key this cell is served from, as the run path
    /// computes it; hand-written programs bypass the cache.
    pub fn artifact_key(&self) -> Option<ArtifactKey> {
        let Cell::Grid { run, backend } = self else {
            return None;
        };
        let defines = run.benchmark.defines(run.size);
        let (kind, toolchain, heap) = match backend {
            Backend::Wasm => (ArtifactKind::Wasm, run.toolchain, Some(256 << 20)),
            Backend::Js => (ArtifactKind::Js, run.toolchain, None),
            _ => (ArtifactKind::Native, Toolchain::Cheerp, Some(1 << 30)),
        };
        Some(ArtifactKey::compute(
            kind,
            run.benchmark.source,
            &defines,
            run.level,
            toolchain,
            heap,
            false,
        ))
    }

    /// Dataset size, or `"-"` for hand-written programs.
    pub fn size_code(&self) -> &'static str {
        match self {
            Cell::Grid { run, .. } => run.size.code(),
            Cell::Manual { .. } => "-",
        }
    }
}

/// The cells of round `round` of `workload` under `seed`.
///
/// `compile_levels` and `js_handwritten` run their whole pool every
/// round, in a seeded order (and, for `compile_levels`, with a seeded
/// toolchain per `(kernel, level)` pair). `regen_mix` splits the 343
/// artifacts into two seeded halves of the same make-up (see
/// [`regen_half`]), and round `r` runs half `r % 2` in a seeded order.
/// Balancing matters: the regeneration traffic is heavy-tailed (MIPS
/// alone is over a third of it), so a plain draw of a few dozen
/// artifacts would make a round's wall time mostly a matter of whether
/// MIPS was drawn.
pub fn generate(workload: Workload, seed: u64, round: u64) -> Vec<Cell> {
    let mut rng = Lcg::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round);
    match workload {
        Workload::RegenMix => {
            let pool = regen_artifacts();
            let half = regen_half(seed, round % 2 == 1, &pool, &regen_costs(&pool));
            shuffled(&mut rng, half.len())
                .into_iter()
                .flat_map(|i| regen_cells(&pool[half[i]]))
                .collect()
        }
        Workload::CompileLevels => {
            let kernels: Vec<Benchmark> = suite::all_benchmarks()
                .into_iter()
                .filter(|b| !COMPILE_EXCLUDED.contains(&b.name))
                .collect();
            let n_levels = OptLevel::ALL.len();
            let mut cells = Vec::new();
            for i in shuffled(&mut rng, kernels.len() * n_levels) {
                let mut run = Run::new(kernels[i / n_levels].clone(), InputSize::XS);
                run.level = OptLevel::ALL[i % n_levels];
                run.toolchain = if rng.chance(1, 2) {
                    Toolchain::Cheerp
                } else {
                    Toolchain::Emscripten
                };
                for backend in [Backend::Wasm, Backend::Js, Backend::Native] {
                    cells.push(Cell::Grid {
                        run: run.clone(),
                        backend,
                    });
                }
            }
            cells
        }
        Workload::JsHandwritten => {
            let pool = js_pool();
            shuffled(&mut rng, pool.len())
                .into_iter()
                .map(|i| pool[i].clone())
                .collect()
        }
    }
}

/// `0..n` in a seeded order (Fisher–Yates).
fn shuffled(rng: &mut Lcg, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, rng.index(i + 1));
    }
    idx
}

/// Pairs of artifacts whose costs differ by more than this go the
/// same way for every seed; closer pairs are split by the seed.
const SEEDED_PAIR_MS: f64 = 200.0;

/// One half of the seed's split of the pool. Within each artifact type
/// (M at `-O2`, M at another evaluated level, M at an extended level,
/// Emscripten, XS, S, L) the artifacts are paired in descending cost and
/// each pair is split between the halves, so both halves hold the same
/// number of each type. Pairs whose costs differ by more than
/// [`SEEDED_PAIR_MS`] are placed first, costliest first, each putting
/// its costlier artifact in the lighter half (the first half on a tie),
/// so they land the same way for every seed; the closer pairs are then
/// split by the seed. The heavy artifacts, which hold the longest cells,
/// thus make up the same halves for every seed and the seed varies the
/// rest: a seeded side for MIPS at M `-O2` (18 s of the pool's 120)
/// would make a run's cost depend on where it fell, and placing the
/// heavy pairs among the seeded ones would let the seed move them.
fn regen_half(seed: u64, second: bool, pool: &[Artifact], costs: &[f64]) -> Vec<usize> {
    let mut strata: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, a) in pool.iter().enumerate() {
        strata.entry(a.kind()).or_default().push(i);
    }
    let (mut fixed, mut seeded) = (Vec::new(), Vec::new());
    for items in strata.values_mut() {
        items.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]));
        for pair in items.chunks(2) {
            match pair {
                [a, b] if costs[*a] - costs[*b] <= SEEDED_PAIR_MS => seeded.push(pair),
                _ => fixed.push(pair),
            }
        }
    }
    fixed.sort_by(|p, q| costs[q[0]].total_cmp(&costs[p[0]]));
    let mut totals = [0.0f64; 2];
    let mut halves: [Vec<usize>; 2] = Default::default();
    // `side`: which half the pair's first artifact joins; `None` for the
    // lighter one.
    let mut place = |pair: &[usize], side: Option<bool>| {
        let first = side.map_or(usize::from(totals[1] < totals[0]), usize::from);
        for (k, &i) in pair.iter().enumerate() {
            let h = first ^ k;
            totals[h] += costs[i];
            halves[h].push(i);
        }
    };
    for pair in &fixed {
        place(pair, None);
    }
    let mut rng = Lcg::new(seed);
    for pair in &seeded {
        place(pair, Some(rng.chance(1, 2)));
    }
    let [first, other] = halves;
    if second {
        other
    } else {
        first
    }
}

fn regen_costs(pool: &[Artifact]) -> Vec<f64> {
    let table: HashMap<&str, f64> = REGEN_COSTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .filter_map(|(k, v)| Some((k, v.trim().parse().ok()?)))
        .collect();
    pool.iter()
        .map(|a| table.get(a.group().as_str()).copied().unwrap_or(100.0))
        .collect()
}

/// Every `regen_mix` artifact's cells, for `perfbench --calibrate`.
pub fn regen_universe() -> Vec<Cell> {
    regen_artifacts().iter().flat_map(regen_cells).collect()
}

/// One artifact the grid bins build: `(kernel, size, level, toolchain)`.
struct Artifact {
    bench: Benchmark,
    size: InputSize,
    level: OptLevel,
    toolchain: Toolchain,
}

impl Artifact {
    /// The key of [`Cell::output_group`] and of the cost table.
    fn group(&self) -> String {
        group(self.bench.name, self.size, self.level, self.toolchain)
    }

    /// The artifact's type, which fixes the set of cells it runs.
    fn kind(&self) -> &'static str {
        match (self.size, self.toolchain) {
            (_, Toolchain::Emscripten) => "emscripten",
            (InputSize::M, _) if self.level == OptLevel::O2 => "M-O2",
            (InputSize::M, _) if OptLevel::EVALUATED.contains(&self.level) => "M-evaluated",
            (InputSize::M, _) => "M-extended",
            (size, _) => size.code(),
        }
    }
}

fn group(kernel: &str, size: InputSize, level: OptLevel, toolchain: Toolchain) -> String {
    format!("{kernel}/{size:?}/{}/{toolchain:?}", level.name())
}

/// Every artifact the regeneration bins build, XL excluded: per kernel,
/// the four evaluated levels at M (all seven for `levels_extended`'s
/// kernels), Emscripten `-O2` at M (`compilers`), and XS/S/L at `-O2`
/// (`fig9`). 343 artifacts.
fn regen_artifacts() -> Vec<Artifact> {
    let mut out = Vec::new();
    for bench in suite::all_benchmarks() {
        let extended = LEVELS_EXTENDED.contains(&bench.name);
        for level in OptLevel::ALL {
            if extended || OptLevel::EVALUATED.contains(&level) {
                out.push(Artifact {
                    bench: bench.clone(),
                    size: InputSize::M,
                    level,
                    toolchain: Toolchain::Cheerp,
                });
            }
        }
        out.push(Artifact {
            bench: bench.clone(),
            size: InputSize::M,
            level: OptLevel::O2,
            toolchain: Toolchain::Emscripten,
        });
        for size in [InputSize::XS, InputSize::S, InputSize::L] {
            out.push(Artifact {
                bench: bench.clone(),
                size,
                level: OptLevel::O2,
                toolchain: Toolchain::Cheerp,
            });
        }
    }
    out
}

/// Every cell the bins run on one artifact, as many times as they run
/// it, in bin order.
fn regen_cells(a: &Artifact) -> Vec<Cell> {
    let chrome = Environment::desktop_chrome();
    let firefox = Environment::new(Browser::Firefox, Platform::Desktop);
    let mut base = Run::new(a.bench.clone(), a.size);
    base.level = a.level;
    base.toolchain = a.toolchain;
    let mut cells = Vec::new();
    let mut push = |backend: Backend, edit: &dyn Fn(&mut Run)| {
        let mut run = base.clone();
        edit(&mut run);
        cells.push(Cell::Grid { run, backend });
    };
    let keep = |_: &mut Run| {};
    if a.toolchain == Toolchain::Emscripten {
        // compilers: the Emscripten half of the comparison.
        push(Backend::Wasm, &keep);
        return cells;
    }
    if a.size == InputSize::M {
        if OptLevel::EVALUATED.contains(&a.level) {
            // fig5
            push(Backend::Wasm, &keep);
            push(Backend::Js, &keep);
            // fig6
            push(Backend::Native, &keep);
            // table2 and fig11 each recompute fig5 ∪ fig6.
            for _ in 0..2 {
                push(Backend::Wasm, &keep);
                push(Backend::Js, &keep);
                push(Backend::Native, &keep);
            }
        }
        if LEVELS_EXTENDED.contains(&a.bench.name) {
            push(Backend::Wasm, &keep);
        }
        if a.level != OptLevel::O2 {
            return cells;
        }
        // compilers: the Cheerp half.
        push(Backend::Wasm, &keep);
        // fig10: JS JIT on/off, Wasm default/basic-only tiers.
        push(Backend::Js, &keep);
        push(Backend::Js, &|r| r.jit = JitMode::Disabled);
        push(Backend::Wasm, &keep);
        push(Backend::Wasm, &|r| r.tier_policy = TierPolicy::BasicOnly);
        // table7: three tier policies on Chrome and Firefox.
        for env in [chrome, firefox] {
            for policy in [
                TierPolicy::Default,
                TierPolicy::BasicOnly,
                TierPolicy::OptimizingOnly,
            ] {
                push(Backend::Wasm, &|r| {
                    r.env = env;
                    r.tier_policy = policy;
                });
            }
        }
        // fig12_13: six environments.
        for env in Environment::all_six() {
            push(Backend::Wasm, &|r| r.env = env);
            push(Backend::Js, &|r| r.env = env);
        }
    }
    // fig9 on Chrome and on Firefox (`--browser firefox`).
    for env in [chrome, firefox] {
        push(Backend::Wasm, &|r| r.env = env);
        push(Backend::Js, &|r| r.env = env);
    }
    cells
}

/// Hand-written programs × six environments × JIT on/off: 192 cells.
fn js_pool() -> Vec<Cell> {
    let mut programs: Vec<Program> = all_manual().into_iter().map(Program::Manual).collect();
    programs.extend(longjs::LongOp::ALL.into_iter().map(Program::LongJs));
    programs.extend(hyphen::Lang::ALL.into_iter().map(Program::Hyphen));
    let mut pool = Vec::new();
    for program in &programs {
        for env in Environment::all_six() {
            for jit in [JitMode::Enabled, JitMode::Disabled] {
                pool.push(Cell::Manual {
                    program: program.clone(),
                    env,
                    jit,
                });
            }
        }
    }
    pool
}

/// Deterministic counts over the generated cells alone.
pub struct Properties {
    pub per_backend: BTreeMap<&'static str, usize>,
    pub size_mix: BTreeMap<&'static str, usize>,
    /// Cells whose full run spec equals an earlier cell's.
    pub repeats: usize,
    /// Cells served by an artifact built for an earlier cell.
    pub artifact_reuse: usize,
}

pub fn properties(cells: &[Cell]) -> Properties {
    let mut per_backend = BTreeMap::new();
    let mut size_mix = BTreeMap::new();
    let mut specs = HashSet::new();
    let mut keys = HashSet::new();
    let (mut repeats, mut artifact_reuse) = (0, 0);
    for cell in cells {
        *per_backend.entry(cell.backend().name()).or_insert(0) += 1;
        *size_mix.entry(cell.size_code()).or_insert(0) += 1;
        if !specs.insert(cell.spec()) {
            repeats += 1;
        }
        if let Some(key) = cell.artifact_key() {
            if !keys.insert(key) {
                artifact_reuse += 1;
            }
        }
    }
    Properties {
        per_backend,
        size_mix,
        repeats,
        artifact_reuse,
    }
}
