//! # wb-core — the measurement pipeline
//!
//! The paper's methodology (Fig 2) as a library:
//!
//! 1. **Source-code transformation** — performed inside `wb-minic`'s
//!    frontend (§3.1);
//! 2. **Compilation to Wasm/JS** — [`measure::try_run_wasm`] /
//!    [`measure::try_run_compiled_js`] drive the Cheerp/Emscripten profiles
//!    at any `-O` level with dataset `-D` defines (§3.2);
//! 3. **Deployment instrumentation** — the simulated page loads the
//!    artifact, instantiates it, and brackets execution with
//!    `performance.now()`-equivalent virtual timers (§3.3);
//! 4. **Data collection** — every run yields a [`measure::Measurement`]:
//!    execution time (with load/compile/exec/GC/grow/context-switch
//!    attribution), DevTools-model memory, code size, instruction counts
//!    and the Table 12 arithmetic profile (§3.4).
//!
//! On top sit [`stats`] (geometric means, five-number summaries, the
//! speedup/slowdown split of Table 3), [`report`] (aligned text tables +
//! CSV), and [`apps`] (the Long.js / Hyphenopoly / FFmpeg drivers,
//! including the WebWorker-pool model and the §4.5 context-switch
//! microbenchmark).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod artifacts;
pub mod host;
pub mod measure;
pub mod report;
pub mod stats;

pub use artifacts::{ArtifactCache, ArtifactKey, ArtifactKind, CacheStats};
pub use measure::{
    native_artifact_key, try_run_compiled_js, try_run_manual_js, try_run_native, try_run_wasm,
    JsSpec, Measurement, RunError, RunFailure, TrapKind, WasmSpec,
};
