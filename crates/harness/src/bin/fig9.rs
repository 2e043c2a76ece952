//! Fig 9 + Tables 3/4 (Chrome) and Tables 5/6 (`--browser firefox`):
//! Wasm and JS across the five input sizes
//! ([`wb_harness::experiments::fig9`]).

use wb_harness::{experiments, Cli, GridEngine};

fn main() {
    let cli = Cli::from_env();
    let engine = GridEngine::from_cli(&cli);
    cli.out_dir();
    experiments::fig9(&cli, &engine, cli.environment());
    engine.finish_with(&cli, "fig9");
}
