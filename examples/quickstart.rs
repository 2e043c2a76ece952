//! Quickstart: compile one C benchmark to WebAssembly *and* JavaScript,
//! run both in the simulated desktop-Chrome environment, and compare —
//! the paper's §1 experiment in ~40 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wasmbench::core::{try_run_compiled_js, try_run_wasm, JsSpec, WasmSpec};

const SOURCE: &str = r#"
#define N 64
double A[N][N];
double B[N][N];
double C[N][N];

void bench_main() {
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++) {
      A[i][j] = (double)((i * j + 1) % N) / N;
      B[i][j] = (double)((i + j) % N) / N;
    }
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++) {
      double s = 0.0;
      for (int k = 0; k < N; k++) s += A[i][k] * B[k][j];
      C[i][j] = s;
    }
  double check = 0.0;
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++) check += C[i][j];
  print_double(check);
}
"#;

fn main() {
    // WebAssembly: Cheerp profile, -O2, desktop Chrome (study defaults).
    let wasm = try_run_wasm(&WasmSpec::new(SOURCE), None).expect("wasm run");
    // JavaScript: same source, same compiler, JS backend.
    let js = try_run_compiled_js(&JsSpec::new(SOURCE), None).expect("js run");

    assert_eq!(
        wasm.output, js.output,
        "both backends computed the same result"
    );
    println!("checksum            : {}", wasm.output[0]);
    println!("wasm   time         : {}", wasm.time);
    println!("js     time         : {}", js.time);
    println!("wasm/js time ratio  : {:.2}x", wasm.time.0 / js.time.0);
    println!("wasm   memory       : {} KB", wasm.memory_bytes / 1024);
    println!("js     memory       : {} KB", js.memory_bytes / 1024);
    println!("wasm   binary size  : {} bytes", wasm.code_size);
    println!("js     source size  : {} bytes", js.code_size);
    println!();
    println!(
        "wasm time breakdown : load {} + compile {} + exec {}",
        wasm.clock.load_time, wasm.clock.compile_time, wasm.clock.exec_time
    );
    println!(
        "js   time breakdown : parse {} + compile {} + exec {} + gc {}",
        js.clock.load_time, js.clock.compile_time, js.clock.exec_time, js.clock.gc_time
    );
}
