//! Full-corpus invariant sweep: every kernel × every opt level × every
//! target runs the verified pipeline cleanly, every emitted Wasm module
//! type-checks, both fusion tables are cost-equivalent, and the corpus
//! is lint-clean. This is the same sweep `wb analyze --all` performs.

use wb_analysis::{analyze, AnalysisConfig};

#[test]
fn whole_corpus_passes_static_analysis() {
    let report = analyze(&AnalysisConfig::full());
    assert!(
        report.ok(),
        "static analysis failures:\n{}",
        report
            .failures()
            .iter()
            .map(|c| format!(
                "  {} {} {}: {}",
                c.kernel,
                c.level,
                c.subject,
                c.error.as_deref().unwrap_or("?")
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The corpus is fixed at 41 kernels; the sweep shape is part of the
    // contract (41 × 7 levels × 3 targets IR runs, 41 × 7 modules).
    assert_eq!(report.ir.len(), 41 * 7 * 3);
    assert_eq!(report.wasm.len(), 41 * 7);
    // 799 Wasm VM + 73 JS VM fused (family × operator) instances.
    assert_eq!(report.fusion.len(), 872);
    assert!(report.lints.is_empty(), "{:?}", report.lints);
}
