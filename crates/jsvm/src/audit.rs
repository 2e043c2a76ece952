//! Static cost-equivalence audit of the MiniJS fusion overlay.
//!
//! Mirror of `wb_wasm_vm::audit` for the JS engine: every fused form in
//! [`fuse`](crate::fuse) is instantiated for every operator it can carry
//! (all 11 [`BinKind`]s, all 8 [`CmpKind`]s, every inline-cache shape),
//! recognized through the real overlay matcher, and the form's
//! [`FOp::shape`] — the same shape `exec_fused` charges through — is
//! expanded (an `Op` part as the carried source op's class and Table 12
//! counter, index parts as typed-array-aware index counts). The expansion
//! is compared event-for-event against the plain interpreter's plans for
//! the constituent opcodes. No fused plan is written out here.
//!
//! Two structural facts make the remaining behavior trivially equivalent
//! and are therefore *documented* rather than audited per instance:
//!
//! * fused guards run **before** any charge, so an IC miss or non-`Num`
//!   operand falls back with the virtual-cost state untouched and the
//!   plain loop replays the reference path exactly;
//! * fused fast paths never allocate, never resize heap objects and never
//!   note hotness, so GC safe-points and tier transitions coincide with
//!   the reference at every op boundary. The one permitted divergence is
//!   step-budget batching per group (checked as a total here).
//!
//! Index counts are compared as symbolic `index(load|store)` events:
//! the fused [`count_cached_index`] and the reference `count_index_op`
//! route to `ta_counts` vs `tier_counts` by the *same* (typed, tier)
//! predicate, and the IC guarantees the fused `typed` bit equals what the
//! reference would recompute from the receiver.

use crate::bytecode::{Chunk, Const, Op};
use crate::fuse::{match_at, BinKind, CmpKind, FOp, Part, Shape};
use crate::vm::arith_counter;
use wb_env::{ArithCounts, OpClass};

/// One audited (family, operator) instance.
#[derive(Debug, Clone)]
pub struct FusionAuditEntry {
    /// Fused family name (e.g. `"LLBinStore"`).
    pub family: &'static str,
    /// Instance label (family plus the carried operator).
    pub instance: String,
    /// Source opcodes the fused form covers.
    pub constituents: Vec<String>,
    /// The fused form's charge plan, one event per line.
    pub fused_charges: Vec<String>,
    /// The plain interpreter's concatenated charge plan.
    pub reference_charges: Vec<String>,
    /// Whether the plans agree (and the overlay round-trips).
    pub ok: bool,
    /// Human-readable reason when `ok` is false.
    pub detail: Option<String>,
}

/// A single observable cost event; `Step` totals are compared separately
/// (budget batching is the documented divergence).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// One `tier_counts[tier].bump(class, 1)`.
    Class(OpClass),
    /// One Table 12 arithmetic-profile bump (column header).
    Arith(&'static str),
    /// One typed-array-aware index count (`count_index_op` /
    /// `count_cached_index` — identical routing on (typed, tier)).
    Index {
        /// Whether it counts as a store.
        store: bool,
    },
}

impl Ev {
    fn render(&self) -> String {
        match self {
            Ev::Class(c) => format!("class:{c:?}"),
            Ev::Arith(column) => format!("arith:{}", column.to_lowercase()),
            Ev::Index { store: false } => "index:load".into(),
            Ev::Index { store: true } => "index:store".into(),
        }
    }
}

const ALL_BINS: [BinKind; 11] = [
    BinKind::Add,
    BinKind::Sub,
    BinKind::Mul,
    BinKind::Div,
    BinKind::Mod,
    BinKind::BitAnd,
    BinKind::BitOr,
    BinKind::BitXor,
    BinKind::Shl,
    BinKind::Shr,
    BinKind::UShr,
];

const ALL_CMPS: [CmpKind; 8] = [
    CmpKind::Lt,
    CmpKind::Gt,
    CmpKind::Le,
    CmpKind::Ge,
    CmpKind::EqEq,
    CmpKind::NotEq,
    CmpKind::StrictEq,
    CmpKind::StrictNe,
];

/// The Table 12 event `op` charges, read off [`arith_counter`], the
/// function both the plain loop and fused `Op` parts bump through.
fn arith_ev(op: &Op) -> Option<Ev> {
    let mut counts = ArithCounts::default();
    *arith_counter(&mut counts, op)? += 1;
    let column = counts.columns().iter().position(|&n| n == 1)?;
    Some(Ev::Arith(ArithCounts::HEADERS[column]))
}

/// The plain interpreter's charge plan: per opcode, one step, then its
/// class bump (index ops count inside their handler instead), then its
/// Table 12 bump — the exact order of the `run()` loop.
fn reference_plan(ops: &[Op]) -> (u64, Vec<Ev>) {
    let mut evs = Vec::new();
    for op in ops {
        match op {
            Op::GetIndex => evs.push(Ev::Index { store: false }),
            Op::SetIndex => evs.push(Ev::Index { store: true }),
            other => {
                evs.push(Ev::Class(other.class()));
                evs.extend(arith_ev(other));
            }
        }
    }
    (ops.len() as u64, evs)
}

/// What `exec_fused` charges for `fop` through `shape` once its guards
/// held: each part in order, an `Op` part as its carried source op.
fn shape_plan(shape: &Shape, fop: &FOp) -> Result<Vec<Ev>, String> {
    let mut evs = Vec::new();
    for part in shape.parts {
        match part {
            Part::Local => evs.push(Ev::Class(OpClass::Local)),
            Part::Const => evs.push(Ev::Class(OpClass::Const)),
            Part::Branch => evs.push(Ev::Class(OpClass::Branch)),
            Part::Pop => evs.push(Ev::Class(OpClass::Other)),
            Part::Load => evs.push(Ev::Index { store: false }),
            Part::Store => evs.push(Ev::Index { store: true }),
            Part::Op => {
                let op = fop
                    .carried()
                    .ok_or_else(|| format!("{fop:?} has an Op part but no operator"))?;
                evs.push(Ev::Class(op.class()));
                evs.extend(arith_ev(&op));
            }
        }
    }
    Ok(evs)
}

/// Every (family, constituent-sequence) instance the overlay builder can
/// produce. Numeric-constant pools and jump offsets are placeholders —
/// charge plans do not depend on them.
fn enumerate_instances() -> Vec<(&'static str, String, Vec<Op>)> {
    let mut out = Vec::new();
    let ll = |i| Op::LoadLocal(i);
    for &bin in &ALL_BINS {
        let b = bin.op();
        let label = format!("{bin:?}");
        out.push(("LLBin", label.clone(), vec![ll(0), ll(1), b.clone()]));
        out.push((
            "LLBinStore",
            label.clone(),
            vec![ll(0), ll(1), b.clone(), Op::StoreLocal(2)],
        ));
        out.push(("LCBin", label.clone(), vec![ll(0), Op::Const(0), b.clone()]));
        out.push((
            "LCBinStore",
            label,
            vec![ll(0), Op::Const(0), b, Op::StoreLocal(2)],
        ));
    }
    for &cmp in &ALL_CMPS {
        let c = cmp.op();
        let label = format!("{cmp:?}");
        out.push(("CmpJf", label.clone(), vec![c.clone(), Op::JumpIfFalse(1)]));
        out.push((
            "LLCmpJf",
            label.clone(),
            vec![ll(0), ll(1), c.clone(), Op::JumpIfFalse(1)],
        ));
        out.push((
            "LCCmpJf",
            label,
            vec![ll(0), Op::Const(0), c, Op::JumpIfFalse(1)],
        ));
    }
    out.push((
        "CStore",
        "Num".into(),
        vec![Op::Const(0), Op::StoreLocal(2)],
    ));
    out.push(("LLGetIndex", "ic".into(), vec![ll(0), ll(1), Op::GetIndex]));
    out.push(("GetIndexIc", "ic".into(), vec![Op::GetIndex]));
    out.push(("SetIndexIc", "ic".into(), vec![Op::SetIndex]));
    out.push(("SetIndexPopIc", "ic".into(), vec![Op::SetIndex, Op::Pop]));
    out
}

/// Audit every fused form the MiniJS overlay can emit. An entry is `ok`
/// when the overlay builder recognizes the constituents as the expected
/// family at the full width and the events `exec_fused` charges through
/// the form's `FOp::shape()` equal the plain interpreter's concatenation
/// event-for-event.
pub fn audit_fusion_table() -> Vec<FusionAuditEntry> {
    enumerate_instances()
        .into_iter()
        .map(|(family, label, ops)| audit_instance(family, &label, &ops, FOp::shape))
        .collect()
}

/// Audit one instance, reading the fused form's shape through `shape_of`
/// (`FOp::shape`, or a deliberately wrong map in tests).
fn audit_instance(
    family: &'static str,
    label: &str,
    ops: &[Op],
    shape_of: fn(&FOp) -> &'static Shape,
) -> FusionAuditEntry {
    let chunk = Chunk {
        code: ops.to_vec(),
        consts: vec![Const::Num(1.0)],
        ..Default::default()
    };
    let mut next_ic = 0u32;
    let mut detail = None;
    let mut fused_rendered = Vec::new();
    let (ref_steps, ref_evs) = reference_plan(ops);

    match match_at(&chunk, 0, &mut next_ic).map(|fop| (shape_of(&fop), fop)) {
        Some((shape, fop)) if fop.width() == ops.len() && shape.family == family => {
            match shape_plan(shape, &fop) {
                Ok(evs) => {
                    fused_rendered = evs.iter().map(Ev::render).collect();
                    let steps = shape.parts.len() as u64;
                    if evs != ref_evs {
                        detail = Some("charge plans differ".into());
                    } else if steps != ref_steps {
                        detail = Some(format!("step total {steps} != reference {ref_steps}"));
                    }
                }
                Err(e) => detail = Some(e),
            }
        }
        Some((shape, fop)) => {
            detail = Some(format!(
                "overlay mismatch: got {} at width {}, expected {family} at width {}",
                shape.family,
                fop.width(),
                ops.len()
            ));
        }
        None => detail = Some("constituents did not fuse".into()),
    }

    FusionAuditEntry {
        family,
        instance: format!("{family}[{label}]"),
        constituents: ops.iter().map(|o| format!("{o:?}")).collect(),
        fused_charges: fused_rendered,
        reference_charges: ref_evs.iter().map(Ev::render).collect(),
        ok: detail.is_none(),
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_instance_is_cost_equivalent() {
        let entries = audit_fusion_table();
        let bad: Vec<_> = entries.iter().filter(|e| !e.ok).collect();
        assert!(
            bad.is_empty(),
            "{} non-equivalent instances, first: {:?}",
            bad.len(),
            bad.first()
        );
    }

    #[test]
    fn covers_every_family_and_operator() {
        let entries = audit_fusion_table();
        // 11 bins × 4 families + 8 cmps × 3 families + CStore +
        // LLGetIndex + GetIndexIc + SetIndexIc ± pop.
        let expected = ALL_BINS.len() * 4 + ALL_CMPS.len() * 3 + 1 + 4;
        assert_eq!(entries.len(), expected);
        let families: std::collections::BTreeSet<_> = entries.iter().map(|e| e.family).collect();
        assert_eq!(
            families.into_iter().collect::<Vec<_>>(),
            vec![
                "CStore",
                "CmpJf",
                "GetIndexIc",
                "LCBin",
                "LCBinStore",
                "LCCmpJf",
                "LLBin",
                "LLBinStore",
                "LLCmpJf",
                "LLGetIndex",
                "SetIndexIc",
                "SetIndexPopIc"
            ]
        );
    }

    #[test]
    fn arith_follows_reference_table() {
        let entries = audit_fusion_table();
        let div = entries
            .iter()
            .find(|e| e.instance == "LLBinStore[Div]")
            .unwrap();
        assert_eq!(
            div.fused_charges,
            vec![
                "class:Local",
                "class:Local",
                "class:FloatDiv",
                "arith:div",
                "class:Local"
            ]
        );
        assert_eq!(div.fused_charges, div.reference_charges);
    }

    #[test]
    fn a_shape_missing_its_trailing_store_local_is_caught() {
        fn truncated(fop: &FOp) -> &'static Shape {
            static LLBINSTORE_NO_STORE: Shape = Shape {
                family: "LLBinStore",
                parts: &[Part::Local, Part::Local, Part::Op],
            };
            match fop {
                FOp::LLBinStore { .. } => &LLBINSTORE_NO_STORE,
                other => other.shape(),
            }
        }
        let ops = [
            Op::LoadLocal(0),
            Op::LoadLocal(1),
            Op::Add,
            Op::StoreLocal(2),
        ];
        let good = audit_instance("LLBinStore", "Add", &ops, FOp::shape);
        assert!(good.ok, "{:?}", good.detail);
        let bad = audit_instance("LLBinStore", "Add", &ops, truncated);
        assert!(!bad.ok);
        assert_eq!(bad.detail.as_deref(), Some("charge plans differ"));
    }
}
