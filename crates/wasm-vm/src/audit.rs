//! Static cost-equivalence audit of the fusion table.
//!
//! The hard invariant of the fused engine — a fused micro-op charges the
//! **exact same virtual-cost sequence** as its unfused constituents — is
//! checked dynamically by the fused-vs-reference differential tests. This
//! module checks it exhaustively and statically: every fused family in
//! [`fuse`](crate::fuse) is instantiated for **every** operator it can
//! carry (all 76 [`BinOp`]s, all 47 [`UnOp`]s, all load and store kinds),
//! lowered through [`match_fused`], and the lowered op's
//! [`Mop::shape`] — the same shape `run_body_fused` charges through — is
//! expanded with the carried operator's `class()`, `arith()` and
//! `can_trap()`. The expansion is compared event-for-event against the
//! concatenation of the reference interpreter's plans for the constituent
//! instructions. No fused plan is written out here.
//!
//! A charge plan is the sequence of observable cost events:
//!
//! * one op-class bump per retired constituent (`tier_counts[tier]`),
//! * the Table 12 arithmetic bump for arithmetic constituents,
//! * the position of any trap point relative to those bumps.
//!
//! Step-budget consumption is compared as a total (the fused engine
//! batches a group's steps up front — the one documented divergence; see
//! `exec.rs`). The audit also proves each family's constituents carry no
//! `TimeBucket` charge and no hotness note (those exist only on
//! `memory.grow`, calls and loop back-edges, none of which fuse), and
//! that the lowering produces the audited family at the audited width.

use crate::classify::{arith_kind, classify, ArithKind};
use crate::fuse::{match_fused, BinOp, LoadKind, Mop, Part, Shape, StoreKind, UnOp};
use wb_env::OpClass;
use wb_wasm::{Instr, MemArg};

/// One audited (family, operator) instance.
#[derive(Debug, Clone)]
pub struct FusionAuditEntry {
    /// Fused family name (e.g. `"LLBinSet"`).
    pub family: &'static str,
    /// Instance label (family plus the carried operator).
    pub instance: String,
    /// Source instructions the fused op retires.
    pub constituents: Vec<String>,
    /// The fused op's charge plan, one event per line.
    pub fused_charges: Vec<String>,
    /// The reference interpreter's concatenated charge plan.
    pub reference_charges: Vec<String>,
    /// Whether the plans agree (and the lowering round-trips).
    pub ok: bool,
    /// Human-readable reason when `ok` is false.
    pub detail: Option<String>,
}

/// A single observable cost event. `Step` totals are compared separately
/// because the fused engine batches a group's budget consumption.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// One `tier_counts[tier].bump(class, 1)`.
    Class(OpClass),
    /// One Table 12 arithmetic bump.
    Arith(ArithKind),
    /// A point at which execution may trap.
    Trap,
}

impl Ev {
    fn render(&self) -> String {
        match self {
            Ev::Class(c) => format!("class:{c:?}"),
            Ev::Arith(k) => format!("arith:{k:?}"),
            Ev::Trap => "trap-point".into(),
        }
    }
}

/// The source instruction a [`BinOp`] was lifted from. Exhaustive — adding
/// a `BinOp` variant without extending the audit fails to compile.
fn instr_of_bin(op: BinOp) -> Instr {
    use BinOp::*;
    match op {
        I32Add => Instr::I32Add,
        I32Sub => Instr::I32Sub,
        I32Mul => Instr::I32Mul,
        I32DivS => Instr::I32DivS,
        I32DivU => Instr::I32DivU,
        I32RemS => Instr::I32RemS,
        I32RemU => Instr::I32RemU,
        I32And => Instr::I32And,
        I32Or => Instr::I32Or,
        I32Xor => Instr::I32Xor,
        I32Shl => Instr::I32Shl,
        I32ShrS => Instr::I32ShrS,
        I32ShrU => Instr::I32ShrU,
        I32Rotl => Instr::I32Rotl,
        I32Rotr => Instr::I32Rotr,
        I32Eq => Instr::I32Eq,
        I32Ne => Instr::I32Ne,
        I32LtS => Instr::I32LtS,
        I32LtU => Instr::I32LtU,
        I32GtS => Instr::I32GtS,
        I32GtU => Instr::I32GtU,
        I32LeS => Instr::I32LeS,
        I32LeU => Instr::I32LeU,
        I32GeS => Instr::I32GeS,
        I32GeU => Instr::I32GeU,
        I64Add => Instr::I64Add,
        I64Sub => Instr::I64Sub,
        I64Mul => Instr::I64Mul,
        I64DivS => Instr::I64DivS,
        I64DivU => Instr::I64DivU,
        I64RemS => Instr::I64RemS,
        I64RemU => Instr::I64RemU,
        I64And => Instr::I64And,
        I64Or => Instr::I64Or,
        I64Xor => Instr::I64Xor,
        I64Shl => Instr::I64Shl,
        I64ShrS => Instr::I64ShrS,
        I64ShrU => Instr::I64ShrU,
        I64Rotl => Instr::I64Rotl,
        I64Rotr => Instr::I64Rotr,
        I64Eq => Instr::I64Eq,
        I64Ne => Instr::I64Ne,
        I64LtS => Instr::I64LtS,
        I64LtU => Instr::I64LtU,
        I64GtS => Instr::I64GtS,
        I64GtU => Instr::I64GtU,
        I64LeS => Instr::I64LeS,
        I64LeU => Instr::I64LeU,
        I64GeS => Instr::I64GeS,
        I64GeU => Instr::I64GeU,
        F32Add => Instr::F32Add,
        F32Sub => Instr::F32Sub,
        F32Mul => Instr::F32Mul,
        F32Div => Instr::F32Div,
        F32Min => Instr::F32Min,
        F32Max => Instr::F32Max,
        F32Copysign => Instr::F32Copysign,
        F32Eq => Instr::F32Eq,
        F32Ne => Instr::F32Ne,
        F32Lt => Instr::F32Lt,
        F32Gt => Instr::F32Gt,
        F32Le => Instr::F32Le,
        F32Ge => Instr::F32Ge,
        F64Add => Instr::F64Add,
        F64Sub => Instr::F64Sub,
        F64Mul => Instr::F64Mul,
        F64Div => Instr::F64Div,
        F64Min => Instr::F64Min,
        F64Max => Instr::F64Max,
        F64Copysign => Instr::F64Copysign,
        F64Eq => Instr::F64Eq,
        F64Ne => Instr::F64Ne,
        F64Lt => Instr::F64Lt,
        F64Gt => Instr::F64Gt,
        F64Le => Instr::F64Le,
        F64Ge => Instr::F64Ge,
    }
}

/// Exhaustive `UnOp` → source instruction map.
fn instr_of_un(un: UnOp) -> Instr {
    use UnOp::*;
    match un {
        I32Eqz => Instr::I32Eqz,
        I32Clz => Instr::I32Clz,
        I32Ctz => Instr::I32Ctz,
        I32Popcnt => Instr::I32Popcnt,
        I64Eqz => Instr::I64Eqz,
        I64Clz => Instr::I64Clz,
        I64Ctz => Instr::I64Ctz,
        I64Popcnt => Instr::I64Popcnt,
        F32Abs => Instr::F32Abs,
        F32Neg => Instr::F32Neg,
        F32Ceil => Instr::F32Ceil,
        F32Floor => Instr::F32Floor,
        F32Trunc => Instr::F32Trunc,
        F32Nearest => Instr::F32Nearest,
        F32Sqrt => Instr::F32Sqrt,
        F64Abs => Instr::F64Abs,
        F64Neg => Instr::F64Neg,
        F64Ceil => Instr::F64Ceil,
        F64Floor => Instr::F64Floor,
        F64Trunc => Instr::F64Trunc,
        F64Nearest => Instr::F64Nearest,
        F64Sqrt => Instr::F64Sqrt,
        I32WrapI64 => Instr::I32WrapI64,
        I32TruncF32S => Instr::I32TruncF32S,
        I32TruncF32U => Instr::I32TruncF32U,
        I32TruncF64S => Instr::I32TruncF64S,
        I32TruncF64U => Instr::I32TruncF64U,
        I64ExtendI32S => Instr::I64ExtendI32S,
        I64ExtendI32U => Instr::I64ExtendI32U,
        I64TruncF32S => Instr::I64TruncF32S,
        I64TruncF32U => Instr::I64TruncF32U,
        I64TruncF64S => Instr::I64TruncF64S,
        I64TruncF64U => Instr::I64TruncF64U,
        F32ConvertI32S => Instr::F32ConvertI32S,
        F32ConvertI32U => Instr::F32ConvertI32U,
        F32ConvertI64S => Instr::F32ConvertI64S,
        F32ConvertI64U => Instr::F32ConvertI64U,
        F32DemoteF64 => Instr::F32DemoteF64,
        F64ConvertI32S => Instr::F64ConvertI32S,
        F64ConvertI32U => Instr::F64ConvertI32U,
        F64ConvertI64S => Instr::F64ConvertI64S,
        F64ConvertI64U => Instr::F64ConvertI64U,
        F64PromoteF32 => Instr::F64PromoteF32,
        I32ReinterpretF32 => Instr::I32ReinterpretF32,
        I64ReinterpretF64 => Instr::I64ReinterpretF64,
        F32ReinterpretI32 => Instr::F32ReinterpretI32,
        F64ReinterpretI64 => Instr::F64ReinterpretI64,
    }
}

/// Exhaustive `LoadKind` → source instruction map (zero memarg).
fn instr_of_load(kind: LoadKind) -> Instr {
    let m = MemArg {
        align: 0,
        offset: 0,
    };
    use LoadKind::*;
    match kind {
        I32 => Instr::I32Load(m),
        I64 => Instr::I64Load(m),
        F32 => Instr::F32Load(m),
        F64 => Instr::F64Load(m),
        I32S8 => Instr::I32Load8S(m),
        I32U8 => Instr::I32Load8U(m),
        I32S16 => Instr::I32Load16S(m),
        I32U16 => Instr::I32Load16U(m),
        I64S8 => Instr::I64Load8S(m),
        I64U8 => Instr::I64Load8U(m),
        I64S16 => Instr::I64Load16S(m),
        I64U16 => Instr::I64Load16U(m),
        I64S32 => Instr::I64Load32S(m),
        I64U32 => Instr::I64Load32U(m),
    }
}

/// Exhaustive `StoreKind` → source instruction map (zero memarg).
fn instr_of_store(kind: StoreKind) -> Instr {
    let m = MemArg {
        align: 0,
        offset: 0,
    };
    use StoreKind::*;
    match kind {
        I32 => Instr::I32Store(m),
        I64 => Instr::I64Store(m),
        F32 => Instr::F32Store(m),
        F64 => Instr::F64Store(m),
        I32As8 => Instr::I32Store8(m),
        I32As16 => Instr::I32Store16(m),
        I64As8 => Instr::I64Store8(m),
        I64As16 => Instr::I64Store16(m),
        I64As32 => Instr::I64Store32(m),
    }
}

const ALL_BINOPS: [BinOp; 76] = {
    use BinOp::*;
    [
        I32Add,
        I32Sub,
        I32Mul,
        I32DivS,
        I32DivU,
        I32RemS,
        I32RemU,
        I32And,
        I32Or,
        I32Xor,
        I32Shl,
        I32ShrS,
        I32ShrU,
        I32Rotl,
        I32Rotr,
        I32Eq,
        I32Ne,
        I32LtS,
        I32LtU,
        I32GtS,
        I32GtU,
        I32LeS,
        I32LeU,
        I32GeS,
        I32GeU,
        I64Add,
        I64Sub,
        I64Mul,
        I64DivS,
        I64DivU,
        I64RemS,
        I64RemU,
        I64And,
        I64Or,
        I64Xor,
        I64Shl,
        I64ShrS,
        I64ShrU,
        I64Rotl,
        I64Rotr,
        I64Eq,
        I64Ne,
        I64LtS,
        I64LtU,
        I64GtS,
        I64GtU,
        I64LeS,
        I64LeU,
        I64GeS,
        I64GeU,
        F32Add,
        F32Sub,
        F32Mul,
        F32Div,
        F32Min,
        F32Max,
        F32Copysign,
        F32Eq,
        F32Ne,
        F32Lt,
        F32Gt,
        F32Le,
        F32Ge,
        F64Add,
        F64Sub,
        F64Mul,
        F64Div,
        F64Min,
        F64Max,
        F64Copysign,
        F64Eq,
        F64Ne,
        F64Lt,
        F64Gt,
        F64Le,
        F64Ge,
    ]
};

const ALL_UNOPS: [UnOp; 47] = {
    use UnOp::*;
    [
        I32Eqz,
        I32Clz,
        I32Ctz,
        I32Popcnt,
        I64Eqz,
        I64Clz,
        I64Ctz,
        I64Popcnt,
        F32Abs,
        F32Neg,
        F32Ceil,
        F32Floor,
        F32Trunc,
        F32Nearest,
        F32Sqrt,
        F64Abs,
        F64Neg,
        F64Ceil,
        F64Floor,
        F64Trunc,
        F64Nearest,
        F64Sqrt,
        I32WrapI64,
        I32TruncF32S,
        I32TruncF32U,
        I32TruncF64S,
        I32TruncF64U,
        I64ExtendI32S,
        I64ExtendI32U,
        I64TruncF32S,
        I64TruncF32U,
        I64TruncF64S,
        I64TruncF64U,
        F32ConvertI32S,
        F32ConvertI32U,
        F32ConvertI64S,
        F32ConvertI64U,
        F32DemoteF64,
        F64ConvertI32S,
        F64ConvertI32U,
        F64ConvertI64S,
        F64ConvertI64U,
        F64PromoteF32,
        I32ReinterpretF32,
        I64ReinterpretF64,
        F32ReinterpretI32,
        F64ReinterpretI64,
    ]
};

const ALL_LOADS: [LoadKind; 14] = {
    use LoadKind::*;
    [
        I32, I64, F32, F64, I32S8, I32U8, I32S16, I32U16, I64S8, I64U8, I64S16, I64U16, I64S32,
        I64U32,
    ]
};

const ALL_STORES: [StoreKind; 9] = {
    use StoreKind::*;
    [
        I32, I64, F32, F64, I32As8, I32As16, I64As8, I64As16, I64As32,
    ]
};

/// Whether an instruction may trap on the reference path (at the execute
/// point, after its class/arith bumps).
fn instr_can_trap(i: &Instr) -> bool {
    if let Some(op) = BinOp::of(i) {
        return op.can_trap();
    }
    if let Some(un) = UnOp::of(i) {
        return un.can_trap();
    }
    matches!(classify(i), OpClass::Load | OpClass::Store)
}

/// The reference interpreter's charge plan for a constituent sequence:
/// per instruction, one step, its op-class bump, its Table 12 bump, then
/// its (potential) trap point — the exact order of `interp.rs`.
fn reference_plan(instrs: &[Instr]) -> (u64, Vec<Ev>) {
    let mut evs = Vec::new();
    for i in instrs {
        evs.push(Ev::Class(classify(i)));
        if let Some(k) = arith_kind(i) {
            evs.push(Ev::Arith(k));
        }
        if instr_can_trap(i) {
            evs.push(Ev::Trap);
        }
    }
    (instrs.len() as u64, evs)
}

/// The carried operator's charge for an `Op` part (class, Table 12 kind)
/// and whether executing it can trap; `None` if the op carries none.
fn carried(mop: &Mop) -> Option<(OpClass, Option<ArithKind>, bool)> {
    use Mop::*;
    match *mop {
        LLBin { op, .. }
        | LLBinSet { op, .. }
        | LCBin { op, .. }
        | LCBinSet { op, .. }
        | LBin { op, .. }
        | CBin { op, .. }
        | CBinSet { op, .. }
        | BinSet { op, .. }
        | LLCmpBr { op, .. }
        | LCCmpBr { op, .. }
        | CmpBr { op, .. } => Some((op.class(), op.arith(), op.can_trap())),
        LUnBr { un, .. } | UnBr { un, .. } => Some((un.class(), un.arith(), un.can_trap())),
        _ => None,
    }
}

/// What `run_body_fused` charges for `mop` through `shape`: the `pre`
/// parts, a trap point if the last of them can trap (the handler executes
/// it between `pre` and `post`), then the `post` parts.
fn shape_plan(shape: &Shape, mop: &Mop) -> Result<Vec<Ev>, String> {
    let mut evs = Vec::new();
    let charge = |part: Part, evs: &mut Vec<Ev>| -> Result<bool, String> {
        if let Some(class) = part.class() {
            evs.push(Ev::Class(class));
            return Ok(matches!(part, Part::Load | Part::Store));
        }
        let (class, arith, can_trap) =
            carried(mop).ok_or_else(|| format!("{mop:?} has an Op part but no operator"))?;
        evs.push(Ev::Class(class));
        evs.extend(arith.map(Ev::Arith));
        Ok(can_trap)
    };
    let mut traps = false;
    for &part in shape.pre {
        traps = charge(part, &mut evs)?;
    }
    if traps {
        evs.push(Ev::Trap);
    }
    for &part in shape.post {
        charge(part, &mut evs)?;
    }
    Ok(evs)
}

/// Every (family, constituent-sequence) instance the fusion table can
/// produce. Branch targets/immediates are fixed placeholders — charge
/// plans do not depend on them.
fn enumerate_instances() -> Vec<(&'static str, String, Vec<Instr>)> {
    let mut out = Vec::new();
    let lg = |i| Instr::LocalGet(i);
    let ls = |i| Instr::LocalSet(i);
    for &op in &ALL_BINOPS {
        let b = instr_of_bin(op);
        let label = format!("{op:?}");
        out.push(("LLBin", label.clone(), vec![lg(0), lg(1), b.clone()]));
        out.push((
            "LLBinSet",
            label.clone(),
            vec![lg(0), lg(1), b.clone(), ls(2)],
        ));
        out.push((
            "LCBin",
            label.clone(),
            vec![lg(0), Instr::I32Const(1), b.clone()],
        ));
        out.push((
            "LCBinSet",
            label.clone(),
            vec![lg(0), Instr::I32Const(1), b.clone(), ls(2)],
        ));
        out.push(("LBin", label.clone(), vec![lg(0), b.clone()]));
        out.push(("CBin", label.clone(), vec![Instr::I32Const(1), b.clone()]));
        out.push((
            "CBinSet",
            label.clone(),
            vec![Instr::I32Const(1), b.clone(), ls(2)],
        ));
        out.push(("BinSet", label.clone(), vec![b.clone(), ls(2)]));
        if op.result_is_i32() {
            out.push((
                "LLCmpBr",
                label.clone(),
                vec![lg(0), lg(1), b.clone(), Instr::BrIf(0)],
            ));
            out.push((
                "LCCmpBr",
                label.clone(),
                vec![lg(0), Instr::I32Const(1), b.clone(), Instr::BrIf(0)],
            ));
            out.push(("CmpBr", label.clone(), vec![b.clone(), Instr::BrIf(0)]));
        }
    }
    for &un in &ALL_UNOPS {
        if un.result_is_i32() {
            let u = instr_of_un(un);
            let label = format!("{un:?}");
            out.push((
                "LUnBr",
                label.clone(),
                vec![lg(0), u.clone(), Instr::BrIf(0)],
            ));
            out.push(("UnBr", label, vec![u, Instr::BrIf(0)]));
        }
    }
    for &kind in &ALL_LOADS {
        out.push((
            "LLoad",
            format!("{kind:?}"),
            vec![lg(0), instr_of_load(kind)],
        ));
    }
    for &kind in &ALL_STORES {
        out.push((
            "LLStore",
            format!("{kind:?}"),
            vec![lg(0), lg(1), instr_of_store(kind)],
        ));
    }
    for (label, c) in [
        ("I32Const", Instr::I32Const(1)),
        ("I64Const", Instr::I64Const(1)),
        ("F32Const", Instr::F32Const(1.0)),
        ("F64Const", Instr::F64Const(1.0)),
    ] {
        out.push(("LConst", label.into(), vec![c, ls(2)]));
    }
    out.push(("LocalCopy", "LocalGet".into(), vec![lg(0), ls(2)]));
    out
}

/// Audit every instance of every fused family. An entry is `ok` when
///
/// 1. `match_fused` lowers the constituents to the expected family at the
///    full width,
/// 2. the events the handler charges through the op's `Mop::shape()`
///    equal the reference concatenation event-for-event, and the shape's
///    width equals the reference step total, and
/// 3. no constituent carries a `TimeBucket` charge or hotness note.
pub fn audit_fusion_table() -> Vec<FusionAuditEntry> {
    enumerate_instances()
        .into_iter()
        .map(|(family, label, constituents)| {
            audit_instance(family, &label, &constituents, Mop::shape)
        })
        .collect()
}

/// Audit one instance, reading each lowered op's shape through `shape_of`
/// (`Mop::shape`, or a deliberately wrong map in tests).
fn audit_instance(
    family: &'static str,
    label: &str,
    constituents: &[Instr],
    shape_of: fn(&Mop) -> Option<&'static Shape>,
) -> FusionAuditEntry {
    let mut detail = None;
    let mut fused_rendered = Vec::new();
    let (ref_steps, ref_evs) = reference_plan(constituents);

    // (3) is structural: constituents are locals/consts/ops/branches,
    // never memory.grow, calls, or loop openers/back-edges.
    for c in constituents {
        if matches!(
            c,
            Instr::MemoryGrow | Instr::Call(_) | Instr::CallIndirect(_)
        ) || matches!(c, Instr::Loop(_) | Instr::Block(_) | Instr::If(_))
        {
            detail = Some(format!("constituent {c:?} carries non-class charges"));
        }
    }

    match match_fused(constituents).map(|(mop, len)| (shape_of(&mop), mop, len)) {
        Some((Some(shape), mop, len)) if len == constituents.len() && shape.family == family => {
            match shape_plan(shape, &mop) {
                Ok(evs) => {
                    fused_rendered = evs.iter().map(Ev::render).collect();
                    if evs != ref_evs {
                        detail = Some("charge plans differ".into());
                    } else if shape.width() != ref_steps {
                        detail = Some(format!(
                            "step total {} != reference {ref_steps}",
                            shape.width()
                        ));
                    }
                }
                Err(e) => detail = Some(e),
            }
        }
        Some((shape, _, len)) => {
            detail = Some(format!(
                "lowering mismatch: got {} at width {len}, expected {family} at width {}",
                shape.map_or("singleton", |s| s.family),
                constituents.len()
            ));
        }
        None => detail = Some("constituents did not fuse".into()),
    }

    FusionAuditEntry {
        family,
        instance: format!("{family}[{label}]"),
        constituents: constituents.iter().map(|c| format!("{c:?}")).collect(),
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
        // Every binop × 8 plain families + i32-result binops × 3 cmp-br
        // families + i32-result unops × 2 br families + every load +
        // every store + 4 const types + 1 copy.
        let i32_bins = ALL_BINOPS.iter().filter(|b| b.result_is_i32()).count();
        let i32_uns = ALL_UNOPS.iter().filter(|u| u.result_is_i32()).count();
        let expected = ALL_BINOPS.len() * 8
            + i32_bins * 3
            + i32_uns * 2
            + ALL_LOADS.len()
            + ALL_STORES.len()
            + 4
            + 1;
        assert_eq!(entries.len(), expected);
        let families: std::collections::BTreeSet<_> = entries.iter().map(|e| e.family).collect();
        assert_eq!(
            families.into_iter().collect::<Vec<_>>(),
            vec![
                "BinSet",
                "CBin",
                "CBinSet",
                "CmpBr",
                "LBin",
                "LCBin",
                "LCBinSet",
                "LCCmpBr",
                "LConst",
                "LLBin",
                "LLBinSet",
                "LLCmpBr",
                "LLStore",
                "LLoad",
                "LUnBr",
                "LocalCopy",
                "UnBr"
            ]
        );
    }

    #[test]
    fn trap_points_sit_after_class_bumps() {
        let entries = audit_fusion_table();
        let div = entries
            .iter()
            .find(|e| e.instance == "LLBinSet[I32DivS]")
            .unwrap();
        assert_eq!(
            div.fused_charges,
            vec![
                "class:Local",
                "class:Local",
                "class:IntDiv",
                "arith:Div",
                "trap-point",
                "class:Local"
            ]
        );
        assert_eq!(div.fused_charges, div.reference_charges);
    }

    #[test]
    fn a_shape_missing_its_trailing_local_set_is_caught() {
        fn truncated(mop: &Mop) -> Option<&'static Shape> {
            static LLBINSET_NO_SET: Shape = Shape {
                family: "LLBinSet",
                pre: &[Part::Local, Part::Local, Part::Op],
                post: &[],
            };
            match mop {
                Mop::LLBinSet { .. } => Some(&LLBINSET_NO_SET),
                other => other.shape(),
            }
        }
        let constituents = [
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32Add,
            Instr::LocalSet(2),
        ];
        let good = audit_instance("LLBinSet", "I32Add", &constituents, Mop::shape);
        assert!(good.ok, "{:?}", good.detail);
        let bad = audit_instance("LLBinSet", "I32Add", &constituents, truncated);
        assert!(!bad.ok);
        assert_eq!(bad.detail.as_deref(), Some("charge plans differ"));
    }
}
