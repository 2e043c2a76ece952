//! Peephole fusion over MiniJS bytecode, plus inline-cache site
//! assignment.
//!
//! After compilation, each chunk gets a fused **overlay**: a
//! `Vec<Option<FOp>>` the same length as the code, with `Some(fop)` at
//! every pc where a multi-op pattern (or an index op worth an inline
//! cache) begins. The original bytecode is untouched — the interpreter
//! consults the overlay at each pc and either executes the fused form
//! (skipping `width` source ops) or falls back to the plain op.
//!
//! That overlay shape buys two correctness properties for free:
//!
//! * **Jump targets need no analysis.** A jump landing in the middle of
//!   a fused group simply resumes plain execution there — the overlay is
//!   `None` at non-head pcs and the underlying ops are unchanged.
//! * **Guarded fallback is exact.** When a fused handler's fast-path
//!   guard fails (an operand is a heap reference, an inline cache
//!   misses), it falls through to the plain op at the same pc *before
//!   charging anything*, so the virtual-cost trace is identical to the
//!   reference interpreter's.
//!
//! Each fused family declares its constituents once, as a [`Shape`]
//! returned by [`FOp::shape`]: `exec_fused` charges through it after its
//! guards, and the auditor in `audit.rs` expands it against the plain
//! interpreter.
//!
//! Fusion eligibility mirrors the wasm engine's cost-equivalence
//! invariant (see `wb-wasm-vm/src/fuse.rs` and DESIGN.md): a fused
//! group's fast path must not allocate, must not grow heap bytes, and
//! must not note hotness — so GC safe-points and tier state are
//! provably identical at every group boundary. That is why:
//!
//! * arithmetic fast paths require *number* operands (`Add` on strings
//!   allocates; `to_num` on numbers is pure);
//! * the `SetIndex` fast path covers typed arrays only (a plain-array
//!   store can resize, changing `bytes_since_gc` and hence GC timing);
//! * `GetIndex` caches plain and typed arrays but never strings
//!   (string indexing allocates a fresh one-char string).

use crate::bytecode::{Chunk, Const, Op, Program};

/// Fusable two-operand arithmetic, mirroring the corresponding [`Op`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    UShr,
}

impl BinKind {
    pub(crate) fn of(op: &Op) -> Option<BinKind> {
        Some(match op {
            Op::Add => BinKind::Add,
            Op::Sub => BinKind::Sub,
            Op::Mul => BinKind::Mul,
            Op::Div => BinKind::Div,
            Op::Mod => BinKind::Mod,
            Op::BitAnd => BinKind::BitAnd,
            Op::BitOr => BinKind::BitOr,
            Op::BitXor => BinKind::BitXor,
            Op::Shl => BinKind::Shl,
            Op::Shr => BinKind::Shr,
            Op::UShr => BinKind::UShr,
            _ => return None,
        })
    }

    /// The source op, which a fused `Op` part charges like the plain loop.
    #[inline]
    pub(crate) fn op(self) -> Op {
        match self {
            BinKind::Add => Op::Add,
            BinKind::Sub => Op::Sub,
            BinKind::Mul => Op::Mul,
            BinKind::Div => Op::Div,
            BinKind::Mod => Op::Mod,
            BinKind::BitAnd => Op::BitAnd,
            BinKind::BitOr => Op::BitOr,
            BinKind::BitXor => Op::BitXor,
            BinKind::Shl => Op::Shl,
            BinKind::Shr => Op::Shr,
            BinKind::UShr => Op::UShr,
        }
    }

    /// Number-operands fast path. Exactly the reference semantics when
    /// both operands are already `Value::Num` (`to_num` is then the
    /// identity and `Add` cannot concatenate).
    pub(crate) fn apply(self, x: f64, y: f64) -> f64 {
        use crate::vm::{num_to_int32, num_to_uint32};
        match self {
            BinKind::Add => x + y,
            BinKind::Sub => x - y,
            BinKind::Mul => x * y,
            BinKind::Div => x / y,
            BinKind::Mod => x % y,
            BinKind::BitAnd => (num_to_int32(x) & num_to_int32(y)) as f64,
            BinKind::BitOr => (num_to_int32(x) | num_to_int32(y)) as f64,
            BinKind::BitXor => (num_to_int32(x) ^ num_to_int32(y)) as f64,
            BinKind::Shl => num_to_int32(x).wrapping_shl(num_to_int32(y) as u32 & 31) as f64,
            BinKind::Shr => num_to_int32(x).wrapping_shr(num_to_int32(y) as u32 & 31) as f64,
            BinKind::UShr => (num_to_uint32(x) >> (num_to_uint32(y) & 31)) as f64,
        }
    }
}

/// Fusable comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpKind {
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    NotEq,
    StrictEq,
    StrictNe,
}

impl CmpKind {
    pub(crate) fn of(op: &Op) -> Option<CmpKind> {
        Some(match op {
            Op::Lt => CmpKind::Lt,
            Op::Gt => CmpKind::Gt,
            Op::Le => CmpKind::Le,
            Op::Ge => CmpKind::Ge,
            Op::EqEq => CmpKind::EqEq,
            Op::NotEq => CmpKind::NotEq,
            Op::StrictEq => CmpKind::StrictEq,
            Op::StrictNe => CmpKind::StrictNe,
            _ => return None,
        })
    }

    /// The source op, which a fused `Op` part charges like the plain loop.
    #[inline]
    pub(crate) fn op(self) -> Op {
        match self {
            CmpKind::Lt => Op::Lt,
            CmpKind::Gt => Op::Gt,
            CmpKind::Le => Op::Le,
            CmpKind::Ge => Op::Ge,
            CmpKind::EqEq => Op::EqEq,
            CmpKind::NotEq => Op::NotEq,
            CmpKind::StrictEq => Op::StrictEq,
            CmpKind::StrictNe => Op::StrictNe,
        }
    }

    /// Number-operands fast path: reference semantics for `Num`/`Num`
    /// (NaN makes relational comparisons false; equality is IEEE `==`).
    pub(crate) fn apply(self, x: f64, y: f64) -> bool {
        match self {
            CmpKind::Lt => x < y,
            CmpKind::Gt => x > y,
            CmpKind::Le => x <= y,
            CmpKind::Ge => x >= y,
            CmpKind::EqEq | CmpKind::StrictEq => x == y,
            CmpKind::NotEq | CmpKind::StrictNe => x != y,
        }
    }
}

/// A fused micro-op (overlay entry). Field names: `a`/`b` are local
/// slots, `c` a numeric constant, `dst` a local slot written,
/// `target` an absolute pc, `ic` an inline-cache site index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FOp {
    /// `LoadLocal a; LoadLocal b; <bin>`
    LLBin { a: u16, b: u16, op: BinKind },
    /// `LoadLocal a; LoadLocal b; <bin>; StoreLocal dst`
    LLBinStore {
        a: u16,
        b: u16,
        op: BinKind,
        dst: u16,
    },
    /// `LoadLocal a; Const c; <bin>`
    LCBin { a: u16, c: f64, op: BinKind },
    /// `LoadLocal a; Const c; <bin>; StoreLocal dst`
    LCBinStore {
        a: u16,
        c: f64,
        op: BinKind,
        dst: u16,
    },
    /// `Const c; StoreLocal dst`
    CStore { c: f64, dst: u16 },
    /// `<cmp>; JumpIfFalse` (operands from the stack)
    CmpJf { op: CmpKind, target: u32 },
    /// `LoadLocal a; LoadLocal b; <cmp>; JumpIfFalse`
    LLCmpJf {
        a: u16,
        b: u16,
        op: CmpKind,
        target: u32,
    },
    /// `LoadLocal a; Const c; <cmp>; JumpIfFalse`
    LCCmpJf {
        a: u16,
        c: f64,
        op: CmpKind,
        target: u32,
    },
    /// `LoadLocal obj; LoadLocal idx; GetIndex`, with an inline cache.
    LLGetIndex { obj: u16, idx: u16, ic: u32 },
    /// A lone `GetIndex` with an inline cache.
    GetIndexIc { ic: u32 },
    /// `SetIndex` (+ `Pop` when `pop`), with an inline cache.
    SetIndexIc { ic: u32, pop: bool },
}

/// One constituent of a fused op, as the cost model charges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Part {
    /// `LoadLocal` or `StoreLocal`: class `Local`.
    Local,
    /// A numeric `Const`: class `Const`.
    Const,
    /// The carried [`BinKind`] or [`CmpKind`]: its source op's class and
    /// Table 12 counter ([`FOp::carried`]).
    Op,
    /// `JumpIfFalse`: class `Branch`.
    Branch,
    /// `GetIndex`, counted by typedness and tier like the plain handler.
    Load,
    /// `SetIndex`, counted by typedness and tier like the plain handler.
    Store,
    /// `Pop`: class `Other`.
    Pop,
}

/// A fused family's constituents in source order. `exec_fused` charges
/// them once the guards held; a fast path cannot fail after that, so
/// there is no trap split as in the Wasm VM. The auditor expands the same
/// shape against the plain interpreter.
#[derive(Debug)]
pub(crate) struct Shape {
    /// Family name, as the auditor reports it.
    pub(crate) family: &'static str,
    /// The constituents.
    pub(crate) parts: &'static [Part],
}

impl FOp {
    /// The charge shape of this fused op. Wildcard-free, so a new variant
    /// fails to compile until it declares its shape.
    #[inline(always)]
    pub(crate) fn shape(&self) -> &'static Shape {
        macro_rules! shape {
            ($family:literal, [$($part:ident),*]) => {
                &Shape {
                    family: $family,
                    parts: &[$(Part::$part),*],
                }
            };
        }
        match self {
            FOp::LLBin { .. } => shape!("LLBin", [Local, Local, Op]),
            FOp::LLBinStore { .. } => shape!("LLBinStore", [Local, Local, Op, Local]),
            FOp::LCBin { .. } => shape!("LCBin", [Local, Const, Op]),
            FOp::LCBinStore { .. } => shape!("LCBinStore", [Local, Const, Op, Local]),
            FOp::CStore { .. } => shape!("CStore", [Const, Local]),
            FOp::CmpJf { .. } => shape!("CmpJf", [Op, Branch]),
            FOp::LLCmpJf { .. } => shape!("LLCmpJf", [Local, Local, Op, Branch]),
            FOp::LCCmpJf { .. } => shape!("LCCmpJf", [Local, Const, Op, Branch]),
            FOp::LLGetIndex { .. } => shape!("LLGetIndex", [Local, Local, Load]),
            FOp::GetIndexIc { .. } => shape!("GetIndexIc", [Load]),
            FOp::SetIndexIc { pop: false, .. } => shape!("SetIndexIc", [Store]),
            FOp::SetIndexIc { pop: true, .. } => shape!("SetIndexPopIc", [Store, Pop]),
        }
    }

    /// Source ops this entry covers (pc advance on the fused path).
    #[inline(always)]
    pub(crate) fn width(&self) -> usize {
        self.shape().parts.len()
    }

    /// The source op an `Op` part charges, if this family carries one.
    #[inline(always)]
    pub(crate) fn carried(&self) -> Option<Op> {
        match *self {
            FOp::LLBin { op, .. }
            | FOp::LLBinStore { op, .. }
            | FOp::LCBin { op, .. }
            | FOp::LCBinStore { op, .. } => Some(op.op()),
            FOp::CmpJf { op, .. } | FOp::LLCmpJf { op, .. } | FOp::LCCmpJf { op, .. } => {
                Some(op.op())
            }
            FOp::CStore { .. }
            | FOp::LLGetIndex { .. }
            | FOp::GetIndexIc { .. }
            | FOp::SetIndexIc { .. } => None,
        }
    }
}

/// What a monomorphic inline cache remembers about its last receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum IcKind {
    /// Empty cache (initial state, never matches).
    #[default]
    None,
    /// Plain JS array.
    Arr,
    /// `Float64Array`.
    F64,
    /// `Int32Array`.
    I32,
    /// `Uint8Array`.
    U8,
}

impl IcKind {
    /// Whether the receiver counts as a typed array for the cost model
    /// (must agree with the VM's `count_index_op`).
    pub(crate) fn is_typed(self) -> bool {
        matches!(self, IcKind::F64 | IcKind::I32 | IcKind::U8)
    }
}

/// One monomorphic inline-cache entry: valid while the heap generation
/// is unchanged (no GC since caching) and the receiver is `obj`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IcEntry {
    /// Heap generation at cache-fill time.
    pub generation: u64,
    /// Cached receiver reference.
    pub obj: u32,
    /// Cached receiver shape.
    pub kind: IcKind,
}

/// The fused overlay for one chunk.
#[derive(Debug, Default)]
pub(crate) struct FusedChunk {
    /// `Some(fop)` at each pattern head; `None` elsewhere.
    pub ops: Vec<Option<FOp>>,
}

/// Build overlays for every chunk. Returns the per-chunk overlays and
/// the total number of inline-cache sites assigned (indices are global
/// across chunks).
pub(crate) fn build_overlays(program: &Program) -> (Vec<FusedChunk>, u32) {
    let mut next_ic = 0u32;
    let overlays = program
        .chunks
        .iter()
        .map(|c| build_overlay(c, &mut next_ic))
        .collect();
    (overlays, next_ic)
}

fn build_overlay(chunk: &Chunk, next_ic: &mut u32) -> FusedChunk {
    let code = &chunk.code;
    let mut ops: Vec<Option<FOp>> = vec![None; code.len()];
    let mut pc = 0;
    while pc < code.len() {
        match match_at(chunk, pc, next_ic) {
            Some(fop) => {
                let w = fop.width();
                ops[pc] = Some(fop);
                pc += w;
            }
            None => pc += 1,
        }
    }
    FusedChunk { ops }
}

/// Numeric constant at `ci`, if it is one.
fn num_const(chunk: &Chunk, ci: u32) -> Option<f64> {
    match chunk.consts.get(ci as usize) {
        Some(Const::Num(n)) => Some(*n),
        _ => None,
    }
}

fn alloc_ic(next_ic: &mut u32) -> u32 {
    let ic = *next_ic;
    *next_ic += 1;
    ic
}

/// Greedy longest-pattern match at `pc`.
pub(crate) fn match_at(chunk: &Chunk, pc: usize, next_ic: &mut u32) -> Option<FOp> {
    let code = &chunk.code;
    let at = |i: usize| code.get(pc + i);

    if let Some(Op::LoadLocal(a)) = at(0) {
        // LoadLocal; LoadLocal; ...
        if let Some(Op::LoadLocal(b)) = at(1) {
            if let Some(op2) = at(2) {
                if let Some(cmp) = CmpKind::of(op2) {
                    if let Some(Op::JumpIfFalse(d)) = at(3) {
                        let target = (pc as i32 + 3 + d) as u32;
                        return Some(FOp::LLCmpJf {
                            a: *a,
                            b: *b,
                            op: cmp,
                            target,
                        });
                    }
                }
                if let Some(bin) = BinKind::of(op2) {
                    if let Some(Op::StoreLocal(dst)) = at(3) {
                        return Some(FOp::LLBinStore {
                            a: *a,
                            b: *b,
                            op: bin,
                            dst: *dst,
                        });
                    }
                    return Some(FOp::LLBin {
                        a: *a,
                        b: *b,
                        op: bin,
                    });
                }
                if matches!(op2, Op::GetIndex) {
                    return Some(FOp::LLGetIndex {
                        obj: *a,
                        idx: *b,
                        ic: alloc_ic(next_ic),
                    });
                }
            }
        }
        // LoadLocal; Const(num); ...
        if let Some(Op::Const(ci)) = at(1) {
            if let Some(c) = num_const(chunk, *ci) {
                if let Some(op2) = at(2) {
                    if let Some(cmp) = CmpKind::of(op2) {
                        if let Some(Op::JumpIfFalse(d)) = at(3) {
                            let target = (pc as i32 + 3 + d) as u32;
                            return Some(FOp::LCCmpJf {
                                a: *a,
                                c,
                                op: cmp,
                                target,
                            });
                        }
                    }
                    if let Some(bin) = BinKind::of(op2) {
                        if let Some(Op::StoreLocal(dst)) = at(3) {
                            return Some(FOp::LCBinStore {
                                a: *a,
                                c,
                                op: bin,
                                dst: *dst,
                            });
                        }
                        return Some(FOp::LCBin { a: *a, c, op: bin });
                    }
                }
            }
        }
    }
    if let Some(Op::Const(ci)) = at(0) {
        if let Some(c) = num_const(chunk, *ci) {
            if let Some(Op::StoreLocal(dst)) = at(1) {
                return Some(FOp::CStore { c, dst: *dst });
            }
        }
    }
    if let Some(op0) = at(0) {
        if let Some(cmp) = CmpKind::of(op0) {
            if let Some(Op::JumpIfFalse(d)) = at(1) {
                let target = (pc as i32 + 1 + d) as u32;
                return Some(FOp::CmpJf { op: cmp, target });
            }
        }
    }
    if matches!(at(0), Some(Op::GetIndex)) {
        return Some(FOp::GetIndexIc {
            ic: alloc_ic(next_ic),
        });
    }
    if matches!(at(0), Some(Op::SetIndex)) {
        let pop = matches!(at(1), Some(Op::Pop));
        return Some(FOp::SetIndexIc {
            ic: alloc_ic(next_ic),
            pop,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(code: Vec<Op>, consts: Vec<Const>) -> Chunk {
        Chunk {
            code,
            consts,
            ..Default::default()
        }
    }

    #[test]
    fn fuses_counter_increment() {
        // i = i + 1  →  LoadLocal i; Const 1; Add; StoreLocal i
        let c = chunk(
            vec![Op::LoadLocal(0), Op::Const(0), Op::Add, Op::StoreLocal(0)],
            vec![Const::Num(1.0)],
        );
        let mut ic = 0;
        let o = build_overlay(&c, &mut ic);
        assert_eq!(
            o.ops[0],
            Some(FOp::LCBinStore {
                a: 0,
                c: 1.0,
                op: BinKind::Add,
                dst: 0
            })
        );
        assert!(o.ops[1..].iter().all(|x| x.is_none()));
    }

    #[test]
    fn fuses_loop_condition() {
        // while (i < n): LoadLocal i; LoadLocal n; Lt; JumpIfFalse +5
        let c = chunk(
            vec![
                Op::LoadLocal(0),
                Op::LoadLocal(1),
                Op::Lt,
                Op::JumpIfFalse(5),
                Op::Pop,
            ],
            vec![],
        );
        let mut ic = 0;
        let o = build_overlay(&c, &mut ic);
        assert_eq!(
            o.ops[0],
            Some(FOp::LLCmpJf {
                a: 0,
                b: 1,
                op: CmpKind::Lt,
                // JumpIfFalse at pc 3, d=5 → absolute 8.
                target: 8
            })
        );
    }

    #[test]
    fn fuses_index_ops_and_assigns_ic_sites() {
        let c = chunk(
            vec![
                Op::LoadLocal(0),
                Op::LoadLocal(1),
                Op::GetIndex, // site 0 (as LLGetIndex)
                Op::GetIndex, // site 1 (lone)
                Op::SetIndex, // site 2, with Pop
                Op::Pop,
            ],
            vec![],
        );
        let mut ic = 0;
        let o = build_overlay(&c, &mut ic);
        assert_eq!(
            o.ops[0],
            Some(FOp::LLGetIndex {
                obj: 0,
                idx: 1,
                ic: 0
            })
        );
        assert_eq!(o.ops[3], Some(FOp::GetIndexIc { ic: 1 }));
        assert_eq!(o.ops[4], Some(FOp::SetIndexIc { ic: 2, pop: true }));
        assert_eq!(ic, 3);
    }

    #[test]
    fn string_constants_are_not_fused() {
        // `x + "s"` must stay plain: string Add allocates.
        let c = chunk(
            vec![Op::LoadLocal(0), Op::Const(0), Op::Add],
            vec![Const::Str("s".into())],
        );
        let mut ic = 0;
        let o = build_overlay(&c, &mut ic);
        assert!(o.ops.iter().all(|x| x.is_none()));
    }

    #[test]
    fn groups_do_not_overlap() {
        // Two adjacent increments: each 4-wide, heads at 0 and 4.
        let ops = vec![
            Op::LoadLocal(0),
            Op::Const(0),
            Op::Add,
            Op::StoreLocal(0),
            Op::LoadLocal(1),
            Op::Const(0),
            Op::Add,
            Op::StoreLocal(1),
        ];
        let c = chunk(ops, vec![Const::Num(1.0)]);
        let mut ic = 0;
        let o = build_overlay(&c, &mut ic);
        assert!(o.ops[0].is_some());
        assert!(o.ops[1].is_none());
        assert!(o.ops[2].is_none());
        assert!(o.ops[3].is_none());
        assert!(o.ops[4].is_some());
    }

    #[test]
    fn widths_cover_constituents() {
        for (fop, w) in [
            (
                FOp::LLBin {
                    a: 0,
                    b: 1,
                    op: BinKind::Add,
                },
                3,
            ),
            (
                FOp::LLBinStore {
                    a: 0,
                    b: 1,
                    op: BinKind::Add,
                    dst: 0,
                },
                4,
            ),
            (FOp::CStore { c: 0.0, dst: 0 }, 2),
            (
                FOp::CmpJf {
                    op: CmpKind::Lt,
                    target: 0,
                },
                2,
            ),
            (FOp::GetIndexIc { ic: 0 }, 1),
            (FOp::SetIndexIc { ic: 0, pop: true }, 2),
            (FOp::SetIndexIc { ic: 0, pop: false }, 1),
        ] {
            assert_eq!(fop.width(), w, "{fop:?}");
        }
    }
}
