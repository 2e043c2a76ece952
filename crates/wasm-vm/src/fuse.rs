//! Superinstruction lowering: flat function bodies → fused micro-ops.
//!
//! The reference interpreter in `interp.rs` dispatches one [`Instr`] per
//! step over a tagged [`Value`](crate::Value) stack. This module lowers a
//! body once (per prepared module, lazily, on first fused execution) into
//! a stream of [`Mop`] micro-ops in which
//!
//! * common short sequences are **fused** into a single op
//!   (`local.get local.get binop local.set`, `const binop`,
//!   `cmp br_if`, `local.get load`, …) with immediates inlined,
//! * operand types are baked in at lowering time so execution runs over
//!   an **untagged `u64` stack** (i32 zero-extended, floats as raw bits),
//! * structured-control targets are pre-translated to micro-op indices.
//!
//! ## Why fusion can never span a branch target
//!
//! Every branch target in structured Wasm control flow is one of
//! `end+1` (forward branch / if-false without else / else-arm skip),
//! `else+1` (if-false with else) or `loop_opener+1` (back-edge). Each of
//! those pcs is immediately preceded by a control instruction (`end`,
//! `else`, `loop`) — and control instructions are never fused into a
//! group. So every jump target is automatically a group boundary and no
//! explicit leader analysis is required.
//!
//! ## Cost equivalence
//!
//! A fused op charges the **exact same virtual-cost sequence** as its
//! unfused constituents: the same per-tier op-class bumps (in the same
//! order relative to any trap), the same Table 12 arithmetic counts, and
//! the same step-budget consumption. Each fused family declares its
//! constituents once, as a [`Shape`] returned by [`Mop::shape`]; the
//! handler in `exec.rs` charges through it and the auditor in `audit.rs`
//! expands it against the reference interpreter. Tier-up can only happen
//! at function entry and taken loop back-edges, and no fused group spans
//! either, so every constituent is charged at the tier the reference
//! interpreter would have used. See `DESIGN.md` §7.

use crate::classify::ArithKind;
use crate::prep::{SideTable, NO_PC};
use crate::trap::Trap;
use crate::value::Value;
use wb_env::OpClass;
use wb_wasm::{Instr, Module, ValType};

/// Convert a tagged value to its untagged bit pattern (i32 zero-extended,
/// floats as IEEE bits).
#[inline]
pub(crate) fn value_bits(v: Value) -> u64 {
    match v {
        Value::I32(x) => x as u32 as u64,
        Value::I64(x) => x as u64,
        Value::F32(f) => f.to_bits() as u64,
        Value::F64(f) => f.to_bits(),
    }
}

/// Convert an untagged bit pattern back to a tagged value of type `t`.
#[inline]
pub(crate) fn bits_to_value(t: ValType, b: u64) -> Value {
    match t {
        ValType::I32 => Value::I32(b as u32 as i32),
        ValType::I64 => Value::I64(b as i64),
        ValType::F32 => Value::F32(f32::from_bits(b as u32)),
        ValType::F64 => Value::F64(f64::from_bits(b)),
    }
}

#[inline]
fn u_i32(v: i32) -> u64 {
    v as u32 as u64
}

#[inline]
fn b_i32(x: u64) -> i32 {
    x as u32 as i32
}

#[inline]
fn b_f32(x: u64) -> f32 {
    f32::from_bits(x as u32)
}

#[inline]
fn u_f32(v: f32) -> u64 {
    v.to_bits() as u64
}

/// Binary operators with type knowledge baked in, operating on untagged
/// bits. Semantics are bit-for-bit those of the corresponding reference
/// interpreter arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum BinOp {
    // i32 arithmetic / bitwise.
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
    // i32 comparisons.
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
    // i64 arithmetic / bitwise.
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
    // i64 comparisons.
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
    // f32.
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
    // f64.
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
}

macro_rules! i32_bin {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(i32, i32) -> i32 = $f;
        u_i32(f(b_i32($a), b_i32($b)))
    }};
}
macro_rules! i32_cmp {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(i32, i32) -> bool = $f;
        f(b_i32($a), b_i32($b)) as u64
    }};
}
macro_rules! i64_bin {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(i64, i64) -> i64 = $f;
        f($a as i64, $b as i64) as u64
    }};
}
macro_rules! i64_cmp {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(i64, i64) -> bool = $f;
        f($a as i64, $b as i64) as u64
    }};
}
macro_rules! f32_bin {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(f32, f32) -> f32 = $f;
        u_f32(f(b_f32($a), b_f32($b)))
    }};
}
macro_rules! f32_cmp {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(f32, f32) -> bool = $f;
        f(b_f32($a), b_f32($b)) as u64
    }};
}
macro_rules! f64_bin {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(f64, f64) -> f64 = $f;
        f(f64::from_bits($a), f64::from_bits($b)).to_bits()
    }};
}
macro_rules! f64_cmp {
    ($a:expr, $b:expr, $f:expr) => {{
        let f: fn(f64, f64) -> bool = $f;
        f(f64::from_bits($a), f64::from_bits($b)) as u64
    }};
}

impl BinOp {
    /// Lift a binary instruction, if it is one.
    pub(crate) fn of(i: &Instr) -> Option<BinOp> {
        use BinOp as B;
        Some(match i {
            Instr::I32Add => B::I32Add,
            Instr::I32Sub => B::I32Sub,
            Instr::I32Mul => B::I32Mul,
            Instr::I32DivS => B::I32DivS,
            Instr::I32DivU => B::I32DivU,
            Instr::I32RemS => B::I32RemS,
            Instr::I32RemU => B::I32RemU,
            Instr::I32And => B::I32And,
            Instr::I32Or => B::I32Or,
            Instr::I32Xor => B::I32Xor,
            Instr::I32Shl => B::I32Shl,
            Instr::I32ShrS => B::I32ShrS,
            Instr::I32ShrU => B::I32ShrU,
            Instr::I32Rotl => B::I32Rotl,
            Instr::I32Rotr => B::I32Rotr,
            Instr::I32Eq => B::I32Eq,
            Instr::I32Ne => B::I32Ne,
            Instr::I32LtS => B::I32LtS,
            Instr::I32LtU => B::I32LtU,
            Instr::I32GtS => B::I32GtS,
            Instr::I32GtU => B::I32GtU,
            Instr::I32LeS => B::I32LeS,
            Instr::I32LeU => B::I32LeU,
            Instr::I32GeS => B::I32GeS,
            Instr::I32GeU => B::I32GeU,
            Instr::I64Add => B::I64Add,
            Instr::I64Sub => B::I64Sub,
            Instr::I64Mul => B::I64Mul,
            Instr::I64DivS => B::I64DivS,
            Instr::I64DivU => B::I64DivU,
            Instr::I64RemS => B::I64RemS,
            Instr::I64RemU => B::I64RemU,
            Instr::I64And => B::I64And,
            Instr::I64Or => B::I64Or,
            Instr::I64Xor => B::I64Xor,
            Instr::I64Shl => B::I64Shl,
            Instr::I64ShrS => B::I64ShrS,
            Instr::I64ShrU => B::I64ShrU,
            Instr::I64Rotl => B::I64Rotl,
            Instr::I64Rotr => B::I64Rotr,
            Instr::I64Eq => B::I64Eq,
            Instr::I64Ne => B::I64Ne,
            Instr::I64LtS => B::I64LtS,
            Instr::I64LtU => B::I64LtU,
            Instr::I64GtS => B::I64GtS,
            Instr::I64GtU => B::I64GtU,
            Instr::I64LeS => B::I64LeS,
            Instr::I64LeU => B::I64LeU,
            Instr::I64GeS => B::I64GeS,
            Instr::I64GeU => B::I64GeU,
            Instr::F32Add => B::F32Add,
            Instr::F32Sub => B::F32Sub,
            Instr::F32Mul => B::F32Mul,
            Instr::F32Div => B::F32Div,
            Instr::F32Min => B::F32Min,
            Instr::F32Max => B::F32Max,
            Instr::F32Copysign => B::F32Copysign,
            Instr::F32Eq => B::F32Eq,
            Instr::F32Ne => B::F32Ne,
            Instr::F32Lt => B::F32Lt,
            Instr::F32Gt => B::F32Gt,
            Instr::F32Le => B::F32Le,
            Instr::F32Ge => B::F32Ge,
            Instr::F64Add => B::F64Add,
            Instr::F64Sub => B::F64Sub,
            Instr::F64Mul => B::F64Mul,
            Instr::F64Div => B::F64Div,
            Instr::F64Min => B::F64Min,
            Instr::F64Max => B::F64Max,
            Instr::F64Copysign => B::F64Copysign,
            Instr::F64Eq => B::F64Eq,
            Instr::F64Ne => B::F64Ne,
            Instr::F64Lt => B::F64Lt,
            Instr::F64Gt => B::F64Gt,
            Instr::F64Le => B::F64Le,
            Instr::F64Ge => B::F64Ge,
            _ => return None,
        })
    }

    /// Cost-model class — identical to `classify` on the source instr.
    #[inline]
    pub(crate) fn class(self) -> OpClass {
        use BinOp::*;
        match self {
            I32Add | I32Sub | I32And | I32Or | I32Xor | I32Shl | I32ShrS | I32ShrU | I32Rotl
            | I32Rotr | I64Add | I64Sub | I64And | I64Or | I64Xor | I64Shl | I64ShrS | I64ShrU
            | I64Rotl | I64Rotr => OpClass::IntAlu,
            I32Mul | I64Mul => OpClass::IntMul,
            I32DivS | I32DivU | I32RemS | I32RemU | I64DivS | I64DivU | I64RemS | I64RemU => {
                OpClass::IntDiv
            }
            F32Add | F32Sub | F32Min | F32Max | F32Copysign | F64Add | F64Sub | F64Min | F64Max
            | F64Copysign => OpClass::FloatAlu,
            F32Mul | F64Mul => OpClass::FloatMul,
            F32Div | F64Div => OpClass::FloatDiv,
            _ => OpClass::Compare,
        }
    }

    /// Table 12 arithmetic kind — identical to `arith_kind` on the
    /// source instr.
    #[inline]
    pub(crate) fn arith(self) -> Option<ArithKind> {
        use BinOp::*;
        Some(match self {
            I32Add | I32Sub | I64Add | I64Sub | F32Add | F32Sub | F64Add | F64Sub => ArithKind::Add,
            I32Mul | I64Mul | F32Mul | F64Mul => ArithKind::Mul,
            I32DivS | I32DivU | I64DivS | I64DivU | F32Div | F64Div => ArithKind::Div,
            I32RemS | I32RemU | I64RemS | I64RemU => ArithKind::Rem,
            I32Shl | I32ShrS | I32ShrU | I32Rotl | I32Rotr | I64Shl | I64ShrS | I64ShrU
            | I64Rotl | I64Rotr => ArithKind::Shift,
            I32And | I64And => ArithKind::And,
            I32Or | I32Xor | I64Or | I64Xor => ArithKind::Or,
            _ => return None,
        })
    }

    /// Whether [`BinOp::apply`] can trap (integer division and remainder).
    pub(crate) fn can_trap(self) -> bool {
        use BinOp::*;
        matches!(
            self,
            I32DivS | I32DivU | I32RemS | I32RemU | I64DivS | I64DivU | I64RemS | I64RemU
        )
    }

    /// Whether the result is an i32 — a prerequisite for fusing with a
    /// following `br_if` (which consumes an i32 condition).
    #[inline]
    pub(crate) fn result_is_i32(self) -> bool {
        use BinOp::*;
        !matches!(
            self,
            I64Add
                | I64Sub
                | I64Mul
                | I64DivS
                | I64DivU
                | I64RemS
                | I64RemU
                | I64And
                | I64Or
                | I64Xor
                | I64Shl
                | I64ShrS
                | I64ShrU
                | I64Rotl
                | I64Rotr
                | F32Add
                | F32Sub
                | F32Mul
                | F32Div
                | F32Min
                | F32Max
                | F32Copysign
                | F64Add
                | F64Sub
                | F64Mul
                | F64Div
                | F64Min
                | F64Max
                | F64Copysign
        )
    }

    /// Execute on untagged bits; bit-identical to the reference arm.
    #[inline]
    pub(crate) fn apply(self, a: u64, b: u64) -> Result<u64, Trap> {
        use crate::interp::{wasm_max_f32, wasm_max_f64, wasm_min_f32, wasm_min_f64};
        use BinOp::*;
        Ok(match self {
            I32Add => i32_bin!(a, b, i32::wrapping_add),
            I32Sub => i32_bin!(a, b, i32::wrapping_sub),
            I32Mul => i32_bin!(a, b, i32::wrapping_mul),
            I32DivS => {
                let (a, b) = (b_i32(a), b_i32(b));
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                if a == i32::MIN && b == -1 {
                    return Err(Trap::IntegerOverflow);
                }
                u_i32(a.wrapping_div(b))
            }
            I32DivU => {
                let (a, b) = (a as u32, b as u32);
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                u_i32((a / b) as i32)
            }
            I32RemS => {
                let (a, b) = (b_i32(a), b_i32(b));
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                u_i32(a.wrapping_rem(b))
            }
            I32RemU => {
                let (a, b) = (a as u32, b as u32);
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                u_i32((a % b) as i32)
            }
            I32And => i32_bin!(a, b, |a, b| a & b),
            I32Or => i32_bin!(a, b, |a, b| a | b),
            I32Xor => i32_bin!(a, b, |a, b| a ^ b),
            I32Shl => i32_bin!(a, b, |a, b| a.wrapping_shl(b as u32)),
            I32ShrS => i32_bin!(a, b, |a, b| a.wrapping_shr(b as u32)),
            I32ShrU => i32_bin!(a, b, |a, b| ((a as u32).wrapping_shr(b as u32)) as i32),
            I32Rotl => i32_bin!(a, b, |a, b| a.rotate_left(b as u32 & 31)),
            I32Rotr => i32_bin!(a, b, |a, b| a.rotate_right(b as u32 & 31)),
            I32Eq => i32_cmp!(a, b, |a, b| a == b),
            I32Ne => i32_cmp!(a, b, |a, b| a != b),
            I32LtS => i32_cmp!(a, b, |a, b| a < b),
            I32LtU => i32_cmp!(a, b, |a, b| (a as u32) < (b as u32)),
            I32GtS => i32_cmp!(a, b, |a, b| a > b),
            I32GtU => i32_cmp!(a, b, |a, b| (a as u32) > (b as u32)),
            I32LeS => i32_cmp!(a, b, |a, b| a <= b),
            I32LeU => i32_cmp!(a, b, |a, b| (a as u32) <= (b as u32)),
            I32GeS => i32_cmp!(a, b, |a, b| a >= b),
            I32GeU => i32_cmp!(a, b, |a, b| (a as u32) >= (b as u32)),
            I64Add => i64_bin!(a, b, i64::wrapping_add),
            I64Sub => i64_bin!(a, b, i64::wrapping_sub),
            I64Mul => i64_bin!(a, b, i64::wrapping_mul),
            I64DivS => {
                let (a, b) = (a as i64, b as i64);
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                if a == i64::MIN && b == -1 {
                    return Err(Trap::IntegerOverflow);
                }
                a.wrapping_div(b) as u64
            }
            I64DivU => {
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                a / b
            }
            I64RemS => {
                let (a, b) = (a as i64, b as i64);
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                a.wrapping_rem(b) as u64
            }
            I64RemU => {
                if b == 0 {
                    return Err(Trap::DivByZero);
                }
                a % b
            }
            I64And => a & b,
            I64Or => a | b,
            I64Xor => a ^ b,
            I64Shl => i64_bin!(a, b, |a, b| a.wrapping_shl(b as u32)),
            I64ShrS => i64_bin!(a, b, |a, b| a.wrapping_shr(b as u32)),
            I64ShrU => i64_bin!(a, b, |a, b| ((a as u64).wrapping_shr(b as u32)) as i64),
            I64Rotl => i64_bin!(a, b, |a, b| a.rotate_left(b as u32 & 63)),
            I64Rotr => i64_bin!(a, b, |a, b| a.rotate_right(b as u32 & 63)),
            I64Eq => i64_cmp!(a, b, |a, b| a == b),
            I64Ne => i64_cmp!(a, b, |a, b| a != b),
            I64LtS => i64_cmp!(a, b, |a, b| a < b),
            I64LtU => i64_cmp!(a, b, |a, b| (a as u64) < (b as u64)),
            I64GtS => i64_cmp!(a, b, |a, b| a > b),
            I64GtU => i64_cmp!(a, b, |a, b| (a as u64) > (b as u64)),
            I64LeS => i64_cmp!(a, b, |a, b| a <= b),
            I64LeU => i64_cmp!(a, b, |a, b| (a as u64) <= (b as u64)),
            I64GeS => i64_cmp!(a, b, |a, b| a >= b),
            I64GeU => i64_cmp!(a, b, |a, b| (a as u64) >= (b as u64)),
            F32Add => f32_bin!(a, b, |a, b| a + b),
            F32Sub => f32_bin!(a, b, |a, b| a - b),
            F32Mul => f32_bin!(a, b, |a, b| a * b),
            F32Div => f32_bin!(a, b, |a, b| a / b),
            F32Min => f32_bin!(a, b, wasm_min_f32),
            F32Max => f32_bin!(a, b, wasm_max_f32),
            F32Copysign => f32_bin!(a, b, f32::copysign),
            F32Eq => f32_cmp!(a, b, |a, b| a == b),
            F32Ne => f32_cmp!(a, b, |a, b| a != b),
            F32Lt => f32_cmp!(a, b, |a, b| a < b),
            F32Gt => f32_cmp!(a, b, |a, b| a > b),
            F32Le => f32_cmp!(a, b, |a, b| a <= b),
            F32Ge => f32_cmp!(a, b, |a, b| a >= b),
            F64Add => f64_bin!(a, b, |a, b| a + b),
            F64Sub => f64_bin!(a, b, |a, b| a - b),
            F64Mul => f64_bin!(a, b, |a, b| a * b),
            F64Div => f64_bin!(a, b, |a, b| a / b),
            F64Min => f64_bin!(a, b, wasm_min_f64),
            F64Max => f64_bin!(a, b, wasm_max_f64),
            F64Copysign => f64_bin!(a, b, f64::copysign),
            F64Eq => f64_cmp!(a, b, |a, b| a == b),
            F64Ne => f64_cmp!(a, b, |a, b| a != b),
            F64Lt => f64_cmp!(a, b, |a, b| a < b),
            F64Gt => f64_cmp!(a, b, |a, b| a > b),
            F64Le => f64_cmp!(a, b, |a, b| a <= b),
            F64Ge => f64_cmp!(a, b, |a, b| a >= b),
        })
    }
}

/// Unary operators (tests, bit counts, float unaries, conversions) on
/// untagged bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum UnOp {
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
}

impl UnOp {
    /// Lift a unary instruction, if it is one.
    pub(crate) fn of(i: &Instr) -> Option<UnOp> {
        use UnOp as U;
        Some(match i {
            Instr::I32Eqz => U::I32Eqz,
            Instr::I32Clz => U::I32Clz,
            Instr::I32Ctz => U::I32Ctz,
            Instr::I32Popcnt => U::I32Popcnt,
            Instr::I64Eqz => U::I64Eqz,
            Instr::I64Clz => U::I64Clz,
            Instr::I64Ctz => U::I64Ctz,
            Instr::I64Popcnt => U::I64Popcnt,
            Instr::F32Abs => U::F32Abs,
            Instr::F32Neg => U::F32Neg,
            Instr::F32Ceil => U::F32Ceil,
            Instr::F32Floor => U::F32Floor,
            Instr::F32Trunc => U::F32Trunc,
            Instr::F32Nearest => U::F32Nearest,
            Instr::F32Sqrt => U::F32Sqrt,
            Instr::F64Abs => U::F64Abs,
            Instr::F64Neg => U::F64Neg,
            Instr::F64Ceil => U::F64Ceil,
            Instr::F64Floor => U::F64Floor,
            Instr::F64Trunc => U::F64Trunc,
            Instr::F64Nearest => U::F64Nearest,
            Instr::F64Sqrt => U::F64Sqrt,
            Instr::I32WrapI64 => U::I32WrapI64,
            Instr::I32TruncF32S => U::I32TruncF32S,
            Instr::I32TruncF32U => U::I32TruncF32U,
            Instr::I32TruncF64S => U::I32TruncF64S,
            Instr::I32TruncF64U => U::I32TruncF64U,
            Instr::I64ExtendI32S => U::I64ExtendI32S,
            Instr::I64ExtendI32U => U::I64ExtendI32U,
            Instr::I64TruncF32S => U::I64TruncF32S,
            Instr::I64TruncF32U => U::I64TruncF32U,
            Instr::I64TruncF64S => U::I64TruncF64S,
            Instr::I64TruncF64U => U::I64TruncF64U,
            Instr::F32ConvertI32S => U::F32ConvertI32S,
            Instr::F32ConvertI32U => U::F32ConvertI32U,
            Instr::F32ConvertI64S => U::F32ConvertI64S,
            Instr::F32ConvertI64U => U::F32ConvertI64U,
            Instr::F32DemoteF64 => U::F32DemoteF64,
            Instr::F64ConvertI32S => U::F64ConvertI32S,
            Instr::F64ConvertI32U => U::F64ConvertI32U,
            Instr::F64ConvertI64S => U::F64ConvertI64S,
            Instr::F64ConvertI64U => U::F64ConvertI64U,
            Instr::F64PromoteF32 => U::F64PromoteF32,
            Instr::I32ReinterpretF32 => U::I32ReinterpretF32,
            Instr::I64ReinterpretF64 => U::I64ReinterpretF64,
            Instr::F32ReinterpretI32 => U::F32ReinterpretI32,
            Instr::F64ReinterpretI64 => U::F64ReinterpretI64,
            _ => return None,
        })
    }

    /// Cost-model class — identical to `classify` on the source instr.
    #[inline]
    pub(crate) fn class(self) -> OpClass {
        use UnOp::*;
        match self {
            I32Eqz | I64Eqz => OpClass::Compare,
            I32Clz | I32Ctz | I32Popcnt | I64Clz | I64Ctz | I64Popcnt => OpClass::IntAlu,
            F32Abs | F32Neg | F32Ceil | F32Floor | F32Trunc | F32Nearest | F64Abs | F64Neg
            | F64Ceil | F64Floor | F64Trunc | F64Nearest => OpClass::FloatAlu,
            F32Sqrt | F64Sqrt => OpClass::FloatDiv,
            _ => OpClass::Convert,
        }
    }

    /// Whether [`UnOp::apply`] can trap (float-to-int truncation).
    pub(crate) fn can_trap(self) -> bool {
        use UnOp::*;
        matches!(
            self,
            I32TruncF32S
                | I32TruncF32U
                | I32TruncF64S
                | I32TruncF64U
                | I64TruncF32S
                | I64TruncF32U
                | I64TruncF64S
                | I64TruncF64U
        )
    }

    /// Table 12 arithmetic kind: always `None`, Table 12 counts binary
    /// operators only (as `arith_kind` on the source instr).
    #[inline]
    pub(crate) fn arith(self) -> Option<ArithKind> {
        None
    }

    /// Whether the result is an i32 (can feed a fused `br_if`).
    #[inline]
    pub(crate) fn result_is_i32(self) -> bool {
        use UnOp::*;
        matches!(
            self,
            I32Eqz
                | I64Eqz
                | I32Clz
                | I32Ctz
                | I32Popcnt
                | I32WrapI64
                | I32TruncF32S
                | I32TruncF32U
                | I32TruncF64S
                | I32TruncF64U
                | I32ReinterpretF32
        )
    }

    /// Execute on untagged bits; bit-identical to the reference arm.
    #[inline]
    pub(crate) fn apply(self, a: u64) -> Result<u64, Trap> {
        use crate::interp::{trunc_to_i32, trunc_to_i64, trunc_to_u32, trunc_to_u64};
        use UnOp::*;
        Ok(match self {
            I32Eqz => (b_i32(a) == 0) as u64,
            I32Clz => u_i32(b_i32(a).leading_zeros() as i32),
            I32Ctz => u_i32(b_i32(a).trailing_zeros() as i32),
            I32Popcnt => u_i32(b_i32(a).count_ones() as i32),
            I64Eqz => ((a as i64) == 0) as u64,
            I64Clz => (a as i64).leading_zeros() as u64,
            I64Ctz => (a as i64).trailing_zeros() as u64,
            I64Popcnt => (a as i64).count_ones() as u64,
            F32Abs => u_f32(b_f32(a).abs()),
            F32Neg => u_f32(-b_f32(a)),
            F32Ceil => u_f32(b_f32(a).ceil()),
            F32Floor => u_f32(b_f32(a).floor()),
            F32Trunc => u_f32(b_f32(a).trunc()),
            F32Nearest => u_f32(b_f32(a).round_ties_even()),
            F32Sqrt => u_f32(b_f32(a).sqrt()),
            F64Abs => f64::from_bits(a).abs().to_bits(),
            F64Neg => (-f64::from_bits(a)).to_bits(),
            F64Ceil => f64::from_bits(a).ceil().to_bits(),
            F64Floor => f64::from_bits(a).floor().to_bits(),
            F64Trunc => f64::from_bits(a).trunc().to_bits(),
            F64Nearest => f64::from_bits(a).round_ties_even().to_bits(),
            F64Sqrt => f64::from_bits(a).sqrt().to_bits(),
            I32WrapI64 => u_i32(a as i64 as i32),
            I32TruncF32S => u_i32(trunc_to_i32(b_f32(a) as f64)?),
            I32TruncF32U => u_i32(trunc_to_u32(b_f32(a) as f64)? as i32),
            I32TruncF64S => u_i32(trunc_to_i32(f64::from_bits(a))?),
            I32TruncF64U => u_i32(trunc_to_u32(f64::from_bits(a))? as i32),
            I64ExtendI32S => (b_i32(a) as i64) as u64,
            I64ExtendI32U => (b_i32(a) as u32 as i64) as u64,
            I64TruncF32S => trunc_to_i64(b_f32(a) as f64)? as u64,
            I64TruncF32U => trunc_to_u64(b_f32(a) as f64)?,
            I64TruncF64S => trunc_to_i64(f64::from_bits(a))? as u64,
            I64TruncF64U => trunc_to_u64(f64::from_bits(a))?,
            F32ConvertI32S => u_f32(b_i32(a) as f32),
            F32ConvertI32U => u_f32((b_i32(a) as u32) as f32),
            F32ConvertI64S => u_f32((a as i64) as f32),
            F32ConvertI64U => u_f32(a as f32),
            F32DemoteF64 => u_f32(f64::from_bits(a) as f32),
            F64ConvertI32S => (b_i32(a) as f64).to_bits(),
            F64ConvertI32U => ((b_i32(a) as u32) as f64).to_bits(),
            F64ConvertI64S => ((a as i64) as f64).to_bits(),
            F64ConvertI64U => (a as f64).to_bits(),
            F64PromoteF32 => (b_f32(a) as f64).to_bits(),
            I32ReinterpretF32 => a & 0xFFFF_FFFF,
            I64ReinterpretF64 => a,
            F32ReinterpretI32 => a & 0xFFFF_FFFF,
            F64ReinterpretI64 => a,
        })
    }
}

/// Memory-load flavor with the extension behaviour baked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum LoadKind {
    I32,
    I64,
    F32,
    F64,
    I32S8,
    I32U8,
    I32S16,
    I32U16,
    I64S8,
    I64U8,
    I64S16,
    I64U16,
    I64S32,
    I64U32,
}

impl LoadKind {
    /// Access width in bytes (also the trap's reported width).
    #[inline]
    pub(crate) fn width(self) -> u32 {
        use LoadKind::*;
        match self {
            I32S8 | I32U8 | I64S8 | I64U8 => 1,
            I32S16 | I32U16 | I64S16 | I64U16 => 2,
            I32 | F32 | I64S32 | I64U32 => 4,
            I64 | F64 => 8,
        }
    }
}

/// Memory-store flavor with the truncation behaviour baked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum StoreKind {
    I32,
    I64,
    F32,
    F64,
    I32As8,
    I32As16,
    I64As8,
    I64As16,
    I64As32,
}

impl StoreKind {
    /// Access width in bytes (also the trap's reported width).
    #[inline]
    pub(crate) fn width(self) -> u32 {
        use StoreKind::*;
        match self {
            I32As8 | I64As8 => 1,
            I32As16 | I64As16 => 2,
            I32 | F32 | I64As32 => 4,
            I64 | F64 => 8,
        }
    }
}

fn load_of(i: &Instr) -> Option<(LoadKind, u64)> {
    use LoadKind as L;
    Some(match i {
        Instr::I32Load(m) => (L::I32, m.offset as u64),
        Instr::I64Load(m) => (L::I64, m.offset as u64),
        Instr::F32Load(m) => (L::F32, m.offset as u64),
        Instr::F64Load(m) => (L::F64, m.offset as u64),
        Instr::I32Load8S(m) => (L::I32S8, m.offset as u64),
        Instr::I32Load8U(m) => (L::I32U8, m.offset as u64),
        Instr::I32Load16S(m) => (L::I32S16, m.offset as u64),
        Instr::I32Load16U(m) => (L::I32U16, m.offset as u64),
        Instr::I64Load8S(m) => (L::I64S8, m.offset as u64),
        Instr::I64Load8U(m) => (L::I64U8, m.offset as u64),
        Instr::I64Load16S(m) => (L::I64S16, m.offset as u64),
        Instr::I64Load16U(m) => (L::I64U16, m.offset as u64),
        Instr::I64Load32S(m) => (L::I64S32, m.offset as u64),
        Instr::I64Load32U(m) => (L::I64U32, m.offset as u64),
        _ => return None,
    })
}

fn store_of(i: &Instr) -> Option<(StoreKind, u64)> {
    use StoreKind as S;
    Some(match i {
        Instr::I32Store(m) => (S::I32, m.offset as u64),
        Instr::I64Store(m) => (S::I64, m.offset as u64),
        Instr::F32Store(m) => (S::F32, m.offset as u64),
        Instr::F64Store(m) => (S::F64, m.offset as u64),
        Instr::I32Store8(m) => (S::I32As8, m.offset as u64),
        Instr::I32Store16(m) => (S::I32As16, m.offset as u64),
        Instr::I64Store8(m) => (S::I64As8, m.offset as u64),
        Instr::I64Store16(m) => (S::I64As16, m.offset as u64),
        Instr::I64Store32(m) => (S::I64As32, m.offset as u64),
        _ => return None,
    })
}

fn local_get_of(i: &Instr) -> Option<u32> {
    match i {
        Instr::LocalGet(x) => Some(*x),
        _ => None,
    }
}

fn local_set_of(i: &Instr) -> Option<u32> {
    match i {
        Instr::LocalSet(x) => Some(*x),
        _ => None,
    }
}

fn const_bits_of(i: &Instr) -> Option<u64> {
    Some(match i {
        Instr::I32Const(v) => u_i32(*v),
        Instr::I64Const(v) => *v as u64,
        Instr::F32Const(f) => u_f32(*f),
        Instr::F64Const(f) => f.to_bits(),
        _ => None?,
    })
}

fn br_if_of(i: &Instr) -> Option<u32> {
    match i {
        Instr::BrIf(d) => Some(*d),
        _ => None,
    }
}

/// One micro-op. Singleton variants mirror [`Instr`] one-to-one (with
/// branch targets pre-translated to micro-op indices); the variants after
/// the marker comment are fused superinstructions.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub(crate) enum Mop {
    Unreachable,
    Nop,
    /// `after_end` = micro-op index just past the matching `end`.
    Block {
        after_end: u32,
        arity: u8,
    },
    Loop {
        after_end: u32,
    },
    /// `else_skip` = target when the condition is false and an `else`
    /// exists ([`NO_PC`] otherwise, in which case control jumps to
    /// `after_end` with the frame popped).
    If {
        after_end: u32,
        else_skip: u32,
        arity: u8,
    },
    Else,
    End,
    Br(u32),
    BrIf(u32),
    BrTable(Box<[u32]>, u32),
    Return,
    Call(u32),
    CallIndirect(u32),
    Drop,
    Select,
    LocalGet(u32),
    LocalSet(u32),
    LocalTee(u32),
    GlobalGet(u32),
    GlobalSet {
        idx: u32,
        ty: ValType,
    },
    Load {
        kind: LoadKind,
        offset: u64,
    },
    Store {
        kind: StoreKind,
        offset: u64,
    },
    MemorySize,
    MemoryGrow,
    Const(u64),
    Un(UnOp),
    Bin(BinOp),
    // ---- fused superinstructions ------------------------------------
    /// `local.get a; local.get b; binop`
    LLBin {
        a: u32,
        b: u32,
        op: BinOp,
    },
    /// `local.get a; local.get b; binop; local.set dst`
    LLBinSet {
        a: u32,
        b: u32,
        dst: u32,
        op: BinOp,
    },
    /// `local.get a; const c; binop`
    LCBin {
        a: u32,
        c: u64,
        op: BinOp,
    },
    /// `local.get a; const c; binop; local.set dst`
    LCBinSet {
        a: u32,
        c: u64,
        dst: u32,
        op: BinOp,
    },
    /// `local.get b; binop` (lhs already on the stack)
    LBin {
        b: u32,
        op: BinOp,
    },
    /// `const c; binop` (lhs already on the stack)
    CBin {
        c: u64,
        op: BinOp,
    },
    /// `const c; binop; local.set dst`
    CBinSet {
        c: u64,
        dst: u32,
        op: BinOp,
    },
    /// `binop; local.set dst` (both operands on the stack)
    BinSet {
        dst: u32,
        op: BinOp,
    },
    /// `const c; local.set dst`
    LConst {
        c: u64,
        dst: u32,
    },
    /// `local.get src; local.set dst`
    LocalCopy {
        src: u32,
        dst: u32,
    },
    /// `local.get a; local.get b; binop; br_if depth`
    LLCmpBr {
        a: u32,
        b: u32,
        op: BinOp,
        depth: u32,
    },
    /// `local.get a; const c; binop; br_if depth`
    LCCmpBr {
        a: u32,
        c: u64,
        op: BinOp,
        depth: u32,
    },
    /// `binop; br_if depth` (both operands on the stack)
    CmpBr {
        op: BinOp,
        depth: u32,
    },
    /// `local.get a; unop; br_if depth` (e.g. `i32.eqz; br_if`)
    LUnBr {
        a: u32,
        un: UnOp,
        depth: u32,
    },
    /// `unop; br_if depth`
    UnBr {
        un: UnOp,
        depth: u32,
    },
    /// `local.get a; load`
    LLoad {
        a: u32,
        kind: LoadKind,
        offset: u64,
    },
    /// `local.get a; local.get b; store` (a = address, b = value)
    LLStore {
        a: u32,
        b: u32,
        kind: StoreKind,
        offset: u64,
    },
}

/// One constituent of a fused micro-op, as the cost model charges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Part {
    /// `local.get` or `local.set`: class `Local`.
    Local,
    /// A `*.const`: class `Const`.
    Const,
    /// The carried [`BinOp`] or [`UnOp`]: its `class()` and `arith()`.
    Op,
    /// `br_if`: class `Branch`.
    Branch,
    /// A load: class `Load`.
    Load,
    /// A store: class `Store`.
    Store,
}

impl Part {
    /// The op class a fixed part charges; `None` for [`Part::Op`], which
    /// charges its carried operator's.
    #[inline(always)]
    pub(crate) fn class(self) -> Option<OpClass> {
        Some(match self {
            Part::Local => OpClass::Local,
            Part::Const => OpClass::Const,
            Part::Op => return None,
            Part::Branch => OpClass::Branch,
            Part::Load => OpClass::Load,
            Part::Store => OpClass::Store,
        })
    }
}

/// A fused family's constituents in source order, split at the trap
/// point: `pre` runs up to and including the one constituent that can
/// trap (the last of `pre`), `post` is the rest. The handler in `exec.rs`
/// charges `pre`, executes that constituent, then charges `post`; the
/// auditor expands the same shape against the reference interpreter.
#[derive(Debug)]
pub(crate) struct Shape {
    /// Family name, as the auditor reports it.
    pub(crate) family: &'static str,
    /// Charged before the fallible constituent executes.
    pub(crate) pre: &'static [Part],
    /// Charged after it.
    pub(crate) post: &'static [Part],
}

impl Shape {
    /// Source instructions retired: the step-budget charge.
    #[inline(always)]
    pub(crate) fn width(&self) -> u64 {
        (self.pre.len() + self.post.len()) as u64
    }
}

impl Mop {
    /// The charge shape of a fused micro-op; `None` for singletons, which
    /// charge like their one reference instruction. Wildcard-free, so a
    /// new variant fails to compile until it declares its shape.
    #[inline(always)]
    pub(crate) fn shape(&self) -> Option<&'static Shape> {
        use Mop::*;
        macro_rules! shape {
            ($family:literal, [$($pre:ident),*], [$($post:ident),*]) => {
                Some(&Shape {
                    family: $family,
                    pre: &[$(Part::$pre),*],
                    post: &[$(Part::$post),*],
                })
            };
        }
        match self {
            Unreachable
            | Nop
            | Block { .. }
            | Loop { .. }
            | If { .. }
            | Else
            | End
            | Br(_)
            | BrIf(_)
            | BrTable(..)
            | Return
            | Call(_)
            | CallIndirect(_)
            | Drop
            | Select
            | LocalGet(_)
            | LocalSet(_)
            | LocalTee(_)
            | GlobalGet(_)
            | GlobalSet { .. }
            | Load { .. }
            | Store { .. }
            | MemorySize
            | MemoryGrow
            | Const(_)
            | Un(_)
            | Bin(_) => None,
            LLBin { .. } => shape!("LLBin", [Local, Local, Op], []),
            LLBinSet { .. } => shape!("LLBinSet", [Local, Local, Op], [Local]),
            LCBin { .. } => shape!("LCBin", [Local, Const, Op], []),
            LCBinSet { .. } => shape!("LCBinSet", [Local, Const, Op], [Local]),
            LBin { .. } => shape!("LBin", [Local, Op], []),
            CBin { .. } => shape!("CBin", [Const, Op], []),
            CBinSet { .. } => shape!("CBinSet", [Const, Op], [Local]),
            BinSet { .. } => shape!("BinSet", [Op], [Local]),
            LConst { .. } => shape!("LConst", [Const, Local], []),
            LocalCopy { .. } => shape!("LocalCopy", [Local, Local], []),
            LLCmpBr { .. } => shape!("LLCmpBr", [Local, Local, Op], [Branch]),
            LCCmpBr { .. } => shape!("LCCmpBr", [Local, Const, Op], [Branch]),
            CmpBr { .. } => shape!("CmpBr", [Op], [Branch]),
            LUnBr { .. } => shape!("LUnBr", [Local, Op], [Branch]),
            UnBr { .. } => shape!("UnBr", [Op], [Branch]),
            LLoad { .. } => shape!("LLoad", [Local, Load], []),
            LLStore { .. } => shape!("LLStore", [Local, Local, Store], []),
        }
    }
}

/// A function body lowered to micro-ops.
#[derive(Debug)]
pub(crate) struct FusedFunc {
    /// The micro-op stream; control targets are indices into this vec.
    pub(crate) code: Vec<Mop>,
}

/// Try to recognize a fused pattern starting at `w[0]`; returns the fused
/// op and the number of source instructions consumed.
pub(crate) fn match_fused(w: &[Instr]) -> Option<(Mop, usize)> {
    // Longest patterns first. Every constituent past the first is a
    // data/branch instruction, never a control opener/closer, so no group
    // can swallow a branch target (see module docs).
    if w.len() >= 4 {
        if let (Some(a), Some(op)) = (local_get_of(&w[0]), BinOp::of(&w[2])) {
            if let Some(b) = local_get_of(&w[1]) {
                if let Some(dst) = local_set_of(&w[3]) {
                    return Some((Mop::LLBinSet { a, b, dst, op }, 4));
                }
                if let Some(depth) = br_if_of(&w[3]) {
                    if op.result_is_i32() {
                        return Some((Mop::LLCmpBr { a, b, op, depth }, 4));
                    }
                }
            }
            if let Some(c) = const_bits_of(&w[1]) {
                if let Some(dst) = local_set_of(&w[3]) {
                    return Some((Mop::LCBinSet { a, c, dst, op }, 4));
                }
                if let Some(depth) = br_if_of(&w[3]) {
                    if op.result_is_i32() {
                        return Some((Mop::LCCmpBr { a, c, op, depth }, 4));
                    }
                }
            }
        }
    }
    if w.len() >= 3 {
        if let Some(a) = local_get_of(&w[0]) {
            if let Some(b) = local_get_of(&w[1]) {
                if let Some(op) = BinOp::of(&w[2]) {
                    return Some((Mop::LLBin { a, b, op }, 3));
                }
                if let Some((kind, offset)) = store_of(&w[2]) {
                    return Some((Mop::LLStore { a, b, kind, offset }, 3));
                }
            }
            if let Some(c) = const_bits_of(&w[1]) {
                if let Some(op) = BinOp::of(&w[2]) {
                    return Some((Mop::LCBin { a, c, op }, 3));
                }
            }
            if let Some(un) = UnOp::of(&w[1]) {
                if let Some(depth) = br_if_of(&w[2]) {
                    if un.result_is_i32() {
                        return Some((Mop::LUnBr { a, un, depth }, 3));
                    }
                }
            }
        }
        if let Some(c) = const_bits_of(&w[0]) {
            if let Some(op) = BinOp::of(&w[1]) {
                if let Some(dst) = local_set_of(&w[2]) {
                    return Some((Mop::CBinSet { c, dst, op }, 3));
                }
            }
        }
    }
    if w.len() >= 2 {
        if let Some(a) = local_get_of(&w[0]) {
            if let Some((kind, offset)) = load_of(&w[1]) {
                return Some((Mop::LLoad { a, kind, offset }, 2));
            }
            if let Some(dst) = local_set_of(&w[1]) {
                return Some((Mop::LocalCopy { src: a, dst }, 2));
            }
            if let Some(op) = BinOp::of(&w[1]) {
                return Some((Mop::LBin { b: a, op }, 2));
            }
        }
        if let Some(c) = const_bits_of(&w[0]) {
            if let Some(op) = BinOp::of(&w[1]) {
                return Some((Mop::CBin { c, op }, 2));
            }
            if let Some(dst) = local_set_of(&w[1]) {
                return Some((Mop::LConst { c, dst }, 2));
            }
        }
        if let Some(op) = BinOp::of(&w[0]) {
            if let Some(dst) = local_set_of(&w[1]) {
                return Some((Mop::BinSet { dst, op }, 2));
            }
            if let Some(depth) = br_if_of(&w[1]) {
                if op.result_is_i32() {
                    return Some((Mop::CmpBr { op, depth }, 2));
                }
            }
        }
        if let Some(un) = UnOp::of(&w[0]) {
            if let Some(depth) = br_if_of(&w[1]) {
                if un.result_is_i32() {
                    return Some((Mop::UnBr { un, depth }, 2));
                }
            }
        }
    }
    None
}

/// Translate one instruction to its singleton micro-op. Control targets
/// are patched afterwards from the side table.
fn singleton(i: &Instr, module: &Module) -> Mop {
    if let Some(op) = BinOp::of(i) {
        return Mop::Bin(op);
    }
    if let Some(un) = UnOp::of(i) {
        return Mop::Un(un);
    }
    if let Some((kind, offset)) = load_of(i) {
        return Mop::Load { kind, offset };
    }
    if let Some((kind, offset)) = store_of(i) {
        return Mop::Store { kind, offset };
    }
    if let Some(c) = const_bits_of(i) {
        return Mop::Const(c);
    }
    match i {
        Instr::Unreachable => Mop::Unreachable,
        Instr::Nop => Mop::Nop,
        Instr::Block(bt) => Mop::Block {
            after_end: NO_PC,
            arity: bt.arity() as u8,
        },
        Instr::Loop(_) => Mop::Loop { after_end: NO_PC },
        Instr::If(bt) => Mop::If {
            after_end: NO_PC,
            else_skip: NO_PC,
            arity: bt.arity() as u8,
        },
        Instr::Else => Mop::Else,
        Instr::End => Mop::End,
        Instr::Br(d) => Mop::Br(*d),
        Instr::BrIf(d) => Mop::BrIf(*d),
        Instr::BrTable(targets, default) => {
            Mop::BrTable(targets.clone().into_boxed_slice(), *default)
        }
        Instr::Return => Mop::Return,
        Instr::Call(f) => Mop::Call(*f),
        Instr::CallIndirect(t) => Mop::CallIndirect(*t),
        Instr::Drop => Mop::Drop,
        Instr::Select => Mop::Select,
        Instr::LocalGet(x) => Mop::LocalGet(*x),
        Instr::LocalSet(x) => Mop::LocalSet(*x),
        Instr::LocalTee(x) => Mop::LocalTee(*x),
        Instr::GlobalGet(x) => Mop::GlobalGet(*x),
        Instr::GlobalSet(x) => Mop::GlobalSet {
            idx: *x,
            ty: module.globals[*x as usize].ty.ty,
        },
        Instr::MemorySize => Mop::MemorySize,
        Instr::MemoryGrow => Mop::MemoryGrow,
        _ => unreachable!("covered by BinOp/UnOp/load/store/const lifts"),
    }
}

/// Lower one flat body to fused micro-ops.
///
/// Pass 1 greedily matches fused patterns (falling back to singletons) and
/// records the micro-op index of every source pc. Pass 2 patches the
/// structured-control targets (`after_end`, `else_skip`) from the side
/// table, translating instruction pcs to micro-op indices.
pub(crate) fn lower(body: &[Instr], side: &SideTable, module: &Module) -> FusedFunc {
    let n = body.len();
    let mut code: Vec<Mop> = Vec::with_capacity(n);
    let mut mop_of: Vec<u32> = vec![NO_PC; n + 1];
    let mut pc = 0usize;
    while pc < n {
        mop_of[pc] = code.len() as u32;
        if let Some((mop, len)) = match_fused(&body[pc..]) {
            code.push(mop);
            pc += len;
        } else {
            code.push(singleton(&body[pc], module));
            pc += 1;
        }
    }
    mop_of[n] = code.len() as u32;
    for (pc, instr) in body.iter().enumerate() {
        match instr {
            Instr::Block(_) | Instr::Loop(_) | Instr::If(_) => {
                let end_pc = side.end_of[pc] as usize;
                let idx = mop_of[pc] as usize;
                // `end` is always a singleton, so the op after it is at
                // the next micro-op index.
                let after_end = mop_of[end_pc] + 1;
                match &mut code[idx] {
                    Mop::Block { after_end: t, .. } | Mop::Loop { after_end: t } => {
                        *t = after_end;
                    }
                    Mop::If {
                        after_end: t,
                        else_skip,
                        ..
                    } => {
                        *t = after_end;
                        if side.else_of[pc] != NO_PC {
                            // `else` is always a singleton too.
                            *else_skip = mop_of[side.else_of[pc] as usize] + 1;
                        }
                    }
                    other => unreachable!("opener lowered to {other:?}"),
                }
            }
            _ => {}
        }
    }
    FusedFunc { code }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::PreparedModule;
    use wb_wasm::{BlockType, Instr, MemArg};

    fn lower_body(body: Vec<Instr>) -> FusedFunc {
        let module = Module {
            functions: vec![wb_wasm::Function {
                type_index: 0,
                locals: vec![ValType::I32; 4],
                body,
                name: None,
            }],
            types: vec![wb_wasm::FuncType {
                params: vec![],
                results: vec![],
            }],
            ..Default::default()
        };
        let prepared = PreparedModule::new(module);
        lower(
            &prepared.module.functions[0].body,
            &prepared.side_tables[0],
            &prepared.module,
        )
    }

    #[test]
    fn fuses_local_local_bin_set() {
        let f = lower_body(vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32Add,
            Instr::LocalSet(2),
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::LLBinSet {
                    a: 0,
                    b: 1,
                    dst: 2,
                    op: BinOp::I32Add
                },
                Mop::End,
            ]
        );
    }

    #[test]
    fn fuses_counter_increment() {
        // The canonical loop-counter idiom from the MiniC backend.
        let f = lower_body(vec![
            Instr::LocalGet(3),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::LocalSet(3),
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::LCBinSet {
                    a: 3,
                    c: 1,
                    dst: 3,
                    op: BinOp::I32Add
                },
                Mop::End,
            ]
        );
    }

    #[test]
    fn fuses_cmp_br_if() {
        let f = lower_body(vec![
            Instr::Block(BlockType::Empty),
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32GeU,
            Instr::BrIf(0),
            Instr::End,
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::Block {
                    after_end: 3,
                    arity: 0
                },
                Mop::LLCmpBr {
                    a: 0,
                    b: 1,
                    op: BinOp::I32GeU,
                    depth: 0
                },
                Mop::End,
                Mop::End,
            ]
        );
    }

    #[test]
    fn fuses_local_load_and_local_local_store() {
        let m = MemArg {
            align: 0,
            offset: 8,
        };
        let f = lower_body(vec![
            Instr::LocalGet(0),
            Instr::I32Load8U(m),
            Instr::Drop,
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32Store(m),
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::LLoad {
                    a: 0,
                    kind: LoadKind::I32U8,
                    offset: 8
                },
                Mop::Drop,
                Mop::LLStore {
                    a: 0,
                    b: 1,
                    kind: StoreKind::I32,
                    offset: 8
                },
                Mop::End,
            ]
        );
    }

    #[test]
    fn fuses_eqz_br_if_and_stack_lhs_patterns() {
        let f = lower_body(vec![
            Instr::Block(BlockType::Empty),
            Instr::LocalGet(0),
            Instr::I32Eqz,
            Instr::BrIf(0),
            Instr::GlobalGet(0),
            Instr::I32Const(7),
            Instr::I32Mul,
            Instr::LocalSet(1),
            Instr::End,
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::Block {
                    after_end: 5,
                    arity: 0
                },
                Mop::LUnBr {
                    a: 0,
                    un: UnOp::I32Eqz,
                    depth: 0
                },
                Mop::GlobalGet(0),
                Mop::CBinSet {
                    c: 7,
                    dst: 1,
                    op: BinOp::I32Mul
                },
                Mop::End,
                Mop::End,
            ]
        );
    }

    #[test]
    fn loop_and_if_targets_are_micro_op_indices() {
        let f = lower_body(vec![
            Instr::Loop(BlockType::Empty), // 0 -> mop 0
            Instr::LocalGet(0),            // 1 ┐
            Instr::I32Eqz,                 // 2 ├ mop 1 (LUnBr)
            Instr::BrIf(1),                // 3 ┘  (wildly typed, but shape is what matters)
            Instr::If(BlockType::Empty),   // 4 -> mop 2 (consumes a cond in real code)
            Instr::Nop,                    // 5 -> mop 3
            Instr::Else,                   // 6 -> mop 4
            Instr::Nop,                    // 7 -> mop 5
            Instr::End,                    // 8 -> mop 6 (closes if)
            Instr::Br(0),                  // 9 -> mop 7
            Instr::End,                    // 10 -> mop 8 (closes loop)
            Instr::End,                    // 11 -> mop 9
        ]);
        assert_eq!(f.code.len(), 10);
        assert_eq!(f.code[0], Mop::Loop { after_end: 9 });
        assert_eq!(
            f.code[2],
            Mop::If {
                after_end: 7,
                else_skip: 5,
                arity: 0
            }
        );
    }

    #[test]
    fn never_fuses_across_control_instructions() {
        // `local.get` right before `end`: the would-be partner on the
        // other side of `end` must not be swallowed.
        let f = lower_body(vec![
            Instr::Block(BlockType::Value(ValType::I32)),
            Instr::LocalGet(0),
            Instr::End,
            Instr::LocalSet(1),
            Instr::End,
        ]);
        assert_eq!(
            f.code,
            vec![
                Mop::Block {
                    after_end: 3,
                    arity: 1
                },
                Mop::LocalGet(0),
                Mop::End,
                Mop::LocalSet(1),
                Mop::End,
            ]
        );
    }

    #[test]
    fn widths_sum_to_body_length() {
        let body = vec![
            Instr::Block(BlockType::Empty),
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32GeU,
            Instr::BrIf(0),
            Instr::LocalGet(2),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::LocalSet(2),
            Instr::LocalGet(0),
            Instr::F64Const(1.5),
            Instr::F64Mul,
            Instr::End,
            Instr::End,
        ];
        let n = body.len() as u64;
        let f = lower_body(body);
        let width = |m: &Mop| m.shape().map_or(1, Shape::width);
        assert_eq!(f.code.iter().map(width).sum::<u64>(), n);
    }
}
