//! Helpers shared by the trampoline-fusion test suites.

use sassi_isa::{Function, Gpr, Op, Src};

/// Rewrites every stack push `IADD R1, R1, -n` into the equivalent
/// `ISUB R1, R1, n`. The two µops compute the same value with the same
/// issue class and latency, but decode only recognizes a trampoline
/// window by its `IADD` push, so the rewritten function runs every
/// window µop by µop — the unfused oracle for the fused macro-µop.
pub fn defeat_fusion(f: &Function) -> Function {
    let mut g = f.clone();
    for ins in &mut g.instrs {
        if let Op::IAdd {
            d,
            a,
            b: Src::Imm(v),
            x: false,
            cc: false,
        } = ins.op
        {
            if d == Gpr::SP && a == Gpr::SP && (v as i32) < 0 {
                ins.op = Op::ISub {
                    d,
                    a,
                    b: Src::Imm(v.wrapping_neg()),
                };
            }
        }
    }
    g
}
