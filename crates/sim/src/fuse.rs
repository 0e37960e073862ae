//! Fused trampolines: SASSI's inserted ABI code run as one macro-µop.
//!
//! Every native-handler instrumentation site is wrapped in a trampoline
//! (`sassi::trampoline`): a stack push, GPR spills, parameter-object
//! stores, predicate and carry saves, the handler trap, the restores
//! and the pop — 30 to 60 µops per site, nearly all of them moving
//! words between a lane's registers and its own stack frame. Decode
//! finds each such *window* and compiles it into a [`Trampoline`]: a
//! short program of lane-row operations the block-stepped interpreter
//! runs in one step instead of dispatching every constituent µop.
//!
//! The parts run op-major: each op once over the whole warp. Registers
//! and local memory are stored as lane rows (see [`Warp`]), and every
//! active lane must share one word-aligned frame pointer, so a frame
//! word is one local row and a spill or restore is a row-to-row move —
//! a whole-row copy when all 32 lanes are active, a per-lane select of
//! the active lanes otherwise. Lanes are independent (each op touches only
//! its own lane's registers, predicates, carry and frame words), so
//! running op by op leaves exactly what running lane by lane leaves.
//!
//! # Exactness contract
//!
//! A fused window leaves every observable exactly as the constituent
//! µops would under block stepping: registers, predicates, carry flags
//! and local-slab bytes of every lane; `warp_instrs`, `thread_instrs`,
//! the per-class issue counts, `handler_calls` and `handler_cycles`;
//! the cycle counter and the block's ready time; the warp's `ready_at`
//! wherever a handler can observe it (at this trap, and at a later trap
//! of the same run that no memory µop precedes); and everything the
//! handler observes at the trap (`TrapCtx::cycle`, the R4–R7 parameter
//! pointers, the frame bytes).
//! The pre-part (push through the last µop before the trap) is a pure
//! function of the lane's entry state — it stores to the frame but
//! never loads — so the compiler folds constant staging registers
//! (`MOV32I R3, id; STL [R1+0x0], R3`) into frame-word stores plus one
//! final register write, and drops stores that a later store to the
//! same word overwrites. The post-part runs after the handler with real
//! loads, because handlers may rewrite registers, the frame or R1.
//!
//! Faults stay precise by never happening inside a fused part: each
//! part first checks that the active lanes share a word-aligned frame
//! pointer and that the frame lies inside the local slab (one check per
//! part instead of one per `STL`/`LDL` and lane). If the check fails —
//! only after a fault or a handler corrupted R1 — that part runs µop by
//! µop on the ordinary path, which raises the exact fault at the exact
//! pc. The unfused µops stay in the decoded array for this, for
//! single-stepping, and for branch targets that land inside a window.

use crate::decode::{DSrc, DecodedInstr, UOp, GUARD_ALWAYS};
use crate::device::c0_read_img;
use crate::stats::IssueCounters;
use crate::warp::Warp;
use sassi_isa::{
    lanes, AddrSpace, Gpr, Instr, LaneMask, LogicOp, MemAddr, MemWidth, Op, Src, FULL_MASK,
};

/// One word for each of a warp's 32 lanes: a register, or one word of
/// local memory, across the warp (see [`Warp::regs`], [`Warp::local`]).
type LaneRow = [u32; 32];

/// Destination encoding of `RZ`: the register write is dropped.
const RZ: u8 = 255;
/// The stack pointer's register number.
const SP: u8 = 1;
/// Predicate index of `PT`, which always reads true.
const PT: u8 = 7;
/// Largest frame a fused window may address (SASSI frames are under
/// 0x100 bytes); keeps every frame offset and template length in `u16`.
const MAX_FRAME: u32 = 0x4000;

/// A 32-bit operand of a fused op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TSrc {
    /// A lane register (never `RZ`, which folds to `Imm(0)`).
    Reg(u8),
    /// A literal, or a staging register's value known at decode.
    Imm(u32),
    /// A bank-0 constant (lane-uniform).
    C0(u16),
}

/// One operation of a fused trampoline part, run for every active lane.
/// Frame offsets are byte offsets, multiples of 4, relative to the
/// part's frame pointer (R1 after the push).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TOp {
    Mov {
        d: u8,
        a: TSrc,
    },
    /// `d` may be [`RZ`] when only the carry-out matters.
    Add {
        d: u8,
        a: TSrc,
        b: TSrc,
        x: bool,
        cc: bool,
    },
    Lop {
        d: u8,
        op: LogicOp,
        a: TSrc,
        b: TSrc,
        inv_b: bool,
    },
    Sel {
        d: u8,
        a: TSrc,
        b: TSrc,
        p: u8,
        neg: bool,
    },
    P2R {
        d: u8,
    },
    R2P {
        a: TSrc,
    },
    St {
        off: u16,
        v: TSrc,
    },
    Ld {
        d: u8,
        off: u16,
    },
    /// `St` of every register `r` in `mask` at `base + 4 * r`: the
    /// GPR spill block.
    StRegs {
        base: u16,
        mask: u32,
    },
    /// `Ld` of every register `r` in `mask` from `base + 4 * r`: the
    /// GPR restore block.
    LdRegs {
        base: u16,
        mask: u32,
    },
}

/// A compiled trampoline window: pcs `push..=pop` around one trap.
///
/// Offsets named `*_ready` or `*_last` count cycles from the push's
/// issue cycle; µop `k` of the window issues at offset `k`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Trampoline {
    /// The stack push µop this macro-µop replaces in the decoded array,
    /// run as-is whenever the window is not fused.
    pub push: UOp,
    /// R1 += this at the push.
    push_imm: u32,
    /// Lane-varying pre-part work after the push, in program order.
    pre: Box<[TOp]>,
    /// Lane-uniform frame words the pre-part stores, as `(frame offset,
    /// value)` in offset order.
    frame: Box<[(u16, u32)]>,
    /// Final values of the registers the pre-part sets to constants.
    reg_imm: Box<[(u8, u32)]>,
    /// Bytes above the frame pointer the pre-part stores reach.
    pre_end: u32,
    /// The post-part, loads first and the pop last.
    post: Box<[TOp]>,
    /// Bytes above the frame pointer the post-part reaches.
    post_end: u32,
    /// Highest register number any part touches.
    max_reg: u8,
    /// µops before the trap (push included): the trap's offset.
    pub n_pre: u32,
    /// µops after the trap (pop included).
    pub n_post: u32,
    /// The trap's handler and decode-time site index.
    pub handler: u32,
    /// See [`Trampoline::handler`].
    pub site: u32,
    /// Issue counts of the pre-part plus the trap.
    pub pre_issue: IssueCounters,
    /// Issue counts of the post-part.
    pub post_issue: IssueCounters,
    /// `max(k + max(lat_k, 1))` over the pre-part's ALU µops.
    pub pre_alu_ready: u32,
    /// Offset of the pre-part's last local store, if any.
    pub pre_mem_last: Option<u32>,
    /// `max(k + max(lat_k, 1))` over the post-part's ALU µops.
    pub post_alu_ready: u32,
    /// Offset of the post-part's last local load or store, if any.
    pub post_mem_last: Option<u32>,
}

/// The trampoline frame around a trap: the nearest stack push
/// (`IADD R1, R1, -n`) before it and the nearest pop (`IADD R1, R1,
/// +n`) after it, with no other call in between.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Window {
    /// pc of the push.
    pub push: usize,
    /// pc of the pop.
    pub pop: usize,
    /// Spill-flagged stores between push and trap plus spill-flagged
    /// loads between trap and pop: the site's save/restore cost.
    pub save_restore: u32,
}

/// Finds the trampoline window around the trap at `pc`. The scans stop
/// at any other call, so register-allocator spills elsewhere in the
/// function are never attributed to the site; a `JCAL handlerN`
/// without an enclosing frame has no window.
pub(crate) fn window_at(code: &[Instr], pc: usize) -> Option<Window> {
    let sp_adjust = |op: &Op, downward: bool| {
        matches!(op, Op::IAdd { d, a, b: Src::Imm(v), .. }
            if *d == Gpr::SP && *a == Gpr::SP && ((*v as i32) < 0) == downward)
    };
    let mut saves = 0u32;
    let mut push = None;
    for (i, ins) in code[..pc].iter().enumerate().rev() {
        if sp_adjust(&ins.op, true) {
            push = Some(i);
            break;
        }
        if matches!(ins.op, Op::Jcal { .. }) {
            return None;
        }
        if matches!(ins.op, Op::St { spill: true, .. }) {
            saves += 1;
        }
    }
    let push = push?;
    let mut fills = 0u32;
    for (i, ins) in code.iter().enumerate().skip(pc + 1) {
        if sp_adjust(&ins.op, false) {
            return Some(Window {
                push,
                pop: i,
                save_restore: saves + fills,
            });
        }
        if matches!(ins.op, Op::Jcal { .. }) {
            return None;
        }
        if matches!(ins.op, Op::Ld { spill: true, .. }) {
            fills += 1;
        }
    }
    None
}

/// Lowers constituent µops into [`TOp`]s. With `fold` set (the
/// pre-part), registers set to literals are tracked instead of written,
/// their reads become immediates, and their final values are emitted
/// once at the end.
struct Lowerer {
    fold: bool,
    known: [Option<u32>; 256],
    ops: Vec<TOp>,
    end: u32,
    max_reg: u8,
}

impl Lowerer {
    fn new(fold: bool) -> Lowerer {
        Lowerer {
            fold,
            known: [None; 256],
            ops: Vec::new(),
            end: 0,
            max_reg: SP,
        }
    }

    fn reg(&mut self, g: Gpr) -> TSrc {
        if g.is_rz() {
            return TSrc::Imm(0);
        }
        match self.known[g.index() as usize] {
            Some(v) => TSrc::Imm(v),
            None => {
                self.max_reg = self.max_reg.max(g.index());
                TSrc::Reg(g.index())
            }
        }
    }

    fn src(&mut self, s: DSrc) -> TSrc {
        match s {
            DSrc::Reg(g) => self.reg(g),
            DSrc::Imm(v) => TSrc::Imm(v),
            DSrc::C0(o) => TSrc::C0(o),
        }
    }

    /// Records a write of `d`: a literal (`value`) is deferred when
    /// folding, anything else emits `op`. Writes to R1 are rejected —
    /// the frame pointer must stay fixed within a part.
    fn def(&mut self, d: Gpr, value: Option<u32>, op: TOp) -> Option<()> {
        if d.is_rz() {
            return Some(());
        }
        if d.index() == SP {
            return None;
        }
        self.max_reg = self.max_reg.max(d.index());
        let slot = &mut self.known[d.index() as usize];
        match value {
            Some(v) if self.fold => *slot = Some(v),
            _ => {
                *slot = None;
                self.ops.push(op);
            }
        }
        Some(())
    }

    /// Frame offset of an `STL`/`LDL` through R1, or `None` for any
    /// other address form.
    fn frame_off(&mut self, addr: &MemAddr, width: MemWidth) -> Option<u16> {
        let bytes = match width {
            MemWidth::B32 => 4,
            MemWidth::B64 => 8,
            _ => return None,
        };
        if addr.space != AddrSpace::Local || addr.base != Gpr::SP || addr.offset % 4 != 0 {
            return None;
        }
        let off = u16::try_from(addr.offset).ok()?;
        if off as u32 + bytes > MAX_FRAME {
            return None;
        }
        self.end = self.end.max(off as u32 + bytes);
        Some(off)
    }

    fn lower(&mut self, uop: &UOp) -> Option<()> {
        match *uop {
            UOp::Mov { d, a } => {
                let a = self.src(a);
                let lit = match a {
                    TSrc::Imm(v) => Some(v),
                    _ => None,
                };
                self.def(d, lit, TOp::Mov { d: d.index(), a })
            }
            UOp::IAdd { d, a, b, x, cc } => {
                let (a, b) = (self.reg(a), self.src(b));
                let lit = match (a, b, x, cc) {
                    (TSrc::Imm(a), TSrc::Imm(b), false, false) => Some(a.wrapping_add(b)),
                    _ => None,
                };
                let op = TOp::Add {
                    d: d.index(),
                    a,
                    b,
                    x,
                    cc,
                };
                if d.is_rz() && cc {
                    // Only the carry-out survives.
                    self.ops.push(op);
                    return Some(());
                }
                self.def(d, lit, op)
            }
            UOp::Lop { d, op, a, b, inv_b } => {
                let (a, b) = (self.reg(a), self.src(b));
                let lit = match (a, b) {
                    (TSrc::Imm(a), TSrc::Imm(b)) => Some(op.eval(a, if inv_b { !b } else { b })),
                    _ => None,
                };
                let top = TOp::Lop {
                    d: d.index(),
                    op,
                    a,
                    b,
                    inv_b,
                };
                self.def(d, lit, top)
            }
            UOp::Sel { d, a, b, p, neg_p } => {
                let (a, b) = (self.reg(a), self.src(b));
                let op = TOp::Sel {
                    d: d.index(),
                    a,
                    b,
                    p: p.index(),
                    neg: neg_p,
                };
                self.def(d, None, op)
            }
            UOp::P2R { d } => self.def(d, None, TOp::P2R { d: d.index() }),
            UOp::R2P { a } => {
                let a = self.reg(a);
                self.ops.push(TOp::R2P { a });
                Some(())
            }
            UOp::St { v, width, addr } => {
                let off = self.frame_off(&addr, width)?;
                if width == MemWidth::B64 && v.index() >= 254 {
                    return None;
                }
                let regs = if width == MemWidth::B64 { 2 } else { 1 };
                for k in 0..regs {
                    let g = if k == 0 { v } else { v.pair_hi() };
                    let v = self.reg(g);
                    self.ops.push(TOp::St {
                        off: off + 4 * k,
                        v,
                    });
                }
                Some(())
            }
            UOp::Ld { d, width, addr } if !self.fold => {
                let off = self.frame_off(&addr, width)?;
                if width == MemWidth::B64 && d.index() >= 254 {
                    return None;
                }
                let regs = if width == MemWidth::B64 { 2 } else { 1 };
                for k in 0..regs {
                    let g = if k == 0 { d } else { d.pair_hi() };
                    self.def(
                        g,
                        None,
                        TOp::Ld {
                            d: g.index(),
                            off: off + 4 * k,
                        },
                    )?;
                }
                Some(())
            }
            _ => None,
        }
    }
}

/// Cycle bookkeeping of one part: issue counts, the ALU ready maximum
/// and the last local memory µop.
#[derive(Default)]
struct Timing {
    issue: IssueCounters,
    alu_ready: u32,
    mem_last: Option<u32>,
}

impl Timing {
    fn add(&mut self, k: u32, di: &DecodedInstr) {
        self.issue.bump(di.class);
        if matches!(di.uop, UOp::St { .. } | UOp::Ld { .. }) {
            self.mem_last = Some(k);
        } else {
            self.alu_ready = self.alu_ready.max(k + (di.lat as u32).max(1));
        }
    }
}

/// Compiles the window around the trap at `trap_pc`, or `None` if any
/// constituent falls outside the closed set the SASSI trampoline
/// generator emits (unguarded `MOV`, `IADD`, `LOP`, `SEL`, `P2R`,
/// `R2P`, 32/64-bit `STL`/`LDL` through R1; no `LDL` before the trap,
/// no R1 write besides the push and the pop).
pub(crate) fn compile(code: &[DecodedInstr], w: Window, trap_pc: usize) -> Option<Trampoline> {
    let window = code.get(w.push..=w.pop)?;
    if window.iter().any(|di| di.guard != GUARD_ALWAYS) {
        return None;
    }
    let sp_adjust = |di: &DecodedInstr| match di.uop {
        UOp::IAdd {
            d,
            a,
            b: DSrc::Imm(v),
            x: false,
            cc: false,
        } if d == Gpr::SP && a == Gpr::SP => Some(v),
        _ => None,
    };
    let push_imm = sp_adjust(&code[w.push])?;
    let pop_imm = sp_adjust(&code[w.pop])?;
    let UOp::Trap { handler, site } = code[trap_pc].uop else {
        return None;
    };

    let (kt, last) = (trap_pc - w.push, window.len() - 1);
    let mut pre = Lowerer::new(true);
    let mut pre_t = Timing::default();
    pre_t.add(0, &window[0]);
    for (k, di) in window.iter().enumerate().take(kt).skip(1) {
        pre.lower(&di.uop)?;
        pre_t.add(k as u32, di);
    }
    pre_t.issue.bump(window[kt].class);

    let mut post = Lowerer::new(false);
    let mut post_t = Timing::default();
    for (k, di) in window.iter().enumerate().take(last).skip(kt + 1) {
        post.lower(&di.uop)?;
        post_t.add(k as u32, di);
    }
    post_t.add(last as u32, &window[last]);
    post.ops.push(TOp::Add {
        d: SP,
        a: TSrc::Reg(SP),
        b: TSrc::Imm(pop_imm),
        x: false,
        cc: false,
    });

    // The pre-part never loads, so only each word's last store is
    // observable; lane-uniform words move to the frame template.
    let mut seen = Vec::new();
    let mut frame_imm = Vec::new();
    let mut pre_ops = Vec::new();
    for op in pre.ops.iter().rev() {
        if let TOp::St { off, v } = *op {
            if seen.contains(&off) {
                continue;
            }
            seen.push(off);
            if let TSrc::Imm(v) = v {
                frame_imm.push((off, v));
                continue;
            }
        }
        pre_ops.push(*op);
    }
    pre_ops.reverse();
    frame_imm.sort_unstable();
    let reg_imm: Vec<(u8, u32)> = (0..=u8::MAX)
        .filter_map(|r| pre.known[r as usize].map(|v| (r, v)))
        .collect();

    Some(Trampoline {
        push: code[w.push].uop,
        push_imm,
        pre: group_regs(pre_ops).into(),
        frame: frame_imm.into(),
        reg_imm: reg_imm.into(),
        pre_end: pre.end,
        post: group_regs(post.ops).into(),
        post_end: post.end,
        max_reg: pre.max_reg.max(post.max_reg),
        n_pre: kt as u32,
        n_post: (w.pop - trap_pc) as u32,
        handler,
        site,
        pre_issue: pre_t.issue,
        post_issue: post_t.issue,
        pre_alu_ready: pre_t.alu_ready,
        pre_mem_last: pre_t.mem_last,
        post_alu_ready: post_t.alu_ready,
        post_mem_last: post_t.mem_last,
    })
}

/// Merges runs of consecutive register stores (loads) whose frame
/// offset is `base + 4 * register`, in ascending register order, into
/// one [`TOp::StRegs`] ([`TOp::LdRegs`]). Such a run reads (writes)
/// distinct registers and writes (reads) distinct words, so its order
/// is immaterial.
fn group_regs(ops: Vec<TOp>) -> Vec<TOp> {
    let slot = |op: &TOp| match *op {
        TOp::St {
            off,
            v: TSrc::Reg(r),
        } if r < 32 && off >= 4 * r as u16 => Some((false, off - 4 * r as u16, r)),
        TOp::Ld { d, off } if d < 32 && off >= 4 * d as u16 => Some((true, off - 4 * d as u16, d)),
        _ => None,
    };
    let mut out: Vec<TOp> = Vec::with_capacity(ops.len());
    let mut last: Option<(bool, u16, u8)> = None;
    for op in ops {
        let s = slot(&op);
        match (s, last, out.last_mut()) {
            (Some((ld, base, r)), Some((ld0, base0, r0)), Some(top))
                if ld == ld0 && base == base0 && r > r0 =>
            {
                match top {
                    TOp::StRegs { mask, .. } | TOp::LdRegs { mask, .. } => *mask |= 1 << r,
                    _ => {
                        *top = if ld {
                            TOp::LdRegs {
                                base,
                                mask: 1 << r0 | 1 << r,
                            }
                        } else {
                            TOp::StRegs {
                                base,
                                mask: 1 << r0 | 1 << r,
                            }
                        }
                    }
                }
            }
            _ => out.push(op),
        }
        last = s;
    }
    out
}

impl Trampoline {
    /// The local row of the frame of a part that starts at R1 +
    /// `adjust` and spans `end` bytes, if the warp can run that part
    /// fused without faulting: every active lane has the same frame
    /// pointer, it is word-aligned, the frame lies inside the local
    /// slab, and every register the window names is provisioned.
    fn frame_row(&self, w: &Warp, adjust: u32, end: u32) -> Option<usize> {
        if self.max_reg as u32 >= w.regs_per_thread() {
            return None;
        }
        let sp = &w.regs[32 * SP as usize..][..32];
        let r1 = sp[w.leader()?];
        if !lanes(w.active).all(|l| sp[l] == r1) {
            return None;
        }
        let fp = r1.wrapping_add(adjust);
        (fp.is_multiple_of(4) && fp as u64 + end as u64 <= w.local_bytes() as u64)
            .then_some(fp as usize / 4)
    }

    /// The frame row of the pre-part (push through the µop before the
    /// trap), if it can run fused for this warp.
    pub(crate) fn pre_frame(&self, w: &Warp) -> Option<usize> {
        self.frame_row(w, self.push_imm, self.pre_end)
    }

    /// The frame row of the post-part (trap + 1 through the pop), if it
    /// can run fused.
    pub(crate) fn post_frame(&self, w: &Warp) -> Option<usize> {
        self.frame_row(w, 0, self.post_end)
    }

    /// Runs the pre-part over the active lanes, whose frame starts at
    /// local row `frame` (from [`Trampoline::pre_frame`]).
    pub(crate) fn run_pre(&self, w: &mut Warp, frame: usize, cbank: &[u8]) {
        let act = Active::new(w.active);
        let top = w.store_local_rows(frame);
        let regs = rows(w).0;
        let sp = regs[SP as usize].map(|v| v.wrapping_add(self.push_imm));
        act.put(&mut regs[SP as usize], &sp);
        run_ops(&self.pre, &act, w, top, cbank);
        let (regs, local) = rows(w);
        for &(off, v) in self.frame.iter() {
            act.put(&mut local[top - (off >> 2) as usize], &[v; 32]);
        }
        for &(d, v) in self.reg_imm.iter() {
            act.put(&mut regs[d as usize], &[v; 32]);
        }
    }

    /// Runs the post-part over the active lanes, whose frame starts at
    /// local row `frame` (from [`Trampoline::post_frame`]).
    pub(crate) fn run_post(&self, w: &mut Warp, frame: usize, cbank: &[u8]) {
        let act = Active::new(w.active);
        let top = w.store_local_rows(frame);
        run_ops(&self.post, &act, w, top, cbank);
    }
}

/// The warp's register file and its stored local memory as lane rows
/// (local rows top down, see [`Warp::store_local_rows`]).
fn rows(w: &mut Warp) -> (&mut [LaneRow], &mut [LaneRow]) {
    (w.regs.as_chunks_mut().0, w.local.as_chunks_mut().0)
}

/// The active lanes of a fused part. Ops compute all 32 lanes — every
/// fused op is a pure word operation, so inactive lanes compute
/// harmless values — and write back only the active ones: a whole-row
/// copy on a full warp, a branch-free per-lane select otherwise.
struct Active {
    full: bool,
    /// All ones in active lanes, zero elsewhere.
    sel: LaneRow,
}

impl Active {
    fn new(mask: LaneMask) -> Active {
        Active {
            full: mask == FULL_MASK,
            sel: std::array::from_fn(|l| 0u32.wrapping_sub(mask >> l & 1)),
        }
    }

    /// Writes `v` into the active lanes of `dst`.
    #[inline(always)]
    fn put(&self, dst: &mut LaneRow, v: &LaneRow) {
        if self.full {
            *dst = *v;
        } else {
            for l in 0..32 {
                dst[l] = (v[l] & self.sel[l]) | (dst[l] & !self.sel[l]);
            }
        }
    }

    /// Whether lane `l` is active.
    #[inline(always)]
    fn on(&self, l: usize) -> bool {
        self.sel[l] != 0
    }
}

/// An operand's value in every lane.
#[inline(always)]
fn row(s: TSrc, regs: &[LaneRow], cbank: &[u8]) -> LaneRow {
    match s {
        TSrc::Reg(i) => regs[i as usize],
        TSrc::Imm(v) => [v; 32],
        TSrc::C0(o) => [c0_read_img(cbank, o); 32],
    }
}

/// Runs `ops` op by op over the warp's active lanes. The frame's first
/// row is stored row `top`; frame offset `off` is stored row
/// `top - off / 4`, since stored rows run top down.
fn run_ops(ops: &[TOp], act: &Active, w: &mut Warp, top: usize, cbank: &[u8]) {
    let Warp {
        regs,
        local,
        preds,
        cc,
        ..
    } = w;
    let (regs, local) = (regs.as_chunks_mut().0, local.as_chunks_mut().0);
    let slot = |off: u16| top - (off >> 2) as usize;
    for op in ops {
        match *op {
            TOp::Mov { d, a } => {
                let a = row(a, regs, cbank);
                act.put(&mut regs[d as usize], &a);
            }
            TOp::Add {
                d,
                a,
                b,
                x,
                cc: set_cc,
            } => {
                let (a, b) = (row(a, regs, cbank), row(b, regs, cbank));
                let sum: [u64; 32] =
                    std::array::from_fn(|l| a[l] as u64 + b[l] as u64 + (x && cc[l]) as u64);
                if d != RZ {
                    act.put(&mut regs[d as usize], &sum.map(|s| s as u32));
                }
                if set_cc {
                    for l in 0..32 {
                        cc[l] = if act.on(l) { sum[l] >> 32 != 0 } else { cc[l] };
                    }
                }
            }
            TOp::Lop { d, op, a, b, inv_b } => {
                let (a, b) = (row(a, regs, cbank), row(b, regs, cbank));
                let v = std::array::from_fn(|l| op.eval(a[l], if inv_b { !b[l] } else { b[l] }));
                act.put(&mut regs[d as usize], &v);
            }
            TOp::Sel { d, a, b, p, neg } => {
                let (a, b) = (row(a, regs, cbank), row(b, regs, cbank));
                let v = std::array::from_fn(|l| {
                    let taken = (p == PT || preds[l] & (1 << p) != 0) != neg;
                    if taken {
                        a[l]
                    } else {
                        b[l]
                    }
                });
                act.put(&mut regs[d as usize], &v);
            }
            TOp::P2R { d } => act.put(&mut regs[d as usize], &preds.map(|p| (p & 0x7f) as u32)),
            TOp::R2P { a } => {
                let a = row(a, regs, cbank);
                for l in 0..32 {
                    preds[l] = if act.on(l) {
                        (a[l] & 0x7f) as u8
                    } else {
                        preds[l]
                    };
                }
            }
            TOp::St { off, v } => act.put(&mut local[slot(off)], &row(v, regs, cbank)),
            TOp::Ld { d, off } => act.put(&mut regs[d as usize], &local[slot(off)]),
            // `lanes` walks the set bits of any mask: here, registers.
            TOp::StRegs { base, mask } => {
                for i in lanes(mask) {
                    act.put(&mut local[slot(base) - i], &regs[i]);
                }
            }
            TOp::LdRegs { base, mask } => {
                for i in lanes(mask) {
                    act.put(&mut regs[i], &local[slot(base) - i]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;
    use sassi_isa::{Function, FunctionMeta, Label};

    fn iadd_sp(v: i32) -> Instr {
        Instr::new(Op::IAdd {
            d: Gpr::SP,
            a: Gpr::SP,
            b: Src::Imm(v as u32),
            x: false,
            cc: false,
        })
    }

    fn stl(off: i32, v: u8, spill: bool) -> Instr {
        Instr::new(Op::St {
            v: Gpr::new(v),
            width: MemWidth::B32,
            addr: MemAddr::local(Gpr::SP, off),
            spill,
        })
    }

    fn ldl(d: u8, off: i32) -> Instr {
        Instr::new(Op::Ld {
            d: Gpr::new(d),
            width: MemWidth::B32,
            addr: MemAddr::local(Gpr::SP, off),
            spill: true,
        })
    }

    fn mov32i(d: u8, imm: u32) -> Instr {
        Instr::new(Op::Mov32I {
            d: Gpr::new(d),
            imm,
        })
    }

    fn jcal(h: u32) -> Instr {
        Instr::new(Op::Jcal {
            target: Label::Handler(h),
        })
    }

    fn module_of(instrs: Vec<Instr>) -> Module {
        Module::link(&[Function::new("k", instrs, FunctionMeta::default())]).unwrap()
    }

    /// A minimal trampoline: push, one spill, a staged constant, the
    /// call, the restore and the pop.
    fn tiny() -> Vec<Instr> {
        vec![
            iadd_sp(-16),    // 0
            stl(0, 2, true), // 1
            mov32i(3, 7),    // 2
            stl(4, 3, false),
            mov32i(3, 9), // 4: overwrites the staging value
            stl(4, 3, false),
            jcal(0),   // 6
            ldl(2, 0), // 7
            iadd_sp(16),
            Instr::new(Op::Exit),
        ]
    }

    #[test]
    fn window_scan_matches_save_restore_bounds() {
        let code = tiny();
        let w = window_at(&code, 6).unwrap();
        assert_eq!((w.push, w.pop, w.save_restore), (0, 8, 2));
        // A bare trap has no window.
        let bare = vec![Instr::new(Op::Nop), jcal(0), Instr::new(Op::Exit)];
        assert_eq!(window_at(&bare, 1), None);
        // Another call between push and trap closes the window.
        let mut nested = tiny();
        nested.insert(3, jcal(1));
        assert_eq!(window_at(&nested, 7), None);
    }

    #[test]
    fn compile_folds_staging_constants_and_dead_stores() {
        let m = module_of(tiny());
        let d = m.decoded();
        let t = d.trampoline_at(0).expect("tiny window fuses");
        assert_eq!((t.n_pre, t.n_post), (6, 2));
        assert_eq!(t.push_imm, (-16i32) as u32);
        // The spill stays lane-varying; the staged word keeps only its
        // last value; R3 ends as the last staged constant.
        assert_eq!(
            &*t.pre,
            &[TOp::St {
                off: 0,
                v: TSrc::Reg(2)
            }]
        );
        assert_eq!(&*t.frame, &[(4, 9)]);
        assert_eq!(&*t.reg_imm, &[(3, 9)]);
        assert_eq!((t.pre_end, t.post_end), (8, 4));
        // Stores at 1, 3, 5; ALU µops at 0, 2, 4 (lat 2); trap at 6.
        assert_eq!(t.pre_mem_last, Some(5));
        assert_eq!(t.pre_alu_ready, 6);
        assert_eq!(t.post_mem_last, Some(7));
        assert_eq!(t.post_alu_ready, 10);
        assert_eq!(t.pre_issue.total(), 7);
        assert_eq!(t.post_issue.total(), 2);
        assert_eq!(d.get(1).unwrap().class, crate::stats::IssueClass::Memory);
    }

    #[test]
    fn parts_fuse_only_on_a_shared_aligned_in_slab_frame() {
        let m = module_of(tiny());
        let d = m.decoded();
        let t = d.trampoline_at(0).expect("tiny window fuses");
        let mut w = Warp::new(0, 0, 0, u32::MAX, 8, 256);
        // R1 = 256 on every lane: the pushed frame starts at 240.
        assert_eq!(t.pre_frame(&w), Some(240 / 4));
        assert_eq!(t.post_frame(&w), None, "a frame at the slab's top");
        // Lanes that disagree on R1 fall back, unless only the lanes
        // that agree are active.
        w.regs[32 + 7] = 128;
        assert_eq!(t.pre_frame(&w), None);
        w.active = !(1 << 7);
        assert_eq!(t.pre_frame(&w), Some(240 / 4));
        w.active = 1 << 7;
        assert_eq!(t.pre_frame(&w), Some(112 / 4));
        // A misaligned frame pointer, a frame below the slab (the push
        // wraps) and a warp without active lanes fall back too.
        w.regs[32..64].fill(130);
        assert_eq!(t.pre_frame(&w), None);
        w.regs[32..64].fill(8);
        assert_eq!(t.pre_frame(&w), None);
        w.active = 0;
        assert_eq!(t.pre_frame(&w), None);
    }

    #[test]
    fn out_of_set_constituents_do_not_fuse() {
        // A guarded constituent.
        let mut code = tiny();
        code[2] = Instr::guarded(
            sassi_isa::Guard::on(sassi_isa::PredReg::new(0)),
            mov32i(3, 7).op,
        );
        assert!(module_of(code).decoded().trampoline_at(0).is_none());
        // A load before the trap.
        let mut code = tiny();
        code[3] = ldl(3, 4);
        assert!(module_of(code).decoded().trampoline_at(0).is_none());
        // An R1 write inside the window.
        let mut code = tiny();
        code[2] = mov32i(1, 7);
        assert!(module_of(code).decoded().trampoline_at(0).is_none());
        // A µop outside the closed set.
        let mut code = tiny();
        code[2] = Instr::new(Op::Popc {
            d: Gpr::new(3),
            a: Gpr::new(2),
        });
        assert!(module_of(code).decoded().trampoline_at(0).is_none());
    }
}
