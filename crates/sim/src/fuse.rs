//! Fused trampolines: SASSI's inserted ABI code run as one macro-µop.
//!
//! Every native-handler instrumentation site is wrapped in a trampoline
//! (`sassi::trampoline`): a stack push, GPR spills, parameter-object
//! stores, predicate and carry saves, the handler trap, the restores
//! and the pop — 30 to 60 µops per site, nearly all of them moving
//! words between a lane's registers and its own stack frame. Decode
//! finds each such *window* and compiles it into a [`Trampoline`]: a
//! short per-lane program the block-stepped interpreter runs lane by
//! lane in one step instead of dispatching every constituent µop over
//! the whole warp.
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
//! part first checks that every active lane's frame lies inside its
//! local slab (one check per lane instead of one per `STL`/`LDL`), and
//! if any lane fails, that part runs µop by µop on the ordinary path,
//! which raises the exact fault at the exact pc. The unfused µops stay
//! in the decoded array for this, for single-stepping, and for branch
//! targets that land inside a window.

use crate::decode::{DSrc, DecodedInstr, UOp, GUARD_ALWAYS};
use crate::device::c0_read_img;
use crate::stats::IssueCounters;
use crate::warp::Warp;
use sassi_isa::{AddrSpace, Gpr, Instr, LogicOp, MemAddr, MemWidth, Op, Src};

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

/// One per-lane operation of a fused trampoline part. Frame offsets
/// are relative to the part's frame pointer (R1 after the push).
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
    /// Lane-uniform frame bytes the pre-part stores, as runs of
    /// `(frame offset, start, len)` into `frame_bytes`.
    frame_runs: Box<[(u16, u16, u16)]>,
    /// The bytes of every lane-uniform frame run, concatenated.
    frame_bytes: Box<[u8]>,
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
    let mut frame_runs: Vec<(u16, u16, u16)> = Vec::new();
    let mut frame_bytes = Vec::new();
    for (off, v) in frame_imm {
        match frame_runs.last_mut() {
            Some((o, _, len)) if *o + *len == off => *len += 4,
            _ => frame_runs.push((off, frame_bytes.len() as u16, 4)),
        }
        frame_bytes.extend_from_slice(&v.to_le_bytes());
    }
    let reg_imm: Vec<(u8, u32)> = (0..=u8::MAX)
        .filter_map(|r| pre.known[r as usize].map(|v| (r, v)))
        .collect();

    Some(Trampoline {
        push: code[w.push].uop,
        push_imm,
        pre: group_regs(pre_ops).into(),
        frame_runs: frame_runs.into(),
        frame_bytes: frame_bytes.into(),
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
    /// Whether every active lane can run a part whose frame starts at
    /// R1 + `adjust` and spans `end` bytes without faulting: the frame
    /// lies inside the lane's local slab and every register the window
    /// names is provisioned.
    fn fits(&self, w: &Warp, adjust: u32, end: u32) -> bool {
        let rpt = w.regs_per_thread() as usize;
        if self.max_reg as usize >= rpt {
            return false;
        }
        let slab = w.local_bytes() as u64;
        let mut m = w.active;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let fp = w.regs[lane * rpt + SP as usize].wrapping_add(adjust);
            if fp as u64 + end as u64 > slab {
                return false;
            }
        }
        true
    }

    /// Whether the pre-part (push through the µop before the trap) can
    /// run fused for this warp.
    pub(crate) fn pre_fits(&self, w: &Warp) -> bool {
        self.fits(w, self.push_imm, self.pre_end)
    }

    /// Whether the post-part (trap + 1 through the pop) can run fused.
    pub(crate) fn post_fits(&self, w: &Warp) -> bool {
        self.fits(w, 0, self.post_end)
    }

    /// Runs the pre-part on every active lane. Requires
    /// [`Trampoline::pre_fits`].
    pub(crate) fn run_pre(&self, w: &mut Warp, cbank: &[u8]) {
        for_each_lane(w, |r, slab, p, c| {
            let fp = r[SP as usize].wrapping_add(self.push_imm);
            r[SP as usize] = fp;
            let frame = &mut slab[fp as usize..][..self.pre_end as usize];
            run_ops(&self.pre, r, frame, p, c, cbank);
            for &(off, start, len) in self.frame_runs.iter() {
                let (off, start, len) = (off as usize, start as usize, len as usize);
                frame[off..off + len].copy_from_slice(&self.frame_bytes[start..start + len]);
            }
            for &(d, v) in self.reg_imm.iter() {
                r[d as usize] = v;
            }
        });
    }

    /// Runs the post-part on every active lane. Requires
    /// [`Trampoline::post_fits`].
    pub(crate) fn run_post(&self, w: &mut Warp, cbank: &[u8]) {
        for_each_lane(w, |r, slab, p, c| {
            let frame = &mut slab[r[SP as usize] as usize..][..self.post_end as usize];
            run_ops(&self.post, r, frame, p, c, cbank);
        });
    }
}

/// Calls `f` for every active lane, in ascending order, with the lane's
/// registers, local slab, predicate bits and carry flag.
#[inline(always)]
fn for_each_lane(w: &mut Warp, mut f: impl FnMut(&mut [u32], &mut [u8], &mut u8, &mut bool)) {
    let rpt = w.regs_per_thread() as usize;
    let slab = w.local_bytes() as usize;
    let Warp {
        regs,
        local,
        preds,
        cc,
        active,
        ..
    } = w;
    let mut m = *active;
    while m != 0 {
        let lane = m.trailing_zeros() as usize;
        m &= m - 1;
        f(
            &mut regs[lane * rpt..][..rpt],
            &mut local[lane * slab..][..slab],
            &mut preds[lane],
            &mut cc[lane],
        );
    }
}

#[inline(always)]
fn put(frame: &mut [u8], off: u16, v: u32) {
    let off = off as usize;
    frame[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

#[inline(always)]
fn get(frame: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(frame[off..off + 4].try_into().expect("a 4-byte range"))
}

#[inline(always)]
fn val(s: TSrc, r: &[u32], cbank: &[u8]) -> u32 {
    match s {
        TSrc::Reg(i) => r[i as usize],
        TSrc::Imm(v) => v,
        TSrc::C0(o) => c0_read_img(cbank, o),
    }
}

/// Runs `ops` for one lane: `r` is its register file, `frame` its stack
/// frame, `p` and `c` its predicate bits and carry flag.
fn run_ops(ops: &[TOp], r: &mut [u32], frame: &mut [u8], p: &mut u8, c: &mut bool, cbank: &[u8]) {
    for op in ops {
        match *op {
            TOp::Mov { d, a } => r[d as usize] = val(a, r, cbank),
            TOp::Add { d, a, b, x, cc } => {
                let cin = if x { *c as u64 } else { 0 };
                let sum = val(a, r, cbank) as u64 + val(b, r, cbank) as u64 + cin;
                if d != RZ {
                    r[d as usize] = sum as u32;
                }
                if cc {
                    *c = sum >> 32 != 0;
                }
            }
            TOp::Lop { d, op, a, b, inv_b } => {
                let bv = val(b, r, cbank);
                r[d as usize] = op.eval(val(a, r, cbank), if inv_b { !bv } else { bv });
            }
            TOp::Sel {
                d,
                a,
                b,
                p: pi,
                neg,
            } => {
                let taken = (pi == PT || *p & (1 << pi) != 0) != neg;
                r[d as usize] = if taken {
                    val(a, r, cbank)
                } else {
                    val(b, r, cbank)
                };
            }
            TOp::P2R { d } => r[d as usize] = (*p & 0x7f) as u32,
            TOp::R2P { a } => *p = (val(a, r, cbank) & 0x7f) as u8,
            TOp::St { off, v } => put(frame, off, val(v, r, cbank)),
            TOp::Ld { d, off } => r[d as usize] = get(frame, off as usize),
            TOp::StRegs { base, mask } => {
                let mut m = mask;
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    put(frame, base + 4 * i as u16, r[i]);
                }
            }
            TOp::LdRegs { base, mask } => {
                let mut m = mask;
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    r[i] = get(frame, base as usize + 4 * i);
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
        assert_eq!(
            (&*t.frame_runs, &*t.frame_bytes),
            (&[(4, 0, 4)][..], &9u32.to_le_bytes()[..])
        );
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
