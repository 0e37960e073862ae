//! Fused trampoline macro-µops are exact.
//!
//! Decode compiles every SASSI trampoline window (stack push through
//! pop around a native-handler trap) into one macro-µop that the
//! block-stepped interpreter runs lane by lane. These tests pin the
//! contract: the fused run is identical to running the same window
//! constituent by constituent under block stepping — registers,
//! predicates, carry flags and local-slab bytes at every trap and at
//! exit, `ready_at` and `TrapCtx::cycle` at every trap, the final cycle
//! count and every `LaunchStats` and `HierarchyStats` counter — and it
//! agrees with the single-stepped and reference interpreters on
//! everything that does not depend on the cycle model.
//!
//! The unfused oracle is the same instrumented function with each push
//! written as the equivalent `ISUB` (see `common::defeat_fusion`), which
//! decode does not recognize as a window.

mod common;

use common::defeat_fusion;
use proptest::prelude::*;
use sassi::{FnHandler, HandlerCost, InfoFlags, Sassi, SiteFilter, SpillPolicy};
use sassi_isa::{
    cbank0, CBankAddr, CmpOp, Function, FunctionMeta, Gpr, Guard, Instr, Label, LogicOp, MemAddr,
    MemWidth, Op, PredReg, SpecialReg, Src,
};
use sassi_sim::{
    DecodedInstr, Device, ExecMode, LaunchDims, LaunchResult, LaunchStats, Module, Warp,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Register dump stride in the output buffer: one 512-byte row per
/// register, one word per thread (two blocks of at most 64 threads).
const ROW: i32 = 512;
/// Registers dumped at exit (R24 holds the predicates, R25 the carry).
const DUMPED: [u8; 25] = [
    0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
];

fn g(n: u8) -> Gpr {
    Gpr::new(n)
}

fn op(o: Op) -> Instr {
    Instr::new(o)
}

fn iadd(d: Gpr, a: Gpr, b: Src, x: bool, cc: bool) -> Instr {
    op(Op::IAdd { d, a, b, x, cc })
}

fn st(v: Gpr, addr: MemAddr) -> Instr {
    op(Op::St {
        v,
        width: MemWidth::B32,
        addr,
        spill: false,
    })
}

fn ld(d: Gpr, addr: MemAddr) -> Instr {
    op(Op::Ld {
        d,
        width: MemWidth::B32,
        addr,
        spill: false,
    })
}

/// A kernel with lane-varying registers, predicates and carry, lanes
/// retired by a guarded `EXIT`, and a body covering every trampoline
/// shape: plain, guarded and carry-reading register writes, predicate
/// writes, global/local/shared loads and stores, and a divergent
/// conditional branch (unless `straight`). It ends by dumping its
/// registers, predicates and carry flag to the output buffer.
fn kernel(seeds: &[u32], straight: bool) -> Function {
    let mut c = vec![
        // Own stack frame, so local accesses through R1 are in bounds.
        iadd(Gpr::SP, Gpr::SP, Src::Imm((-32i32) as u32), false, false),
        op(Op::S2R {
            d: g(0),
            sr: SpecialReg::TidX,
        }),
        // R20 = 4 * tid (shared address); R18:R19 = out + 4 * (64 *
        // ctaid + tid).
        op(Op::Mov {
            d: g(16),
            a: Src::Const(CBankAddr::new(0, cbank0::PARAM_BASE)),
        }),
        op(Op::Mov {
            d: g(17),
            a: Src::Const(CBankAddr::new(0, cbank0::PARAM_BASE + 4)),
        }),
        op(Op::Shl {
            d: g(20),
            a: g(0),
            b: Src::Imm(2),
        }),
        op(Op::S2R {
            d: g(24),
            sr: SpecialReg::CtaIdX,
        }),
        op(Op::Shl {
            d: g(24),
            a: g(24),
            b: Src::Imm(8),
        }),
        iadd(g(24), g(24), Src::Reg(g(20)), false, false),
        iadd(g(18), g(16), Src::Reg(g(24)), false, true),
        iadd(g(19), g(17), Src::Reg(Gpr::RZ), true, false),
    ];
    // Lane-varying register values.
    for (i, r) in [2u8, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 21]
        .into_iter()
        .enumerate()
    {
        c.push(op(Op::Mov32I {
            d: g(r),
            imm: seeds[2 * i],
        }));
        c.push(op(Op::IMad {
            d: g(r),
            a: g(0),
            b: Src::Imm(seeds[2 * i + 1] | 1),
            c: g(r),
        }));
    }
    // Lane-varying predicates P0..P6 and carry.
    for j in 0..7u8 {
        c.push(op(Op::ISetP {
            p: PredReg::new(j),
            cmp: CmpOp::Lt,
            a: g(2 + j),
            b: Src::Imm(seeds[30 + j as usize]),
            signed: false,
            combine: None,
        }));
    }
    c.push(iadd(Gpr::RZ, g(9), Src::Imm(seeds[37]), false, true));
    // Retire some lanes (P6 also stands for "no lane exits" often
    // enough when its threshold is low).
    c.push(Instr::guarded(Guard::on(PredReg::new(6)), Op::Exit));

    // The instrumented body.
    c.push(iadd(g(5), g(6), Src::Reg(g(7)), false, false));
    c.push(Instr::guarded(
        Guard::on(PredReg::new(1)),
        Op::IAdd {
            d: g(9),
            a: g(9),
            b: Src::Imm(3),
            x: false,
            cc: false,
        },
    ));
    c.push(iadd(g(12), g(12), Src::Reg(g(13)), true, true));
    c.push(op(Op::ISetP {
        p: PredReg::new(4),
        cmp: CmpOp::Lt,
        a: g(10),
        b: Src::Reg(g(11)),
        signed: true,
        combine: None,
    }));
    c.push(op(Op::Lop {
        d: g(14),
        op: LogicOp::Xor,
        a: g(14),
        b: Src::Reg(g(15)),
        inv_b: false,
    }));
    c.push(st(g(5), MemAddr::global(g(18), 0)));
    c.push(ld(g(21), MemAddr::global(g(18), 0)));
    c.push(st(g(6), MemAddr::local(Gpr::SP, 8)));
    c.push(ld(g(22), MemAddr::local(Gpr::SP, 8)));
    c.push(st(g(7), MemAddr::shared(g(20), 0)));
    c.push(ld(g(23), MemAddr::shared(g(20), 0)));
    // if (P2) R11 += 7 else R10 += 5, reconverging at `end`.
    let mut sync_reconv = BTreeMap::new();
    let mut block_headers = vec![0];
    if !straight {
        let ssy = c.len() as u32;
        let (then_pc, end_pc) = (ssy + 4, ssy + 6);
        c.push(op(Op::Ssy {
            target: Label::Pc(end_pc),
        }));
        c.push(Instr::guarded(
            Guard::on(PredReg::new(2)),
            Op::Bra {
                target: Label::Pc(then_pc),
                uniform: false,
            },
        ));
        c.push(iadd(g(10), g(10), Src::Imm(5), false, false));
        c.push(op(Op::Sync));
        c.push(iadd(g(11), g(11), Src::Imm(7), false, false));
        c.push(op(Op::Sync));
        sync_reconv.insert(ssy + 3, end_pc);
        sync_reconv.insert(ssy + 5, end_pc);
        block_headers.extend([ssy + 2, then_pc, end_pc]);
    }

    // Dump.
    c.push(op(Op::P2R { d: g(24) }));
    c.push(iadd(g(25), Gpr::RZ, Src::Reg(Gpr::RZ), true, false));
    for (k, r) in DUMPED.into_iter().enumerate() {
        c.push(st(g(r), MemAddr::global(g(18), ROW * k as i32)));
    }
    c.push(op(Op::Exit));

    let meta = FunctionMeta {
        sync_reconv,
        block_headers,
        frame_bytes: 32,
        shared_bytes: 4 * 64,
        reg_high_water: 26,
        uses_barrier: false,
    };
    Function::new("k", c, meta)
}

/// What a handler saw at one trap.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Obs {
    cta: u32,
    warp: u32,
    seq: u32,
    cycle: u64,
    ready_at: u64,
    active: u32,
    regs: Vec<u32>,
    preds: [u8; 32],
    cc: [bool; 32],
    local: u64,
}

impl Obs {
    /// The observation minus its cycle-model fields, for comparison
    /// with interpreters that schedule differently.
    fn functional(&self) -> Obs {
        Obs {
            cycle: 0,
            ready_at: 0,
            ..self.clone()
        }
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn observe(w: &Warp, cta: u32, seq: u32, cycle: u64) -> Obs {
    Obs {
        cta,
        warp: w.warp_in_cta,
        seq,
        cycle,
        ready_at: w.ready_at,
        active: w.active,
        regs: w.regs.clone(),
        preds: w.preds,
        cc: w.cc,
        local: fnv(&w.local),
    }
}

/// Site configuration of one case.
#[derive(Clone, Copy, Debug)]
struct Sites {
    after: bool,
    what: InfoFlags,
    policy: SpillPolicy,
    /// Also instrument the opposite point (adjacent windows).
    both: bool,
    /// The handler rewrites registers, predicates, carry and a frame
    /// spill slot, so the post-part must restore from real loads.
    mutate: bool,
}

type Log = Arc<Mutex<Vec<Obs>>>;

/// A handler that records every trap and, with `mutate`, perturbs the
/// warp as a function of the warp's own trap count (so every
/// interpreter, whatever its warp interleaving, applies the same
/// perturbations).
fn recorder(
    log: Log,
    mutate: bool,
) -> Box<FnHandler<impl FnMut(&mut sassi::SiteCtx<'_, '_>) + Send>> {
    let mut seqs: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    Box::new(FnHandler::new(
        HandlerCost {
            instructions: 3,
            memory_ops: 1,
            atomics: 0,
        },
        move |ctx| {
            let t = &mut *ctx.trap;
            let key = (t.ctaid.0, t.warp.warp_in_cta);
            let seq = seqs.entry(key).or_default();
            let k = *seq;
            *seq += 1;
            log.lock().unwrap().push(observe(t.warp, key.0, k, t.cycle));
            if !mutate || k % 3 != 1 {
                return;
            }
            let r = Gpr::new(2 + (k % 14) as u8);
            let slot = Gpr::new(2 + ((k + 5) % 14) as u8);
            let p = PredReg::new((k % 7) as u8);
            let mut m = t.warp.active;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                let v = t.reg(lane, r);
                t.set_reg(lane, r, v ^ (1 << (k % 32)));
                let pv = t.pred(lane, p);
                t.set_pred(lane, p, !pv);
                let c = t.cc(lane);
                t.set_cc(lane, !c);
                // The spill slot of `slot` in SASSIBeforeParams.
                let bp = t.abi_param(lane, 0);
                let addr = bp + 0x18 + 4 * slot.index() as u64;
                let _ = t.write_generic_u32(lane, addr, 0x5a5a_0000 | k);
            }
        },
    ))
}

fn instrumentor(s: &Sites, log: &Log) -> Sassi {
    let mut sassi = Sassi::new();
    sassi.set_spill_policy(s.policy);
    let h = || recorder(log.clone(), s.mutate);
    if s.after || s.both {
        sassi.on_after(
            SiteFilter::ALL,
            if s.after { s.what } else { InfoFlags::NONE },
            h(),
        );
    }
    if !s.after || s.both {
        sassi.on_before(
            SiteFilter::ALL,
            if s.after { InfoFlags::NONE } else { s.what },
            h(),
        );
    }
    sassi
}

struct Run {
    result: LaunchResult,
    out: Vec<u32>,
    log: Vec<Obs>,
}

fn run(module: &Module, s: &Sites, dims: LaunchDims, mode: ExecMode, block_step: bool) -> Run {
    let log: Log = Arc::default();
    let mut sassi = instrumentor(s, &log);
    let mut dev = Device::with_defaults();
    dev.exec_mode = mode;
    dev.block_step = block_step;
    let words = (ROW as u64 / 4) * DUMPED.len() as u64;
    let out = dev.mem.alloc(words * 4, 8).unwrap();
    let result = dev
        .launch(module, "k", dims, &[out], &mut sassi, 0, 1 << 32)
        .unwrap();
    let out = (0..words)
        .map(|i| dev.mem.read_u32(out + 4 * i).unwrap())
        .collect();
    let log = log.lock().unwrap().clone();
    Run { result, out, log }
}

/// Every instruction-derived counter (everything but the cycle model).
fn work(s: &LaunchStats) -> [u64; 10] {
    [
        s.warp_instrs,
        s.thread_instrs,
        s.divergent_branches,
        s.cond_branches,
        s.handler_calls,
        s.handler_cycles,
        s.issue.memory,
        s.issue.control,
        s.issue.numeric,
        s.issue.misc,
    ]
}

fn sorted_functional(log: &[Obs]) -> Vec<Obs> {
    let mut v: Vec<Obs> = log.iter().map(Obs::functional).collect();
    v.sort_by_key(|o| (o.cta, o.warp, o.seq));
    v
}

fn check(seeds: &[u32], threads: u32, s: Sites) {
    let plain = kernel(seeds, false);
    let inst = instrumentor(&s, &Log::default()).apply(&plain, 0);
    let fused = Module::link(std::slice::from_ref(&inst)).unwrap();
    let unfused = Module::link(&[defeat_fusion(&inst)]).unwrap();
    let (df, du) = (fused.decoded(), unfused.decoded());
    assert!(df.trap_count() > 0);
    assert_eq!(df.fused_count(), df.trap_count(), "every window fuses");
    assert_eq!(du.fused_count(), 0, "the oracle must run unfused");

    let dims = LaunchDims::linear(2, threads);
    let f = run(&fused, &s, dims, ExecMode::Decoded, true);
    let u = run(&unfused, &s, dims, ExecMode::Decoded, true);
    let ctx = format!("{s:?}, threads {threads}");
    assert!(f.result.outcome.is_ok(), "{ctx}: {:?}", f.result.outcome);
    assert_eq!(
        f.result, u.result,
        "{ctx}: launch result (stats, cycles, memory system)"
    );
    assert_eq!(f.out, u.out, "{ctx}: final registers");
    assert_eq!(f.log.len(), u.log.len(), "{ctx}: trap count");
    for (a, b) in f.log.iter().zip(&u.log) {
        assert_eq!(a, b, "{ctx}: state, cycle or ready_at at a trap");
    }
    // `TrapCtx::cycle` advances strictly within each warp.
    let mut last: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for o in &f.log {
        if let Some(prev) = last.insert((o.cta, o.warp), o.cycle) {
            assert!(o.cycle > prev, "{ctx}: trap cycles must advance");
        }
    }

    // Against single-stepping and the reference interpreter: same
    // functional state everywhere, same instruction-derived counters.
    for (mode, label) in [
        (ExecMode::Decoded, "single-step"),
        (ExecMode::Reference, "reference"),
    ] {
        let r = run(&fused, &s, dims, mode, false);
        assert_eq!(r.result.outcome, f.result.outcome, "{ctx}: {label} outcome");
        assert_eq!(
            work(&r.result.stats),
            work(&f.result.stats),
            "{ctx}: {label} counters"
        );
        assert_eq!(r.out, f.out, "{ctx}: {label} final registers");
        assert_eq!(
            sorted_functional(&r.log),
            sorted_functional(&f.log),
            "{ctx}: {label} trap observations"
        );
    }
}

fn extra(k: u8) -> InfoFlags {
    match k % 4 {
        0 => InfoFlags::NONE,
        1 => InfoFlags::REGISTERS,
        2 => InfoFlags::MEMORY,
        _ => InfoFlags::COND_BRANCH,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random register, predicate and carry state, partial warps and
    /// exited lanes, both spill policies, every parameter-object kind,
    /// before and after sites (and both at once), with handlers that
    /// leave state alone or rewrite it.
    #[test]
    fn fused_trampolines_match_unfused_execution(
        seeds in prop::collection::vec(any::<u32>(), 38..39),
        threads in 1u32..65,
        shape in (0u8..4, any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let (what, after, save_all, both, mutate) = shape;
        let sites = Sites {
            after,
            what: extra(what),
            policy: if save_all { SpillPolicy::SaveEverything } else { SpillPolicy::Liveness },
            both,
            mutate,
        };
        check(&seeds, threads, sites);
    }
}

/// Every combination of point, parameter object and spill policy at a
/// fixed state, so no combination depends on the random draw.
#[test]
fn every_site_shape_is_exact() {
    let seeds: Vec<u32> = (0..38u32)
        .map(|i| i.wrapping_mul(0x9e37_79b9) ^ 0x5bd1_e995)
        .collect();
    for what in 0..4 {
        for after in [false, true] {
            for policy in [SpillPolicy::Liveness, SpillPolicy::SaveEverything] {
                for mutate in [false, true] {
                    let s = Sites {
                        after,
                        what: extra(what),
                        policy,
                        both: false,
                        mutate,
                    };
                    check(&seeds, 48, s);
                }
            }
        }
    }
}

/// A hand-written `JCAL handlerN` right after each trampoline has no
/// frame of its own, so it never fuses; its handler observes the
/// `ready_at` that the preceding window's last restore left on the
/// warp, which must match unfused execution.
#[test]
fn bare_trap_after_a_window_sees_the_same_ready_at() {
    let seeds: Vec<u32> = (0..38u32)
        .map(|i| i.wrapping_mul(0x2545_f491) ^ 77)
        .collect();
    let s = Sites {
        after: true,
        what: InfoFlags::REGISTERS,
        policy: SpillPolicy::Liveness,
        both: false,
        mutate: false,
    };
    let inst = instrumentor(&s, &Log::default()).apply(&kernel(&seeds, true), 0);
    let mut code = Vec::new();
    for ins in &inst.instrs {
        code.push(ins.clone());
        let pop = matches!(ins.op, Op::IAdd { d, a, b: Src::Imm(v), .. }
            if d == Gpr::SP && a == Gpr::SP && (v as i32) > 0);
        if pop {
            code.push(op(Op::Jcal {
                target: Label::Handler(0),
            }));
        }
    }
    let bare = Function::new("k", code, inst.meta.clone());
    let fused = Module::link(std::slice::from_ref(&bare)).unwrap();
    let unfused = Module::link(&[defeat_fusion(&bare)]).unwrap();
    let d = fused.decoded();
    assert_eq!(
        2 * d.fused_count(),
        d.trap_count(),
        "bare traps stay unfused"
    );
    let dims = LaunchDims::linear(2, 40);
    let f = run(&fused, &s, dims, ExecMode::Decoded, true);
    let u = run(&unfused, &s, dims, ExecMode::Decoded, true);
    assert!(f.result.outcome.is_ok(), "{:?}", f.result.outcome);
    assert_eq!(f.result, u.result);
    assert_eq!(f.out, u.out);
    assert_eq!(f.log, u.log, "trap observations, ready_at included");
}

/// The macro-µop reuses the decoded instruction header, so fusion must
/// not grow the µop array native kernels execute.
#[test]
fn decoded_instr_size_is_unchanged() {
    assert_eq!(std::mem::size_of::<DecodedInstr>(), 20);
}
