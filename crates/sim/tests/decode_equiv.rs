//! Differential tests: the pre-decoded µop interpreter
//! ([`ExecMode::Decoded`]) must be observationally identical to the
//! reference interpreter ([`ExecMode::Reference`], the original seed
//! semantics) — same outputs, same memory, same `LaunchStats` to the
//! cycle, same fault outcomes — across the whole benchmark registry, a
//! random kernel corpus, and hand-built fault-path modules.

use proptest::prelude::*;
use sassi::{FnHandler, InfoFlags, Sassi, SiteFilter};
use sassi_kir::{Compiler, KernelBuilder, V32};
use sassi_rt::{LaunchRecord, ModuleBuilder, Runtime};
use sassi_sim::{
    Device, ExecMode, FaultKind, KernelOutcome, LaunchDims, LaunchResult, LinkedFunction, Module,
    NoHandlers,
};
use sassi_workloads::{all_workloads, RunFailure, Workload, WorkloadOutput};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Registry workloads: every benchmark, both interpreters, everything
// observable compared.

fn run_workload(
    w: &dyn Workload,
    mode: ExecMode,
) -> (Result<WorkloadOutput, RunFailure>, Vec<LaunchRecord>) {
    let mut mb = ModuleBuilder::new();
    for k in w.kernels() {
        mb.add_kernel(k);
    }
    let module = mb.build(None).expect("build");
    let mut rt = Runtime::with_defaults();
    rt.device.exec_mode = mode;
    // This suite is the cycle-exact differential against the reference
    // interpreter, so the decoded engine must single-step: the
    // block-stepped scheduler is instruction-identical but folds
    // intra-block stalls, shifting cycle counts (its own equivalence
    // suite lives in `block_step.rs` / `shard_schedule.rs`).
    rt.device.block_step = false;
    let out = w.execute(&mut rt, &module, &mut NoHandlers);
    (out, rt.records().to_vec())
}

fn check_workload(w: &dyn Workload) {
    let name = w.name();
    let (out_d, rec_d) = run_workload(w, ExecMode::Decoded);
    let (out_r, rec_r) = run_workload(w, ExecMode::Reference);
    assert_eq!(out_d, out_r, "{name}: output diverges across exec modes");
    assert_eq!(
        rec_d.len(),
        rec_r.len(),
        "{name}: launch count diverges across exec modes"
    );
    for (d, r) in rec_d.iter().zip(&rec_r) {
        // LaunchRecord equality covers outcome, every LaunchStats
        // counter (cycles, instrs, divergence, issue-class breakdown)
        // and the memory-system counters.
        assert_eq!(d, r, "{name}: launch {} diverges", d.info.launch_index);
        assert_eq!(
            d.result.stats.issue.total(),
            d.result.stats.warp_instrs,
            "{name}: issue-class counters must partition warp_instrs"
        );
    }
}

#[test]
fn registry_workloads_agree_across_modes() {
    // Each workload runs twice (once per mode); spread them over worker
    // threads so the debug-profile suite stays fast.
    let workloads = all_workloads();
    let n_threads = 8;
    std::thread::scope(|s| {
        let mut chunks: Vec<Vec<Box<dyn Workload>>> = (0..n_threads).map(|_| Vec::new()).collect();
        for (i, w) in workloads.into_iter().enumerate() {
            chunks[i % n_threads].push(w);
        }
        for chunk in chunks {
            s.spawn(move || {
                for w in &chunk {
                    check_workload(w.as_ref());
                }
            });
        }
    });
}

// ---------------------------------------------------------------------
// Random kernel corpus: straight-line arithmetic and nested divergence,
// plain and fully instrumented (the instrumented variant exercises the
// Trap µop and the handler return path).

#[derive(Clone, Debug)]
enum Step {
    Add(usize, usize),
    Mul(usize, usize),
    Xor(usize, usize),
    Shl(usize, u32),
    SelLt(usize, usize, usize),
    If { bit: u8, then_n: u8, else_n: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Add(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Mul(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Xor(a, b)),
        (any::<usize>(), 0u32..32).prop_map(|(a, s)| Step::Shl(a, s)),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(a, b, c)| Step::SelLt(a, b, c)),
        (0u8..5, 1u8..4, 0u8..4).prop_map(|(bit, t, e)| Step::If {
            bit,
            then_n: t,
            else_n: e
        }),
    ]
}

fn build_kernel(seeds: &[u32], steps: &[Step]) -> sassi_kir::KFunction {
    let mut b = KernelBuilder::kernel("prog");
    let out = b.param_ptr(0);
    let tid = b.global_tid_x();
    let mut vals: Vec<V32> = seeds.iter().map(|&s| b.iadd(tid, s)).collect();
    for st in steps {
        let n = vals.len();
        let v = match st {
            Step::Add(a, c) => b.iadd(vals[a % n], vals[c % n]),
            Step::Mul(a, c) => b.imul(vals[a % n], vals[c % n]),
            Step::Xor(a, c) => b.xor(vals[a % n], vals[c % n]),
            Step::Shl(a, s) => b.shl(vals[a % n], *s),
            Step::SelLt(a, c, d) => {
                let p = b.setp_u32_lt(vals[a % n], vals[c % n]);
                b.sel(p, vals[a % n], vals[d % n])
            }
            Step::If {
                bit,
                then_n,
                else_n,
            } => {
                let last = *vals.last().unwrap();
                let t = b.shr(tid, *bit as u32);
                let tb = b.and(t, 1u32);
                let taken = b.setp_u32_eq(tb, 1u32);
                let result = b.var_u32(0u32);
                b.if_else(
                    taken,
                    |b| {
                        let mut v = last;
                        for _ in 0..*then_n {
                            let one = b.iconst(1);
                            v = b.imad(v, 2u32, one);
                        }
                        b.assign(result, v);
                    },
                    |b| {
                        let mut v = last;
                        for _ in 0..*else_n {
                            v = b.iadd(v, 13u32);
                        }
                        b.assign(result, v);
                    },
                );
                result
            }
        };
        vals.push(v);
    }
    let mut acc = b.iconst(0);
    for v in &vals {
        acc = b.iadd(acc, *v);
    }
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, acc);
    b.finish()
}

/// Runs a linked module in `mode`; returns the launch result and the
/// output buffer contents.
fn run_mode(
    module: &Module,
    mode: ExecMode,
    handlers: Option<&mut Sassi>,
) -> (LaunchResult, Vec<u32>) {
    let mut dev = Device::with_defaults();
    dev.exec_mode = mode;
    dev.block_step = false; // cycle-exact differential: single-step
    let out = dev.mem.alloc(64 * 4, 8).unwrap();
    let res = match handlers {
        Some(s) => dev
            .launch(
                module,
                "prog",
                LaunchDims::linear(2, 32),
                &[out],
                s,
                0,
                1 << 32,
            )
            .unwrap(),
        None => dev
            .launch(
                module,
                "prog",
                LaunchDims::linear(2, 32),
                &[out],
                &mut NoHandlers,
                0,
                1 << 32,
            )
            .unwrap(),
    };
    assert!(res.is_ok(), "{:?}", res.outcome);
    let mem = (0..64)
        .map(|i| dev.mem.read_u32(out + 4 * i).unwrap())
        .collect();
    (res, mem)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random kernels (arithmetic, predication, nested divergence) give
    /// identical results, stats and memory in both modes — plain and
    /// under every-site instrumentation.
    #[test]
    fn random_kernels_agree_across_modes(
        seeds in prop::collection::vec(any::<u32>(), 2..6),
        steps in prop::collection::vec(step_strategy(), 3..16),
    ) {
        let kf = build_kernel(&seeds, &steps);
        let func = Compiler::new().compile(&kf).unwrap();

        let module = Module::link(std::slice::from_ref(&func)).unwrap();
        let (res_d, mem_d) = run_mode(&module, ExecMode::Decoded, None);
        let (res_r, mem_r) = run_mode(&module, ExecMode::Reference, None);
        prop_assert_eq!(&res_d, &res_r, "plain launch result diverges");
        prop_assert_eq!(&mem_d, &mem_r, "plain memory diverges");

        // Instrumented: every instruction becomes a trap site, so the
        // decoded Trap µop and handler resume path run constantly.
        let mut sassi = Sassi::new();
        sassi.on_before(SiteFilter::ALL, InfoFlags::NONE, Box::new(FnHandler::free(|_| {})));
        let inst = sassi.apply(&func, 0);
        let imodule = Module::link(std::slice::from_ref(&inst)).unwrap();
        let (ires_d, imem_d) = run_mode(&imodule, ExecMode::Decoded, Some(&mut sassi));
        let (ires_r, imem_r) = run_mode(&imodule, ExecMode::Reference, Some(&mut sassi));
        prop_assert_eq!(&ires_d, &ires_r, "instrumented launch result diverges");
        prop_assert_eq!(&imem_d, &imem_r, "instrumented memory diverges");
        prop_assert!(ires_d.stats.handler_calls > 0);
        prop_assert_eq!(&mem_d, &imem_d, "instrumentation not transparent");
    }
}

// ---------------------------------------------------------------------
// Fault paths: ill-formed control transfers must fault identically —
// the decode stage turns them into `UOp::Invalid` at link time, but the
// fault must only fire if a warp actually reaches the site, with the
// exact FaultKind the reference interpreter raises.

use sassi_isa::{FunctionMeta, Instr, Label, MemAddr, MemWidth, Op};

fn raw_module(code: Vec<Instr>) -> Module {
    let end = code.len() as u32;
    let f = LinkedFunction {
        name: "k".to_string(),
        entry: 0,
        end,
        meta: FunctionMeta {
            reg_high_water: 8,
            ..FunctionMeta::default()
        },
    };
    Module::from_parts(code, vec![f], BTreeMap::new())
}

fn launch_raw(module: &Module, mode: ExecMode) -> LaunchResult {
    launch_raw_with(module, mode, false)
}

fn launch_raw_with(module: &Module, mode: ExecMode, block_step: bool) -> LaunchResult {
    let mut dev = Device::with_defaults();
    dev.exec_mode = mode;
    dev.block_step = block_step;
    dev.launch(
        module,
        "k",
        LaunchDims::linear(1, 32),
        &[],
        &mut NoHandlers,
        0,
        1 << 20,
    )
    .unwrap()
}

fn assert_fault_parity(module: &Module, want: FaultKind) {
    let d = launch_raw(module, ExecMode::Decoded);
    let r = launch_raw(module, ExecMode::Reference);
    assert_eq!(d, r, "fault outcome diverges across exec modes");
    match d.outcome {
        KernelOutcome::Fault(info) => assert_eq!(info.kind, want),
        other => panic!("expected fault {want:?}, got {other:?}"),
    }
    // The block-stepped scheduler must raise the exact same precise
    // fault (kind, pc, sm) even though it batches µops per pick.
    let b = launch_raw_with(module, ExecMode::Decoded, true);
    assert_eq!(
        b.outcome, d.outcome,
        "fault outcome diverges under block stepping"
    );
}

#[test]
fn far_branch_faults_identically() {
    let m = raw_module(vec![
        Instr::new(Op::Bra {
            target: Label::Pc(999),
            uniform: false,
        }),
        Instr::new(Op::Exit),
    ]);
    assert_fault_parity(&m, FaultKind::InvalidPc { pc: 999 });
}

#[test]
fn non_pc_branch_label_faults_identically() {
    let m = raw_module(vec![
        Instr::new(Op::Bra {
            target: Label::Func(0),
            uniform: false,
        }),
        Instr::new(Op::Exit),
    ]);
    assert_fault_parity(&m, FaultKind::InvalidPc { pc: u64::MAX });
}

#[test]
fn unlinked_call_faults_identically() {
    let m = raw_module(vec![
        Instr::new(Op::Jcal {
            target: Label::Func(0),
        }),
        Instr::new(Op::Exit),
    ]);
    assert_fault_parity(&m, FaultKind::InvalidPc { pc: 0 });
}

#[test]
fn unreached_invalid_site_is_harmless() {
    // The bad branch sits after EXIT: decode marks it UOp::Invalid, but
    // no warp reaches it, so the launch completes in both modes.
    let m = raw_module(vec![
        Instr::new(Op::Exit),
        Instr::new(Op::Bra {
            target: Label::Pc(999),
            uniform: false,
        }),
    ]);
    let d = launch_raw(&m, ExecMode::Decoded);
    let r = launch_raw(&m, ExecMode::Reference);
    assert_eq!(d, r);
    assert!(d.is_ok());
}

// ---------------------------------------------------------------------
// Fault paths through fused trampolines: a corrupt stack pointer makes
// a trampoline's frame leave the local slab, either before the window
// (the pre-part's `STL`s fault) or inside the handler (the post-part's
// `LDL`s fault). The fused macro-µop must hand such windows back to
// the ordinary path so the fault is exactly the unfused one — kind,
// offset, pc, SM and every counter charged before it — and agrees
// with the reference interpreter.

mod common;

use sassi_isa::{Gpr, Guard, PredReg, SpecialReg, Src};

/// Lanes 0..5 (`P0`) run a bad stack pointer into every later site.
fn stack_kernel(bad_sp: Option<u32>) -> sassi_isa::Function {
    let g = Gpr::new;
    let mut code = vec![
        Instr::new(Op::S2R {
            d: g(2),
            sr: SpecialReg::LaneId,
        }),
        Instr::new(Op::ISetP {
            p: PredReg::new(0),
            cmp: sassi_isa::CmpOp::Lt,
            a: g(2),
            b: Src::Imm(5),
            signed: false,
            combine: None,
        }),
    ];
    if let Some(v) = bad_sp {
        code.push(Instr::guarded(
            Guard::on(PredReg::new(0)),
            Op::Mov32I { d: Gpr::SP, imm: v },
        ));
    }
    for k in 0..4 {
        code.push(Instr::new(Op::IAdd {
            d: g(3 + k),
            a: g(2),
            b: Src::Imm(7 * k as u32 + 1),
            x: false,
            cc: false,
        }));
    }
    code.push(Instr::new(Op::Exit));
    sassi_isa::Function::new(
        "k",
        code,
        FunctionMeta {
            reg_high_water: 8,
            ..FunctionMeta::default()
        },
    )
}

/// Runs `func` instrumented after every register write, fused
/// (block-stepped), unfused (block-stepped) and on the reference
/// interpreter, with `corrupt(k)` choosing the stack pointer the
/// handler writes into lanes 0..5 at its `k`-th call. Returns the
/// fused result after checking it against the other two.
fn fault_parity(func: &sassi_isa::Function, corrupt: fn(u32) -> Option<u32>) -> LaunchResult {
    let instrumentor = || {
        let mut calls = 0u32;
        let mut s = Sassi::new();
        s.on_after(
            SiteFilter::ALL,
            InfoFlags::REGISTERS,
            Box::new(FnHandler::free(move |ctx| {
                if let Some(v) = corrupt(calls) {
                    for lane in 0..5 {
                        ctx.trap.set_reg(lane, Gpr::SP, v);
                    }
                }
                calls += 1;
            })),
        );
        s
    };
    let inst = instrumentor().apply(func, 0);
    let fused = Module::link(std::slice::from_ref(&inst)).unwrap();
    let unfused = Module::link(&[common::defeat_fusion(&inst)]).unwrap();
    assert!(fused.decoded().fused_count() > 0);
    assert_eq!(unfused.decoded().fused_count(), 0);
    let launch = |m: &Module, mode: ExecMode, block_step: bool| {
        let mut dev = Device::with_defaults();
        dev.exec_mode = mode;
        dev.block_step = block_step;
        dev.launch(
            m,
            "k",
            LaunchDims::linear(1, 32),
            &[],
            &mut instrumentor(),
            0,
            1 << 24,
        )
        .unwrap()
    };
    let f = launch(&fused, ExecMode::Decoded, true);
    let u = launch(&unfused, ExecMode::Decoded, true);
    assert_eq!(f, u, "fused fault diverges from unfused execution");
    let r = launch(&fused, ExecMode::Reference, false);
    assert_eq!(f.outcome, r.outcome, "fault diverges from the reference");
    let work = |s: &sassi_sim::LaunchStats| {
        (
            s.warp_instrs,
            s.thread_instrs,
            s.handler_calls,
            s.handler_cycles,
            s.issue,
        )
    };
    assert_eq!(work(&f.stats), work(&r.stats), "counters before the fault");
    f
}

fn stack_fault(r: &LaunchResult) -> u64 {
    match r.outcome {
        KernelOutcome::Fault(info) => match info.kind {
            FaultKind::StackViolation { offset } => offset,
            other => panic!("expected a stack violation, got {other:?}"),
        },
        other => panic!("expected a fault, got {other:?}"),
    }
}

#[test]
fn corrupt_stack_pointer_before_a_trampoline_faults_precisely() {
    let slab = sassi_sim::GpuConfig::default().local_bytes_per_thread;
    // Below the frame size (the push wraps), just above the slab (the
    // frame straddles its end, so the first spills succeed and a later
    // store faults), and far outside it.
    for bad in [0x10, slab + 100, 0xFFFF_FF00] {
        let r = fault_parity(&stack_kernel(Some(bad)), |_| None);
        stack_fault(&r);
    }
}

#[test]
fn handler_corrupting_the_stack_pointer_faults_in_the_restores() {
    let slab = sassi_sim::GpuConfig::default().local_bytes_per_thread;
    // The handler's third call moves R1 out of the slab, so that
    // trampoline's post-part restores fault.
    let r = fault_parity(&stack_kernel(None), |k| (k == 2).then_some(0xFFFF_0000));
    let off = stack_fault(&r);
    assert!(off >= slab as u64, "fault offset {off:#x}");
    assert_eq!(r.stats.handler_calls, 3);
    // Straddling the slab's end: the first restores succeed.
    let r = fault_parity(&stack_kernel(None), |k| {
        (k == 1).then(|| sassi_sim::GpuConfig::default().local_bytes_per_thread - 8)
    });
    stack_fault(&r);
    assert_eq!(r.stats.handler_calls, 2);
}

// ---------------------------------------------------------------------
// The zero-allocation claim: a launch in either mode must never clone
// an `Instr` (the seed interpreter cloned one per warp-step). Only
// meaningful under cfg(debug_assertions), where the ISA crate counts
// clones.

#[cfg(debug_assertions)]
#[test]
fn launches_never_clone_instructions() {
    let mut b = KernelBuilder::kernel("prog");
    let out = b.param_ptr(0);
    let tid = b.global_tid_x();
    let v = b.imul(tid, 3u32);
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, v);
    let func = Compiler::new().compile(&b.finish()).unwrap();
    let module = Module::link(std::slice::from_ref(&func)).unwrap();

    for mode in [ExecMode::Decoded, ExecMode::Reference] {
        let mut dev = Device::with_defaults();
        dev.exec_mode = mode;
        let out = dev.mem.alloc(64 * 4, 8).unwrap();
        let before = sassi_isa::clone_count::current();
        let res = dev
            .launch(
                &module,
                "prog",
                LaunchDims::linear(2, 32),
                &[out],
                &mut NoHandlers,
                0,
                1 << 32,
            )
            .unwrap();
        let after = sassi_isa::clone_count::current();
        assert!(res.is_ok());
        assert_eq!(
            after - before,
            0,
            "{mode:?} execution cloned Instrs in the hot loop"
        );
    }
}

// ---------------------------------------------------------------------
// Local memory at every width and alignment. Local memory is stored as
// word-interleaved lane rows, so an access that is not word-aligned
// straddles rows byte by byte; a bit flip in an address register can
// produce any such access. Every width at every offset mod 16 must
// move the same bytes in both interpreters, and an access that leaves
// the slab must raise the same `StackViolation` (offset and pc).

const WIDTHS: [MemWidth; 7] = [
    MemWidth::U8,
    MemWidth::S8,
    MemWidth::U16,
    MemWidth::S16,
    MemWidth::B32,
    MemWidth::B64,
    MemWidth::B128,
];

/// Registers the local-width kernel dumps after each access: the loaded
/// value (R8..R11) and the frame bytes 16..48 read back as two 128-bit
/// loads (R12..R19).
const LOCAL_DUMP: std::ops::Range<u8> = 8..20;

/// Stores lane-varying words (sign bits set) with `width` at frame
/// offset `16 + k` for every `k` in `0..16`, loads them back with the
/// same width, and dumps the loaded registers and the frame bytes to the
/// output buffer (one 128-byte row per register and offset).
fn local_width_kernel(width: MemWidth) -> Module {
    let g = Gpr::new;
    let imm = |d: u8, imm: u32| Instr::new(Op::Mov32I { d: g(d), imm });
    let mut code = vec![
        Instr::new(Op::S2R {
            d: g(2),
            sr: SpecialReg::LaneId,
        }),
        Instr::new(Op::Mov {
            d: g(16),
            a: Src::Const(sassi_isa::CBankAddr::new(0, sassi_isa::cbank0::PARAM_BASE)),
        }),
        Instr::new(Op::Mov {
            d: g(17),
            a: Src::Const(sassi_isa::CBankAddr::new(
                0,
                sassi_isa::cbank0::PARAM_BASE + 4,
            )),
        }),
        Instr::new(Op::Shl {
            d: g(3),
            a: g(2),
            b: Src::Imm(2),
        }),
        Instr::new(Op::IAdd {
            d: g(22),
            a: g(16),
            b: Src::Reg(g(3)),
            x: false,
            cc: true,
        }),
        Instr::new(Op::IAdd {
            d: g(23),
            a: g(17),
            b: Src::Reg(Gpr::RZ),
            x: true,
            cc: false,
        }),
        Instr::new(Op::IAdd {
            d: Gpr::SP,
            a: Gpr::SP,
            b: Src::Imm((-64i32) as u32),
            x: false,
            cc: false,
        }),
    ];
    for (i, r) in (4u8..8).enumerate() {
        code.push(imm(r, 0x80f0_e0d0 ^ (0x1111_1111 * i as u32)));
        code.push(Instr::new(Op::IMad {
            d: g(r),
            a: g(2),
            b: Src::Imm(0x0103_0507 + 2 * i as u32),
            c: g(r),
        }));
    }
    let mut row = 0;
    for k in 0..16 {
        let local = MemAddr::local(Gpr::SP, 16 + k);
        code.push(Instr::new(Op::St {
            v: g(4),
            width,
            addr: local,
            spill: false,
        }));
        code.push(Instr::new(Op::Ld {
            d: g(8),
            width,
            addr: local,
            spill: false,
        }));
        for (d, off) in [(12, 16), (16, 32)] {
            code.push(Instr::new(Op::Ld {
                d: g(d),
                width: MemWidth::B128,
                addr: MemAddr::local(Gpr::SP, off),
                spill: false,
            }));
        }
        for r in LOCAL_DUMP {
            code.push(Instr::new(Op::St {
                v: g(r),
                width: MemWidth::B32,
                addr: MemAddr::global(g(22), 128 * row),
                spill: false,
            }));
            row += 1;
        }
    }
    code.push(Instr::new(Op::Exit));
    let end = code.len() as u32;
    let f = LinkedFunction {
        name: "k".to_string(),
        entry: 0,
        end,
        meta: FunctionMeta {
            reg_high_water: 24,
            ..FunctionMeta::default()
        },
    };
    Module::from_parts(code, vec![f], BTreeMap::new())
}

fn run_local(module: &Module, mode: ExecMode, block_step: bool) -> (LaunchResult, Vec<u32>) {
    let mut dev = Device::with_defaults();
    dev.exec_mode = mode;
    dev.block_step = block_step;
    let words = 16 * LOCAL_DUMP.len() as u64 * 32;
    let out = dev.mem.alloc(words * 4, 8).unwrap();
    let res = dev
        .launch(
            module,
            "k",
            LaunchDims::linear(1, 32),
            &[out],
            &mut NoHandlers,
            0,
            1 << 20,
        )
        .unwrap();
    let mem = (0..words)
        .map(|i| dev.mem.read_u32(out + 4 * i).unwrap())
        .collect();
    (res, mem)
}

#[test]
fn local_accesses_agree_at_every_width_and_offset() {
    for width in WIDTHS {
        let m = local_width_kernel(width);
        let (d, dm) = run_local(&m, ExecMode::Decoded, false);
        let (r, rm) = run_local(&m, ExecMode::Reference, false);
        assert!(d.is_ok(), "{width:?}: {:?}", d.outcome);
        assert_eq!(d, r, "{width:?}: launch result diverges");
        assert_eq!(dm, rm, "{width:?}: local bytes diverge");
        let (b, bm) = run_local(&m, ExecMode::Decoded, true);
        assert_eq!(b.outcome, d.outcome, "{width:?}: block-stepped outcome");
        assert_eq!(bm, dm, "{width:?}: block-stepped local bytes");
        // Spot-check the layout itself: lane 5's value stored at frame
        // offset 16 + 3 reads back from the 128-bit dump.
        let lane = 5u32;
        let v = (0x80f0_e0d0u32).wrapping_add(lane.wrapping_mul(0x0103_0507));
        let n = width.bytes().min(4) as usize;
        let word = |reg: usize| dm[(3 * LOCAL_DUMP.len() + reg) * 32 + lane as usize];
        let mut frame = [0u8; 32];
        for q in 0..8 {
            frame[4 * q..4 * q + 4].copy_from_slice(&word(4 + q).to_le_bytes());
        }
        assert_eq!(&frame[3..3 + n], &v.to_le_bytes()[..n], "{width:?}");
    }
}

#[test]
fn local_accesses_past_the_slab_fault_identically() {
    let slab = sassi_sim::GpuConfig::default().local_bytes_per_thread as i32;
    let g = Gpr::new;
    for width in WIDTHS {
        let n = width.bytes() as i32;
        // Offsets mod 16 from a fully-inside access (j = 0) to ones that
        // straddle the slab's end or lie just past it.
        for j in 0..16 {
            for store in [false, true] {
                let off = -n + j;
                let addr = MemAddr::local(Gpr::SP, off);
                let access = if store {
                    Op::St {
                        v: g(4),
                        width,
                        addr,
                        spill: false,
                    }
                } else {
                    Op::Ld {
                        d: g(4),
                        width,
                        addr,
                        spill: false,
                    }
                };
                let m = raw_module(vec![
                    Instr::new(Op::Mov32I {
                        d: g(4),
                        imm: 0x8421_fedc,
                    }),
                    Instr::new(access),
                    Instr::new(Op::Exit),
                ]);
                let ctx = format!("{width:?} at slab{off:+} (store {store})");
                let d = launch_raw(&m, ExecMode::Decoded);
                let r = launch_raw(&m, ExecMode::Reference);
                assert_eq!(d, r, "{ctx}: outcome diverges across exec modes");
                let b = launch_raw_with(&m, ExecMode::Decoded, true);
                assert_eq!(b.outcome, d.outcome, "{ctx}: block-stepped outcome");
                match d.outcome {
                    _ if j == 0 => assert!(d.is_ok(), "{ctx}: {:?}", d.outcome),
                    KernelOutcome::Fault(info) => {
                        let want = FaultKind::StackViolation {
                            offset: (slab + off) as u64,
                        };
                        assert_eq!((info.kind, info.pc), (want, 1), "{ctx}");
                    }
                    other => panic!("{ctx}: expected a stack violation, got {other:?}"),
                }
            }
        }
    }
}
