//! The SM shard schedule's guarantees: the decoded engine matches the
//! reference interpreter, block stepping changes nothing but cycles,
//! cross-CTA reduction atomics land exactly, every SM pays for its own
//! private L2 and DRAM, and per-warp state survives relaunch without
//! reallocation.

use sassi_isa::AtomOp;
use sassi_kir::{KFunction, KernelBuilder};
use sassi_rt::{LaunchRecord, ModuleBuilder, Runtime};
use sassi_sim::{ExecMode, LaunchDims, NoHandlers};
use sassi_workloads::{by_name, RunFailure, Workload, WorkloadOutput};

fn run_workload(
    w: &dyn Workload,
    mode: ExecMode,
    block_step: bool,
) -> (Result<WorkloadOutput, RunFailure>, Vec<LaunchRecord>) {
    let mut mb = ModuleBuilder::new();
    for k in w.kernels() {
        mb.add_kernel(k);
    }
    let module = mb.build(None).expect("build");
    let mut rt = Runtime::with_defaults();
    rt.device.exec_mode = mode;
    rt.device.block_step = block_step;
    let out = w.execute(&mut rt, &module, &mut NoHandlers);
    (out, rt.records().to_vec())
}

/// A record with cycle-derived fields zeroed, for comparisons across
/// schedulers that are instruction-identical but not cycle-identical.
fn strip_cycles(mut recs: Vec<LaunchRecord>) -> Vec<LaunchRecord> {
    for r in &mut recs {
        r.result.stats.cycles = 0;
    }
    recs
}

/// Workloads covering the engine's interesting regimes: reduction
/// atomics on contended bins (`histo`), barriers plus shared memory
/// (`streamcluster`, `hotspot`), divergent traversal with a
/// consuming-form CAS (`bfs`), a consuming-form `atom.add` (`miniFE`),
/// and a multi-launch convergent kernel (`sgemm`).
const SAMPLE: &[&str] = &[
    "histo",
    "streamcluster",
    "hotspot",
    "bfs (UT)",
    "miniFE (CSR)",
    "sgemm (small)",
];

#[test]
fn decoded_matches_reference() {
    for name in SAMPLE {
        let w = by_name(name).expect("workload");
        let (out_d, rec_d) = run_workload(w.as_ref(), ExecMode::Decoded, false);
        let (out_r, rec_r) = run_workload(w.as_ref(), ExecMode::Reference, false);
        assert_eq!(
            out_d, out_r,
            "{name}: decoded output diverges from reference"
        );
        // LaunchRecord equality covers outcome, every LaunchStats
        // counter (cycles, instrs, divergence, issue classes, handler
        // calls) and the memory-system counters.
        assert_eq!(rec_d, rec_r, "{name}: launch records diverge");
    }
}

/// The block-stepped scheduler may fold intra-block stalls (so cycle
/// counts shift), but every instruction-derived counter — work, issue
/// classes, divergence, memory traffic — and all outputs must match the
/// single-stepped reference exactly.
#[test]
fn block_stepped_matches_reference_modulo_cycles() {
    for name in SAMPLE {
        let w = by_name(name).expect("workload");
        let (out_b, rec_b) = run_workload(w.as_ref(), ExecMode::Decoded, true);
        let (out_r, rec_r) = run_workload(w.as_ref(), ExecMode::Reference, false);
        assert_eq!(
            out_b, out_r,
            "{name}: block-stepped output diverges from reference"
        );
        assert_eq!(
            strip_cycles(rec_b),
            strip_cycles(rec_r),
            "{name}: instruction-derived stats diverge under block stepping"
        );
    }
}

/// Every thread of every CTA RED-adds into one of eight contended
/// global bins.
fn red_bins_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("red_bins");
    let bins = b.param_ptr(0);
    let i = b.global_tid_x();
    let seven = b.iconst(7);
    let bin = b.and(i, seven);
    let e = b.lea(bins, bin, 2);
    let one = b.iconst(1);
    b.red_global(AtomOp::Add, e, one);
    b.finish()
}

#[test]
fn cross_cta_reduction_atomics_land_exactly() {
    let mut mb = ModuleBuilder::new();
    mb.add_kernel(red_bins_kernel());
    let module = mb.build(None).unwrap();
    let mut rt = Runtime::with_defaults();
    let bins = rt.alloc_zeroed_u32(8);
    let res = rt
        .launch(
            &module,
            "red_bins",
            LaunchDims::linear(64, 64),
            &[bins.addr],
            &mut NoHandlers,
        )
        .unwrap();
    assert!(res.is_ok());
    // 64 CTAs x 64 threads spread evenly over 8 bins.
    assert_eq!(rt.read_u32(bins), vec![512u32; 8]);
}

#[test]
fn each_sm_pays_its_own_l2_miss() {
    // Every thread loads word 0 of `buf`; the store back never runs
    // (the buffer is zero), so the load is the launch's only traffic.
    let mut b = KernelBuilder::kernel("same_line");
    let buf = b.param_ptr(0);
    let v = b.ld_global_u32(buf);
    let p = b.setp_u32_eq(v, 0xdead_beef_u32);
    b.if_(p, |b| b.st_global_u32(buf, v));
    let mut mb = ModuleBuilder::new();
    mb.add_kernel(b.finish());
    let module = mb.build(None).unwrap();
    let mut rt = Runtime::with_defaults();
    assert!(rt.device.cfg.num_sms >= 2);
    let buf = rt.alloc_zeroed_u32(8);
    // Two CTAs land on two SMs, each with a private L1, L2 and DRAM
    // channel: both miss all the way to DRAM on the same line.
    let res = rt
        .launch(
            &module,
            "same_line",
            LaunchDims::linear(2, 32),
            &[buf.addr],
            &mut NoHandlers,
        )
        .unwrap();
    assert!(res.is_ok());
    assert_eq!(res.mem.warp_accesses, 2);
    assert_eq!(res.mem.l2.misses, 2);
    assert_eq!(res.mem.dram_transactions, 2);
}

/// Per-warp state and each SM's memory hierarchy survive relaunch: a
/// relaunch reuses every warp context and returns exactly the
/// `LaunchResult` (cycles and `mem` counters included) that the same
/// launch returns on a new device, so no line cached, and no dirty
/// line left, by an earlier launch is seen by a later one.
#[test]
fn relaunch_reuses_warp_state() {
    let mut mb = ModuleBuilder::new();
    mb.add_kernel(red_bins_kernel());
    let module = mb.build(None).unwrap();
    let dims = LaunchDims::linear(32, 64);
    let launch = |rt: &mut Runtime, bins: u64| {
        rt.launch(&module, "red_bins", dims, &[bins], &mut NoHandlers)
            .unwrap()
    };
    let fresh = {
        let mut rt = Runtime::with_defaults();
        let bins = rt.alloc_zeroed_u32(8);
        launch(&mut rt, bins.addr)
    };
    assert!(fresh.is_ok());
    assert!(fresh.mem.l2.misses > 0 && fresh.mem.dram_transactions > 0);

    let mut rt = Runtime::with_defaults();
    let bins = rt.alloc_zeroed_u32(8);
    for _ in 0..2 {
        assert_eq!(launch(&mut rt, bins.addr), fresh);
    }
    let after_two = rt.device.warp_allocations();
    assert!(after_two > 0, "first launch must provision warps");
    // Two more launches with the same geometry: every warp context must
    // come from the recycled pool, never a fresh allocation.
    for _ in 0..2 {
        assert_eq!(
            launch(&mut rt, bins.addr),
            fresh,
            "relaunch on a reused device must match a new device"
        );
    }
    assert_eq!(
        rt.device.warp_allocations(),
        after_two,
        "relaunch with identical geometry must not allocate warp state"
    );
    assert_eq!(rt.read_u32(bins), vec![4 * 256u32; 8]);
}
