//! Criterion benchmark: the cost of one fused trampoline window.
//!
//! A straight-line kernel whose every instruction writes a register is
//! instrumented after each register write with register information —
//! the sites and parameter objects of the Figure 10 injection campaign.
//! Each window spills the live registers, builds the parameter object,
//! saves the predicates and carry, calls an empty handler and restores.
//! One warp runs the kernel per iteration on a warm device, on a full
//! warp and on a half warp; the reported rate is fused windows per
//! second. The `native` group times the same launch uninstrumented, so
//! the time per window is (instrumented - native) / windows.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sassi::{FnHandler, InfoFlags, Sassi, SiteFilter};
use sassi_isa::{Function, FunctionMeta, Gpr, Instr, Op, SpecialReg, Src};
use sassi_sim::{Device, LaunchDims, Module, NoHandlers};

/// Registers the kernel keeps live across its sites.
const LIVE: u8 = 8;
/// Instrumented arithmetic instructions after the set-up.
const BODY: u16 = 256;

fn kernel() -> Function {
    let g = Gpr::new;
    let mut code = vec![Instr::new(Op::S2R {
        d: g(0),
        sr: SpecialReg::LaneId,
    })];
    for r in 2..2 + LIVE {
        code.push(Instr::new(Op::IMad {
            d: g(r),
            a: g(0),
            b: Src::Imm(2 * r as u32 + 1),
            c: g(0),
        }));
    }
    for i in 0..BODY {
        let i = i as u8;
        let (d, a) = (2 + i % LIVE, 2 + (i + 1) % LIVE);
        code.push(Instr::new(Op::IAdd {
            d: g(d),
            a: g(d),
            b: Src::Reg(g(a)),
            x: false,
            cc: i.is_multiple_of(3),
        }));
    }
    code.push(Instr::new(Op::Exit));
    let meta = FunctionMeta {
        block_headers: vec![0],
        reg_high_water: 2 + LIVE as u32,
        ..FunctionMeta::default()
    };
    Function::new("window", code, meta)
}

fn bench_fused_window(c: &mut Criterion) {
    let mut sassi = Sassi::new();
    sassi.on_after(
        SiteFilter::REG_WRITES,
        InfoFlags::REGISTERS,
        Box::new(FnHandler::free(|_| {})),
    );
    let module = Module::link(&[sassi.apply(&kernel(), 0)]).unwrap();
    let windows = module.decoded().fused_count();
    assert_eq!(windows, module.decoded().trap_count(), "every site fuses");

    let mut g = c.benchmark_group("fused_window");
    g.sample_size(20);
    g.throughput(Throughput::Elements(windows as u64));
    for (label, threads) in [("full_warp", 32), ("half_warp", 16)] {
        let mut dev = Device::with_defaults();
        let dims = LaunchDims::linear(1, threads);
        let launch = |dev: &mut Device, sassi: &mut Sassi| {
            let res = dev
                .launch(&module, "window", dims, &[], sassi, 0, 50_000_000)
                .unwrap();
            assert!(res.is_ok(), "{label}: {:?}", res.outcome);
            assert_eq!(res.stats.handler_calls, windows as u64);
            res.stats.cycles
        };
        // Warm the decode cache, site binding and the warp pool.
        launch(&mut dev, &mut sassi);
        g.bench_function(label, |bench| bench.iter(|| launch(&mut dev, &mut sassi)));
    }
    g.finish();

    let native = Module::link(&[kernel()]).unwrap();
    let mut g = c.benchmark_group("fused_window_native");
    g.sample_size(20);
    for (label, threads) in [("full_warp", 32), ("half_warp", 16)] {
        let mut dev = Device::with_defaults();
        let dims = LaunchDims::linear(1, threads);
        let mut launch = || {
            let res = dev
                .launch(&native, "window", dims, &[], &mut NoHandlers, 0, 50_000_000)
                .unwrap();
            assert!(res.is_ok(), "{label}: {:?}", res.outcome);
            res.stats.cycles
        };
        launch();
        g.bench_function(label, |bench| bench.iter(&mut launch));
    }
    g.finish();
}

criterion_group!(benches, bench_fused_window);
criterion_main!(benches);
