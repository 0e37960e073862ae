//! The traced replica: the library's build-and-run harness
//! (`sassi_workloads::execute`) reassembled from each layer's public
//! entry points, with a span around every call into a layer.
//!
//! Spans are timed from outside the program: `Compiler::compile`,
//! `Sassi::apply` and `Module::link` (plus the decode it triggers) for
//! the build; the runtime's CUPTI launch and exit callbacks for
//! launches; a [`TimedHandlers`] wrapper for handler bodies; and
//! `Workload::execute` for the host driver. Counts come from
//! `Runtime::records()`. A layer's self time is its span minus the
//! child spans inside it, so `rt.host` is `execute` minus launches and
//! `sim.launch_self` is launches minus handler calls.

use crate::stats::Fnv;
use parking_lot::Mutex;
use sassi::Sassi;
use sassi_kir::Compiler;
use sassi_mem::HierarchyStats;
use sassi_rt::Runtime;
use sassi_sim::{
    Device, HandlerCost, HandlerRuntime, IssueCounters, Module, NoHandlers, TrapCtx, TrapRef,
    TrapSite,
};
use sassi_workloads::{ExecutionReport, RunFailure, Workload, WorkloadOutput};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Forwards to another handler runtime, counting and timing each
/// handler call.
pub struct TimedHandlers<'a> {
    inner: &'a mut dyn HandlerRuntime,
    /// Handler calls forwarded.
    pub calls: u64,
    /// Time spent inside the wrapped runtime's `handle`.
    pub busy: Duration,
}

impl<'a> TimedHandlers<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn HandlerRuntime) -> TimedHandlers<'a> {
        TimedHandlers {
            inner,
            calls: 0,
            busy: Duration::ZERO,
        }
    }
}

impl HandlerRuntime for TimedHandlers<'_> {
    fn handle(&mut self, trap: TrapRef, ctx: &mut TrapCtx<'_>) -> HandlerCost {
        let t = Instant::now();
        let cost = self.inner.handle(trap, ctx);
        self.busy += t.elapsed();
        self.calls += 1;
        cost
    }

    fn bind_sites(&mut self, sites: &[TrapSite]) {
        self.inner.bind_sites(sites);
    }
}

/// Per-layer spans and counts, summed over traced units.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Traced units.
    pub units: u64,
    /// `Compiler::compile` time.
    pub kir_compile: Duration,
    /// Kernels compiled.
    pub kernels: u64,
    /// SASS instructions the compiler emitted.
    pub sass_instrs: u64,
    /// Of those, register spills and fills.
    pub spill_instrs: u64,
    /// `Sassi::apply` time.
    pub pass: Duration,
    /// Instrumentation sites the pass rewrote.
    pub sites: u64,
    /// Instructions the pass added (trampolines).
    pub instrs_added: u64,
    /// Time inside handler calls.
    pub handler: Duration,
    /// Handler calls.
    pub handler_calls: u64,
    /// `Module::link` plus decode time.
    pub link: Duration,
    /// Decoded µops.
    pub uops: u64,
    /// Launch spans (CUPTI launch to exit callback), handlers included.
    pub launch: Duration,
    /// Kernel launches.
    pub launches: u64,
    /// Warp-level instructions issued.
    pub warp_instrs: u64,
    /// Thread-level instructions executed.
    pub thread_instrs: u64,
    /// Warp instructions above the same workload's native run.
    pub trampoline_warp_instrs: u64,
    /// Issue counts by class.
    pub issue: IssueCounters,
    /// Simulated cycles, summed over launches.
    pub cycles: u64,
    /// Memory-hierarchy counters, summed over launches.
    pub mem: HierarchyStats,
    /// `Workload::execute` spans (host driver plus launches).
    pub execute: Duration,
    /// `Workload::golden` spans.
    pub golden: Duration,
    /// `inject::run_one` spans.
    pub run_one: Duration,
    /// Whole replica builds and runs.
    pub replica: Duration,
    /// The untraced library calls the replicas reproduce.
    pub twin: Duration,
}

impl Layers {
    /// Adds `o` into `self`.
    pub fn merge(&mut self, o: &Layers) {
        self.units += o.units;
        self.kir_compile += o.kir_compile;
        self.kernels += o.kernels;
        self.sass_instrs += o.sass_instrs;
        self.spill_instrs += o.spill_instrs;
        self.pass += o.pass;
        self.sites += o.sites;
        self.instrs_added += o.instrs_added;
        self.handler += o.handler;
        self.handler_calls += o.handler_calls;
        self.link += o.link;
        self.uops += o.uops;
        self.launch += o.launch;
        self.launches += o.launches;
        self.warp_instrs += o.warp_instrs;
        self.thread_instrs += o.thread_instrs;
        self.trampoline_warp_instrs += o.trampoline_warp_instrs;
        self.issue.merge(&o.issue);
        self.cycles += o.cycles;
        self.mem.merge(&o.mem);
        self.execute += o.execute;
        self.golden += o.golden;
        self.run_one += o.run_one;
        self.replica += o.replica;
        self.twin += o.twin;
    }
}

/// The deterministic totals the library harness reports for a run;
/// the replica must reproduce them exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counters {
    /// Kernel launches.
    pub launches: u64,
    /// Warp-level instructions.
    pub warp_instrs: u64,
    /// Thread-level instructions.
    pub thread_instrs: u64,
    /// Simulated cycles over all launches.
    pub kernel_cycles: u64,
    /// Handler traps taken.
    pub handler_calls: u64,
}

impl From<&ExecutionReport> for Counters {
    fn from(r: &ExecutionReport) -> Counters {
        Counters {
            launches: r.launches,
            warp_instrs: r.warp_instrs,
            thread_instrs: r.thread_instrs,
            kernel_cycles: r.kernel_cycles,
            handler_calls: r.handler_calls,
        }
    }
}

/// What a replica produced.
pub struct Replica {
    /// The workload's output, or how it failed.
    pub output: Result<WorkloadOutput, RunFailure>,
    /// Totals over `Runtime::records()`.
    pub counters: Counters,
    /// FNV-1a over every launch's `LaunchResult` (outcome,
    /// `LaunchStats`, `HierarchyStats`), in launch order.
    pub launch_digest: u64,
}

#[derive(Default)]
struct LaunchClock {
    started: Option<Instant>,
    total: Duration,
}

/// Builds `w` (instrumented by `sassi` if given) and runs it on a fresh
/// default runtime, as `sassi_workloads::execute` does, adding every
/// layer's spans and counts to `layers`.
///
/// # Errors
///
/// A compile or link failure, or a handler call count that disagrees
/// with the launches' own `handler_calls`.
pub fn replicate(
    w: &dyn Workload,
    sassi: Option<&mut Sassi>,
    layers: &mut Layers,
) -> Result<Replica, String> {
    // The build mirrors `ModuleBuilder::build` with no SASS handlers:
    // default compiler, kernel `i` instrumented at address `i << 20`.
    let compiler = Compiler::new();
    let mut funcs = Vec::new();
    for (i, k) in w.kernels().iter().enumerate() {
        let t = Instant::now();
        let f = compiler
            .compile(k)
            .map_err(|e| format!("compiling `{}`: {e}", k.name))?;
        layers.kir_compile += t.elapsed();
        layers.kernels += 1;
        layers.sass_instrs += f.len() as u64;
        layers.spill_instrs += f
            .instrs
            .iter()
            .filter(|i| i.class().is_spill_or_fill())
            .count() as u64;
        let f = match sassi.as_deref() {
            Some(s) => {
                let t = Instant::now();
                let g = s.apply(&f, (i as u32) << 20);
                layers.pass += t.elapsed();
                layers.sites += s.count_sites(&f) as u64;
                layers.instrs_added += (g.len() - f.len()) as u64;
                g
            }
            None => f,
        };
        funcs.push(f);
    }
    let t = Instant::now();
    let module = Module::link(&funcs).map_err(|e| format!("linking: {e}"))?;
    layers.uops += module.decoded().len() as u64;
    layers.link += t.elapsed();

    let mut rt = Runtime::new(Device::with_defaults());
    let clock = Arc::new(Mutex::new(LaunchClock::default()));
    let on_launch = clock.clone();
    rt.cupti.on_kernel_launch(move |_, _| {
        on_launch.lock().started = Some(Instant::now());
    });
    let on_exit = clock.clone();
    rt.cupti.on_kernel_exit(move |_, _, _| {
        let mut c = on_exit.lock();
        if let Some(t) = c.started.take() {
            c.total += t.elapsed();
        }
    });
    let mut native = NoHandlers;
    let inner: &mut dyn HandlerRuntime = match sassi {
        Some(s) => s,
        None => &mut native,
    };
    let mut timed = TimedHandlers::new(inner);
    let t = Instant::now();
    let output = w.execute(&mut rt, &module, &mut timed);
    layers.execute += t.elapsed();
    layers.launch += clock.lock().total;
    layers.handler += timed.busy;
    layers.handler_calls += timed.calls;

    let mut counters = Counters {
        launches: 0,
        warp_instrs: 0,
        thread_instrs: 0,
        kernel_cycles: 0,
        handler_calls: 0,
    };
    let mut digest = Fnv::default();
    for r in rt.records() {
        let s = &r.result.stats;
        counters.launches += 1;
        counters.warp_instrs += s.warp_instrs;
        counters.thread_instrs += s.thread_instrs;
        counters.kernel_cycles += s.cycles;
        counters.handler_calls += s.handler_calls;
        layers.issue.merge(&s.issue);
        layers.mem.merge(&r.result.mem);
        digest.field(&r.info.kernel);
        digest.field(&serde_json::to_string(&r.result).expect("launch results serialize"));
    }
    layers.launches += counters.launches;
    layers.warp_instrs += counters.warp_instrs;
    layers.thread_instrs += counters.thread_instrs;
    layers.cycles += counters.kernel_cycles;
    if timed.calls != counters.handler_calls {
        return Err(format!(
            "handler wrapper saw {} calls, launches report {}",
            timed.calls, counters.handler_calls
        ));
    }
    Ok(Replica {
        output,
        counters,
        launch_digest: digest.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sassi_studies::overhead::StudyConfig;
    use sassi_workloads::{by_name, execute};

    fn workload(name: &str) -> Box<dyn Workload> {
        by_name(name).expect("registered workload")
    }

    #[test]
    fn wrapper_counts_every_handler_call_and_changes_nothing() {
        for (name, cfg) in [
            ("nn", StudyConfig::ValueProfiling),
            ("histo", StudyConfig::MemoryDivergence),
            ("srad_v1", StudyConfig::CondBranches),
            ("backprop", StudyConfig::ErrorInjection),
        ] {
            let w = workload(name);
            let plain = execute(&*w, Some(&mut cfg.instrumentor()), None);
            let mut layers = Layers::default();
            let rep = replicate(&*w, Some(&mut cfg.instrumentor()), &mut layers).expect(name);
            assert!(plain.output.is_ok(), "{name}");
            assert_eq!(rep.output, plain.output, "{name}");
            assert_eq!(rep.counters, Counters::from(&plain), "{name}");
            assert!(plain.handler_calls > 0, "{name}");
            assert_eq!(layers.handler_calls, plain.handler_calls, "{name}");
            assert!(layers.sites > 0 && layers.instrs_added > 0, "{name}");
        }
    }

    #[test]
    fn native_replica_matches_the_harness_and_repeats() {
        let w = workload("mri-gridding");
        let plain = execute(&*w, None, None);
        let mut layers = Layers::default();
        let a = replicate(&*w, None, &mut layers).expect("replica");
        let b = replicate(&*w, None, &mut layers).expect("replica");
        assert_eq!(a.output, plain.output);
        assert_eq!(a.counters, Counters::from(&plain));
        assert_eq!(a.launch_digest, b.launch_digest);
        assert_eq!(layers.handler_calls, 0);
        assert_eq!(layers.sites, 0);
        assert_eq!(layers.launches, 2 * plain.launches);
        assert_eq!(layers.issue.total(), layers.warp_instrs);
    }
}
