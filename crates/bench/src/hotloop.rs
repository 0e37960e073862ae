//! The hot-loop comparison behind `repro hotloop`: the same workload
//! set executed by the pre-decoded µop interpreter (block-stepped and
//! single-stepped) and by the reference (seed-semantics) interpreter,
//! with per-instruction-class issue counters from the decoded run — the
//! where-do-cycles-go artifact future perf PRs diff against
//! (`results/timings/sim_hot_loop.json`).

use crate::exec::{run_units, WorkloadCache};
use parking_lot::Mutex;
use sassi_rt::{ModuleBuilder, Runtime};
use sassi_sim::{ExecMode, IssueCounters, NoHandlers};
use serde::Serialize;
use std::sync::Arc;

/// The workloads the hot-loop comparison executes: convergent compute
/// (`sgemm`), divergent graph traversal (`bfs`), scattered memory
/// (`spmv`), shared-memory stencil (`hotspot`), SFU-heavy math
/// (`mri-q`) and an atomics/barrier mix (`streamcluster`).
pub const HOTLOOP_SET: &[&str] = &[
    "sgemm (medium)",
    "bfs (1M)",
    "spmv (large)",
    "hotspot",
    "mri-q",
    "streamcluster",
];

/// Median and range of one quantity over the timed rounds.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Spread {
    /// Median over the rounds.
    pub median: f64,
    /// Smallest value seen.
    pub min: f64,
    /// Largest value seen.
    pub max: f64,
}

impl Spread {
    /// The median and range of `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub(crate) fn of(mut xs: Vec<f64>) -> Spread {
        assert!(!xs.is_empty(), "a spread needs at least one value");
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        Spread {
            median: (xs[(n - 1) / 2] + xs[n / 2]) / 2.0,
            min: xs[0],
            max: xs[n - 1],
        }
    }
}

/// One interpreter configuration's side of the comparison.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ModeRun {
    /// End-to-end wall-clock seconds of one sweep.
    pub wall_s: Spread,
    /// Summed per-unit compute seconds of one sweep
    /// (scheduling-independent).
    pub busy_s: Spread,
    /// Warp-level instructions interpreted per sweep.
    pub warp_instrs: u64,
    /// Thread-level instructions interpreted per sweep.
    pub thread_instrs: u64,
    /// Warp instructions interpreted per median busy second.
    pub instrs_per_s: f64,
}

/// The full artifact written to `results/timings/sim_hot_loop.json`.
#[derive(Clone, Debug, Serialize)]
pub struct HotLoopReport {
    /// Workload display names executed (once each, per configuration
    /// and round). Every sweep executes the workloads one at a time,
    /// so wall times compare like for like.
    pub workloads: Vec<String>,
    /// Timed rounds. Each round runs one sweep of every configuration
    /// back to back, so the per-round ratios compare sweeps taken
    /// under the same host load.
    pub rounds: usize,
    /// The pre-decoded µop interpreter (`ExecMode::Decoded`),
    /// block-stepped scheduler (the default).
    pub decoded: ModeRun,
    /// The decoded interpreter with `Device::block_step` off: one µop
    /// per scheduler pick. Same instruction counts as `decoded`,
    /// asserted in-process.
    pub single_step: ModeRun,
    /// The seed-semantics interpreter (`ExecMode::Reference`).
    pub reference: ModeRun,
    /// The decoded interpreter running the same workloads under the
    /// paper's branch study (Case Study I): every conditional branch
    /// trampolines into the handler. The wall time compares directly
    /// against `decoded`. The instruction counts
    /// include the trampoline SASS the instrumentor injected.
    pub instrumented: ModeRun,
    /// Warp-level handler invocations per instrumented sweep.
    pub handler_calls: u64,
    /// instrumented wall time / decoded (native) wall time, per round
    /// — the end-to-end slowdown of branch instrumentation, the
    /// analogue of the paper's Table 4 `cfg` row.
    pub instrumented_overhead: Spread,
    /// reference busy time / decoded busy time, per round
    /// (interpreter speedup).
    pub speedup: Spread,
    /// single-step wall time / block-stepped wall time, per round —
    /// the wall-clock win of running warps to their basic-block
    /// boundary per pick.
    pub block_speedup: Spread,
    /// Per-instruction-class issue counts (identical across the
    /// native sweeps; taken from the decoded run).
    pub issue: IssueCounters,
}

/// Timed rounds. One sweep lasts a few hundred milliseconds, well
/// inside the host's run-to-run noise, so a single sweep's ratio says
/// nothing; the report gives each quantity's median and range over
/// this many rounds instead. Odd, so the median is a measured round.
const ROUNDS: usize = 11;

/// A configuration of the comparison: interpreter, block stepping,
/// and whether the branch study instruments the workloads.
#[derive(Clone, Copy)]
struct Config {
    mode: ExecMode,
    block_step: bool,
    instrumented: bool,
}

/// The four configurations in the order each round runs them:
/// decoded, single-stepped, reference, instrumented.
const CONFIGS: [Config; 4] = [
    Config {
        mode: ExecMode::Decoded,
        block_step: true,
        instrumented: false,
    },
    Config {
        mode: ExecMode::Decoded,
        block_step: false,
        instrumented: false,
    },
    Config {
        mode: ExecMode::Reference,
        block_step: false,
        instrumented: false,
    },
    Config {
        mode: ExecMode::Decoded,
        block_step: true,
        instrumented: true,
    },
];

/// One sweep of one configuration over [`HOTLOOP_SET`].
struct Sweep {
    wall_s: f64,
    busy_s: f64,
    warp_instrs: u64,
    thread_instrs: u64,
    handler_calls: u64,
    issue: IssueCounters,
}

impl Sweep {
    /// The counters, which must repeat exactly from round to round.
    fn counts(&self) -> (u64, u64, u64, IssueCounters) {
        (
            self.warp_instrs,
            self.thread_instrs,
            self.handler_calls,
            self.issue,
        )
    }
}

fn sweep(cfg: Config) -> Sweep {
    let (per_unit, timing) = run_units(1, HOTLOOP_SET, WorkloadCache::default, |cache, name, _| {
        let w = cache.get(name);
        let mut sassi = cfg.instrumented.then(|| {
            let state = Arc::new(Mutex::new(sassi_studies::branch::BranchState::default()));
            sassi_studies::branch::instrumentor(state)
        });
        let mut mb = ModuleBuilder::new();
        for k in w.kernels() {
            mb.add_kernel(k);
        }
        let module = mb.build(sassi.as_ref()).expect("build");
        let mut rt = Runtime::with_defaults();
        rt.device.exec_mode = cfg.mode;
        rt.device.block_step = cfg.block_step;
        let out = match &mut sassi {
            Some(sassi) => w.execute(&mut rt, &module, sassi),
            None => w.execute(&mut rt, &module, &mut NoHandlers),
        };
        assert!(out.is_ok(), "{name}: {:?}", out.err());
        rt.records().to_vec()
    });
    let mut s = Sweep {
        wall_s: timing.wall_s,
        busy_s: timing.busy_s,
        warp_instrs: 0,
        thread_instrs: 0,
        handler_calls: 0,
        issue: IssueCounters::default(),
    };
    for r in per_unit.iter().flatten() {
        s.warp_instrs += r.result.stats.warp_instrs;
        s.thread_instrs += r.result.stats.thread_instrs;
        s.handler_calls += r.result.stats.handler_calls;
        s.issue.merge(&r.result.stats.issue);
    }
    s
}

fn mode_run(sweeps: &[Sweep]) -> ModeRun {
    let busy_s = Spread::of(sweeps.iter().map(|s| s.busy_s).collect());
    ModeRun {
        wall_s: Spread::of(sweeps.iter().map(|s| s.wall_s).collect()),
        busy_s,
        warp_instrs: sweeps[0].warp_instrs,
        thread_instrs: sweeps[0].thread_instrs,
        instrs_per_s: if busy_s.median > 0.0 {
            sweeps[0].warp_instrs as f64 / busy_s.median
        } else {
            0.0
        },
    }
}

/// The per-round ratio `num / den` of two configurations' sweeps.
fn ratio(num: &[Sweep], den: &[Sweep], time: fn(&Sweep) -> f64) -> Spread {
    Spread::of(
        num.iter()
            .zip(den)
            .map(|(n, d)| {
                if time(d) > 0.0 {
                    time(n) / time(d)
                } else {
                    1.0
                }
            })
            .collect(),
    )
}

/// Runs the comparison and returns the report: one untimed warm-up
/// round (it moves one-time process costs — allocator growth, page
/// faults on fresh device heaps, lazy statics — out of every timed
/// sweep), then [`ROUNDS`] timed rounds of the four configurations
/// (decoded block-stepped, decoded single-stepped, reference, then the
/// branch-instrumented sweep). Workloads always run one at a time, so
/// the sweeps' wall times are directly comparable instead of
/// confounded by scheduling. Instruction and issue-class counts are
/// asserted identical across rounds and across the three native
/// sweeps — a cheap online rerun of the decode-equivalence property.
pub fn compare() -> HotLoopReport {
    let mut runs: [Vec<Sweep>; 4] = Default::default();
    for round in 0..=ROUNDS {
        for (cfg, runs) in CONFIGS.iter().zip(&mut runs) {
            let s = sweep(*cfg);
            if let Some(first) = runs.first() {
                assert_eq!(first.counts(), s.counts(), "counters diverge across rounds");
            }
            if round > 0 {
                runs.push(s);
            }
        }
    }
    let [decoded, single_step, reference, instrumented] = &runs;
    let (d, i) = (&decoded[0], &instrumented[0]);
    for other in [&single_step[0], &reference[0]] {
        assert_eq!(
            d.counts(),
            other.counts(),
            "instruction or issue-class counters diverge between native sweeps"
        );
    }
    assert!(i.handler_calls > 0, "branch sweep fired no handler calls");
    // Trampolines add instructions, so the instrumented sweep is only
    // sanity-checked for more work than native, not exact equality.
    assert!(i.warp_instrs > d.warp_instrs);
    HotLoopReport {
        workloads: HOTLOOP_SET.iter().map(|s| s.to_string()).collect(),
        rounds: ROUNDS,
        speedup: ratio(reference, decoded, |s| s.busy_s),
        block_speedup: ratio(single_step, decoded, |s| s.wall_s),
        instrumented_overhead: ratio(instrumented, decoded, |s| s.wall_s),
        handler_calls: i.handler_calls,
        issue: d.issue,
        decoded: mode_run(decoded),
        single_step: mode_run(single_step),
        reference: mode_run(reference),
        instrumented: mode_run(instrumented),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_takes_median_and_range() {
        let s = Spread::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max), (2.0, 1.0, 3.0));
        assert_eq!(Spread::of(vec![4.0, 1.0, 2.0, 8.0]).median, 3.0);
    }

    #[test]
    fn hotloop_set_names_resolve() {
        for name in HOTLOOP_SET {
            assert!(
                sassi_workloads::by_name(name).is_some(),
                "unknown workload `{name}` in HOTLOOP_SET"
            );
        }
    }
}
