//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload native|inject|studies [--seed N] [--seconds S]
//!           [--trace 0|1] [--root DIR]
//! ```
//!
//! Runs one workload through the library's public entry points,
//! checks every output, prints each metric by name with its unit, and
//! ends with one JSON line: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. Exits 1 if any unit failed
//! a check, 2 on bad arguments or settings. See `README.md` beside
//! this crate for the workloads and metrics.

mod calib;
mod clock;
mod stats;
mod suite;
mod trace;

use serde::Value;
use stats::{median, ratio, smoothed, worker_util};
use std::path::PathBuf;
use std::time::Duration;
use suite::{Kind, Options, RunData, Scale};

/// Worker threads. One, although the host has more CPUs: two workers
/// on a 2-vCPU host share its caches and memory bandwidth, so a unit's
/// CPU time depended on which unit ran beside it, which the seed's
/// dispatch order decides, and the peak resident memory on which
/// campaign plans overlapped. The spare CPUs take whatever else runs
/// on the host.
const WORKERS: usize = 1;

/// Units the timed phase must complete: the 90th percentile needs
/// [`stats::MIN_TAIL`] samples beyond it.
const MIN_UNITS: usize = 100;

/// Passes the timed phase must complete, so that every unit's
/// contribution to `units_per_ref_s` is a median of several timings:
/// with one pass of `inject`'s long units, the spread between runs of
/// `unit_ref_ms_p50` and `unit_ref_ms_p90` was 0.2, with two 0.03–0.11.
const MIN_PASSES: usize = 2;

/// Set-up rounds per untraced run: at least `SETUP_ROUNDS`, and more,
/// up to [`suite::MAX_SETUP_ROUNDS`], while they have taken under
/// `SETUP_BUDGET_S`; `setup_s` is their median. `native` sets up 21
/// times; `inject`, whose round takes about 12 s, twice, which keeps
/// its runs near 70 s.
const SETUP_ROUNDS: usize = 2;
const SETUP_BUDGET_S: f64 = 1.0;

const USAGE: &str = "usage: perfbench --workload native|inject|studies [--seed N] [--seconds S] [--trace 0|1] [--root DIR]";

fn usage_exit(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Cli {
    kind: Kind,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
}

fn bad(flag: &str, value: &str) -> ! {
    usage_exit(&format!("invalid value `{value}` for `{flag}`"))
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut root) = (1u64, 20.0f64, false, PathBuf::from("."));
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage_exit(&format!("`{flag}` needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad(&flag, &value)),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| bad(&flag, &value))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(&flag, &value),
                }
            }
            "--root" => root = PathBuf::from(&value),
            _ => usage_exit(&format!("unknown option `{flag}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage_exit("`--workload` is required"));
    let kind = Kind::parse(&workload)
        .unwrap_or_else(|| usage_exit(&format!("unknown workload `{workload}`")));
    Cli {
        kind,
        workload,
        seed,
        seconds,
        trace,
        root,
    }
}

/// Refuses settings that change what the library calls simulate.
/// `SASSI_BLOCK_STEP` is read by `Device::with_defaults` inside
/// `inject::run_one` and the studies, and shifts cycle-derived counters.
fn check_knobs() -> Result<(), String> {
    if let Ok(v) = std::env::var("SASSI_BLOCK_STEP") {
        return Err(format!(
            "SASSI_BLOCK_STEP={v} is set; unset it so the default block stepping is measured"
        ));
    }
    let dev = sassi_sim::Device::with_defaults();
    if dev.exec_mode != sassi_sim::ExecMode::Decoded || !dev.block_step || dev.cta_jobs != 1 {
        return Err("the default device is not decoded, block-stepped, one CTA job".into());
    }
    Ok(())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit, when it is a git work tree.
fn commit(root: &std::path::Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    better: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        value: Some(value),
        unit,
        better,
    }
}

/// The recorded end-to-end metrics. Times are CPU time (see [`clock`])
/// scaled to the reference host's speed (see [`calib`]): they leave out
/// the time a worker waited for a CPU, and as much of the host's own
/// drift as the calibration kernel feels.
fn end_to_end(d: &RunData) -> Vec<Metric> {
    let t = &d.timed;
    vec![
        Metric {
            name: "setup_s",
            value: median(&d.setup_ref_s),
            unit: "s",
            better: "lower",
        },
        m(
            "units_per_ref_s",
            ratio(t.pass_len as f64, t.pass_ref_s),
            "1/s",
            "higher",
        ),
        Metric {
            name: "unit_ref_ms_p50",
            value: smoothed(&t.ref_ms, 0.5),
            unit: "ms",
            better: "lower",
        },
        Metric {
            name: "unit_ref_ms_p90",
            value: smoothed(&t.ref_ms, 0.9),
            unit: "ms",
            better: "lower",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
            better: "lower",
        },
    ]
}

/// The same timings unscaled, in CPU and in wall time, and the host
/// speed that scales them: printed for reference, not recorded, because
/// on a shared host they follow the neighbours' load.
fn unscaled(d: &RunData) -> Vec<Metric> {
    let t = &d.timed;
    vec![
        Metric {
            name: "host_speed",
            value: calib::speed(&t.calib_ms),
            unit: "ratio",
            better: "higher",
        },
        Metric {
            name: "setup_cpu_s",
            value: median(&d.setup_cpu_s),
            unit: "s",
            better: "lower",
        },
        m(
            "units_per_cpu_s",
            ratio(t.pass_len as f64, t.pass_cpu_s),
            "1/s",
            "higher",
        ),
        Metric {
            name: "unit_cpu_ms_p50",
            value: smoothed(&t.cpu_ms, 0.5),
            unit: "ms",
            better: "lower",
        },
        Metric {
            name: "unit_cpu_ms_p90",
            value: smoothed(&t.cpu_ms, 0.9),
            unit: "ms",
            better: "lower",
        },
        Metric {
            name: "setup_wall_s",
            value: median(&d.setup_wall_s),
            unit: "s",
            better: "lower",
        },
        m(
            "units_per_s",
            ratio(t.ms.len() as f64, t.wall_s),
            "1/s",
            "higher",
        ),
        Metric {
            name: "unit_ms_p50",
            value: smoothed(&t.ms, 0.5),
            unit: "ms",
            better: "lower",
        },
        Metric {
            name: "unit_ms_p90",
            value: smoothed(&t.ms, 0.9),
            unit: "ms",
            better: "lower",
        },
    ]
}

fn per_layer(d: &RunData, workers: usize) -> Vec<Metric> {
    let t = d.trace.as_ref().expect("traced run");
    let l = &t.layers;
    let per = |x: f64| ratio(x, l.units as f64);
    let ms = |x: Duration| per(x.as_secs_f64() * 1e3);
    let count = |x: u64| per(x as f64);
    let launch_self = l.launch.saturating_sub(l.handler);
    let host = l.execute.saturating_sub(l.launch);
    let rate = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
    let busy_s = d.timed.ms.iter().sum::<f64>() / 1e3;
    let outcome = |k: usize| ratio(t.outcomes[k] as f64, t.passes as f64);
    vec![
        m("kir.compile_ms", ms(l.kir_compile), "ms", "lower"),
        m("kir.kernels", count(l.kernels), "count", "lower"),
        m("kir.sass_instrs", count(l.sass_instrs), "count", "lower"),
        m("kir.spill_instrs", count(l.spill_instrs), "count", "lower"),
        m("core.pass_ms", ms(l.pass), "ms", "lower"),
        m("core.sites", count(l.sites), "count", "lower"),
        m("core.instrs_added", count(l.instrs_added), "count", "lower"),
        m("core.handler_ms", ms(l.handler), "ms", "lower"),
        m(
            "core.handler_calls",
            count(l.handler_calls),
            "count",
            "lower",
        ),
        m(
            "core.handler_ns_per_call",
            ratio(l.handler.as_nanos() as f64, l.handler_calls as f64),
            "ns",
            "lower",
        ),
        m("sim.link_ms", ms(l.link), "ms", "lower"),
        m("sim.uops", count(l.uops), "count", "lower"),
        m("sim.launch_self_ms", ms(launch_self), "ms", "lower"),
        m("sim.launches", count(l.launches), "count", "lower"),
        m("sim.warp_instrs", count(l.warp_instrs), "count", "lower"),
        m(
            "sim.thread_instrs",
            count(l.thread_instrs),
            "count",
            "lower",
        ),
        m(
            "sim.trampoline_warp_instrs",
            count(l.trampoline_warp_instrs),
            "count",
            "lower",
        ),
        m(
            "sim.ns_per_warp_instr",
            ratio(launch_self.as_nanos() as f64, l.warp_instrs as f64),
            "ns",
            "lower",
        ),
        m(
            "sim.minstr_per_s",
            ratio(l.warp_instrs as f64 / 1e6, launch_self.as_secs_f64()),
            "M/s",
            "higher",
        ),
        m("sim.issue.memory", count(l.issue.memory), "count", "lower"),
        m(
            "sim.issue.control",
            count(l.issue.control),
            "count",
            "lower",
        ),
        m(
            "sim.issue.numeric",
            count(l.issue.numeric),
            "count",
            "lower",
        ),
        m("sim.issue.misc", count(l.issue.misc), "count", "lower"),
        m("sim.cycles", count(l.cycles), "cycles", "lower"),
        m(
            "sim.ipc",
            ratio(l.warp_instrs as f64, l.cycles as f64),
            "instr/cycle",
            "higher",
        ),
        m(
            "mem.warp_accesses",
            count(l.mem.warp_accesses),
            "count",
            "lower",
        ),
        m(
            "mem.transactions",
            count(l.mem.transactions),
            "count",
            "lower",
        ),
        m(
            "mem.l1_hit_rate",
            rate(l.mem.l1.hits, l.mem.l1.misses),
            "ratio",
            "higher",
        ),
        m(
            "mem.l2_hit_rate",
            rate(l.mem.l2.hits, l.mem.l2.misses),
            "ratio",
            "higher",
        ),
        m(
            "mem.dram_transactions",
            count(l.mem.dram_transactions),
            "count",
            "lower",
        ),
        m("rt.host_ms", ms(host), "ms", "lower"),
        m(
            "workloads.construct_ms",
            t.construct.as_secs_f64() * 1e3,
            "ms",
            "lower",
        ),
        m("workloads.golden_ms", ms(l.golden), "ms", "lower"),
        m("studies.plan_ms", t.plan.as_secs_f64() * 1e3, "ms", "lower"),
        m("studies.run_one_ms", ms(l.run_one), "ms", "lower"),
        m("studies.outcome.masked", outcome(0), "count", "higher"),
        m("studies.outcome.crash", outcome(1), "count", "lower"),
        m("studies.outcome.hang", outcome(2), "count", "lower"),
        m("studies.outcome.failure", outcome(3), "count", "lower"),
        m("studies.outcome.sdc_stdout", outcome(4), "count", "lower"),
        m("studies.outcome.sdc_file", outcome(5), "count", "lower"),
        m("bench.busy_s", busy_s, "s", "lower"),
        m(
            "bench.worker_util",
            worker_util(busy_s, d.timed.wall_s, workers),
            "ratio",
            "higher",
        ),
        Metric {
            name: "bench.host_speed",
            value: calib::speed(&d.timed.calib_ms),
            unit: "ratio",
            better: "higher",
        },
        m(
            "trace.overhead_frac",
            ratio(l.replica.as_secs_f64(), l.twin.as_secs_f64()) - 1.0,
            "ratio",
            "lower",
        ),
    ]
}

fn main() {
    let cli = parse_cli();
    if let Err(e) = check_knobs() {
        usage_exit(&e);
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let env = |k: &str| std::env::var(k).map_or(Value::Null, Value::Str);
    let config = Value::Map(vec![
        ("workload".into(), Value::Str(cli.workload.clone())),
        ("seed".into(), Value::U64(cli.seed)),
        ("seconds".into(), Value::F64(cli.seconds)),
        ("trace".into(), Value::Bool(cli.trace)),
        ("workers".into(), Value::U64(WORKERS as u64)),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("cpu".into(), Value::Str(cpu_model())),
        ("commit".into(), Value::Str(commit(&cli.root))),
        ("SASSI_JOBS".into(), env("SASSI_JOBS")),
        ("SASSI_BLOCK_STEP".into(), env("SASSI_BLOCK_STEP")),
    ]);
    println!(
        "config {}",
        serde_json::to_string(&config).expect("config serializes")
    );

    let opts = Options {
        kind: cli.kind,
        seed: cli.seed,
        seconds: cli.seconds,
        workers: WORKERS,
        min_units: MIN_UNITS,
        // The timed phase of a traced run only feeds `bench.*`.
        min_passes: if cli.trace { 1 } else { MIN_PASSES },
        setup_rounds: SETUP_ROUNDS,
        setup_budget_s: SETUP_BUDGET_S,
        trace: cli.trace,
        results: cli.root.join("results"),
        scale: Scale::Full,
    };
    let data = suite::run(&opts).unwrap_or_else(|e| {
        eprintln!("perfbench: set-up failed: {e}");
        std::process::exit(1);
    });

    let t = &data.timed;
    println!(
        "perfbench {} seed {}: {} units in {:.2} s ({} passes, {} workers), {} set-up rounds",
        cli.workload,
        cli.seed,
        t.ms.len(),
        t.wall_s,
        t.passes,
        WORKERS,
        data.setup_cpu_s.len()
    );
    let mut problems = data.problems.clone();
    let e2e = end_to_end(&data);
    let unscaled = unscaled(&data);
    let layers = cli.trace.then(|| per_layer(&data, WORKERS));
    let fail_frac = m(
        "fail_frac",
        ratio(data.failed as f64, data.attempted as f64),
        "ratio",
        "lower",
    );
    let shown = e2e
        .iter()
        .chain([&fail_frac])
        .chain(&unscaled)
        .chain(layers.iter().flatten());
    for x in shown {
        match x.value {
            Some(v) if v.is_finite() => {
                println!(
                    "  {:<28} {v:>16.6} {:<12} {} is better",
                    x.name, x.unit, x.better
                )
            }
            _ => problems.push(format!("{} could not be measured", x.name)),
        }
    }
    println!("sim_digest {} {:#018x}", cli.workload, data.sim_digest);
    if let Some(tr) = &data.trace {
        println!("launch_digest {} {:#018x}", cli.workload, tr.launch_digest);
    }
    for p in &problems {
        eprintln!("perfbench: FAILED {p}");
    }

    // The result line carries the per-layer metrics when traced, the
    // end-to-end ones otherwise.
    let reported = layers.unwrap_or(e2e);
    let metrics = Value::Map(
        reported
            .iter()
            .map(|x| {
                let v = x.value.filter(|v| v.is_finite()).unwrap_or(0.0);
                (
                    x.name.to_owned(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(v)),
                        ("unit".into(), Value::Str(x.unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let correct = data.failed == 0 && problems.is_empty();
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(data.attempted)),
        ("failed".into(), Value::U64(data.failed)),
        ("metrics".into(), metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
