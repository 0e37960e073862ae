//! `repro` — regenerates every table and figure of the paper.
//!
//! Every sweep runs on the deterministic parallel campaign engine
//! (`sassi_bench::exec`): results are byte-identical for any `--jobs`
//! value, including 1.

use sassi_bench::campaigns::{self, FailedWorkload};
use sassi_bench::exec::{default_jobs, Timing};
use sassi_bench::hotloop::{self as hotloop_cmp, Spread};
use sassi_bench::save_json;
use sassi_studies::report;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

const USAGE: &str = "usage: repro [--jobs N] [table1|fig5|fig7|fig8|table2|table3|fig10 [runs]|fig10-site WORKLOAD SITE [SEED]|ablation-stub|ablation-spill|hotloop|all]
  --jobs N     worker threads per sweep (default: SASSI_JOBS or available parallelism)
  fig10 runs   injections per workload (positive integer, default 150)
  fig10-site   rerun one Figure 10 injection alone (site index in the workload's plan; SEED defaults to the fig10 campaign seed)
  hotloop      decoded (block-stepped + single-stepped) vs reference comparison -> results/timings/sim_hot_loop.json";

fn usage_exit(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Cli {
    cmd: String,
    /// Positional arguments after the subcommand.
    rest: Vec<String>,
    jobs: usize,
}

fn parse_cli() -> Cli {
    let mut jobs: Option<usize> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let jobs_value = if a == "--jobs" || a == "-j" {
            Some(
                args.next()
                    .unwrap_or_else(|| usage_exit(&format!("`{a}` needs a value"))),
            )
        } else {
            a.strip_prefix("--jobs=").map(str::to_owned)
        };
        if let Some(v) = jobs_value {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => jobs = Some(n),
                _ => usage_exit(&format!(
                    "invalid job count `{v}` (want a positive integer)"
                )),
            }
        } else if a.starts_with('-') {
            usage_exit(&format!("unknown option `{a}`"));
        } else {
            positional.push(a);
        }
    }
    let cmd = positional
        .first()
        .cloned()
        .unwrap_or_else(|| String::from("all"));
    let rest = positional.get(1..).unwrap_or_default().to_vec();
    Cli {
        cmd,
        rest,
        jobs: jobs.unwrap_or_else(default_jobs),
    }
}

/// Rejects trailing positional arguments for subcommands that take none.
fn no_args(cli: &Cli) {
    if let Some(extra) = cli.rest.first() {
        usage_exit(&format!("`{}` takes no arguments (got `{extra}`)", cli.cmd));
    }
}

fn fig10_runs(cli: &Cli) -> usize {
    if let Some(extra) = cli.rest.get(1) {
        usage_exit(&format!(
            "`fig10` takes at most one argument (got `{extra}`)"
        ));
    }
    match cli.rest.first() {
        None => 150,
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => usage_exit(&format!(
                "invalid run count `{s}` (want a positive integer)"
            )),
        },
    }
}

/// Prints the sweep's throughput line and records it under
/// `results/timings/` (kept out of `results/*.json` so the main
/// artifacts stay byte-identical across `--jobs` settings).
fn report_timing(name: &str, timing: &Timing) {
    println!("{}", timing.summary(name));
    save_json(&format!("timings/{name}"), timing);
}

/// Parses `fig10-site WORKLOAD SITE [SEED]`.
fn fig10_site_args(cli: &Cli) -> (String, usize, u64) {
    let number = |s: &String| {
        s.parse::<u64>()
            .unwrap_or_else(|_| usage_exit(&format!("invalid number `{s}`")))
    };
    match cli.rest.as_slice() {
        [w, site] => (w.clone(), number(site) as usize, campaigns::FIG10_SEED),
        [w, site, seed] => (w.clone(), number(site) as usize, number(seed)),
        _ => usage_exit("`fig10-site` takes WORKLOAD SITE [SEED]"),
    }
}

fn main() {
    let cli = parse_cli();
    // Sweeps that contained a failing unit; reported, then exit 1.
    let mut failed = false;
    match cli.cmd.as_str() {
        "table1" => {
            no_args(&cli);
            failed |= !table1(cli.jobs).ok;
        }
        "fig5" => {
            no_args(&cli);
            failed |= !fig5(cli.jobs).ok;
        }
        "fig7" => {
            no_args(&cli);
            failed |= !fig7(cli.jobs).ok;
        }
        "fig8" => {
            no_args(&cli);
            failed |= !fig8(cli.jobs).ok;
        }
        "table2" => {
            no_args(&cli);
            failed |= !table2(cli.jobs).ok;
        }
        "table3" => {
            no_args(&cli);
            failed |= !table3(cli.jobs).ok;
        }
        "fig10" => {
            let runs = fig10_runs(&cli);
            failed |= !fig10(runs, cli.jobs).ok;
        }
        "fig10-site" => {
            let (workload, site, seed) = fig10_site_args(&cli);
            if sassi_workloads::by_name(&workload).is_none() {
                usage_exit(&format!("unknown workload `{workload}`"));
            }
            let outcome = campaigns::fig10_site(&workload, site, seed);
            println!("{workload} site {site} (campaign seed {seed}): {outcome:?}");
        }
        "ablation-stub" => {
            no_args(&cli);
            failed |= !ablation_stub(cli.jobs).ok;
        }
        "ablation-spill" => {
            no_args(&cli);
            failed |= !ablation_spill(cli.jobs).ok;
        }
        "hotloop" => {
            no_args(&cli);
            hotloop();
        }
        "all" => {
            no_args(&cli);
            failed |= !all(cli.jobs);
        }
        other => usage_exit(&format!("unknown experiment `{other}`")),
    }
    if failed {
        std::process::exit(1);
    }
}

/// The end-to-end record `repro all` writes to
/// `results/timings/full_sweep.json`.
#[derive(Serialize)]
struct FullSweep {
    command: String,
    host: Host,
    /// `--jobs` as given; each sweep records the count it used.
    jobs: usize,
    /// Wall-clock seconds of the whole run.
    wall_s: f64,
    sweeps: BTreeMap<&'static str, Timing>,
}

/// The machine a [`FullSweep`] ran on.
#[derive(Serialize)]
struct Host {
    /// Available parallelism as the process sees it.
    nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    cpu_model: String,
}

impl Host {
    fn this() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| String::from("unknown"));
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
        }
    }
}

/// Runs every sweep of the paper's evaluation in order and, when all
/// of them succeed, writes their timings with the host and the total
/// wall time to `results/timings/full_sweep.json`. Returns whether all
/// succeeded.
fn all(jobs: usize) -> bool {
    let started = Instant::now();
    let runs: [fn(usize) -> Swept; 9] = [
        table1,
        fig5,
        fig7,
        fig8,
        table2,
        table3,
        |jobs| fig10(150, jobs),
        ablation_stub,
        ablation_spill,
    ];
    let swept: Vec<Swept> = runs.iter().map(|run| run(jobs)).collect();
    if swept.iter().any(|s| !s.ok) {
        return false;
    }
    let record = FullSweep {
        command: format!("repro --jobs {jobs} all"),
        host: Host::this(),
        jobs,
        wall_s: started.elapsed().as_secs_f64(),
        sweeps: swept.iter().map(|s| (s.label, s.timing)).collect(),
    };
    println!("[all] {:.2} s wall", record.wall_s);
    save_json("timings/full_sweep", &record);
    true
}

/// A finished sweep: its name, its timing, and whether every unit
/// succeeded.
struct Swept {
    label: &'static str,
    timing: Timing,
    ok: bool,
}

/// Reports a sweep's timing and the workloads it lost to a panic, each
/// with its message. A sweep with failures is not `ok`: it writes no
/// artifact, and `repro` exits 1 after the remaining sweeps.
fn finish(label: &'static str, timing: Timing, failed: &[FailedWorkload]) -> Swept {
    report_timing(label, &timing);
    for f in failed {
        eprintln!("[{label}] {} panicked: {}", f.workload, f.message);
    }
    if !failed.is_empty() {
        eprintln!(
            "[{label}] {} workload(s) panicked; results not written",
            failed.len()
        );
    }
    Swept {
        label,
        timing,
        ok: failed.is_empty(),
    }
}

fn table1(jobs: usize) -> Swept {
    let (rows, timing, failed) = campaigns::table1(jobs);
    let swept = finish("table1", timing, &failed);
    if !swept.ok {
        return swept;
    }
    println!("{}", report::table1(&rows));
    save_json(
        "table1",
        &rows.iter().map(|r| r.row.clone()).collect::<Vec<_>>(),
    );
    swept
}

fn fig5(jobs: usize) -> Swept {
    let (studies, timing, failed) = campaigns::fig5(jobs);
    let swept = finish("fig5", timing, &failed);
    if !swept.ok {
        return swept;
    }
    for study in &studies {
        println!("{}", report::figure5(study, 12));
        save_json(
            &format!("fig5_{}", study.row.name.replace(['(', ')', ' '], "")),
            &study.per_branch,
        );
    }
    swept
}

fn fig7(jobs: usize) -> Swept {
    let (studies, timing, failed) = campaigns::fig7(jobs);
    let swept = finish("fig7", timing, &failed);
    if !swept.ok {
        return swept;
    }
    println!("{}", report::figure7(&studies));
    save_json(
        "fig7",
        &studies
            .iter()
            .map(|s| (s.name.clone(), s.pmf.clone(), s.fully_diverged))
            .collect::<Vec<_>>(),
    );
    swept
}

fn fig8(jobs: usize) -> Swept {
    let (studies, timing, failed) = campaigns::fig8(jobs);
    let swept = finish("fig8", timing, &failed);
    if !swept.ok {
        return swept;
    }
    for study in &studies {
        println!("{}", report::figure8(study));
        save_json(
            &format!("fig8_{}", study.name.replace(['(', ')', ' '], "")),
            &study.matrix,
        );
    }
    swept
}

fn table2(jobs: usize) -> Swept {
    let (rows, timing, failed) = campaigns::table2(jobs);
    let swept = finish("table2", timing, &failed);
    if !swept.ok {
        return swept;
    }
    println!("{}", report::table2(&rows));
    save_json("table2", &rows);
    swept
}

fn table3(jobs: usize) -> Swept {
    let (rows, timing, failed) = campaigns::table3(jobs);
    let swept = finish("table3", timing, &failed);
    if !swept.ok {
        return swept;
    }
    println!("{}", report::table3(&rows));
    save_json("table3", &rows);
    swept
}

/// Runs the Figure 10 sweep; it is not `ok` if any workload's
/// planning or any injection panicked. The sweep still finishes, but
/// its tallies are then short of those units, so `results/fig10.json`
/// is left untouched and each failed injection is printed with the
/// command that reruns it alone.
fn fig10(runs: usize, jobs: usize) -> Swept {
    let (campaigns, timing, failed_plans, failures) =
        campaigns::fig10(runs, campaigns::FIG10_SEED, jobs);
    println!("{}", report::figure10(&campaigns));
    let mut swept = finish("fig10", timing, &failed_plans);
    if swept.ok && failures.is_empty() {
        save_json("fig10", &campaigns);
        return swept;
    }
    if !failures.is_empty() {
        eprintln!(
            "[fig10] {} injection(s) panicked; results/fig10.json not written",
            failures.len()
        );
    }
    for f in &failures {
        eprintln!(
            "[fig10] {} site {} (site seed {:#x}): {}\n  reproduce: {}",
            f.workload,
            f.site_index,
            f.site_seed,
            f.message,
            f.repro_command()
        );
    }
    swept.ok = false;
    swept
}

fn ablation_stub(jobs: usize) -> Swept {
    let (rows, timing, failed) = campaigns::ablation_stub(jobs);
    let swept = finish("ablation-stub", timing, &failed);
    if !swept.ok {
        return swept;
    }
    println!("Stub-handler ablation (§9.1): kernel slowdown with full vs empty handler");
    for row in &rows {
        println!(
            "  {:<14} value-profiling {:>6.1}x | stub {:>6.1}x | stub fraction {:.0}%",
            row.name,
            row.slowdowns[2].kernel,
            row.stub.kernel,
            100.0 * row.stub_fraction
        );
    }
    let mean = rows.iter().map(|r| r.stub_fraction).sum::<f64>() / rows.len() as f64;
    println!(
        "  mean stub fraction: {:.0}% (paper reports ~80%)",
        100.0 * mean
    );
    save_json("ablation_stub", &rows);
    swept
}

fn hotloop() {
    // Not part of `all`: it deliberately re-runs workloads on the slow
    // reference interpreter, and `all`'s wall time is itself a tracked
    // perf artifact.
    let report = hotloop_cmp::compare();
    println!("Hot-loop comparison: pre-decoded µop interpreter vs reference (seed) semantics");
    println!(
        "  workloads: {} | {} warp instrs ({} thread instrs)",
        report.workloads.join(", "),
        report.decoded.warp_instrs,
        report.decoded.thread_instrs
    );
    println!(
        "  median (min–max) over {} interleaved rounds",
        report.rounds
    );
    let range =
        |s: &Spread, unit: &str| format!("{:.3}{unit} ({:.3}–{:.3})", s.median, s.min, s.max);
    for (label, run) in [
        ("decoded", &report.decoded),
        ("single-step", &report.single_step),
        ("reference", &report.reference),
        ("instrumented", &report.instrumented),
    ] {
        println!(
            "  {label:<12} {} wall — {:.0} warp instrs/busy s",
            range(&run.wall_s, " s"),
            run.instrs_per_s
        );
    }
    println!(
        "  speedup: {} (reference busy / decoded busy)",
        range(&report.speedup, "x")
    );
    println!(
        "  block speedup: {} (single-step wall / block-stepped wall)",
        range(&report.block_speedup, "x")
    );
    println!(
        "  instrumented overhead: {} wall vs native decoded (branch study, {} handler calls)",
        range(&report.instrumented_overhead, "x"),
        report.handler_calls
    );
    let i = &report.issue;
    let total = (i.memory + i.control + i.numeric + i.misc).max(1);
    println!(
        "  issue classes: memory {:.0}% | control {:.0}% | numeric {:.0}% | misc {:.0}%",
        100.0 * i.memory as f64 / total as f64,
        100.0 * i.control as f64 / total as f64,
        100.0 * i.numeric as f64 / total as f64,
        100.0 * i.misc as f64 / total as f64
    );
    save_json("timings/sim_hot_loop", &report);
}

fn ablation_spill(jobs: usize) -> Swept {
    let (rows, timing, failed) = campaigns::ablation_spill(jobs);
    let swept = finish("ablation-spill", timing, &failed);
    if !swept.ok {
        return swept;
    }
    println!("Liveness ablation: liveness-driven minimal saves vs save-everything (binary-rewriter baseline)");
    println!(
        "{:<16} {:>14} {:>16} {:>12} {:>10}",
        "benchmark", "avg saves/site", "save-all (=15)", "liveness K", "save-all K"
    );
    for row in &rows {
        println!(
            "{:<16} {:>14.1} {:>16.0} {:>11.1}x {:>9.1}x",
            row.name, row.live_saves, row.all_saves, row.k_live, row.k_all
        );
    }
    swept
}
