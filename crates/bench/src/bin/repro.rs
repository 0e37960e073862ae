//! `repro` — regenerates every table and figure of the paper.
//!
//! Every sweep runs on the deterministic parallel campaign engine
//! (`sassi_bench::exec`): results are byte-identical for any `--jobs`
//! value, including 1.

use sassi_bench::campaigns::{self, FailedWorkload};
use sassi_bench::exec::{default_jobs, Timing};
use sassi_bench::{hotloop as hotloop_cmp, save_json};
use sassi_studies::report;

const USAGE: &str = "usage: repro [--jobs N] [table1|fig5|fig7|fig8|table2|table3|fig10 [runs]|fig10-site WORKLOAD SITE [SEED]|ablation-stub|ablation-spill|hotloop|all]
  --jobs N     worker threads per sweep (default: SASSI_JOBS or available parallelism)
  fig10 runs   injections per workload (positive integer, default 150)
  fig10-site   rerun one Figure 10 injection alone (site index in the workload's plan; SEED defaults to the fig10 campaign seed)
  hotloop      decoded (serial + CTA-parallel) vs reference comparison -> results/timings/sim_hot_loop.json";

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
            failed |= !table1(cli.jobs);
        }
        "fig5" => {
            no_args(&cli);
            failed |= !fig5(cli.jobs);
        }
        "fig7" => {
            no_args(&cli);
            failed |= !fig7(cli.jobs);
        }
        "fig8" => {
            no_args(&cli);
            failed |= !fig8(cli.jobs);
        }
        "table2" => {
            no_args(&cli);
            failed |= !table2(cli.jobs);
        }
        "table3" => {
            no_args(&cli);
            failed |= !table3(cli.jobs);
        }
        "fig10" => {
            let runs = fig10_runs(&cli);
            failed |= !fig10(runs, cli.jobs);
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
            failed |= !ablation_stub(cli.jobs);
        }
        "ablation-spill" => {
            no_args(&cli);
            failed |= !ablation_spill(cli.jobs);
        }
        "hotloop" => {
            no_args(&cli);
            hotloop(cli.jobs);
        }
        "all" => {
            no_args(&cli);
            for sweep in [table1, fig5, fig7, fig8, table2, table3] {
                failed |= !sweep(cli.jobs);
            }
            failed |= !fig10(150, cli.jobs);
            failed |= !ablation_stub(cli.jobs);
            failed |= !ablation_spill(cli.jobs);
        }
        other => usage_exit(&format!("unknown experiment `{other}`")),
    }
    if failed {
        std::process::exit(1);
    }
}

/// Reports a sweep's timing and the workloads it lost to a panic, each
/// with its message; returns whether there were none. A sweep with
/// failures writes no artifact, and `repro` exits 1 after the remaining
/// sweeps.
fn sweep_ok(label: &str, timing: &Timing, failed: &[FailedWorkload]) -> bool {
    report_timing(label, timing);
    for f in failed {
        eprintln!("[{label}] {} panicked: {}", f.workload, f.message);
    }
    if !failed.is_empty() {
        eprintln!(
            "[{label}] {} workload(s) panicked; results not written",
            failed.len()
        );
    }
    failed.is_empty()
}

fn table1(jobs: usize) -> bool {
    let (rows, timing, failed) = campaigns::table1(jobs);
    if !sweep_ok("table1", &timing, &failed) {
        return false;
    }
    println!("{}", report::table1(&rows));
    save_json(
        "table1",
        &rows.iter().map(|r| r.row.clone()).collect::<Vec<_>>(),
    );
    true
}

fn fig5(jobs: usize) -> bool {
    let (studies, timing, failed) = campaigns::fig5(jobs);
    if !sweep_ok("fig5", &timing, &failed) {
        return false;
    }
    for study in &studies {
        println!("{}", report::figure5(study, 12));
        save_json(
            &format!("fig5_{}", study.row.name.replace(['(', ')', ' '], "")),
            &study.per_branch,
        );
    }
    true
}

fn fig7(jobs: usize) -> bool {
    let (studies, timing, failed) = campaigns::fig7(jobs);
    if !sweep_ok("fig7", &timing, &failed) {
        return false;
    }
    println!("{}", report::figure7(&studies));
    save_json(
        "fig7",
        &studies
            .iter()
            .map(|s| (s.name.clone(), s.pmf.clone(), s.fully_diverged))
            .collect::<Vec<_>>(),
    );
    true
}

fn fig8(jobs: usize) -> bool {
    let (studies, timing, failed) = campaigns::fig8(jobs);
    if !sweep_ok("fig8", &timing, &failed) {
        return false;
    }
    for study in &studies {
        println!("{}", report::figure8(study));
        save_json(
            &format!("fig8_{}", study.name.replace(['(', ')', ' '], "")),
            &study.matrix,
        );
    }
    true
}

fn table2(jobs: usize) -> bool {
    let (rows, timing, failed) = campaigns::table2(jobs);
    if !sweep_ok("table2", &timing, &failed) {
        return false;
    }
    println!("{}", report::table2(&rows));
    save_json("table2", &rows);
    true
}

fn table3(jobs: usize) -> bool {
    let (rows, timing, failed) = campaigns::table3(jobs);
    if !sweep_ok("table3", &timing, &failed) {
        return false;
    }
    println!("{}", report::table3(&rows));
    save_json("table3", &rows);
    true
}

/// Runs the Figure 10 sweep; returns `false` if any workload's
/// planning or any injection panicked. The sweep still finishes, but
/// its tallies are then short of those units, so `results/fig10.json`
/// is left untouched and each failed injection is printed with the
/// command that reruns it alone.
fn fig10(runs: usize, jobs: usize) -> bool {
    let (campaigns, timing, failed_plans, failures) =
        campaigns::fig10(runs, campaigns::FIG10_SEED, jobs);
    println!("{}", report::figure10(&campaigns));
    let plans_ok = sweep_ok("fig10", &timing, &failed_plans);
    if plans_ok && failures.is_empty() {
        save_json("fig10", &campaigns);
        return true;
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
    false
}

fn ablation_stub(jobs: usize) -> bool {
    let (rows, timing, failed) = campaigns::ablation_stub(jobs);
    if !sweep_ok("ablation-stub", &timing, &failed) {
        return false;
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
    true
}

fn hotloop(jobs: usize) {
    // Not part of `all`: it deliberately re-runs workloads on the slow
    // reference interpreter, and `all`'s wall time is itself a tracked
    // perf artifact.
    let report = hotloop_cmp::compare(jobs);
    println!("Hot-loop comparison: pre-decoded µop interpreter vs reference (seed) semantics");
    println!(
        "  workloads: {} | jobs={} | {} warp instrs ({} thread instrs)",
        report.workloads.join(", "),
        report.jobs,
        report.decoded.warp_instrs,
        report.decoded.thread_instrs
    );
    for (label, run) in [
        ("decoded", &report.decoded),
        ("single-step", &report.single_step),
        ("parallel", &report.parallel),
        ("reference", &report.reference),
        ("instrumented", &report.instrumented),
    ] {
        println!(
            "  {label:<12} {:>7.2} s busy ({:>6.2} s wall) — {:.0} warp instrs/s",
            run.busy_s, run.wall_s, run.instrs_per_s
        );
    }
    println!("  speedup: {:.2}x (busy-time ratio)", report.speedup);
    println!(
        "  block speedup: {:.2}x (single-step wall / block-stepped wall)",
        report.block_speedup
    );
    println!(
        "  parallel speedup: {:.2}x (decoded serial wall / CTA-parallel wall, {} shard workers)",
        report.parallel_speedup, report.jobs
    );
    println!(
        "  instrumented overhead: {:.2}x wall vs native decoded (branch study, {} handler calls)",
        report.instrumented_overhead, report.handler_calls
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

fn ablation_spill(jobs: usize) -> bool {
    let (rows, timing, failed) = campaigns::ablation_spill(jobs);
    if !sweep_ok("ablation-spill", &timing, &failed) {
        return false;
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
    true
}
