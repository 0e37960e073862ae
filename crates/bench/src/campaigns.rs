//! Sweep definitions, all routed through the parallel engine in
//! [`crate::exec`].
//!
//! Each sweep names its work units up front (one per workload; one per
//! *injection* for Figure 10), fans them across the worker pool, and
//! merges results in canonical order. The `repro` binary and the
//! determinism tests both call these functions, so "what the CLI does"
//! and "what the tests assert" cannot drift apart.
//!
//! Every unit runs under [`run_units_contained`]: a unit that panics is
//! returned as a [`FailedWorkload`] or [`FailedInjection`] while its
//! siblings finish, so one bad workload cannot abort a long sweep.

use crate::exec::{run_units_contained, split_jobs, Timing, WorkloadCache};
use sassi_studies::inject::{self, InjectionCampaign, InjectionSite};
use sassi_studies::{branch, memdiv, overhead, value};
use sassi_workloads::{fig10_set, fig7_set, table1_set, table2_set, table3_set, Workload};

/// The campaign seed every `repro fig10` run uses.
pub const FIG10_SEED: u64 = 0xC0FFEE;

fn set_names(set: Vec<Box<dyn Workload>>) -> Vec<String> {
    set.iter().map(|w| w.name()).collect()
}

/// A per-workload unit (a study row, or a Figure 10 campaign plan) that
/// panicked instead of producing its result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailedWorkload {
    /// Workload display name.
    pub workload: String,
    /// The panic message.
    pub message: String,
}

/// Splits contained per-workload results into the workloads that
/// finished, with their results in unit order, and those that panicked.
fn split_failed<R>(
    names: &[String],
    results: Vec<Result<R, String>>,
) -> (Vec<(&String, R)>, Vec<FailedWorkload>) {
    let mut rows = Vec::with_capacity(results.len());
    let mut failed = Vec::new();
    for (name, r) in names.iter().zip(results) {
        match r {
            Ok(row) => rows.push((name, row)),
            Err(message) => failed.push(FailedWorkload {
                workload: name.clone(),
                message,
            }),
        }
    }
    (rows, failed)
}

/// Fans one study function across a workload set, one unit per
/// workload, returning rows in set order. A workload whose study
/// panics has no row; it is returned as a [`FailedWorkload`] instead,
/// after every other workload has finished.
///
/// The `jobs` budget is split by [`split_jobs`]: outer workers claim
/// whole workloads; any leftover budget is passed to the study as its
/// inner CTA-shard job count. Studies that cannot parallelize a launch
/// (stateful injection, closure handlers) simply ignore the second
/// argument.
pub fn per_workload<R: Send>(
    jobs: usize,
    label: &str,
    names: &[String],
    study: impl Fn(&dyn Workload, usize) -> R + Sync,
) -> Sweep<R> {
    let split = split_jobs(jobs, names.len());
    if split.degraded {
        eprintln!(
            "[{label}] jobs={jobs} over {} units: outer workers take the whole \
             budget, inner CTA jobs degraded to 1",
            names.len()
        );
    }
    let (results, timing) = run_units_contained(
        split.outer,
        names,
        WorkloadCache::default,
        |cache, name: &String, _| {
            eprintln!("[{label}] {name}");
            study(cache.get(name), split.inner)
        },
    );
    let (rows, failed) = split_failed(names, results);
    (rows.into_iter().map(|(_, r)| r).collect(), timing, failed)
}

/// The result of a per-workload sweep: its rows in set order, its
/// timing and the workloads that panicked.
pub type Sweep<R> = (Vec<R>, Timing, Vec<FailedWorkload>);

/// Table 1: branch-divergence statistics.
pub fn table1(jobs: usize) -> Sweep<branch::BranchStudy> {
    per_workload(jobs, "table1", &set_names(table1_set()), |w, inner| {
        branch::run_with_jobs(w, inner)
    })
}

/// Figure 5: per-branch profiles for bfs 1M vs UT.
pub fn fig5(jobs: usize) -> Sweep<branch::BranchStudy> {
    let names = ["bfs (1M)", "bfs (UT)"].map(String::from);
    per_workload(jobs, "fig5", &names, |w, inner| {
        branch::run_with_jobs(w, inner)
    })
}

/// Figure 7: memory-divergence PMFs.
pub fn fig7(jobs: usize) -> Sweep<memdiv::MemDivStudy> {
    per_workload(jobs, "fig7", &set_names(fig7_set()), |w, inner| {
        memdiv::run_with_jobs(w, inner)
    })
}

/// Figure 8: miniFE CSR vs ELL access matrices.
pub fn fig8(jobs: usize) -> Sweep<memdiv::MemDivStudy> {
    let names = ["miniFE (CSR)", "miniFE (ELL)"].map(String::from);
    per_workload(jobs, "fig8", &names, |w, inner| {
        memdiv::run_with_jobs(w, inner)
    })
}

/// Table 2: value profiling.
pub fn table2(jobs: usize) -> Sweep<value::ValueRow> {
    per_workload(jobs, "table2", &set_names(table2_set()), |w, inner| {
        value::run_with_jobs(w, inner)
    })
}

/// Table 3: instrumentation overheads. The overhead study times
/// serial launches (its slowdown model assumes one SM worker), so it
/// ignores the inner job share.
pub fn table3(jobs: usize) -> Sweep<overhead::OverheadRow> {
    per_workload(jobs, "table3", &set_names(table3_set()), |w, _inner| {
        overhead::run(w)
    })
}

/// A Figure 10 injection that panicked instead of ending in an
/// outcome. The sweep contains the panic, finishes every other
/// injection, and reports these so the caller can fail afterwards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailedInjection {
    /// Workload display name.
    pub workload: String,
    /// Index of the site in the workload's campaign plan.
    pub site_index: usize,
    /// The campaign seed the plan was drawn with.
    pub campaign_seed: u64,
    /// The site's own seed (destination register and bit).
    pub site_seed: u64,
    /// The panic message.
    pub message: String,
}

impl FailedInjection {
    /// The `repro` command that reruns exactly this injection.
    pub fn repro_command(&self) -> String {
        format!(
            "repro fig10-site '{}' {} {}",
            self.workload, self.site_index, self.campaign_seed
        )
    }
}

/// Runs the `site_index`-th injection of `workload`'s campaign under
/// `campaign_seed` on its own, exactly as the Figure 10 sweep runs it
/// (site lists are prefix-stable, so planning `site_index + 1` sites
/// draws the same site). Panics propagate.
pub fn fig10_site(workload: &str, site_index: usize, campaign_seed: u64) -> inject::Outcome {
    let mut cache = WorkloadCache::default();
    let w = cache.get(workload);
    let plan = inject::plan_campaign(w, site_index + 1, campaign_seed);
    inject::run_one(w, plan.sites[site_index], plan.watchdog)
}

/// Figure 10: error-injection campaigns over `names`, `runs`
/// injections per workload.
///
/// Two engine passes: first one unit per workload (profile + site
/// selection, each site's seed a pure function of campaign seed,
/// workload and site index), then one unit per *injection*. Outcomes
/// are tallied back per workload in site order, so the merged
/// campaigns are bit-identical to a serial run regardless of `jobs`.
///
/// A panic does not stop the sweep. A workload whose planning panics
/// has no campaign and is returned as a [`FailedWorkload`]; a panicking
/// injection is left out of its workload's tally and returned as a
/// [`FailedInjection`].
pub fn fig10_named(names: &[String], runs: usize, seed: u64, jobs: usize) -> Fig10Sweep {
    let (plans, mut timing) = run_units_contained(
        jobs,
        names,
        WorkloadCache::default,
        |cache, name: &String, _| {
            eprintln!("[fig10] {name} ({runs} injections)");
            inject::plan_campaign(cache.get(name), runs, seed)
        },
    );
    let (planned, failed_plans) = split_failed(names, plans);

    // One unit per injection: (workload index, site index, site).
    let units: Vec<(usize, usize, InjectionSite)> = planned
        .iter()
        .enumerate()
        .flat_map(|(wi, (_, p))| p.sites.iter().enumerate().map(move |(k, &s)| (wi, k, s)))
        .collect();
    let (outcomes, inject_timing) = run_units_contained(
        jobs,
        &units,
        WorkloadCache::default,
        |cache, &(wi, _, site), _| {
            let (name, plan) = &planned[wi];
            inject::run_one(cache.get(name), site, plan.watchdog)
        },
    );
    timing.merge(&inject_timing);

    // Units were flattened in workload order, so outcomes regroup by
    // contiguous runs of the same workload index.
    let mut campaigns = Vec::with_capacity(planned.len());
    let mut failed = Vec::new();
    let mut cursor = 0;
    for (name, plan) in &planned {
        let n = plan.sites.len();
        let mut ok = Vec::with_capacity(n);
        for (&(_, k, site), outcome) in units[cursor..cursor + n]
            .iter()
            .zip(&outcomes[cursor..cursor + n])
        {
            match outcome {
                Ok(o) => ok.push(*o),
                Err(message) => failed.push(FailedInjection {
                    workload: (*name).clone(),
                    site_index: k,
                    campaign_seed: seed,
                    site_seed: site.seed,
                    message: message.clone(),
                }),
            }
        }
        campaigns.push(inject::tally((*name).clone(), &ok));
        cursor += n;
    }
    (campaigns, timing, failed_plans, failed)
}

/// The result of a Figure 10 sweep: one campaign per planned workload
/// in set order, the sweep's timing, the workloads whose planning
/// panicked and the injections that panicked.
pub type Fig10Sweep = (
    Vec<InjectionCampaign>,
    Timing,
    Vec<FailedWorkload>,
    Vec<FailedInjection>,
);

/// Figure 10 over the paper's benchmark set.
pub fn fig10(runs: usize, seed: u64, jobs: usize) -> Fig10Sweep {
    let names = set_names(fig10_set());
    fig10_named(&names, runs, seed, jobs)
}

/// §9.1 stub-handler ablation rows.
pub fn ablation_stub(jobs: usize) -> Sweep<overhead::OverheadRow> {
    let names = ["nn", "sad", "kmeans", "stencil", "spmv (small)"].map(String::from);
    per_workload(jobs, "ablation-stub", &names, |w, _inner| overhead::run(w))
}

/// One row of the liveness-ablation table.
#[derive(Clone, Debug)]
pub struct SpillRow {
    /// Workload display name.
    pub name: String,
    /// Average liveness-driven saves per site.
    pub live_saves: f64,
    /// Save-everything saves per site.
    pub all_saves: f64,
    /// Kernel slowdown with liveness-driven spills.
    pub k_live: f64,
    /// Kernel slowdown with save-everything spills.
    pub k_all: f64,
}

/// Liveness-driven vs save-everything spill ablation rows.
pub fn ablation_spill(jobs: usize) -> Sweep<SpillRow> {
    let names = [
        "nn",
        "sgemm (small)",
        "bfs (1M)",
        "heartwall",
        "miniFE (CSR)",
    ]
    .map(String::from);
    per_workload(jobs, "ablation-spill", &names, |w, _inner| {
        let (live_saves, all_saves) = overhead::spill_ablation(w);
        let (k_live, k_all) = overhead::run_spill_policy_ablation(w);
        SpillRow {
            name: w.name(),
            live_saves,
            all_saves,
            k_live,
            k_all,
        }
    })
}
