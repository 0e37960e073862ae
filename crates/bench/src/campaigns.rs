//! Sweep definitions, all routed through the parallel engine in
//! [`crate::exec`].
//!
//! Each sweep names its work units up front (one per workload; one per
//! *injection* for Figure 10), fans them across the worker pool, and
//! merges results in canonical order. The `repro` binary and the
//! determinism tests both call these functions, so "what the CLI does"
//! and "what the tests assert" cannot drift apart.

use crate::exec::{run_units, run_units_contained, split_jobs, Timing, WorkloadCache};
use sassi_studies::inject::{self, InjectionCampaign, InjectionSite};
use sassi_studies::{branch, memdiv, overhead, value};
use sassi_workloads::{fig10_set, fig7_set, table1_set, table2_set, table3_set, Workload};

/// The campaign seed every `repro fig10` run uses.
pub const FIG10_SEED: u64 = 0xC0FFEE;

fn set_names(set: Vec<Box<dyn Workload>>) -> Vec<String> {
    set.iter().map(|w| w.name()).collect()
}

/// Fans one study function across a workload set, one unit per
/// workload, returning rows in set order.
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
) -> (Vec<R>, Timing) {
    let split = split_jobs(jobs, names.len());
    if split.degraded {
        eprintln!(
            "[{label}] jobs={jobs} over {} units: outer workers take the whole \
             budget, inner CTA jobs degraded to 1",
            names.len()
        );
    }
    run_units(
        split.outer,
        names,
        WorkloadCache::default,
        |cache, name: &String, _| {
            eprintln!("[{label}] {name}");
            study(cache.get(name), split.inner)
        },
    )
}

/// Table 1: branch-divergence statistics.
pub fn table1(jobs: usize) -> (Vec<branch::BranchStudy>, Timing) {
    per_workload(jobs, "table1", &set_names(table1_set()), |w, inner| {
        branch::run_with_jobs(w, inner)
    })
}

/// Figure 5: per-branch profiles for bfs 1M vs UT.
pub fn fig5(jobs: usize) -> (Vec<branch::BranchStudy>, Timing) {
    let names = ["bfs (1M)", "bfs (UT)"].map(String::from);
    per_workload(jobs, "fig5", &names, |w, inner| {
        branch::run_with_jobs(w, inner)
    })
}

/// Figure 7: memory-divergence PMFs.
pub fn fig7(jobs: usize) -> (Vec<memdiv::MemDivStudy>, Timing) {
    per_workload(jobs, "fig7", &set_names(fig7_set()), |w, inner| {
        memdiv::run_with_jobs(w, inner)
    })
}

/// Figure 8: miniFE CSR vs ELL access matrices.
pub fn fig8(jobs: usize) -> (Vec<memdiv::MemDivStudy>, Timing) {
    let names = ["miniFE (CSR)", "miniFE (ELL)"].map(String::from);
    per_workload(jobs, "fig8", &names, |w, inner| {
        memdiv::run_with_jobs(w, inner)
    })
}

/// Table 2: value profiling.
pub fn table2(jobs: usize) -> (Vec<value::ValueRow>, Timing) {
    per_workload(jobs, "table2", &set_names(table2_set()), |w, inner| {
        value::run_with_jobs(w, inner)
    })
}

/// Table 3: instrumentation overheads. The overhead study times
/// serial launches (its slowdown model assumes one SM worker), so it
/// ignores the inner job share.
pub fn table3(jobs: usize) -> (Vec<overhead::OverheadRow>, Timing) {
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
/// A panicking injection does not stop the sweep: it is left out of
/// its workload's tally and returned as a [`FailedInjection`].
pub fn fig10_named(
    names: &[String],
    runs: usize,
    seed: u64,
    jobs: usize,
) -> (Vec<InjectionCampaign>, Timing, Vec<FailedInjection>) {
    let (plans, mut timing) = run_units(
        jobs,
        names,
        WorkloadCache::default,
        |cache, name: &String, _| {
            eprintln!("[fig10] {name} ({runs} injections)");
            inject::plan_campaign(cache.get(name), runs, seed)
        },
    );

    // One unit per injection: (workload index, site index, site).
    let units: Vec<(usize, usize, InjectionSite)> = plans
        .iter()
        .enumerate()
        .flat_map(|(wi, p)| p.sites.iter().enumerate().map(move |(k, &s)| (wi, k, s)))
        .collect();
    let (outcomes, inject_timing) = run_units_contained(
        jobs,
        &units,
        WorkloadCache::default,
        |cache, &(wi, _, site), _| inject::run_one(cache.get(&names[wi]), site, plans[wi].watchdog),
    );
    timing.merge(&inject_timing);

    // Units were flattened in workload order, so outcomes regroup by
    // contiguous runs of the same workload index.
    let mut campaigns = Vec::with_capacity(names.len());
    let mut failed = Vec::new();
    let mut cursor = 0;
    for (wi, plan) in plans.iter().enumerate() {
        let n = plan.sites.len();
        let mut ok = Vec::with_capacity(n);
        for (&(_, k, site), outcome) in units[cursor..cursor + n]
            .iter()
            .zip(&outcomes[cursor..cursor + n])
        {
            match outcome {
                Ok(o) => ok.push(*o),
                Err(message) => failed.push(FailedInjection {
                    workload: names[wi].clone(),
                    site_index: k,
                    campaign_seed: seed,
                    site_seed: site.seed,
                    message: message.clone(),
                }),
            }
        }
        campaigns.push(inject::tally(names[wi].clone(), &ok));
        cursor += n;
    }
    (campaigns, timing, failed)
}

/// Figure 10 over the paper's benchmark set.
pub fn fig10(
    runs: usize,
    seed: u64,
    jobs: usize,
) -> (Vec<InjectionCampaign>, Timing, Vec<FailedInjection>) {
    let names = set_names(fig10_set());
    fig10_named(&names, runs, seed, jobs)
}

/// §9.1 stub-handler ablation rows.
pub fn ablation_stub(jobs: usize) -> (Vec<overhead::OverheadRow>, Timing) {
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
pub fn ablation_spill(jobs: usize) -> (Vec<SpillRow>, Timing) {
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
