//! The campaign engine's core guarantee: sweep results are
//! byte-identical for any `--jobs` value.
//!
//! These tests run the same sweeps the `repro` binary runs (through
//! `sassi_bench::campaigns`), once with 1 worker and once with 4, and
//! compare the *serialized* results — the same bytes `save_json`
//! writes under `results/`.

use parking_lot::Mutex;
use sassi_bench::campaigns;
use sassi_rt::{ModuleBuilder, Runtime};
use sassi_studies::{branch, inject};
use sassi_workloads::by_name;
use serde::Serialize;
use std::sync::Arc;

fn json<T: Serialize>(v: &T) -> String {
    serde_json::to_string_pretty(v).expect("serialize")
}

#[test]
fn injection_campaign_is_identical_across_job_counts() {
    let names = vec![String::from("nn")];
    let (serial, t1, p1, f1) = campaigns::fig10_named(&names, 8, 0xD15EA5E, 1);
    let (parallel, t4, p4, f4) = campaigns::fig10_named(&names, 8, 0xD15EA5E, 4);
    assert!(p1.is_empty() && p4.is_empty(), "{p1:?} {p4:?}");
    assert!(f1.is_empty() && f4.is_empty(), "{f1:?} {f4:?}");
    assert_eq!(json(&serial), json(&parallel));
    // Two engine passes per campaign: planning (1 unit) + injections (8).
    assert_eq!(t1.units, 9);
    assert_eq!(t4.units, 9);
    assert_eq!(t1.jobs, 1);
    // One workload in the plan pass clamps the pool; the injection
    // pass runs all 4 workers.
    assert!(serial[0].runs == 8);
}

#[test]
fn site_lists_are_a_pure_function_of_the_campaign_inputs() {
    let w = by_name("nn").expect("nn workload");
    let a = inject::plan_campaign(w.as_ref(), 12, 99);
    let b = inject::plan_campaign(w.as_ref(), 12, 99);
    assert_eq!(a.watchdog, b.watchdog);
    assert_eq!(json(&a.sites), json(&b.sites));
    // Site k must not depend on how many sites were drawn with it:
    // a 4-site plan is a strict prefix of the 12-site plan.
    let prefix = inject::plan_campaign(w.as_ref(), 4, 99);
    assert_eq!(json(&prefix.sites), json(&a.sites[..4].to_vec()));
    // And a different campaign seed moves the sites.
    let other = inject::plan_campaign(w.as_ref(), 12, 100);
    assert_ne!(json(&other.sites), json(&a.sites));
}

#[test]
fn branch_sweep_is_identical_across_job_counts() {
    let names = ["nn", "bfs (UT)", "gaussian"].map(String::from);
    let study = |w: &dyn sassi_workloads::Workload| branch::run(w).row;
    let (serial, _, f1) = campaigns::per_workload(1, "test-branch", &names, study);
    let (parallel, _, f4) = campaigns::per_workload(4, "test-branch", &names, study);
    // More workers than units: the pool clamps to the unit count.
    let (clamped, _, f8) = campaigns::per_workload(8, "test-branch", &names, study);
    assert!(f1.is_empty() && f4.is_empty() && f8.is_empty());
    assert_eq!(json(&serial), json(&parallel));
    assert_eq!(json(&serial), json(&clamped));
    // Rows come back in set order, not completion order.
    let row_names: Vec<&str> = serial.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(row_names, ["nn", "bfs (UT)", "gaussian"]);
}

#[test]
fn branch_study_is_identical_across_block_step() {
    // Block batching must never leak into instruction-derived study
    // output: with `block_step` off and on, the branch study's handler
    // state and every launch record (cycles aside) are identical.
    let w = by_name("nn").expect("workload");
    let cells = [false, true].map(|block_step| {
        let state = Arc::new(Mutex::new(branch::BranchState::default()));
        let mut sassi = branch::instrumentor(state.clone());
        let mut mb = ModuleBuilder::new();
        for k in w.kernels() {
            mb.add_kernel(k);
        }
        let module = mb.build(Some(&sassi)).expect("build");
        let mut rt = Runtime::with_defaults();
        rt.device.block_step = block_step;
        let out = w.execute(&mut rt, &module, &mut sassi);
        assert!(out.is_ok(), "block_step={block_step}: {:?}", out.err());
        let mut branches: Vec<_> = state
            .lock()
            .branches
            .iter()
            .map(|(a, s)| (*a, *s))
            .collect();
        branches.sort_by_key(|&(addr, _)| addr);
        let mut records = rt.records().to_vec();
        for r in &mut records {
            r.result.stats.cycles = 0;
        }
        (branches, records)
    });
    assert!(!cells[0].0.is_empty(), "the study must see branches");
    assert_eq!(
        cells[0], cells[1],
        "branch study diverges under block stepping"
    );
}
