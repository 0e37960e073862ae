//! Panic containment: one workload whose unit panics must not abort a
//! sweep. Its siblings finish, and the sweep reports it by name so
//! `repro` can skip the artifact and exit 1.

use sassi_bench::campaigns::{self, FailedWorkload};

#[test]
fn a_panicking_workload_is_reported_by_name_and_its_siblings_finish() {
    let names = ["nn", "gaussian", "bfs (UT)"].map(String::from);
    for jobs in [1, 3] {
        let (rows, timing, failed) = campaigns::per_workload(jobs, "test-contain", &names, |w| {
            assert!(w.name() != "gaussian", "study of {} failed", w.name());
            w.name()
        });
        assert_eq!(rows, ["nn", "bfs (UT)"], "jobs {jobs}");
        assert_eq!(timing.units, 3);
        assert_eq!(
            failed,
            [FailedWorkload {
                workload: "gaussian".into(),
                message: "study of gaussian failed".into(),
            }],
            "jobs {jobs}"
        );
    }
}

#[test]
fn a_panicking_fig10_plan_leaves_the_other_campaigns_whole() {
    let names = ["nn", "no such workload"].map(String::from);
    let (campaigns, timing, failed_plans, failed) = campaigns::fig10_named(&names, 3, 7, 2);
    assert!(failed.is_empty(), "{failed:?}");
    assert_eq!(failed_plans.len(), 1);
    assert_eq!(failed_plans[0].workload, "no such workload");
    assert!(
        failed_plans[0].message.contains("unknown workload"),
        "{}",
        failed_plans[0].message
    );
    assert_eq!(campaigns.len(), 1);
    assert_eq!(campaigns[0].runs, 3);
    // Two planning units, then the three injections of `nn`.
    assert_eq!(timing.units, 5);
}
