//! Coverage guard for fused trampolines: every native-handler trap
//! site that the studies plant in the Figure 10 workloads must sit in a
//! window that decode fuses into one macro-µop. A site that silently
//! falls back to µop-by-µop execution still gives exact results, but
//! loses the speed-up the error-injection campaign depends on, so any
//! fallback must be listed here by name.

use sassi::SpillPolicy;
use sassi_rt::ModuleBuilder;
use sassi_studies::overhead::StudyConfig;
use sassi_workloads::fig10_set;

/// Windows known not to fuse, as `workload/study/kernel@pc`. None
/// today: every trampoline the SASSI pass emits for these studies uses
/// only the closed µop set the fusion compiler accepts.
const DOCUMENTED_FALLBACKS: &[&str] = &[];

#[test]
fn every_fig10_trap_site_is_fused() {
    let studies = [
        StudyConfig::CondBranches,
        StudyConfig::MemoryDivergence,
        StudyConfig::ValueProfiling,
        StudyConfig::ErrorInjection,
        StudyConfig::StubValueSites,
    ];
    let mut unfused = Vec::new();
    let mut sites = 0usize;
    for w in fig10_set() {
        let mut mb = ModuleBuilder::new();
        for k in w.kernels() {
            mb.add_kernel(k);
        }
        for study in studies {
            for policy in [SpillPolicy::Liveness, SpillPolicy::SaveEverything] {
                let mut sassi = study.instrumentor();
                sassi.set_spill_policy(policy);
                let module = mb.build(Some(&sassi)).expect("build");
                let d = module.decoded();
                sites += d.sites().len();
                for (i, site) in d.sites().iter().enumerate() {
                    if d.is_fused(i as u32) {
                        continue;
                    }
                    let kernel = module
                        .functions
                        .iter()
                        .find(|f| f.entry <= site.pc && site.pc < f.end)
                        .map_or("?", |f| f.name.as_str());
                    let name = format!("{}/{}/{kernel}@{}", w.name(), study.label(), site.pc);
                    if !DOCUMENTED_FALLBACKS.contains(&name.as_str()) {
                        unfused.push(format!("{name} under {policy:?}"));
                    }
                }
            }
        }
    }
    assert!(sites > 0);
    assert!(
        unfused.is_empty(),
        "{} of {sites} trap sites do not fuse:\n{}",
        unfused.len(),
        unfused.join("\n")
    );
}
