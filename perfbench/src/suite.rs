//! The three workloads, their set-up, and the closed-loop timed phase.
//!
//! A *unit* is one call the `repro` sweeps make: one workload run
//! (`native`), one `inject::run_one` (`inject`) or one study run
//! (`studies`). Each unit builds its module and runs on a fresh
//! `Runtime`, so the modelled caches start empty in every unit. A
//! *pass* is every unit of the workload once. The timed phase runs
//! whole passes until the finished units add up to `seconds` of CPU
//! time at the reference host speed (see [`calib`]), at least
//! `min_passes` passes and at least `min_units` units are done, so
//! every run measures the same mix of
//! units and, whatever the host's speed, the same number of passes;
//! `workers` workers claim units through `run_units`, each taking its
//! next unit only when the previous one is done.

use crate::stats::{median, Fnv, SplitMix};
use crate::trace::{self, Counters, Layers};
use crate::{calib, clock};
use parking_lot::Mutex;
use sassi_bench::campaigns::FIG10_SEED;
use sassi_bench::exec::{run_units, WorkloadCache};
use sassi_studies::inject::{self, InjectionSite, Outcome};
use sassi_studies::overhead::StudyConfig;
use sassi_studies::{branch, memdiv, value};
use sassi_workloads::{all_workloads, execute, fig7_set, table1_set, table2_set, Workload};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every registered workload, uninstrumented, checked against its
    /// golden output.
    Native,
    /// A fixed slice of Figure 10's error-injection campaign.
    Inject,
    /// The branch, memory-divergence and value-profiling sweeps.
    Studies,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "native" => Some(Kind::Native),
            "inject" => Some(Kind::Inject),
            "studies" => Some(Kind::Studies),
            _ => None,
        }
    }
}

/// Injection sites per Figure 10 workload in one `inject` pass,
/// heaviest first. Unit cost spans 35 ms (nn) to 5 s (sgemm), so the
/// counts give each workload about 0.5–1.5 s of simulation per pass
/// instead of letting sgemm's units dominate. The three cheapest
/// workloads stay under half of the units, because the latency of
/// their 35–60 ms units swings most with host load and would otherwise
/// set `unit_ref_ms_p50`.
pub const INJECT_SLICE: [(&str, usize); 19] = [
    ("sgemm (medium)", 1),
    ("sad", 1),
    ("cutcp", 1),
    ("gaussian", 1),
    ("mri-q", 2),
    ("spmv (large)", 2),
    ("pathfinder", 2),
    ("streamcluster", 2),
    ("nw", 4),
    ("hotspot", 4),
    ("bfs (1M)", 4),
    ("lbm", 4),
    ("kmeans", 4),
    ("srad_v1", 6),
    ("lud", 10),
    ("stencil", 10),
    ("histo", 12),
    ("backprop", 12),
    ("nn", 18),
];

/// `inject` campaigns with at most this many sites per pass are the
/// heavy ones; their units are dispatched first, so a pass does not end
/// on a long straggler.
const HEAVY_SITES: usize = 2;

/// The most set-up rounds an untraced run makes.
pub const MAX_SETUP_ROUNDS: usize = 21;

/// Workloads of the reduced smoke run (each present in all three
/// workloads' sets, and cheap).
const SMOKE: [&str; 4] = ["nn", "backprop", "histo", "srad_v1"];

/// The unit every set-up round runs untimed to warm the host: the
/// first unit of this workload, which every benchmark workload has.
const WARMUP: &str = "nn";

/// Full-size or reduced (tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark as defined.
    Full,
    /// Only the [`SMOKE`] workloads, at most two injection sites each.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// How to run one benchmark workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub kind: Kind,
    /// Chooses the dispatch order.
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    /// Worker threads.
    pub workers: usize,
    /// Minimum units in the timed phase.
    pub min_units: usize,
    /// Minimum passes in the timed phase.
    pub min_passes: usize,
    /// Set-up repetitions of an untraced run: at least this many, then
    /// more while they have taken under `setup_budget_s` in all, up to
    /// [`MAX_SETUP_ROUNDS`] (`setup_s` is their median). A traced run
    /// sets up once.
    pub setup_rounds: usize,
    /// See `setup_rounds`.
    pub setup_budget_s: f64,
    /// Whether to add the traced phase.
    pub trace: bool,
    /// The committed `results/` directory the studies rows are checked
    /// against.
    pub results: PathBuf,
    /// Full or reduced.
    pub scale: Scale,
}

/// A committed study artifact, as `repro` writes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Artifact {
    /// `table1.json`: one branch row per workload.
    Table1,
    /// `fig5_<name>.json`: one file of per-branch counters per workload.
    Fig5,
    /// `fig7.json`: one memory-divergence PMF per workload.
    Fig7,
    /// `fig8_<name>.json`: one access matrix per workload.
    Fig8,
    /// `table2.json`: one value-profiling row per workload.
    Table2,
}

impl Artifact {
    fn config(self) -> StudyConfig {
        match self {
            Artifact::Table1 | Artifact::Fig5 => StudyConfig::CondBranches,
            Artifact::Fig7 | Artifact::Fig8 => StudyConfig::MemoryDivergence,
            Artifact::Table2 => StudyConfig::ValueProfiling,
        }
    }

    /// Runs the study on `w` and renders its row the way `repro`'s
    /// `save_json` does.
    fn render(self, w: &dyn Workload) -> String {
        let json = match self {
            Artifact::Table1 => serde_json::to_string_pretty(&branch::run(w).row),
            Artifact::Fig5 => serde_json::to_string_pretty(&branch::run(w).per_branch),
            Artifact::Fig7 => {
                let s = memdiv::run(w);
                serde_json::to_string_pretty(&(s.name, s.pmf, s.fully_diverged))
            }
            Artifact::Fig8 => serde_json::to_string_pretty(&memdiv::run(w).matrix),
            Artifact::Table2 => serde_json::to_string_pretty(&value::run(w)),
        };
        json.expect("study rows serialize")
    }
}

/// What one unit does.
#[derive(Clone, Debug)]
pub enum Job {
    /// `execute` uninstrumented, then compare with `golden()`.
    Native,
    /// `inject::run_one` at `site`.
    Inject {
        /// The planned site.
        site: InjectionSite,
        /// The campaign's hang watchdog.
        watchdog: u64,
    },
    /// A study run whose row must equal `expected`.
    Study {
        /// The artifact the row belongs to.
        artifact: Artifact,
        /// The committed row.
        expected: String,
    },
}

/// One unit of work.
#[derive(Clone, Debug)]
pub struct Unit {
    /// Workload display name.
    pub name: String,
    /// What to run.
    pub job: Job,
}

impl Unit {
    /// The unit's identity, for the digest and for failure reports.
    fn describe(&self) -> String {
        match &self.job {
            Job::Native => format!("native `{}`", self.name),
            Job::Inject { site, .. } => format!(
                "inject `{}` launch {} nth {} site-seed {:#x}",
                self.name, site.launch, site.nth, site.seed
            ),
            Job::Study { artifact, .. } => format!("{artifact:?} `{}`", self.name),
        }
    }

    /// The instrumentation the traced replica builds with: the study's
    /// own, or the error-injection profiling configuration for
    /// `inject`, whose handler is private to `run_one`.
    fn config(&self) -> Option<StudyConfig> {
        match &self.job {
            Job::Native => None,
            Job::Inject { .. } => Some(StudyConfig::ErrorInjection),
            Job::Study { artifact, .. } => Some(artifact.config()),
        }
    }
}

/// A unit's deterministic result: equal on every pass and every run of
/// a commit.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Counters and output summary (`native`), outcome (`inject`) or
    /// the rendered row (`studies`).
    pub text: String,
    /// The injection outcome.
    pub outcome: Option<Outcome>,
}

fn native_text(c: &Counters, summary: &str) -> String {
    format!(
        "launches {} warp {} thread {} cycles {} handler {}\n{summary}",
        c.launches, c.warp_instrs, c.thread_instrs, c.kernel_cycles, c.handler_calls
    )
}

/// Runs one unit untraced and checks its output.
fn run_unit(w: &dyn Workload, job: &Job) -> Result<Record, String> {
    match job {
        Job::Native => {
            let report = execute(w, None, None);
            let golden = w.golden();
            match &report.output {
                Ok(out) if *out == golden => Ok(Record {
                    text: native_text(&Counters::from(&report), &out.summary),
                    outcome: None,
                }),
                Ok(_) => Err("output differs from golden".into()),
                Err(e) => Err(format!("run failed: {e}")),
            }
        }
        Job::Inject { site, watchdog } => {
            let o = inject::run_one(w, *site, *watchdog);
            Ok(Record {
                text: format!("{o:?}"),
                outcome: Some(o),
            })
        }
        Job::Study { artifact, expected } => {
            let got = artifact.render(w);
            if got == *expected {
                Ok(Record {
                    text: got,
                    outcome: None,
                })
            } else {
                Err(format!("row differs from the committed one:\n{got}"))
            }
        }
    }
}

/// A traced unit's result.
pub struct Traced {
    /// Spans and counts.
    pub layers: Layers,
    /// Digest of the replica's per-launch results.
    pub launch_digest: u64,
    /// The record the untraced unit must have produced (`native`,
    /// `inject`).
    pub record: Option<Record>,
}

/// Runs one unit traced: the untraced library call the replica stands
/// for (its twin), the replica, and the checks that both ran the same
/// program. `inject` also times `run_one` whole.
fn traced_unit(w: &dyn Workload, unit: &Unit) -> Result<Traced, String> {
    let cfg = unit.config();
    let mut layers = Layers {
        units: 1,
        ..Layers::default()
    };
    let t = Instant::now();
    let twin = execute(w, cfg.map(|c| c.instrumentor()).as_mut(), None);
    layers.twin += t.elapsed();
    let t = Instant::now();
    let rep = trace::replicate(w, cfg.map(|c| c.instrumentor()).as_mut(), &mut layers)?;
    layers.replica += t.elapsed();
    if rep.output != twin.output || rep.counters != Counters::from(&twin) {
        return Err(format!(
            "replica differs from the untraced run: {:?} vs {:?}",
            rep.counters,
            Counters::from(&twin)
        ));
    }
    let native_warp = match cfg {
        Some(_) => execute(w, None, None).warp_instrs,
        None => twin.warp_instrs,
    };
    layers.trampoline_warp_instrs += rep.counters.warp_instrs.saturating_sub(native_warp);

    let record = match &unit.job {
        Job::Native => {
            let t = Instant::now();
            let golden = w.golden();
            layers.golden += t.elapsed();
            match &rep.output {
                Ok(out) if *out == golden => Some(Record {
                    text: native_text(&rep.counters, &out.summary),
                    outcome: None,
                }),
                _ => return Err("replica output differs from golden".into()),
            }
        }
        Job::Inject { site, watchdog } => {
            // `run_one` checks non-crashing runs against `golden()`;
            // the span shows that share of the unit.
            let t = Instant::now();
            w.golden();
            layers.golden += t.elapsed();
            let t = Instant::now();
            let o = inject::run_one(w, *site, *watchdog);
            layers.run_one += t.elapsed();
            Some(Record {
                text: format!("{o:?}"),
                outcome: Some(o),
            })
        }
        Job::Study { .. } => None,
    };
    Ok(Traced {
        layers,
        launch_digest: rep.launch_digest,
        record,
    })
}

/// The units of one workload plus everything fixed before timing.
pub struct Plan {
    /// Units in canonical order.
    pub units: Vec<Unit>,
    /// Unit indices in dispatch order; each pass shuffles each group
    /// by the seed and runs the groups in turn.
    groups: Vec<Vec<u32>>,
    /// `inject` only: each campaign's name and unit range.
    campaigns: Vec<(String, Range<usize>)>,
    /// Distinct workload names.
    names: Vec<String>,
    /// Per-worker workload instances for the next phase.
    pool: Mutex<Vec<WorkloadCache>>,
    /// Time to construct the workload instances.
    pub construct: Duration,
    /// Time for `inject::plan_campaign` over the slice.
    pub plan: Duration,
}

impl Plan {
    /// Builds one workload instance set per worker for the next phase
    /// and returns how long that took.
    fn refill(&self, jobs: usize) -> Duration {
        let t = Instant::now();
        let caches = (0..jobs)
            .map(|_| {
                let mut c = WorkloadCache::default();
                for n in &self.names {
                    c.get(n);
                }
                c
            })
            .collect();
        *self.pool.lock() = caches;
        t.elapsed()
    }

    fn warmup(&self) -> usize {
        self.units
            .iter()
            .position(|u| u.name == WARMUP)
            .expect("every workload has a warm-up unit")
    }
}

fn wanted(scale: Scale, name: &str) -> bool {
    scale == Scale::Full || SMOKE.contains(&name)
}

fn names(set: Vec<Box<dyn Workload>>) -> Vec<String> {
    set.iter().map(|w| w.name()).collect()
}

/// The committed artifact rows, rendered as `save_json` writes them:
/// whole files for the per-workload artifacts, array elements for the
/// tables.
fn expected_rows(
    dir: &std::path::Path,
    artifact: Artifact,
    names: &[String],
) -> Result<Vec<String>, String> {
    let read = |file: String| {
        let path = dir.join(&file);
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
    };
    let per_file = |prefix: &str| {
        names
            .iter()
            .map(|n| read(format!("{prefix}_{}.json", n.replace(['(', ')', ' '], ""))))
            .collect()
    };
    let file = match artifact {
        Artifact::Fig5 => return per_file("fig5"),
        Artifact::Fig8 => return per_file("fig8"),
        Artifact::Table1 => "table1.json",
        Artifact::Fig7 => "fig7.json",
        Artifact::Table2 => "table2.json",
    };
    let text = read(file.into())?;
    let value: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("parsing {file}: {e}"))?;
    // Comparing elements is comparing the file only if the parsed tree
    // renders back to the same bytes.
    if serde_json::to_string_pretty(&value).ok().as_deref() != Some(text.as_str()) {
        return Err(format!("{file} does not re-render byte-identically"));
    }
    match value {
        serde::Value::Seq(rows) if rows.len() == names.len() => Ok(rows
            .iter()
            .map(|r| serde_json::to_string_pretty(r).expect("values serialize"))
            .collect()),
        _ => Err(format!("{file}: expected {} rows", names.len())),
    }
}

/// Builds the plan: workload instances, committed rows (`studies`) and
/// campaign plans (`inject`).
///
/// # Errors
///
/// A committed artifact that is missing or malformed.
pub fn setup(opts: &Options) -> Result<Plan, String> {
    let mut units = Vec::new();
    let mut groups = Vec::new();
    let mut campaigns = Vec::new();
    let mut plan_time = Duration::ZERO;
    match opts.kind {
        Kind::Native => {
            for name in names(all_workloads()) {
                if wanted(opts.scale, &name) {
                    units.push(Unit {
                        name,
                        job: Job::Native,
                    });
                }
            }
            groups.push((0..units.len() as u32).collect());
        }
        Kind::Inject => {
            let slice: Vec<(String, usize)> = INJECT_SLICE
                .iter()
                .filter(|(n, _)| wanted(opts.scale, n))
                .map(|&(n, sites)| {
                    let sites = match opts.scale {
                        Scale::Full => sites,
                        Scale::Smoke => sites.min(2),
                    };
                    (n.to_owned(), sites)
                })
                .collect();
            let t = Instant::now();
            let (plans, _) = run_units(
                opts.workers,
                &slice,
                WorkloadCache::default,
                |cache, (name, sites): &(String, usize), _| {
                    inject::plan_campaign(cache.get(name), *sites, FIG10_SEED)
                },
            );
            plan_time = t.elapsed();
            let (mut heavy, mut light) = (Vec::new(), Vec::new());
            for ((name, sites), plan) in slice.into_iter().zip(plans) {
                let start = units.len();
                let group = if sites <= HEAVY_SITES {
                    &mut heavy
                } else {
                    &mut light
                };
                group.extend(start as u32..(start + plan.sites.len()) as u32);
                for site in plan.sites {
                    units.push(Unit {
                        name: name.clone(),
                        job: Job::Inject {
                            site,
                            watchdog: plan.watchdog,
                        },
                    });
                }
                campaigns.push((name, start..units.len()));
            }
            groups = vec![heavy, light];
        }
        Kind::Studies => {
            let fixed = |names: [&str; 2]| names.map(String::from).to_vec();
            let artifacts = [
                (Artifact::Table1, names(table1_set())),
                (Artifact::Fig5, fixed(["bfs (1M)", "bfs (UT)"])),
                (Artifact::Fig7, names(fig7_set())),
                (Artifact::Fig8, fixed(["miniFE (CSR)", "miniFE (ELL)"])),
                (Artifact::Table2, names(table2_set())),
            ];
            let (mut value_units, mut other_units) = (Vec::new(), Vec::new());
            for (artifact, set) in artifacts {
                let rows = expected_rows(&opts.results, artifact, &set)?;
                for (name, expected) in set.into_iter().zip(rows) {
                    if !wanted(opts.scale, &name) {
                        continue;
                    }
                    let i = units.len() as u32;
                    match artifact {
                        Artifact::Table2 => value_units.push(i),
                        _ => other_units.push(i),
                    }
                    units.push(Unit {
                        name,
                        job: Job::Study { artifact, expected },
                    });
                }
            }
            // Value units are the long ones: dispatching them first
            // keeps a long unit from ending a pass with a worker idle.
            groups = vec![value_units, other_units];
        }
    }
    let mut names: Vec<String> = units.iter().map(|u| u.name.clone()).collect();
    names.sort();
    names.dedup();
    let plan = Plan {
        units,
        groups,
        campaigns,
        names,
        pool: Mutex::new(Vec::new()),
        construct: Duration::ZERO,
        plan: plan_time,
    };
    let construct = plan.refill(opts.workers);
    Ok(Plan { construct, ..plan })
}

/// Decides, once per pass, whether the pass runs: passes start until
/// the finished units add up to `seconds` of work and `min_units` units
/// have been admitted, and at least one always runs. Admitted passes
/// are a prefix and each runs whole.
struct Gate {
    seconds: f64,
    min_units: usize,
    pass_len: usize,
    state: Mutex<GateState>,
}

#[derive(Default)]
struct GateState {
    /// Passes admitted so far.
    admitted: usize,
    /// Whether admission has closed.
    closed: bool,
    /// Work finished so far, in seconds.
    work_s: f64,
}

impl Gate {
    fn new(seconds: f64, min_units: usize, pass_len: usize) -> Gate {
        Gate {
            seconds,
            min_units,
            pass_len,
            state: Mutex::new(GateState::default()),
        }
    }

    fn admit(&self, pass: usize) -> bool {
        let mut s = self.state.lock();
        if pass < s.admitted {
            return true;
        }
        if s.closed {
            return false;
        }
        if pass > 0 && s.work_s >= self.seconds && pass * self.pass_len >= self.min_units {
            s.closed = true;
            return false;
        }
        s.admitted = pass + 1;
        true
    }

    /// Counts a finished unit's work.
    fn finished(&self, work_s: f64) {
        self.state.lock().work_s += work_s;
    }
}

/// One finished unit of a phase.
pub struct Done<R> {
    /// Pass number.
    pub pass: usize,
    /// Canonical unit index.
    pub unit: usize,
    /// Latency.
    pub ms: f64,
    /// CPU time of the worker thread during the unit.
    pub cpu_ms: f64,
    /// The worker's latest calibration sample after the unit.
    pub calib: calib::Sample,
    /// Seconds from phase start to completion.
    pub end_s: f64,
    /// Result, or what went wrong (panics included).
    pub out: Result<R, String>,
}

/// Runs `f`, turning a panic into an error.
fn checked<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Runs whole passes of the plan on `opts.workers` workers; returns the
/// finished units and the phase's wall time.
fn phase<R: Send>(
    plan: &Plan,
    opts: &Options,
    seconds: f64,
    min_units: usize,
    run: impl Fn(&dyn Workload, &Unit) -> Result<R, String> + Sync,
) -> (Vec<Done<R>>, f64) {
    let pass_len = plan.units.len();
    let max_passes = (200_000 / pass_len.max(1)).max(1);
    let mut rng = SplitMix::new(opts.seed);
    let mut order = Vec::with_capacity(max_passes * pass_len);
    for _ in 0..max_passes {
        for g in &plan.groups {
            let mut g = g.clone();
            rng.shuffle(&mut g);
            order.extend(g);
        }
    }
    let gate = Gate::new(seconds, min_units, pass_len);
    let start = Instant::now();
    let (results, _) = run_units(
        opts.workers,
        &order,
        || plan.pool.lock().pop().unwrap_or_default(),
        |cache, &u, i| {
            let pass = i / pass_len;
            if !gate.admit(pass) {
                return None;
            }
            let unit = &plan.units[u as usize];
            let (t, cpu) = (Instant::now(), clock::thread());
            let out = checked(|| run(cache.get(&unit.name), unit));
            let cpu_ms = (clock::thread() - cpu).as_secs_f64() * 1e3;
            let (ms, end_s) = (t.elapsed(), start.elapsed());
            let calib = calib::sample();
            gate.finished(calib::at_ref(cpu_ms, calib.ms) / 1e3);
            Some(Done {
                pass,
                unit: u as usize,
                ms: ms.as_secs_f64() * 1e3,
                cpu_ms,
                calib,
                end_s: end_s.as_secs_f64(),
                out,
            })
        },
    );
    let mut done: Vec<Done<R>> = results.into_iter().flatten().collect();
    done.sort_by_key(|d| (d.pass, d.unit));
    let wall_s = done.iter().map(|d| d.end_s).fold(0.0, f64::max);
    (done, wall_s)
}

/// The untraced timed phase, as the end-to-end metrics see it.
pub struct Timed {
    /// Unit latencies.
    pub ms: Vec<f64>,
    /// CPU time of each unit.
    pub cpu_ms: Vec<f64>,
    /// CPU time of one pass: each unit's median over the passes,
    /// summed over the units.
    pub pass_cpu_s: f64,
    /// Units in a pass.
    pub pass_len: usize,
    /// The calibration samples the workers took (see [`calib`]).
    pub calib_ms: Vec<f64>,
    /// CPU time of each unit at the reference host speed: scaled by
    /// its worker's latest calibration sample.
    pub ref_ms: Vec<f64>,
    /// [`Timed::pass_cpu_s`] at the reference host speed.
    pub pass_ref_s: f64,
    /// Wall time from the first claim to the last completion.
    pub wall_s: f64,
    /// Whole passes run.
    pub passes: usize,
}

/// The traced phase.
pub struct TraceData {
    /// Spans and counts over every traced unit.
    pub layers: Layers,
    /// Whole passes run.
    pub passes: usize,
    /// Injection outcomes over all traced passes, in
    /// [`Outcome::all`] order.
    pub outcomes: [u64; 6],
    /// Digest of every launch's results over one pass.
    pub launch_digest: u64,
    /// Workload construction in set-up.
    pub construct: Duration,
    /// `inject` campaign planning in the traced run's set-up.
    pub plan: Duration,
}

/// Everything one benchmark run measured and checked.
pub struct RunData {
    /// CPU time of each set-up round, all threads.
    pub setup_cpu_s: Vec<f64>,
    /// The same at the reference host speed, scaled by a calibration
    /// sample taken after the round.
    pub setup_ref_s: Vec<f64>,
    /// Wall time of each set-up round.
    pub setup_wall_s: Vec<f64>,
    /// The untraced timed phase.
    pub timed: Timed,
    /// The traced phase, when asked for.
    pub trace: Option<TraceData>,
    /// Units run (warm-ups included).
    pub attempted: u64,
    /// Units that failed a check or panicked.
    pub failed: u64,
    /// What went wrong, one line per problem.
    pub problems: Vec<String>,
    /// FNV-1a over every unit's deterministic record, one pass, in
    /// canonical order.
    pub sim_digest: u64,
}

struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    seed: u64,
}

impl Tally {
    fn fail(&mut self, unit: &Unit, what: &str) {
        self.failed += 1;
        self.problems
            .push(format!("{} (seed {}): {what}", unit.describe(), self.seed));
    }

    /// Counts `done`, keeping each unit's first record and failing any
    /// later pass that disagrees with it.
    fn absorb(&mut self, plan: &Plan, first: &mut [Option<Record>], d: &Done<Record>) {
        self.attempted += 1;
        let unit = &plan.units[d.unit];
        match (&d.out, &first[d.unit]) {
            (Err(e), _) => self.fail(unit, e),
            (Ok(r), None) => first[d.unit] = Some(r.clone()),
            (Ok(r), Some(f)) if r != f => self.fail(
                unit,
                &format!("result changed between runs: {r:?} vs {f:?}"),
            ),
            _ => {}
        }
    }
}

/// Checks that every planned injection site came back with an outcome,
/// on every pass.
fn check_campaigns(plan: &Plan, done: &[Done<Record>], passes: usize, tally: &mut Tally) {
    for pass in 0..passes {
        for (name, range) in &plan.campaigns {
            let outcomes: Vec<Outcome> = done
                .iter()
                .filter(|d| d.pass == pass && range.contains(&d.unit))
                .filter_map(|d| d.out.as_ref().ok().and_then(|r| r.outcome))
                .collect();
            let t = inject::tally(name.clone(), &outcomes);
            let counted: u64 = t.counts.iter().map(|(_, c)| c).sum();
            if t.runs != range.len() as u64 || counted != t.runs {
                tally.problems.push(format!(
                    "inject `{name}` pass {pass}: tally covers {counted} of {} planned sites",
                    range.len()
                ));
            }
        }
    }
}

/// Runs the traced phase and checks each traced unit against the
/// untraced phase's records (`first`) and against earlier passes.
fn trace_phase(
    plan: &Plan,
    opts: &Options,
    first: &[Option<Record>],
    tally: &mut Tally,
) -> TraceData {
    plan.refill(opts.workers);
    let (traced, _) = phase(plan, opts, opts.seconds / 2.0, 0, traced_unit);
    let mut layers = Layers::default();
    let mut outcomes = [0u64; 6];
    let mut launch: Vec<Option<u64>> = vec![None; plan.units.len()];
    for d in &traced {
        tally.attempted += 1;
        let unit = &plan.units[d.unit];
        let t = match &d.out {
            Ok(t) => t,
            Err(e) => {
                tally.fail(unit, &format!("traced: {e}"));
                continue;
            }
        };
        layers.merge(&t.layers);
        if let Some(r) = &t.record {
            if first[d.unit].as_ref() != Some(r) {
                tally.fail(unit, "traced result differs from the untraced unit");
            }
            if let Some(o) = r.outcome {
                let k = Outcome::all().iter().position(|&x| x == o);
                outcomes[k.expect("outcome listed in Outcome::all")] += 1;
            }
        }
        match launch[d.unit] {
            None => launch[d.unit] = Some(t.launch_digest),
            Some(h) if h != t.launch_digest => {
                tally.fail(unit, "launch results changed between passes")
            }
            _ => {}
        }
    }
    let mut launch_digest = Fnv::default();
    for (unit, h) in plan.units.iter().zip(&launch) {
        launch_digest.field(&unit.describe());
        launch_digest.bytes(&h.unwrap_or(0).to_le_bytes());
    }
    TraceData {
        layers,
        passes: traced.last().map_or(0, |d| d.pass + 1),
        outcomes,
        launch_digest: launch_digest.0,
        construct: plan.construct,
        plan: plan.plan,
    }
}

/// Sets up (`setup_rounds` times untraced, once traced), warms up,
/// runs the timed phase and, if asked, the traced phase; checks every
/// output.
///
/// # Errors
///
/// A set-up failure (no unit ran).
pub fn run(opts: &Options) -> Result<RunData, String> {
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        seed: opts.seed,
    };
    let (mut setup_cpu_s, mut setup_ref_s, mut setup_wall_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut plan = None;
    let more = |rounds: &[f64]| {
        let (n, spent) = (rounds.len(), rounds.iter().sum::<f64>());
        if opts.trace {
            n == 0
        } else {
            n < opts.setup_rounds.max(1) || (n < MAX_SETUP_ROUNDS && spent < opts.setup_budget_s)
        }
    };
    while more(&setup_wall_s) {
        // Release the previous round's plan first so rounds start alike.
        drop(plan.take());
        let (t, cpu) = (Instant::now(), clock::process());
        let p = setup(opts)?;
        let warm = &p.units[p.warmup()];
        let mut cache = WorkloadCache::default();
        let out = checked(|| run_unit(cache.get(&warm.name), &warm.job));
        let cpu_s = (clock::process() - cpu).as_secs_f64();
        setup_wall_s.push(t.elapsed().as_secs_f64());
        setup_cpu_s.push(cpu_s);
        setup_ref_s.push(calib::at_ref(cpu_s, calib::sample_now()));
        tally.attempted += 1;
        if let Err(e) = out {
            tally.fail(warm, &format!("warm-up: {e}"));
        }
        plan = Some(p);
    }
    let plan = plan.expect("at least one set-up round");

    let min_units = opts.min_units.max(opts.min_passes * plan.units.len());
    let (done, wall_s) = phase(&plan, opts, opts.seconds, min_units, |w, u| {
        run_unit(w, &u.job)
    });
    let mut first: Vec<Option<Record>> = vec![None; plan.units.len()];
    for d in &done {
        tally.absorb(&plan, &mut first, d);
    }
    let passes = done.last().map_or(0, |d| d.pass + 1);
    let mut digest = Fnv::default();
    for (unit, rec) in plan.units.iter().zip(&first) {
        digest.field(&unit.describe());
        digest.field(rec.as_ref().map_or("<failed>", |r| r.text.as_str()));
    }
    check_campaigns(&plan, &done, passes, &mut tally);
    // Each unit's median over the passes, summed over the units.
    let pass_s = |ms: &dyn Fn(&Done<Record>) -> f64| {
        let mut per_unit = vec![Vec::new(); plan.units.len()];
        for d in &done {
            per_unit[d.unit].push(ms(d));
        }
        per_unit.iter().filter_map(|v| median(v)).sum::<f64>() / 1e3
    };
    let timed = Timed {
        ms: done.iter().map(|d| d.ms).collect(),
        cpu_ms: done.iter().map(|d| d.cpu_ms).collect(),
        calib_ms: done
            .iter()
            .filter(|d| d.calib.fresh)
            .map(|d| d.calib.ms)
            .collect(),
        ref_ms: done
            .iter()
            .map(|d| calib::at_ref(d.cpu_ms, d.calib.ms))
            .collect(),
        pass_cpu_s: pass_s(&|d| d.cpu_ms),
        pass_ref_s: pass_s(&|d| calib::at_ref(d.cpu_ms, d.calib.ms)),
        pass_len: plan.units.len(),
        wall_s,
        passes,
    };

    let trace = opts
        .trace
        .then(|| trace_phase(&plan, opts, &first, &mut tally));

    Ok(RunData {
        setup_cpu_s,
        setup_ref_s,
        setup_wall_s,
        timed,
        trace,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        sim_digest: digest.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(kind: Kind, trace: bool) -> RunData {
        let opts = Options {
            kind,
            seed: 11,
            seconds: 0.0,
            workers: 2,
            min_units: 0,
            min_passes: 1,
            setup_rounds: 2,
            setup_budget_s: 0.0,
            trace,
            results: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../results")),
            scale: Scale::Smoke,
        };
        let d = run(&opts).expect("set-up");
        assert_eq!(d.failed, 0, "{:?}", d.problems);
        assert!(d.problems.is_empty(), "{:?}", d.problems);
        assert_eq!(d.timed.passes, 1);
        assert!(!d.timed.ms.is_empty());
        d
    }

    #[test]
    fn native_smoke_run_is_correct_and_repeats() {
        let a = smoke(Kind::Native, false);
        assert_eq!(a.setup_cpu_s.len(), 2);
        assert_eq!(a.timed.ms.len(), SMOKE.len());
        assert_eq!(a.sim_digest, smoke(Kind::Native, false).sim_digest);
    }

    #[test]
    fn inject_smoke_run_tallies_every_site() {
        let a = smoke(Kind::Inject, true);
        let t = a.trace.as_ref().expect("traced");
        assert_eq!(t.outcomes.iter().sum::<u64>(), a.timed.ms.len() as u64);
        assert!(t.layers.trampoline_warp_instrs > 0);
        assert!(t.plan > Duration::ZERO);
        let b = smoke(Kind::Inject, true);
        assert_eq!(a.sim_digest, b.sim_digest);
        assert_eq!(t.launch_digest, b.trace.expect("traced").launch_digest);
    }

    #[test]
    fn studies_smoke_run_matches_committed_rows() {
        let a = smoke(Kind::Studies, true);
        let t = a.trace.expect("traced");
        assert_eq!(t.layers.units, a.timed.ms.len() as u64);
        assert!(t.layers.handler_calls > 0 && t.layers.sites > 0);
    }

    #[test]
    fn a_failing_unit_is_counted_not_fatal() {
        let unit = Unit {
            name: "nn".into(),
            job: Job::Study {
                artifact: Artifact::Table2,
                expected: "not the row".into(),
            },
        };
        let w = sassi_workloads::by_name("nn").expect("registered");
        let err = checked(|| run_unit(&*w, &unit.job)).expect_err("mismatch");
        assert!(err.contains("differs"), "{err}");
        let err = checked::<()>(|| panic!("boom")).expect_err("panic");
        assert_eq!(err, "panicked: boom");
    }

    #[test]
    fn gate_admits_whole_passes_until_time_and_units_suffice() {
        let gate = Gate::new(1.0, 5, 3);
        // Passes 0 and 1 are needed for 5 units; pass 2 waits for the
        // work to reach a second. Once refused, everything after it is
        // too, but pass 1's stragglers still run.
        assert!(gate.admit(0));
        assert!(gate.admit(1));
        assert!(gate.admit(2));
        gate.finished(0.6);
        gate.finished(0.6);
        assert!(!gate.admit(3));
        assert!(gate.admit(2));
        assert!(!gate.admit(4));
    }
}
