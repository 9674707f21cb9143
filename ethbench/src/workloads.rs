//! The three workloads, their correctness gate, and the untraced and
//! traced runs.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use ethmeter_core::analysis::commit::{Commit, CommitOrdering};
use ethmeter_core::analysis::decentralization::Decentralization;
use ethmeter_core::analysis::empty_blocks::EmptyBlocks;
use ethmeter_core::analysis::first_observation::FirstObservation;
use ethmeter_core::analysis::forks::Forks;
use ethmeter_core::analysis::propagation::Propagation;
use ethmeter_core::analysis::redundancy::Redundancy;
use ethmeter_core::analysis::reorg::Reorg;
use ethmeter_core::analysis::rewards::Rewards;
use ethmeter_core::analysis::Reduce;
use ethmeter_core::chain::consensus::ConsensusKind;
use ethmeter_core::dynamics::DynamicsScript;
use ethmeter_core::experiments::{victim_vs_rest_pools, Suite};
use ethmeter_core::measure::CampaignData;
use ethmeter_core::mining::{PoolDirectory, SelfishConfig};
use ethmeter_core::sim::Engine;
use ethmeter_core::types::{PoolId, SimDuration, SimTime};
use ethmeter_core::{
    run_campaign, Analyze, CampaignOutcome, Grid, PerPoint, Preset, RunCtx, RunStats, Scalars,
    Scenario, SimWorld,
};

use crate::alloc::PeakScope;
use crate::host::{HostProbe, ELASTICITY, NOMINAL_S};
use crate::report::{Failure, Report};
use crate::stats::{median, mix, quantile};
use crate::trace::{LayerTable, TracedCampaign, TracedRunner, KINDS};

/// Simulated length of one `paper_small` campaign.
pub const PAPER_SMALL_MINS: u64 = 10;
/// Simulated length of one `block_race` campaign.
pub const BLOCK_RACE_MINS: u64 = 30;
/// Simulated length of one `attack_grid` job.
pub const GRID_MINS: u64 = 4;
/// Seeds per `attack_grid` grid point (9 points → 108 jobs).
pub const GRID_SEEDS: usize = 12;
/// Worker threads of `attack_grid` and shards of the `par` probe.
pub const THREADS: usize = 2;
/// `block_race`'s observer-log budget (all vantages together).
pub const SPILL_BUDGET_BYTES: usize = 128 << 10;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's own campaign on the small preset.
    PaperSmall,
    /// Selfish mining under uncle-GHOST with fast blocks and spilled logs.
    BlockRace,
    /// Consensus × attack grid of short tiny campaigns on two workers.
    AttackGrid,
}

impl Workload {
    /// The benchmark's workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSmall,
        Workload::BlockRace,
        Workload::AttackGrid,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSmall => "paper_small",
            Workload::BlockRace => "block_race",
            Workload::AttackGrid => "attack_grid",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed; every scenario of the run derives from it.
    pub seed: u64,
    /// Nominal wall seconds of the run; sets its number of repetitions
    /// ([`repetitions`]).
    pub seconds: f64,
    /// Traced run (per-layer table) instead of the end-to-end metrics.
    pub trace: bool,
    /// Directory for spilled observer logs (created and removed by the
    /// caller).
    pub spill_dir: PathBuf,
}

/// The scenario of repetition `rep` of a single-campaign workload.
pub fn campaign_scenario(w: Workload, opts: &Opts, rep: u64, role: &str) -> Scenario {
    let seed = mix(opts.seed ^ mix(rep));
    let b = Scenario::builder().seed(seed);
    match w {
        Workload::PaperSmall => b
            .preset(Preset::Small)
            .duration(SimDuration::from_mins(PAPER_SMALL_MINS))
            .build(),
        Workload::BlockRace => b
            .preset(Preset::Small)
            .pools(PoolDirectory::attacker_vs_honest(
                0.3,
                3,
                SelfishConfig::classic(),
            ))
            .consensus(ConsensusKind::UncleGhost)
            .interblock(SimDuration::from_secs(3))
            .tx_rate(0.05)
            .spill_dir(opts.spill_dir.join(format!("r{rep}-{role}")))
            .measure_budget(SPILL_BUDGET_BYTES)
            .duration(SimDuration::from_mins(BLOCK_RACE_MINS))
            .build(),
        Workload::AttackGrid => unreachable!("attack_grid runs grids, not single campaigns"),
    }
}

/// `attack_grid`'s attack axis.
pub const ATTACKS: [&str; 3] = ["none", "selfish", "eclipse"];

fn apply_attack(s: &mut Scenario, attack: &str) {
    match attack {
        "none" => {}
        "selfish" => {
            s.pools = PoolDirectory::attacker_vs_honest(0.3, 3, SelfishConfig::classic());
        }
        "eclipse" => {
            s.pools = victim_vs_rest_pools(0.3, 2);
            s.dynamics = DynamicsScript::new().eclipse_window(
                SimTime::ZERO + s.duration.mul_f64(0.25),
                SimDuration::from_secs(180),
                PoolId(0),
            );
        }
        other => unreachable!("unknown attack {other}"),
    }
}

/// The seeds of `attack_grid`'s grid number `rep`.
pub fn grid_seeds(opts: &Opts, rep: u64) -> Vec<u64> {
    let base = mix(opts.seed ^ mix(rep));
    (0..GRID_SEEDS as u64)
        .map(|i| base.wrapping_add(i))
        .collect()
}

fn grid_base() -> Scenario {
    Scenario::builder()
        .preset(Preset::Tiny)
        .duration(SimDuration::from_mins(GRID_MINS))
        .build()
}

/// The library grid users run: consensus × attack × seeds.
pub fn attack_grid(seeds: &[u64]) -> Grid {
    Grid::new(grid_base())
        .seeds(seeds.iter().copied())
        .axis("consensus", ConsensusKind::ALL, |s, &k| s.consensus = k)
        .axis("attack", ATTACKS, |s, &a| apply_attack(s, a))
        .threads(THREADS)
}

/// The grid's job scenarios in grid order (consensus slowest, seed
/// fastest), materialized the way `Grid` does it.
pub fn grid_jobs(seeds: &[u64]) -> Vec<Scenario> {
    let mut jobs = Vec::new();
    for kind in ConsensusKind::ALL {
        for attack in ATTACKS {
            for &seed in seeds {
                let mut s = grid_base();
                s.consensus = kind;
                apply_attack(&mut s, attack);
                s.seed = seed;
                jobs.push(s);
            }
        }
    }
    jobs
}

// ---------------------------------------------------------------------------
// Correctness.

/// What a run must reproduce exactly: the dataset fingerprint, the run
/// counters and the processed-event count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contract {
    /// `CampaignData::fingerprint()`.
    pub fingerprint: u64,
    /// The world's run counters.
    pub stats: RunStats,
    /// `Engine::processed()`.
    pub events: u64,
}

impl Contract {
    /// The contract tuple of an outcome.
    pub fn of(o: &CampaignOutcome) -> Self {
        Contract {
            fingerprint: o.campaign.fingerprint(),
            stats: o.stats,
            events: o.events,
        }
    }
}

/// The per-campaign correctness gate.
///
/// # Errors
///
/// Describes the first check the outcome fails.
pub fn gate(s: &Scenario, o: &CampaignOutcome) -> Result<(), Failure> {
    let head = o.campaign.truth.tree.head_number();
    if head == 0 {
        return Err(Failure::Wrong("the head never left genesis".into()));
    }
    if o.campaign.observers.len() != s.vantages.len() {
        return Err(Failure::Wrong(format!(
            "{} observer logs for {} vantages",
            o.campaign.observers.len(),
            s.vantages.len()
        )));
    }
    if o.stats.blocks_produced < head {
        return Err(Failure::Wrong(format!(
            "{} blocks produced but head is #{head}",
            o.stats.blocks_produced
        )));
    }
    Ok(())
}

/// The useful-reception bounds of one traced campaign: first receptions
/// cannot exceed one per node per submitted tx, and both useful ratios
/// lie in (0, 1].
///
/// # Errors
///
/// Describes the first bound the counts break.
pub fn check_receptions(t: &LayerTable, s: &Scenario, o: &CampaignOutcome) -> Result<(), Failure> {
    let nodes = (s.ordinary_nodes
        + s.pools.iter().map(|p| p.gateway_count).sum::<usize>()
        + s.vantages.len()) as u64;
    if t.tx_first > nodes * o.stats.txs_submitted {
        return Err(Failure::Wrong(format!(
            "{} first tx receptions exceed {nodes} nodes x {} txs",
            t.tx_first, o.stats.txs_submitted
        )));
    }
    for (first, all, what) in [
        (t.tx_first, t.tx_receptions, "tx"),
        (t.block_first, t.block_receptions, "block"),
    ] {
        if first == 0 || first > all {
            return Err(Failure::Wrong(format!(
                "{what} useful receptions {first} of {all}"
            )));
        }
    }
    Ok(())
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Runs `f`, turning a panic into a failure.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, Failure> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| Failure::Panicked(panic_text(p)))
}

fn compare(what: &str, a: Contract, b: Contract) -> Result<(), Failure> {
    if a == b {
        Ok(())
    } else {
        Err(Failure::Wrong(format!("{what}: {a:?} != {b:?}")))
    }
}

/// A traced campaign through [`TracedRunner::run`], panics caught.
fn traced(runner: &mut TracedRunner, s: &Scenario, reuse: bool) -> Result<TracedCampaign, Failure> {
    guarded(|| runner.run(s, reuse)).and_then(|r| r.map_err(Failure::Wrong))
}

// ---------------------------------------------------------------------------
// Set-up probe.

/// Median host times of priming one scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// `SimWorld::new` + `initial_events` + scheduling them.
    pub setup_s: f64,
    /// `SimWorld::new`.
    pub world_new_s: f64,
    /// `initial_events` + scheduling.
    pub initial_events_s: f64,
    /// `SimWorld::reset` of a used world.
    pub world_reset_s: f64,
}

/// Primings per [`SetupProbe::sample`].
const PRIMINGS: usize = 8;

/// Host times of priming one scenario. A run samples it after every
/// repetition, so the samples span the whole run (whose host slowdown
/// rescales them) and start once the first repetition has warmed the
/// allocator.
pub struct SetupProbe {
    scenario: Scenario,
    setup: Vec<f64>,
    new: Vec<f64>,
    initial: Vec<f64>,
    reset: Vec<f64>,
}

impl SetupProbe {
    /// A probe of `scenario` with no samples yet.
    pub fn new(scenario: Scenario) -> Self {
        SetupProbe {
            scenario,
            setup: vec![],
            new: vec![],
            initial: vec![],
            reset: vec![],
        }
    }

    /// Primes the scenario [`PRIMINGS`] times, timing each phase.
    pub fn sample(&mut self) {
        let s = &self.scenario;
        for _ in 0..PRIMINGS {
            let t0 = Instant::now();
            let mut world = SimWorld::new(s);
            let t1 = Instant::now();
            let initial_events = world.initial_events();
            let mut engine = Engine::new(world);
            for (at, ev) in initial_events {
                engine.schedule(at, ev);
            }
            let t2 = Instant::now();
            black_box(engine.pending());
            engine.reset();
            let t3 = Instant::now();
            engine.world_mut().reset(s);
            let t4 = Instant::now();
            black_box(engine);
            self.setup.push((t2 - t0).as_secs_f64());
            self.new.push((t1 - t0).as_secs_f64());
            self.initial.push((t2 - t1).as_secs_f64());
            self.reset.push((t4 - t3).as_secs_f64());
        }
    }

    /// Medians over every priming so far.
    pub fn medians(&self) -> Setup {
        Setup {
            setup_s: median(&self.setup),
            world_new_s: median(&self.new),
            initial_events_s: median(&self.initial),
            world_reset_s: median(&self.reset),
        }
    }
}

// ---------------------------------------------------------------------------
// Analyses.

/// The ten streaming report families, as `analysis.<family>_s` names.
pub const FAMILIES: [&str; 10] = [
    "propagation",
    "redundancy",
    "first_observation",
    "commit",
    "commit_ordering",
    "empty_blocks",
    "forks",
    "reorg",
    "rewards",
    "decentralization",
];

fn time_family<R: Reduce>(mut r: R, data: &CampaignData) -> f64 {
    let t = Instant::now();
    r.observe(data);
    black_box(r.finish());
    t.elapsed().as_secs_f64()
}

/// Runs every report family once over `data`, adding each family's wall
/// seconds into `out` (indexed like [`FAMILIES`]).
pub fn time_families(data: &CampaignData, out: &mut [f64; 10]) {
    out[0] += time_family(Propagation::new(), data);
    out[1] += time_family(Redundancy::new(), data);
    out[2] += time_family(FirstObservation::new(15), data);
    out[3] += time_family(Commit::new(), data);
    out[4] += time_family(CommitOrdering::new(), data);
    out[5] += time_family(EmptyBlocks::new(15), data);
    out[6] += time_family(Forks::new(), data);
    out[7] += time_family(Reorg::new(), data);
    out[8] += time_family(Rewards::new(), data);
    out[9] += time_family(Decentralization::new(), data);
}

// ---------------------------------------------------------------------------
// The measured loop.

/// Wall seconds of one untraced repetition (one campaign or one grid,
/// with its host and set-up probes) on the reference host, at its usual
/// speed.
fn nominal_rep_s(w: Workload) -> f64 {
    match w {
        Workload::PaperSmall => 0.8,
        Workload::BlockRace => 0.85,
        Workload::AttackGrid => 3.3,
    }
}

/// How much longer a traced repetition takes than an untraced one: it
/// runs the library call and the traced campaign, and times every report
/// family over the output.
const TRACED_COST: f64 = 2.5;

/// A run gives up on its remaining repetitions once it has taken this
/// many times `--seconds`, or [`MAX_RUN_S`], whichever is less.
const OVERRUN: f64 = 4.0;

/// Wall seconds after which a run stops early at any `--seconds`.
const MAX_RUN_S: f64 = 150.0;

/// The repetitions of a run: `--seconds` over the nominal time of one
/// repetition, at least one. The count follows from the command line
/// alone, never from how fast the host or the program runs, so every run
/// with the same seed attempts the same campaigns, and a faster program
/// is timed on exactly the campaigns a slower one ran.
pub fn repetitions(w: Workload, opts: &Opts) -> u64 {
    let rep_s = nominal_rep_s(w) * if opts.trace { TRACED_COST } else { 1.0 };
    ((opts.seconds / rep_s).round() as u64).max(1)
}

/// Runs `rep` for each of the run's [`repetitions`], in order. `rep` gets
/// the repetition index. Stops early, with a note on standard error, only
/// if the host is so slow that the run would overstay its time limit.
fn repeat(w: Workload, opts: &Opts, mut rep: impl FnMut(u64)) {
    let n = repetitions(w, opts);
    let limit = Duration::from_secs_f64((OVERRUN * opts.seconds).min(MAX_RUN_S));
    let start = Instant::now();
    for i in 0..n {
        rep(i);
        if i + 1 < n && start.elapsed() > limit {
            eprintln!(
                "ethbench: {} stopped after {} of {n} repetitions, over {limit:?}",
                w.name(),
                i + 1
            );
            break;
        }
    }
}

const MIB: f64 = (1u64 << 20) as f64;

/// Runs one workload and returns its report.
pub fn run(w: Workload, opts: &Opts) -> Report {
    match (w, opts.trace) {
        (Workload::AttackGrid, false) => grid_untraced(opts),
        (Workload::AttackGrid, true) => grid_traced(opts),
        (_, false) => single_untraced(w, opts),
        (_, true) => single_traced(w, opts),
    }
}

/// The `(name, unit)` of every metric a run emits, in emission order:
/// the end-to-end set untraced, the per-layer set traced. Every workload
/// emits the same names.
pub fn metric_names(trace: bool) -> Vec<(String, &'static str)> {
    let mut r = Report::default();
    if trace {
        Layers::default().emit(&mut r, Setup::default());
    } else {
        end_to_end(&mut r, 0.0, 1.0, Setup::default(), &[], &[], 1.0);
    }
    r.metrics.into_iter().map(|m| (m.name, m.unit)).collect()
}

/// Records the end-to-end metrics. `sim_s` and `wall_s` are summed over
/// the repetitions' finished campaigns, so the throughput is the whole
/// workload's ratio. Every time is divided by the run's host `slowdown`
/// ([`HostProbe::slowdown`]) raised to [`ELASTICITY`], so it reads in
/// seconds of the nominal host; the plain figures go to the notes.
fn end_to_end(
    r: &mut Report,
    sim_s: f64,
    wall_s: f64,
    setup: Setup,
    peaks: &[f64],
    walls: &[f64],
    slowdown: f64,
) {
    let scale = slowdown.powf(ELASTICITY);
    r.put("sim_s_per_wall_s", "sim_s/s", sim_s / (wall_s / scale));
    r.put("setup_s", "s", setup.setup_s / scale);
    r.put("peak_heap_mb", "MiB", median(peaks) / MIB);
    r.put("job_wall_p50_s", "s", quantile(walls, 0.5) / scale);
    r.put("job_wall_p90_s", "s", quantile(walls, 0.9) / scale);
    r.notes.push(format!(
        "host slowdown {slowdown:.4} (reference kernel {:.2} ms vs {:.2} ms nominal; \
         times divided by {scale:.4}); unscaled sim_s_per_wall_s {:.3} setup_s {:.6} \
         job_wall_p50_s {:.6} job_wall_p90_s {:.6}",
        slowdown * NOMINAL_S * 1e3,
        NOMINAL_S * 1e3,
        sim_s / wall_s,
        setup.setup_s,
        quantile(walls, 0.5),
        quantile(walls, 0.9),
    ));
}

fn single_untraced(w: Workload, opts: &Opts) -> Report {
    let mut r = Report::default();
    let mut host = HostProbe::new();
    let mut setup = SetupProbe::new(campaign_scenario(w, opts, 0, "setup"));
    let (mut sim_s, mut wall_s, mut peaks, mut walls) = (0.0, 0.0, vec![], vec![]);
    repeat(w, opts, |rep| {
        host.sample();
        let s = campaign_scenario(w, opts, rep, "run");
        let scope = PeakScope::start();
        let t = Instant::now();
        let out = guarded(|| {
            let out = run_campaign(&s);
            black_box(Suite::from_campaign(&out.campaign));
            out
        });
        let wall = t.elapsed().as_secs_f64();
        peaks.push(scope.peak_bytes() as f64);
        let label = format!("{} rep {rep} seed {}", w.name(), s.seed);
        match out {
            Ok(out) => {
                r.campaign(&label, gate(&s, &out));
                sim_s += s.duration.as_secs_f64();
                wall_s += wall;
                walls.push(wall);
            }
            Err(e) => r.campaign(&label, Err(e)),
        }
        setup.sample();
    });
    let slowdown = host.slowdown();
    end_to_end(
        &mut r,
        sim_s,
        wall_s,
        setup.medians(),
        &peaks,
        &walls,
        slowdown,
    );
    r
}

/// Per-layer accumulators of a traced run.
#[derive(Default)]
struct Layers {
    table: LayerTable,
    campaigns: u64,
    stats: RunStats,
    extract_s: f64,
    analysis: [f64; 10],
    log_peak_bytes: u64,
    spill_segments: u64,
    spill_peak_over_budget: f64,
    overhead: Vec<f64>,
    busy_frac: f64,
    /// `(sharded wall, sequential wall)` pairs.
    par: Vec<(f64, f64)>,
}

impl Layers {
    /// Folds one traced campaign into the accumulators and runs every
    /// report family over it.
    fn observe(&mut self, s: &Scenario, tc: &TracedCampaign) {
        let o = &tc.outcome;
        self.table.merge(&tc.table);
        self.campaigns += 1;
        self.stats.merge(&o.stats);
        self.extract_s += tc.phases.extract_s;
        time_families(&o.campaign, &mut self.analysis);
        let budget = (s.measure_budget_bytes / s.vantages.len().max(1)).max(1) as f64;
        let logs = || o.campaign.observers.iter().map(|(_, log)| log);
        let peak: usize = logs().map(|l| l.peak_mem_bytes()).sum();
        let segments: usize = logs().map(|l| l.spilled_segments()).sum();
        self.log_peak_bytes = self.log_peak_bytes.max(peak as u64);
        self.spill_segments = self.spill_segments.max(segments as u64);
        for l in logs() {
            self.spill_peak_over_budget = self
                .spill_peak_over_budget
                .max(l.peak_mem_bytes() as f64 / budget);
        }
    }

    fn absorb(&mut self, other: Layers) {
        self.table.merge(&other.table);
        self.campaigns += other.campaigns;
        self.stats.merge(&other.stats);
        self.extract_s += other.extract_s;
        for (a, b) in self.analysis.iter_mut().zip(other.analysis) {
            *a += b;
        }
        self.log_peak_bytes = self.log_peak_bytes.max(other.log_peak_bytes);
        self.spill_segments = self.spill_segments.max(other.spill_segments);
        self.spill_peak_over_budget = self
            .spill_peak_over_budget
            .max(other.spill_peak_over_budget);
    }

    fn emit(&self, r: &mut Report, setup: Setup) {
        let t = &self.table;
        let n = self.campaigns.max(1) as f64;
        let run_s = t.run_nanos as f64 * 1e-9;
        let handler_s = t.handler_nanos() as f64 * 1e-9;
        let loop_s = run_s - handler_s - t.bookkeeping_nanos as f64 * 1e-9;
        r.put("sim.events", "count", t.total_events() as f64);
        r.put("sim.events_per_s", "1/s", t.total_events() as f64 / run_s);
        r.put("sim.loop_s", "s", loop_s);
        r.put("sim.loop_frac", "fraction", loop_s / run_s);
        for (k, name) in KINDS.iter().enumerate() {
            let ns = t.nanos[k] as f64 / t.events[k].max(1) as f64;
            r.put(format!("{name}.events"), "count", t.events[k] as f64);
            r.put(format!("{name}.self_s"), "s", t.nanos[k] as f64 * 1e-9);
            r.put(format!("{name}.ns"), "ns", ns);
        }
        let st = &self.stats;
        r.put("net.messages", "count", st.messages as f64);
        r.put("net.bytes", "bytes", st.bytes as f64);
        let tx_useful = t.tx_first as f64 / t.tx_receptions.max(1) as f64;
        let block_useful = t.block_first as f64 / t.block_receptions.max(1) as f64;
        r.put("net.tx_useful_frac", "fraction", tx_useful);
        r.put("net.block_useful_frac", "fraction", block_useful);
        r.put("chain.imports", "count", st.imports as f64);
        r.put("mining.blocks_produced", "count", st.blocks_produced as f64);
        r.put("mining.blocks_withheld", "count", st.blocks_withheld as f64);
        r.put("workload.txs_submitted", "count", st.txs_submitted as f64);
        r.put("core.world_new_s", "s", setup.world_new_s);
        r.put("core.world_reset_s", "s", setup.world_reset_s);
        r.put("core.initial_events_s", "s", setup.initial_events_s);
        r.put("measure.extract_s", "s", self.extract_s / n);
        r.put(
            "measure.log_peak_bytes",
            "bytes",
            self.log_peak_bytes as f64,
        );
        r.put(
            "measure.spill_segments",
            "count",
            self.spill_segments as f64,
        );
        let over = self.spill_peak_over_budget;
        r.put("measure.spill_peak_over_budget", "ratio", over);
        for (k, family) in FAMILIES.iter().enumerate() {
            r.put(format!("analysis.{family}_s"), "s", self.analysis[k] / n);
        }
        r.put("grid.worker_busy_frac", "fraction", self.busy_frac);
        let par: Vec<f64> = self.par.iter().map(|&(p, _)| p).collect();
        let seq: Vec<f64> = self.par.iter().map(|&(_, q)| q).collect();
        let speedup: Vec<f64> = self.par.iter().map(|&(p, q)| q / p).collect();
        r.put("par.wall_s", "s", median(&par));
        r.put("par.seq_wall_s", "s", median(&seq));
        r.put("par.speedup", "ratio", median(&speedup));
        r.put("trace.overhead_frac", "fraction", median(&self.overhead));
    }
}

/// Runs `s` sequentially (untraced), returning its contract and wall.
fn timed_run(s: &Scenario) -> (Result<Contract, Failure>, f64) {
    let t = Instant::now();
    let out = guarded(|| Contract::of(&run_campaign(s)));
    (out, t.elapsed().as_secs_f64())
}

/// Times `s` on the 2-shard engine against its sequential run, checks
/// that the fingerprints agree, and returns `(sharded, sequential)` wall.
fn par_probe(r: &mut Report, s: &Scenario, label: &str) -> Option<(f64, f64)> {
    let mut seq = s.clone();
    seq.shards = 1;
    let mut sharded = s.clone();
    sharded.shards = THREADS;
    let (seq_out, seq_wall) = timed_run(&seq);
    let (par_out, par_wall) = timed_run(&sharded);
    let check = seq_out.and_then(|a| par_out.and_then(|b| compare("sharded vs sequential", b, a)));
    let ok = check.is_ok();
    r.campaign(&format!("{label} sharded"), check);
    ok.then_some((par_wall, seq_wall))
}

/// Traced run of a single-campaign workload. Each repetition runs the
/// library call (`run_campaign`) untraced and the same scenario traced;
/// both must agree on the contract tuple.
fn single_traced(w: Workload, opts: &Opts) -> Report {
    let mut r = Report::default();
    let mut setup = SetupProbe::new(campaign_scenario(w, opts, 0, "setup"));
    let mut layers = Layers {
        // One worker runs one campaign at a time: there is no idle worker.
        busy_frac: 1.0,
        ..Layers::default()
    };
    repeat(w, opts, |rep| {
        let label = format!("{} rep {rep}", w.name());
        let (lib_out, lib_wall) = timed_run(&campaign_scenario(w, opts, rep, "lib"));
        let ts = campaign_scenario(w, opts, rep, "traced");
        let check = traced(&mut TracedRunner::new(), &ts, false).and_then(|tc| {
            let o = &tc.outcome;
            gate(&ts, o)?;
            compare("traced vs untraced", Contract::of(o), lib_out?)?;
            check_receptions(&tc.table, &ts, o)?;
            layers.overhead.push(tc.phases.total_s() / lib_wall - 1.0);
            layers.observe(&ts, &tc);
            Ok(())
        });
        r.campaign(&label, check);
        if layers.par.is_empty() {
            let probe = campaign_scenario(w, opts, rep, "par");
            layers.par.extend(par_probe(&mut r, &probe, &label));
        }
        setup.sample();
    });
    layers.emit(&mut r, setup.medians());
    r
}

// ---------------------------------------------------------------------------
// attack_grid.

/// One observed grid job.
#[derive(Debug, Clone)]
struct JobRecord {
    index: usize,
    worker: ThreadId,
    at: Instant,
    contract: Contract,
    gate: Result<(), Failure>,
}

/// A streaming metric that timestamps every observation on its worker
/// and keeps each job's contract tuple and gate verdict. Records go to a
/// shared sink, so they survive a grid that re-raises a job's panic.
#[derive(Debug, Clone, Default)]
struct JobProbe {
    sink: Arc<Mutex<Vec<JobRecord>>>,
}

impl ethmeter_core::Metric for JobProbe {
    type Output = ();

    fn observe(&mut self, ctx: &RunCtx<'_>, o: &CampaignOutcome) {
        let record = JobRecord {
            index: ctx.index,
            worker: thread::current().id(),
            at: Instant::now(),
            contract: Contract::of(o),
            gate: gate(ctx.scenario, o),
        };
        self.sink
            .lock()
            .expect("no job panics while holding the sink")
            .push(record);
    }

    fn merge(&mut self, _other: Self) {}

    fn finish(self) {}
}

/// What one library grid run yields.
struct GridRun {
    wall: f64,
    peak_bytes: u64,
    /// Per-job wall times: gaps between a worker's observations.
    job_walls: Vec<f64>,
    /// Summed worker time up to each worker's last job over
    /// `THREADS × wall`.
    busy_frac: f64,
    /// Contract tuple per job index (`None` if the job failed).
    contracts: Vec<Option<Contract>>,
}

/// Runs one library grid, streaming every report family per grid point
/// plus a scalar column and the job probe, and gates every job.
fn run_grid(r: &mut Report, seeds: &[u64], label: &str) -> GridRun {
    let grid = attack_grid(seeds);
    let jobs = grid.job_count();
    let probe = JobProbe::default();
    let sink = Arc::clone(&probe.sink);
    let metric = (
        PerPoint::new((
            (
                Analyze::new(Propagation::new()),
                Analyze::new(Redundancy::new()),
                Analyze::new(FirstObservation::new(15)),
                Analyze::new(Commit::new()),
                Analyze::new(CommitOrdering::new()),
            ),
            (
                Analyze::new(EmptyBlocks::new(15)),
                Analyze::new(Forks::new()),
                Analyze::new(Reorg::new()),
                Analyze::new(Rewards::new()),
                Analyze::new(Decentralization::new()),
            ),
        )),
        Scalars::new().column("head", |_, o| o.campaign.truth.tree.head_number() as f64),
        probe,
    );
    let scope = PeakScope::start();
    let start = Instant::now();
    let out = guarded(|| black_box(grid.run(metric)));
    let wall = start.elapsed().as_secs_f64();
    let peak_bytes = scope.peak_bytes();
    let mut records = std::mem::take(&mut *sink.lock().expect("grid workers have exited"));
    records.sort_by_key(|rec| rec.index);

    let mut run = GridRun {
        wall,
        peak_bytes,
        job_walls: vec![],
        busy_frac: 0.0,
        contracts: vec![None; jobs],
    };
    let mut by_worker: Vec<(ThreadId, Vec<Instant>)> = Vec::new();
    let mut records = records.into_iter().peekable();
    for index in 0..jobs {
        let job_label = format!("{label} job {index}");
        match records.next_if(|rec| rec.index == index) {
            Some(rec) => {
                r.campaign(&job_label, rec.gate.clone());
                if rec.gate.is_ok() {
                    run.contracts[index] = Some(rec.contract);
                }
                match by_worker.iter_mut().find(|(w, _)| *w == rec.worker) {
                    Some((_, ats)) => ats.push(rec.at),
                    None => by_worker.push((rec.worker, vec![rec.at])),
                }
            }
            // The job panicked before its outcome reached the metrics.
            None => r.campaign(
                &job_label,
                Err(match &out {
                    Err(e) => e.clone(),
                    Ok(_) => Failure::Panicked("job produced no outcome".into()),
                }),
            ),
        }
    }
    if let (Err(e), true) = (&out, run.contracts.iter().all(Option::is_some)) {
        // Every job finished, yet the grid's reduction panicked.
        r.campaign(&format!("{label} reduction"), Err(e.clone()));
    }
    let mut busy = 0.0;
    for (_, ats) in &mut by_worker {
        ats.sort();
        let mut prev = start;
        for &at in ats.iter() {
            run.job_walls.push((at - prev).as_secs_f64());
            prev = at;
        }
        busy += (prev - start).as_secs_f64();
    }
    run.busy_frac = busy / (THREADS as f64 * wall);
    run
}

/// Simulated seconds of the grid's jobs that finished and passed the
/// gate.
fn grid_sim_seconds(seeds: &[u64], run: &GridRun) -> f64 {
    grid_jobs(seeds)
        .iter()
        .zip(&run.contracts)
        .filter(|(_, c)| c.is_some())
        .map(|(s, _)| s.duration.as_secs_f64())
        .sum()
}

fn grid_untraced(opts: &Opts) -> Report {
    let mut r = Report::default();
    let mut host = HostProbe::new();
    let mut setup = SetupProbe::new(grid_jobs(&grid_seeds(opts, 0)).swap_remove(0));
    let (mut sim_s, mut wall_s, mut peaks, mut walls) = (0.0, 0.0, vec![], vec![]);
    repeat(Workload::AttackGrid, opts, |rep| {
        host.sample();
        let seeds = grid_seeds(opts, rep);
        let run = run_grid(&mut r, &seeds, &format!("attack_grid rep {rep}"));
        sim_s += grid_sim_seconds(&seeds, &run);
        wall_s += run.wall;
        peaks.push(run.peak_bytes as f64);
        walls.extend(run.job_walls);
        setup.sample();
    });
    let slowdown = host.slowdown();
    end_to_end(
        &mut r,
        sim_s,
        wall_s,
        setup.medians(),
        &peaks,
        &walls,
        slowdown,
    );
    r
}

/// Traced run of `attack_grid`: the library grid, then a traced replay
/// of the same jobs on the same number of reusing workers; every job's
/// contract tuple must match the grid's.
fn grid_traced(opts: &Opts) -> Report {
    let mut r = Report::default();
    let mut setup = SetupProbe::new(grid_jobs(&grid_seeds(opts, 0)).swap_remove(0));
    let mut layers = Layers::default();
    let mut busy = vec![];
    repeat(Workload::AttackGrid, opts, |rep| {
        let seeds = grid_seeds(opts, rep);
        let label = format!("attack_grid rep {rep}");
        let lib = run_grid(&mut r, &seeds, &label);
        busy.push(lib.busy_frac);
        let jobs = grid_jobs(&seeds);
        let (replay, part, wall) = replay_traced(&jobs);
        layers.overhead.push(wall / lib.wall - 1.0);
        layers.absorb(part);
        for (i, job) in replay.into_iter().enumerate() {
            let check = job.and_then(|c| match lib.contracts[i] {
                Some(lib_c) => compare("traced replay vs grid", c, lib_c),
                None => Err(Failure::Wrong("the grid's run of this job failed".into())),
            });
            r.campaign(&format!("{label} replay {i}"), check);
        }
        if layers.par.is_empty() {
            // One job per attack (heaviest chain, first seed), summed.
            let (mut p, mut q) = (0.0, 0.0);
            for attack in 0..ATTACKS.len() {
                if let Some((a, b)) = par_probe(&mut r, &jobs[attack * GRID_SEEDS], &label) {
                    p += a;
                    q += b;
                }
            }
            if p > 0.0 {
                layers.par.push((p, q));
            }
        }
        setup.sample();
    });
    layers.busy_frac = median(&busy);
    layers.emit(&mut r, setup.medians());
    r
}

/// One replay worker's `(job index, result)` pairs and accumulators.
type ReplayPart = (Vec<(usize, Result<Contract, Failure>)>, Layers);

/// Replays the grid's jobs through the public phases on `THREADS`
/// workers that reuse their traced world, like the grid's own workers.
/// Returns each job's contract (or failure) in grid order, the summed
/// layer accumulators, and the replay's wall seconds.
fn replay_traced(jobs: &[Scenario]) -> (Vec<Result<Contract, Failure>>, Layers, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let parts: Vec<ReplayPart> = thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut runner = TracedRunner::new();
                    let mut layers = Layers::default();
                    let mut done = vec![];
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(s) = jobs.get(i) else { break };
                        let result = traced(&mut runner, s, true).and_then(|tc| {
                            gate(s, &tc.outcome)?;
                            check_receptions(&tc.table, s, &tc.outcome)?;
                            layers.observe(s, &tc);
                            Ok(Contract::of(&tc.outcome))
                        });
                        if matches!(result, Err(Failure::Panicked(_))) {
                            // The world may have unwound mid-event.
                            runner = TracedRunner::new();
                        }
                        done.push((i, result));
                    }
                    (done, layers)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("replay workers catch job panics"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut results: Vec<Result<Contract, Failure>> = (0..jobs.len())
        .map(|_| Err(Failure::Panicked("job never ran".into())))
        .collect();
    let mut layers = Layers::default();
    for (done, part) in parts {
        for (i, result) in done {
            results[i] = result;
        }
        layers.absorb(part);
    }
    (results, layers, wall)
}
