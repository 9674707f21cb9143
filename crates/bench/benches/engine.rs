//! Simulator-throughput benchmarks and the `BENCH_engine.json` report
//! (schema `ethmeter-bench-engine/v6`).
//!
//! Four jobs in one harness:
//!
//! 1. Classic criterion-style microbenches: end-to-end campaign
//!    execution, chain-only sequence generation (Figure 7 / §III-D's
//!    substrate), the exact run-length theory, and the event-queue
//!    push/pop hot path.
//! 2. An events/sec throughput survey over the `tiny`/`small`/`medium`
//!    presets, each with allocation metrics from a counting global
//!    allocator: allocations per event for a fresh run, for a
//!    reused-world run (the steady state the zero-allocation gossip path
//!    targets), and the peak heap growth of a campaign. Each preset also
//!    times the same campaign on the sharded parallel engine
//!    (`shards = 4`) and reports `par_speedup` — sequential wall over
//!    sharded wall, which only exceeds 1 when the host has the cores to
//!    back it (the report records `host_cores` for exactly that reason).
//! 3. A multi-seed sweep-throughput survey comparing reused-worker
//!    sweeps ([`ethmeter_core::sweep::Sweep`]'s default) against
//!    fresh-construction sweeps, quantifying what world reuse buys on
//!    the seed-grid workloads of EXPERIMENTS.md.
//! 4. A grid-scale memory survey: peak heap of a 256-run (64 in quick
//!    mode) single-threaded `Grid` under streaming metric collectors
//!    vs the retain-everything `RetainRuns` collector, each as a
//!    multiple of one campaign's own peak — the number that certifies
//!    "grid size bounded by CPU, not RAM".
//! 5. (v5) An out-of-core measurement survey: per preset, the observer
//!    logs' own high-water mark (`ObserverLog::peak_mem_bytes`) for the
//!    in-memory backend vs a spilled run under half that budget, with
//!    the ratio of spilled peak over budget — the number that certifies
//!    "measurement memory bounded by the budget, not the campaign".
//!    Plus a planet-preset spill smoke leg: 10,000 nodes measured under
//!    a fixed kilobyte-scale budget, fingerprint-checked against the
//!    same campaign in memory.
//! 6. (v6) A churn-heavy leg: the tiny campaign static vs under a
//!    10%-node-churn script, reporting events/sec for both and their
//!    ratio — the dynamics subsystem's hot-path cost (per-send dead-link
//!    checks plus park/re-dial work) in one number. The churn campaign
//!    is also fingerprint-asserted against its own 4-shard run, so the
//!    bench doubles as a sharded-determinism-under-dynamics check.
//!
//! The report embeds two frozen baselines measured on the reference
//! container: the seed implementation (pre-dense-rewrite) and the PR 2
//! dense-index hot path, so it always answers "how much faster than the
//! original — and than the previous PR — are we now?".
//!
//! Run `cargo bench -p ethmeter-bench --bench engine` for the full
//! survey, or append `-- --quick` for the CI smoke mode (seconds, not
//! minutes; same JSON schema, `"mode": "quick"`).

use criterion::Criterion;
use ethmeter_analysis::empty_blocks::EmptyBlocks;
use ethmeter_analysis::forks::Forks;
use ethmeter_analysis::propagation::Propagation;
use ethmeter_core::chainonly::{run_chain_only, ChainOnlyConfig};
use ethmeter_core::metric::{Analyze, RetainRuns, Scalars};
use ethmeter_core::sweep::Sweep;
use ethmeter_core::{run_campaign, CampaignRunner, Grid, Preset, Scenario};
use ethmeter_sim::event::EventQueue;
use ethmeter_stats::runs::{expected_maximal_runs, prob_run_at_least};
use ethmeter_stats::Cdf;
use ethmeter_types::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Seed-implementation events/sec (commit "golden determinism harness",
/// pre-dense-rewrite), measured in full mode on the reference container.
/// Frozen so every future report carries its own yardstick.
const SEED_BASELINE_EPS: [(&str, f64); 3] = [
    ("tiny", 1_425_095.0),
    ("small", 1_080_124.0),
    ("medium", 911_207.0),
];

/// PR 2 (dense interned indices) events/sec, frozen from the committed
/// `BENCH_engine.json` of that PR — the yardstick for this PR's
/// zero-allocation + calendar-queue + key-major-bitmap hot path.
const PR2_BASELINE_EPS: [(&str, f64); 3] = [
    ("tiny", 3_610_530.662),
    ("small", 2_986_817.635),
    ("medium", 2_223_301.054),
];

/// Logical events of a run: processed events plus the transaction
/// deliveries resolved at send time instead of simulated. The frozen
/// baselines above were measured when every delivery was an event, so
/// throughput is counted in this unit to stay comparable with them.
fn logical_events(events: u64, stats: &ethmeter_core::RunStats) -> u64 {
    events + stats.tx_elided
}

// ---------------------------------------------------------------------------
// Counting allocator: every heap operation in the process ticks these
// counters, which is what lets the report state allocations per simulated
// event — the metric the zero-allocation steady state is judged by.

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static HEAP_CURRENT: AtomicI64 = AtomicI64::new(0);
static HEAP_PEAK: AtomicI64 = AtomicI64::new(0);

#[inline]
fn track_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let cur = HEAP_CURRENT.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    HEAP_PEAK.fetch_max(cur, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HEAP_CURRENT.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let delta = new_size as i64 - layout.size() as i64;
        let cur = HEAP_CURRENT.fetch_add(delta, Ordering::Relaxed) + delta;
        HEAP_PEAK.fetch_max(cur, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation counters over one measured region.
struct AllocDelta {
    allocs: u64,
    peak_growth_bytes: i64,
}

fn measure_allocs<R>(f: impl FnOnce() -> R) -> (R, AllocDelta) {
    let start_allocs = ALLOCS.load(Ordering::Relaxed);
    let start_heap = HEAP_CURRENT.load(Ordering::Relaxed);
    HEAP_PEAK.store(start_heap, Ordering::Relaxed);
    let out = f();
    let allocs = ALLOCS.load(Ordering::Relaxed) - start_allocs;
    let peak_growth_bytes = HEAP_PEAK.load(Ordering::Relaxed) - start_heap;
    (
        out,
        AllocDelta {
            allocs,
            peak_growth_bytes,
        },
    )
}

// ---------------------------------------------------------------------------

/// One preset's throughput + allocation measurement.
struct PresetThroughput {
    name: &'static str,
    sim_seconds: f64,
    /// Logical events (see [`logical_events`]); `events_per_sec` and the
    /// speedups are in this unit.
    events: u64,
    best_wall_seconds: f64,
    events_per_sec: f64,
    /// Allocations per event of a fresh `run_campaign` (world build
    /// included, amortized over the run).
    allocs_per_event: f64,
    /// Allocations per event of a reused-world run (`CampaignRunner`'s
    /// second run): the steady-state number the zero-allocation gossip
    /// path targets.
    steady_allocs_per_event: f64,
    /// Peak heap growth of one fresh campaign, bytes.
    alloc_peak_bytes: i64,
    /// Best wall-clock seconds of the same campaign on the sharded
    /// parallel engine (`shards = PAR_SHARDS`).
    par_wall_seconds: f64,
    /// Sequential wall / sharded wall. Scales with physical cores: on
    /// the single-core reference container this is the pure overhead
    /// ratio (< 1); with >= PAR_SHARDS cores it is the real speedup.
    par_speedup: f64,
    /// Observer-log high-water mark (sum of `peak_mem_bytes` across
    /// vantages) with the all-in-memory backend.
    measure_peak_bytes: usize,
    /// The campaign-wide spill budget of the out-of-core leg: half the
    /// in-memory peak, floored at 4 KiB.
    spill_budget_bytes: usize,
    /// Observer-log high-water mark of the same campaign spilled under
    /// `spill_budget_bytes` — live maps plus the per-segment key
    /// filters, which is why it can exceed the budget slightly.
    spill_measure_peak_bytes: usize,
    /// `spill_measure_peak_bytes / spill_budget_bytes`: the bounded-
    /// memory claim in one number.
    spill_over_budget: f64,
    /// Columnar segments flushed to disk across all vantages.
    spill_segments: usize,
}

/// Shard count of the parallel-engine leg of the preset survey.
const PAR_SHARDS: usize = 4;

fn measure_preset(
    name: &'static str,
    preset: Preset,
    duration: SimDuration,
    samples: u32,
) -> PresetThroughput {
    let scenario = Scenario::builder()
        .preset(preset)
        .seed(7)
        .duration(duration)
        .build();
    let mut events = 0;
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        let outcome = black_box(run_campaign(&scenario));
        let wall = start.elapsed().as_secs_f64();
        events = logical_events(outcome.events, &outcome.stats);
        if wall < best {
            best = wall;
        }
    }
    // Parallel-engine pass: the identical campaign at PAR_SHARDS shards.
    // The fingerprint must match the sequential run (the determinism
    // contract); wall clock is whatever the hardware gives.
    let par_scenario = Scenario::builder()
        .preset(preset)
        .seed(7)
        .duration(duration)
        .shards(PAR_SHARDS)
        .build();
    let mut par_best = f64::INFINITY;
    let mut par_fp = 0u64;
    for _ in 0..samples {
        let start = Instant::now();
        let outcome = black_box(run_campaign(&par_scenario));
        let wall = start.elapsed().as_secs_f64();
        par_fp = outcome.campaign.fingerprint();
        if wall < par_best {
            par_best = wall;
        }
    }
    let seq_outcome = run_campaign(&scenario);
    let seq_fp = seq_outcome.campaign.fingerprint();
    assert_eq!(
        par_fp, seq_fp,
        "{name}: sharded fingerprint must match sequential"
    );
    // Out-of-core pass: the identical campaign with observer logs
    // spilled under half their in-memory high-water mark. The
    // fingerprint must again match (segments export identically); the
    // interesting numbers are the bounded peak and the segment count.
    let measure_peak_bytes: usize = seq_outcome
        .campaign
        .observers
        .iter()
        .map(|(_, log)| log.peak_mem_bytes())
        .sum();
    let spill_budget_bytes = (measure_peak_bytes / 2).max(4096);
    let spill_dir = std::env::temp_dir().join("ethmeter-bench-spill");
    std::fs::create_dir_all(&spill_dir).expect("create spill dir");
    let spill_scenario = Scenario::builder()
        .preset(preset)
        .seed(7)
        .duration(duration)
        .spill_dir(spill_dir)
        .measure_budget(spill_budget_bytes)
        .build();
    let spill_outcome = run_campaign(&spill_scenario);
    assert_eq!(
        spill_outcome.campaign.fingerprint(),
        seq_fp,
        "{name}: spilled fingerprint must match in-memory"
    );
    let (spill_measure_peak_bytes, spill_segments) = spill_outcome
        .campaign
        .observers
        .iter()
        .fold((0usize, 0usize), |(peak, segs), (_, log)| {
            (peak + log.peak_mem_bytes(), segs + log.spilled_segments())
        });
    let spill_over_budget = spill_measure_peak_bytes as f64 / spill_budget_bytes as f64;
    drop(spill_outcome);
    // Allocation pass (separate from timing so counters don't share the
    // measured region with `Instant` bookkeeping).
    let (_, fresh) = measure_allocs(|| black_box(run_campaign(&scenario)));
    let mut runner = CampaignRunner::new();
    let _ = runner.run(&scenario); // populate the reusable world
    let (_, steady) = measure_allocs(|| black_box(runner.run(&scenario)));
    let eps = events as f64 / best;
    let allocs_per_event = fresh.allocs as f64 / events as f64;
    let steady_allocs_per_event = steady.allocs as f64 / events as f64;
    let par_speedup = best / par_best;
    println!(
        "  throughput/{name}: {events} events in {best:.3}s best-of-{samples} \
         ({eps:.0} events/sec, {allocs_per_event:.3} allocs/event fresh, \
         {steady_allocs_per_event:.3} reused, peak {:.1} MiB; \
         {PAR_SHARDS}-shard {par_best:.3}s => {par_speedup:.2}x; \
         measure {:.1} KiB in-memory vs {:.1} KiB spilled under {:.1} KiB \
         budget = {spill_over_budget:.2}x, {spill_segments} segments)",
        fresh.peak_growth_bytes as f64 / (1024.0 * 1024.0),
        measure_peak_bytes as f64 / 1024.0,
        spill_measure_peak_bytes as f64 / 1024.0,
        spill_budget_bytes as f64 / 1024.0,
    );
    PresetThroughput {
        name,
        sim_seconds: duration.as_secs_f64(),
        events,
        best_wall_seconds: best,
        events_per_sec: eps,
        allocs_per_event,
        steady_allocs_per_event,
        alloc_peak_bytes: fresh.peak_growth_bytes,
        par_wall_seconds: par_best,
        par_speedup,
        measure_peak_bytes,
        spill_budget_bytes,
        spill_measure_peak_bytes,
        spill_over_budget,
        spill_segments,
    }
}

/// The multi-seed sweep survey: reused workers vs fresh construction on
/// the same seed grid (identical outputs; the delta is pure wall clock).
struct SweepThroughput {
    preset: &'static str,
    seeds: usize,
    sim_seconds_per_job: f64,
    threads_used: usize,
    total_events: u64,
    reused_wall_seconds: f64,
    fresh_wall_seconds: f64,
    reused_events_per_sec: f64,
    fresh_events_per_sec: f64,
    reuse_speedup: f64,
}

fn measure_sweep(seeds: usize, duration: SimDuration, samples: u32) -> SweepThroughput {
    let base = Scenario::builder()
        .preset(Preset::Tiny)
        .duration(duration)
        .build();
    let time_sweep = |reuse: bool| -> (f64, u64, usize) {
        let mut best = f64::INFINITY;
        let mut events = 0;
        let mut threads = 0;
        for _ in 0..samples {
            let sweep = Sweep::new(base.clone())
                .seed_range(1, seeds)
                .threads(4)
                .reuse_workers(reuse);
            let start = Instant::now();
            let outcome = black_box(sweep.run());
            let wall = start.elapsed().as_secs_f64();
            events = logical_events(outcome.events, &outcome.totals);
            threads = outcome.threads_used;
            if wall < best {
                best = wall;
            }
        }
        (best, events, threads)
    };
    let (fresh_wall, fresh_events, threads_used) = time_sweep(false);
    let (reused_wall, reused_events, _) = time_sweep(true);
    assert_eq!(
        fresh_events, reused_events,
        "reuse must not change sweep output"
    );
    let reused_eps = reused_events as f64 / reused_wall;
    let fresh_eps = fresh_events as f64 / fresh_wall;
    println!(
        "  sweep/tiny-x{seeds}: {reused_events} events; reused {reused_wall:.3}s \
         ({reused_eps:.0} ev/s) vs fresh {fresh_wall:.3}s ({fresh_eps:.0} ev/s) \
         => {:.3}x",
        reused_eps / fresh_eps
    );
    SweepThroughput {
        preset: "tiny",
        seeds,
        sim_seconds_per_job: duration.as_secs_f64(),
        threads_used,
        total_events: reused_events,
        reused_wall_seconds: reused_wall,
        fresh_wall_seconds: fresh_wall,
        reused_events_per_sec: reused_eps,
        fresh_events_per_sec: fresh_eps,
        reuse_speedup: reused_eps / fresh_eps,
    }
}

/// The grid-scale memory survey: peak heap growth of an N-run grid under
/// streaming collectors vs the retain-everything collector, against one
/// campaign's own peak.
///
/// Run single-threaded so the comparison is worker-count independent:
/// with streaming metrics the grid should peak at ~one campaign's
/// footprint (one reused world + compact per-run summaries), while
/// `RetainRuns` grows linearly with the run count.
struct GridMemory {
    runs: usize,
    sim_seconds_per_job: f64,
    single_run_peak_bytes: i64,
    streaming_peak_bytes: i64,
    retain_runs_peak_bytes: i64,
    streaming_over_single: f64,
    retain_over_single: f64,
}

fn measure_grid_memory(runs: usize, duration: SimDuration) -> GridMemory {
    let base = Scenario::builder()
        .preset(Preset::Tiny)
        .seed(7)
        .duration(duration)
        .build();
    let (_, single) = measure_allocs(|| black_box(run_campaign(&base)));
    let grid = || Grid::new(base.clone()).seed_range(1, runs).threads(1);
    // A representative streaming stack: three full analysis reductions
    // plus a cross-seed scalar table.
    let streaming_metric = || {
        (
            Analyze::new(Propagation::new()),
            Analyze::new(Forks::new()),
            Analyze::new(EmptyBlocks::new(15)),
            Scalars::new()
                .column("head", |_, o| o.campaign.truth.tree.head_number() as f64)
                .column("events", |_, o| o.events as f64),
        )
    };
    let (_, streaming) = measure_allocs(|| black_box(grid().run(streaming_metric())));
    let (_, retain) = measure_allocs(|| black_box(grid().run(RetainRuns::new())));
    let single_peak = single.peak_growth_bytes.max(1);
    let streaming_over_single = streaming.peak_growth_bytes as f64 / single_peak as f64;
    let retain_over_single = retain.peak_growth_bytes as f64 / single_peak as f64;
    println!(
        "  grid/tiny-x{runs}: single-run peak {:.1} MiB; streaming grid {:.1} MiB \
         ({streaming_over_single:.2}x); RetainRuns grid {:.1} MiB ({retain_over_single:.2}x)",
        single.peak_growth_bytes as f64 / (1024.0 * 1024.0),
        streaming.peak_growth_bytes as f64 / (1024.0 * 1024.0),
        retain.peak_growth_bytes as f64 / (1024.0 * 1024.0),
    );
    GridMemory {
        runs,
        sim_seconds_per_job: duration.as_secs_f64(),
        single_run_peak_bytes: single.peak_growth_bytes,
        streaming_peak_bytes: streaming.peak_growth_bytes,
        retain_runs_peak_bytes: retain.peak_growth_bytes,
        streaming_over_single,
        retain_over_single,
    }
}

/// The planet-preset spill smoke: a 10,000-node campaign measured under
/// a fixed kilobyte-scale budget, fingerprint-checked against the same
/// campaign with all-in-memory logs. This is the "planet-scale
/// measurement" claim at bench scale: observer memory pinned by the
/// budget while the network is 25x the medium preset.
struct SpillSmoke {
    nodes: usize,
    sim_seconds: f64,
    events: u64,
    wall_seconds: f64,
    budget_bytes: usize,
    measure_peak_bytes: usize,
    spill_measure_peak_bytes: usize,
    spill_over_budget: f64,
    spill_segments: usize,
}

fn measure_spill_smoke(duration: SimDuration, budget_bytes: usize) -> SpillSmoke {
    let mem_scenario = Scenario::builder()
        .preset(Preset::Planet)
        .seed(7)
        .duration(duration)
        .build();
    let mem_outcome = run_campaign(&mem_scenario);
    let measure_peak_bytes: usize = mem_outcome
        .campaign
        .observers
        .iter()
        .map(|(_, log)| log.peak_mem_bytes())
        .sum();
    let mem_fp = mem_outcome.campaign.fingerprint();
    drop(mem_outcome);
    let spill_dir = std::env::temp_dir().join("ethmeter-bench-spill");
    std::fs::create_dir_all(&spill_dir).expect("create spill dir");
    let scenario = Scenario::builder()
        .preset(Preset::Planet)
        .seed(7)
        .duration(duration)
        .spill_dir(spill_dir)
        .measure_budget(budget_bytes)
        .build();
    let start = Instant::now();
    let outcome = run_campaign(&scenario);
    let wall_seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        outcome.campaign.fingerprint(),
        mem_fp,
        "planet: spilled fingerprint must match in-memory"
    );
    let (spill_measure_peak_bytes, spill_segments) = outcome
        .campaign
        .observers
        .iter()
        .fold((0usize, 0usize), |(peak, segs), (_, log)| {
            (peak + log.peak_mem_bytes(), segs + log.spilled_segments())
        });
    let spill_over_budget = spill_measure_peak_bytes as f64 / budget_bytes as f64;
    println!(
        "  spill/planet: {} nodes, {} events in {wall_seconds:.1}s; measure \
         {:.1} KiB in-memory vs {:.1} KiB spilled under {:.1} KiB budget \
         = {spill_over_budget:.2}x, {spill_segments} segments",
        scenario.ordinary_nodes,
        outcome.events,
        measure_peak_bytes as f64 / 1024.0,
        spill_measure_peak_bytes as f64 / 1024.0,
        budget_bytes as f64 / 1024.0,
    );
    SpillSmoke {
        nodes: scenario.ordinary_nodes,
        sim_seconds: duration.as_secs_f64(),
        events: outcome.events,
        wall_seconds,
        budget_bytes,
        measure_peak_bytes,
        spill_measure_peak_bytes,
        spill_over_budget,
        spill_segments,
    }
}

/// The churn survey: one tiny campaign static vs under 10% node churn.
///
/// The script takes 10% of the ordinary nodes down once each (random
/// offsets over the first 80% of the campaign, 30-second downtimes), so
/// the run exercises every dynamics hot-path cost at once: the per-send
/// dead-link check, link parking/re-dialing, and the replicated dynamics
/// events themselves. `churn_relative_throughput` is churn events/sec
/// over static events/sec — the "dynamics tax" on gossip throughput.
struct ChurnThroughput {
    sim_seconds: f64,
    churned_nodes: u32,
    fraction: f64,
    static_events: u64,
    static_wall_seconds: f64,
    static_events_per_sec: f64,
    churn_events: u64,
    churn_wall_seconds: f64,
    churn_events_per_sec: f64,
    churn_relative_throughput: f64,
}

fn measure_churn(duration: SimDuration, samples: u32) -> ChurnThroughput {
    const NODES: u32 = 60; // the tiny preset's ordinary-node count
    const FRACTION: f64 = 0.1;
    let static_scenario = Scenario::builder()
        .preset(Preset::Tiny)
        .seed(7)
        .duration(duration)
        .build();
    let script = ethmeter_core::dynamics::DynamicsScript::new().churn(
        7,
        NODES,
        FRACTION,
        SimTime::ZERO + SimDuration::from_secs(10),
        duration.mul_f64(0.8),
        SimDuration::from_secs(30),
    );
    let churned_nodes = ((f64::from(NODES) * FRACTION).round() as u32).min(NODES);
    let churn_scenario = Scenario::builder()
        .preset(Preset::Tiny)
        .seed(7)
        .duration(duration)
        .dynamics(script)
        .build();
    let time = |scenario: &Scenario| -> (f64, u64, u64) {
        let mut best = f64::INFINITY;
        let mut events = 0;
        let mut fp = 0;
        for _ in 0..samples {
            let start = Instant::now();
            let outcome = black_box(run_campaign(scenario));
            let wall = start.elapsed().as_secs_f64();
            events = logical_events(outcome.events, &outcome.stats);
            fp = outcome.campaign.fingerprint();
            if wall < best {
                best = wall;
            }
        }
        (best, events, fp)
    };
    let (static_wall, static_events, _) = time(&static_scenario);
    let (churn_wall, churn_events, churn_fp) = time(&churn_scenario);
    // The determinism contract under dynamics: the same churn script on
    // the sharded engine must land on the identical campaign.
    let mut par_scenario = churn_scenario.clone();
    par_scenario.shards = PAR_SHARDS;
    assert_eq!(
        run_campaign(&par_scenario).campaign.fingerprint(),
        churn_fp,
        "churn: sharded fingerprint must match sequential"
    );
    let static_eps = static_events as f64 / static_wall;
    let churn_eps = churn_events as f64 / churn_wall;
    let relative = churn_eps / static_eps;
    println!(
        "  churn/tiny-{churned_nodes}of{NODES}: static {static_events} events \
         in {static_wall:.3}s ({static_eps:.0} ev/s) vs churn {churn_events} \
         events in {churn_wall:.3}s ({churn_eps:.0} ev/s) => {relative:.3}x"
    );
    ChurnThroughput {
        sim_seconds: duration.as_secs_f64(),
        churned_nodes,
        fraction: FRACTION,
        static_events,
        static_wall_seconds: static_wall,
        static_events_per_sec: static_eps,
        churn_events,
        churn_wall_seconds: churn_wall,
        churn_events_per_sec: churn_eps,
        churn_relative_throughput: relative,
    }
}

/// Event-queue microbench: ns per push+pop at a realistic pending-queue
/// depth, with campaign-like inter-event spacing (link delays spread over
/// hundreds of microseconds to tens of milliseconds) plus a share of
/// same-instant pushes to exercise the FIFO tie-break. The v1 suite used
/// nanosecond-clustered timestamps, which no simulated workload produces
/// and which a calendar queue intentionally does not optimize for; v2
/// numbers measure the spacing the engine actually sees.
fn measure_queue(samples: u32) -> f64 {
    const DEPTH: usize = 4_096;
    const OPS: usize = 200_000;
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let mut q = EventQueue::with_capacity(DEPTH);
        for i in 0..DEPTH {
            q.push(SimTime::from_nanos((i as u64 % 97) * 150_000), i as u64);
        }
        let start = Instant::now();
        for i in 0..OPS {
            let (t, _) = q.pop().expect("queue stays primed");
            // Delays 0.3–14 ms, like gossip hops; every 16th event lands
            // at the exact instant just popped (a same-tick follow-up).
            let delay = if i % 16 == 0 {
                0
            } else {
                300_000 + (i as u64 % 131) * 105_000
            };
            q.push(t + SimDuration::from_nanos(delay), i as u64);
        }
        let wall = start.elapsed().as_secs_f64();
        black_box(&q);
        let ns = wall * 1e9 / OPS as f64;
        if ns < best {
            best = ns;
        }
    }
    println!("  queue/push_pop: {best:.1} ns per push+pop (depth {DEPTH})");
    best
}

fn classic_benches(c: &mut Criterion, quick: bool) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(if quick { 2 } else { 10 });

    // A 3-simulated-minute micro-campaign: measures end-to-end event
    // throughput (topology build + gossip + mining + analysis handoff).
    let micro = Scenario::builder()
        .preset(Preset::Tiny)
        .seed(7)
        .duration(SimDuration::from_mins(3))
        .build();
    g.bench_function("campaign_3min_60nodes", |b| {
        b.iter(|| black_box(run_campaign(&micro)))
    });

    // Figure 7's substrate: a paper-month of block winners.
    let month = ChainOnlyConfig::paper_month(1);
    g.bench_function("chain_only_201k_blocks", |b| {
        b.iter(|| black_box(run_chain_only(&month)))
    });

    // §III-D exact theory at paper scale.
    g.bench_function("prob_run_at_least_201k", |b| {
        b.iter(|| black_box(prob_run_at_least(201_086, 0.259, 12)))
    });
    g.bench_function("expected_maximal_runs", |b| {
        b.iter(|| black_box(expected_maximal_runs(201_086, 0.259, 8)))
    });

    // The sweep-reduction hot path: folding many per-campaign CDFs into
    // one. `merge_many` is a single k-way rebuild; the naive pairwise
    // loop it replaced re-sorted the accumulated vector once per
    // campaign (quadratic in total samples).
    let parts: Vec<Cdf> = (0..256)
        .map(|i| Cdf::from_values((0..64).map(|j| ((i * 64 + j) % 977) as f64)))
        .collect();
    g.bench_function("cdf_merge_many_256x64", |b| {
        b.iter(|| {
            let mut acc = Cdf::from_values(std::iter::empty());
            acc.merge_many(parts.iter());
            black_box(acc)
        })
    });
    g.finish();
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// The non-preset survey results, bundled for the report writer.
struct Surveys<'a> {
    sweep: &'a SweepThroughput,
    grid: &'a GridMemory,
    spill: &'a SpillSmoke,
    churn: &'a ChurnThroughput,
}

fn write_report(
    mode: &str,
    presets: &[PresetThroughput],
    surveys: &Surveys<'_>,
    queue_push_pop_ns: f64,
    criterion: &Criterion,
) -> String {
    let Surveys {
        sweep,
        grid,
        spill,
        churn,
    } = *surveys;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ethmeter-bench-engine/v6\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(&format!("  \"par_shards\": {PAR_SHARDS},\n"));
    out.push_str("  \"baseline\": {\n");
    out.push_str(
        "    \"note\": \"frozen reference-container baselines: seed implementation (pre dense-state rewrite) and PR 2 (dense interned indices), full mode\",\n",
    );
    for (name, eps) in SEED_BASELINE_EPS.iter() {
        out.push_str(&format!(
            "    \"{name}_events_per_sec\": {},\n",
            json_f64(*eps)
        ));
    }
    for (i, (name, eps)) in PR2_BASELINE_EPS.iter().enumerate() {
        let comma = if i + 1 < PR2_BASELINE_EPS.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    \"pr2_{name}_events_per_sec\": {}{comma}\n",
            json_f64(*eps)
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"presets\": [\n");
    for (i, p) in presets.iter().enumerate() {
        let seed_base = SEED_BASELINE_EPS
            .iter()
            .find(|(n, _)| *n == p.name)
            .map(|(_, e)| *e);
        let pr2_base = PR2_BASELINE_EPS
            .iter()
            .find(|(n, _)| *n == p.name)
            .map(|(_, e)| *e);
        let speedup = seed_base.map_or(f64::NAN, |b| p.events_per_sec / b);
        let speedup_pr2 = pr2_base.map_or(f64::NAN, |b| p.events_per_sec / b);
        let comma = if i + 1 < presets.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"sim_seconds\": {}, \"events\": {}, \
             \"best_wall_seconds\": {}, \"events_per_sec\": {}, \
             \"speedup_vs_baseline\": {}, \"speedup_vs_pr2\": {}, \
             \"allocs_per_event\": {}, \"steady_allocs_per_event\": {}, \
             \"alloc_peak_bytes\": {}, \"par_wall_seconds\": {}, \
             \"par_speedup\": {}, \"measure_peak_bytes\": {}, \
             \"spill_budget_bytes\": {}, \"spill_measure_peak_bytes\": {}, \
             \"spill_over_budget\": {}, \"spill_segments\": {}}}{comma}\n",
            p.name,
            json_f64(p.sim_seconds),
            p.events,
            json_f64(p.best_wall_seconds),
            json_f64(p.events_per_sec),
            json_f64(speedup),
            json_f64(speedup_pr2),
            json_f64(p.allocs_per_event),
            json_f64(p.steady_allocs_per_event),
            p.alloc_peak_bytes,
            json_f64(p.par_wall_seconds),
            json_f64(p.par_speedup),
            p.measure_peak_bytes,
            p.spill_budget_bytes,
            p.spill_measure_peak_bytes,
            json_f64(p.spill_over_budget),
            p.spill_segments,
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"sweep\": {{\"preset\": \"{}\", \"seeds\": {}, \"sim_seconds_per_job\": {}, \
         \"threads_used\": {}, \"total_events\": {}, \"reused_wall_seconds\": {}, \
         \"fresh_wall_seconds\": {}, \"reused_events_per_sec\": {}, \
         \"fresh_events_per_sec\": {}, \"reuse_speedup\": {}}},\n",
        sweep.preset,
        sweep.seeds,
        json_f64(sweep.sim_seconds_per_job),
        sweep.threads_used,
        sweep.total_events,
        json_f64(sweep.reused_wall_seconds),
        json_f64(sweep.fresh_wall_seconds),
        json_f64(sweep.reused_events_per_sec),
        json_f64(sweep.fresh_events_per_sec),
        json_f64(sweep.reuse_speedup),
    ));
    out.push_str(&format!(
        "  \"grid\": {{\"preset\": \"tiny\", \"runs\": {}, \"sim_seconds_per_job\": {}, \
         \"single_run_peak_bytes\": {}, \"streaming_peak_bytes\": {}, \
         \"retain_runs_peak_bytes\": {}, \"streaming_over_single\": {}, \
         \"retain_over_single\": {}}},\n",
        grid.runs,
        json_f64(grid.sim_seconds_per_job),
        grid.single_run_peak_bytes,
        grid.streaming_peak_bytes,
        grid.retain_runs_peak_bytes,
        json_f64(grid.streaming_over_single),
        json_f64(grid.retain_over_single),
    ));
    out.push_str(&format!(
        "  \"spill_smoke\": {{\"preset\": \"planet\", \"nodes\": {}, \
         \"sim_seconds\": {}, \"events\": {}, \"wall_seconds\": {}, \
         \"budget_bytes\": {}, \"measure_peak_bytes\": {}, \
         \"spill_measure_peak_bytes\": {}, \"spill_over_budget\": {}, \
         \"spill_segments\": {}}},\n",
        spill.nodes,
        json_f64(spill.sim_seconds),
        spill.events,
        json_f64(spill.wall_seconds),
        spill.budget_bytes,
        spill.measure_peak_bytes,
        spill.spill_measure_peak_bytes,
        json_f64(spill.spill_over_budget),
        spill.spill_segments,
    ));
    out.push_str(&format!(
        "  \"churn\": {{\"preset\": \"tiny\", \"sim_seconds\": {}, \
         \"churned_nodes\": {}, \"fraction\": {}, \"static_events\": {}, \
         \"static_wall_seconds\": {}, \"static_events_per_sec\": {}, \
         \"churn_events\": {}, \"churn_wall_seconds\": {}, \
         \"churn_events_per_sec\": {}, \"churn_relative_throughput\": {}}},\n",
        json_f64(churn.sim_seconds),
        churn.churned_nodes,
        json_f64(churn.fraction),
        churn.static_events,
        json_f64(churn.static_wall_seconds),
        json_f64(churn.static_events_per_sec),
        churn.churn_events,
        json_f64(churn.churn_wall_seconds),
        json_f64(churn.churn_events_per_sec),
        json_f64(churn.churn_relative_throughput),
    ));
    out.push_str(&format!(
        "  \"queue_push_pop_ns\": {},\n",
        json_f64(queue_push_pop_ns)
    ));
    out.push_str("  \"microbenches\": [\n");
    let results = criterion.results();
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {}, \"samples\": {}}}{comma}\n",
            r.name,
            r.median.as_nanos(),
            r.samples
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    println!("engine bench ({mode} mode)");

    let mut criterion = Criterion::default();
    classic_benches(&mut criterion, quick);

    println!("group: throughput");
    // Quick mode still takes best-of-3: a best-of-1 sub-100ms run on a
    // shared single-core host swings +/-25% with scheduler noise, which
    // is wider than the CI regression floor it feeds.
    let (samples, tiny_d, small_d, medium_d) = if quick {
        (
            3,
            SimDuration::from_mins(2),
            SimDuration::from_mins(2),
            SimDuration::from_mins(1),
        )
    } else {
        (
            5,
            SimDuration::from_mins(20),
            SimDuration::from_mins(30),
            SimDuration::from_mins(10),
        )
    };
    let presets = vec![
        measure_preset("tiny", Preset::Tiny, tiny_d, samples),
        measure_preset("small", Preset::Small, small_d, samples),
        measure_preset("medium", Preset::Medium, medium_d, samples),
    ];

    println!("group: sweep");
    let sweep = if quick {
        measure_sweep(6, SimDuration::from_mins(1), 1)
    } else {
        measure_sweep(16, SimDuration::from_mins(2), 3)
    };

    println!("group: grid memory");
    let grid = if quick {
        measure_grid_memory(64, SimDuration::from_mins(1))
    } else {
        measure_grid_memory(256, SimDuration::from_mins(2))
    };

    println!("group: spill smoke");
    let spill = if quick {
        measure_spill_smoke(SimDuration::from_mins(2), 64 << 10)
    } else {
        measure_spill_smoke(SimDuration::from_mins(10), 256 << 10)
    };

    println!("group: churn");
    let churn = if quick {
        measure_churn(SimDuration::from_mins(2), 3)
    } else {
        measure_churn(SimDuration::from_mins(20), 5)
    };

    println!("group: queue");
    let queue_ns = measure_queue(if quick { 1 } else { 5 });

    let report = write_report(
        mode,
        &presets,
        &Surveys {
            sweep: &sweep,
            grid: &grid,
            spill: &spill,
            churn: &churn,
        },
        queue_ns,
        &criterion,
    );
    // CARGO_MANIFEST_DIR = crates/bench; the report lives at the repo root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, &report).expect("write BENCH_engine.json");
    println!("wrote {path}");
}
