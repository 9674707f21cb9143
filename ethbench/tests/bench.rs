//! The benchmark's own tests: the tracer does not perturb the simulation,
//! inputs derive from the seed alone, and every emitted metric is the one
//! `BENCHMARK.json` declares.

use ethbench::trace::TracedRunner;
use ethbench::workloads::{
    self, campaign_scenario, check_receptions, gate, grid_jobs, grid_seeds, Contract,
};
use ethbench::{Opts, Workload};
use ethmeter_core::types::SimDuration;
use ethmeter_core::{run_campaign, Preset, Scenario};

fn opts(seed: u64) -> Opts {
    Opts {
        seed,
        seconds: 1.0,
        trace: false,
        spill_dir: std::env::temp_dir().join("ethbench-test-unused"),
    }
}

fn tiny(seed: u64) -> Scenario {
    Scenario::builder()
        .preset(Preset::Tiny)
        .seed(seed)
        .duration(SimDuration::from_mins(2))
        .build()
}

#[test]
fn tracer_is_equivalent_on_a_short_tiny_run() {
    let s = tiny(5);
    let untraced = Contract::of(&run_campaign(&s));
    let mut runner = TracedRunner::new();
    for reuse in [false, true, true] {
        let tc = runner.run(&s, reuse).expect("per-kind events add up");
        assert_eq!(Contract::of(&tc.outcome), untraced, "reuse={reuse}");
        assert_eq!(tc.table.total_events(), tc.outcome.events);
        assert_eq!(tc.table.deliveries(), tc.outcome.stats.messages);
        gate(&s, &tc.outcome).expect("tiny campaign passes the gate");
        check_receptions(&tc.table, &s, &tc.outcome).expect("reception bounds hold");
    }
}

#[test]
fn same_seed_repeats_exactly_and_another_seed_changes_the_inputs() {
    for w in [Workload::PaperSmall, Workload::BlockRace] {
        let a = campaign_scenario(w, &opts(1), 0, "x");
        let b = campaign_scenario(w, &opts(1), 0, "x");
        let c = campaign_scenario(w, &opts(2), 0, "x");
        let next = campaign_scenario(w, &opts(1), 1, "x");
        assert_eq!(a.seed, b.seed, "{w:?}");
        assert_ne!(a.seed, c.seed, "{w:?}");
        assert_ne!(a.seed, next.seed, "{w:?}: repetitions use distinct seeds");
    }
    assert_eq!(grid_seeds(&opts(1), 0), grid_seeds(&opts(1), 0));
    assert_ne!(grid_seeds(&opts(1), 0), grid_seeds(&opts(2), 0));

    // The generated campaigns themselves repeat and diverge.
    let run = |seed| {
        let mut s = grid_jobs(&grid_seeds(&opts(seed), 0)).swap_remove(0);
        s.duration = SimDuration::from_mins(2);
        Contract::of(&run_campaign(&s))
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1).fingerprint, run(2).fingerprint);
}

#[test]
fn the_run_length_alone_sets_the_repetitions() {
    for w in Workload::ALL {
        let mut o = opts(1);
        o.seconds = 30.0;
        let untraced = workloads::repetitions(w, &o);
        assert!(untraced > 1, "{w:?}");
        assert_eq!(
            workloads::repetitions(w, &opts(2)),
            workloads::repetitions(w, &opts(1))
        );
        o.trace = true;
        assert!(workloads::repetitions(w, &o) < untraced, "{w:?}");
        o.seconds = 0.01;
        assert_eq!(workloads::repetitions(w, &o), 1, "{w:?}");
    }
}

#[test]
fn grid_jobs_follow_the_grid_order() {
    let seeds = grid_seeds(&opts(3), 0);
    let jobs = grid_jobs(&seeds);
    let grid = workloads::attack_grid(&seeds);
    assert_eq!(jobs.len(), grid.job_count());
    assert_eq!(jobs.len(), 108);
    assert_eq!(jobs[1].seed, seeds[1]);
    assert!(
        jobs[2 * seeds.len()].dynamics.entries().len() == 2,
        "eclipse point"
    );
}

/// Every value of `key` within one top-level section of
/// `BENCHMARK.json`, read with a plain scan (the file is one object per
/// line inside each list).
fn declared(section: &str, key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    let pattern = format!("\"{key}\": \"");
    body[..end]
        .match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &body[at + pattern.len()..];
            rest.split('"').next().expect("closing quote").to_owned()
        })
        .collect()
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn emitted_metrics_match_benchmark_json() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let emitted = workloads::metric_names(trace);
        let names = declared(section, "name");
        let units = declared(section, "unit");
        assert_eq!(emitted.len(), names.len(), "{section}");
        for ((n, u), (dn, du)) in emitted.iter().zip(names.iter().zip(&units)) {
            assert_eq!((n, *u), (dn, du.as_str()), "{section}");
            assert!(valid_name(n), "bad metric name {n}");
            assert!(valid_unit(u), "bad unit {u} of {n}");
        }
        let mut unique: Vec<&String> = names.iter().collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "{section}: names are unique");
    }
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared("workloads", "name"), workloads);
    assert!(workloads.iter().all(|w| valid_name(w)));
}
