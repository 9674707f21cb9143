//! Command-line entry point.
//!
//! ```text
//! ethbench --workload <paper_small|block_race|attack_grid|all>
//!          --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a human-readable table on stderr and, as the last line of
//! stdout, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--workload all` the three workloads run in turn and
//! the metric names are prefixed with the workload's name.

use std::path::PathBuf;
use std::process::ExitCode;

use ethbench::{workloads, Opts, Report, Workload};

const USAGE: &str = "usage: ethbench --workload <paper_small|block_race|attack_grid|all> \
--seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    opts: Opts,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or_else(|| format!("unknown workload '{workload}'"))?]
    };
    let spill_dir = PathBuf::from(".ethbench-spill").join(std::process::id().to_string());
    Ok(Args {
        workloads,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            spill_dir,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ethbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.opts.spill_dir) {
        eprintln!(
            "ethbench: cannot create {}: {e}",
            args.opts.spill_dir.display()
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "ethbench: host_cores={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.opts.seed,
        args.opts.seconds,
        u8::from(args.opts.trace)
    );

    let mut combined = Report::default();
    let single = args.workloads.len() == 1;
    for &w in &args.workloads {
        let report = workloads::run(w, &args.opts);
        eprint!("{}", report.to_table(w.name()));
        if single {
            combined = report;
        } else {
            combined.attempted += report.attempted;
            combined.failed += report.failed;
            combined.failures.extend(report.failures);
            for m in report.metrics {
                combined.put(format!("{}.{}", w.name(), m.name), m.unit, m.value);
            }
        }
    }

    let _ = std::fs::remove_dir_all(&args.opts.spill_dir);
    // Removes the parent too when no other run is using it.
    let _ = std::fs::remove_dir(".ethbench-spill");
    println!("{}", combined.to_json());
    ExitCode::SUCCESS
}
