//! The result of one benchmark run and its printed forms.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Why a campaign failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The simulator panicked; the campaign produced no output.
    Panicked(String),
    /// The campaign finished but its output failed a correctness check.
    Wrong(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Panicked(why) => write!(f, "panicked: {why}"),
            Failure::Wrong(why) => write!(f, "wrong output: {why}"),
        }
    }
}

/// Metrics of one run plus its correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    /// Emitted metrics, in emission order.
    pub metrics: Vec<Metric>,
    /// Campaigns attempted.
    pub attempted: u64,
    /// Campaigns that panicked or failed a correctness check.
    pub failed: u64,
    /// Campaigns whose finished output failed a correctness check.
    pub wrong: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Context lines printed with the table, not part of the JSON.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Counts one attempted campaign and, if `result` is an error, one
    /// failed campaign.
    pub fn campaign(&mut self, label: &str, result: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.wrong += u64::from(matches!(why, Failure::Wrong(_)));
            self.failures.push(format!("{label}: {why}"));
        }
    }

    /// Failed over attempted campaigns.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// True when no finished campaign produced a wrong output. Panicked
    /// campaigns produced none; they count as failed, not as wrong.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.attempted > 0
    }

    /// The one-line JSON result:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values are not JSON; they cannot arise from the
            // measurements, but a 0 keeps the line parseable if one does.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table: one `name  value  unit` row per metric,
    /// then the error rate.
    pub fn to_table(&self, title: &str) -> String {
        let mut out = format!("== {title}\n");
        for m in &self.metrics {
            let _ = writeln!(out, "{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "{:<40} {:>16.6} fraction ({} of {} campaigns failed, {} with wrong output)",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted,
            self.wrong
        );
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAILED {f}");
        }
        out
    }
}
