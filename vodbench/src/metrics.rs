//! The metric catalogue (BENCHMARK.json lists the same names, units and
//! directions) and the result a run prints.

use std::fmt::Write;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word BENCHMARK.json uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees, printed by an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("requests_per_s", "1/s", Higher),
    def("peak_rss_mib", "MiB", Lower),
    def("served_share", "fraction", Higher),
    def("imbalance_cv", "fraction", Lower),
];

/// Single-layer numbers, printed by a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("replication.s", "s", Lower),
    def("placement.s", "s", Lower),
    def("anneal.s", "s", Lower),
    def("anneal.steps_per_s", "1/s", Higher),
    def("anneal.accept_ratio", "fraction", Higher),
    def("bind.s", "s", Lower),
    def("workload.build_s", "s", Lower),
    def("workload.pull_s", "s", Lower),
    def("workload.requests", "count", Lower),
    def("engine.self_s", "s", Lower),
    def("engine.events", "count", Lower),
    def("engine.events_per_s", "1/s", Higher),
    def("dispatch.probes_per_arrival", "count", Lower),
    def("admission.queued_share", "fraction", Lower),
    def("admission.retried_share", "fraction", Lower),
    def("admission.abandoned_share", "fraction", Lower),
    def("queue.peak_len", "count", Lower),
    def("queue.bytes_per_active_stream", "B", Lower),
    def("failure.transitions", "count", Lower),
    def("failure.disrupted_share", "fraction", Lower),
    def("repair.copies", "count", Lower),
    def("repair.bytes", "B", Lower),
    def("controller.copies", "count", Lower),
    def("controller.acting_share", "fraction", Higher),
    def("shard.groups", "count", Higher),
    def("shard.speedup", "x", Higher),
    def("window.engaged_share", "fraction", Higher),
    def("window.windows", "count", Higher),
    def("window.stalls", "count", Lower),
    def("window.coalesced", "count", Lower),
    def("metrics.samples", "count", Lower),
    def("telemetry.overhead_share", "fraction", Lower),
];

/// A finished run: the contract's four fields plus human-readable notes
/// (sample counts and check outcomes) for the stderr table.
#[derive(Debug)]
pub struct BenchResult {
    /// Every timed run passed its output checks.
    pub correct: bool,
    /// Timed simulation runs.
    pub attempted: u64,
    /// Timed runs that errored or failed a check.
    pub failed: u64,
    /// Values in catalogue order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// One line each, printed under the table.
    pub notes: Vec<String>,
}

impl BenchResult {
    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (k, (m, value)) in self.metrics.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        line.push_str("}}");
        line
    }

    /// Every metric with its unit and direction, then the notes.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (m, value) in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<30} {:>16.6} {:<9} ({} is better)",
                m.name,
                value,
                m.unit,
                m.better.as_str()
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<30} {:>16.6} {:<9} ({} of {} runs)",
            "failed_share", share, "fraction", self.failed, self.attempted
        );
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for m in &all {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    use serde_json::Value;

    fn at<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn items(v: &Value) -> &[Value] {
        match v {
            Value::Array(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = serde_json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            items(at(&doc, key))
                .iter()
                .map(|m| {
                    let field = |f: &str| at(m, f).as_str().unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let result = BenchResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![(END_TO_END[0], 0.5), (END_TO_END[1], 1234.25)],
            notes: Vec::new(),
        };
        let v = serde_json::parse(&result.json_line()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(matches!(at(&v, "correct"), Value::Bool(true)));
        assert!(matches!(at(&v, "attempted"), Value::UInt(3)));
        let setup = at(at(&v, "metrics"), "setup_s");
        assert!(matches!(at(setup, "value"), Value::Float(x) if *x == 0.5));
        let rate = at(at(&v, "metrics"), "requests_per_s");
        assert_eq!(at(rate, "unit").as_str(), Some("1/s"));
    }
}
