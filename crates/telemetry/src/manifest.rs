//! JSONL run manifests: one self-describing record per run, capturing
//! seeds, parameters, per-phase wall times, throughput, and the final
//! counter snapshot. Records append to a file one JSON object per line,
//! so manifests from many runs (or many processes) concatenate cleanly.

use crate::Snapshot;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Wall time spent in one named phase of a run.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PhaseTiming {
    /// Phase name (e.g. `"plan"`, `"simulate"`, `"aggregate"`).
    pub name: String,
    /// Wall-clock seconds spent in the phase.
    pub wall_secs: f64,
}

/// One manifest record: everything needed to identify, reproduce, and
/// performance-compare a run.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunRecord {
    /// What ran (e.g. `"fig3"`, `"perf_smoke"`).
    pub experiment: String,
    /// Base RNG seed the run derives all randomness from.
    pub seed: u64,
    /// Numeric run parameters (catalog size, servers, lambda, ...).
    pub params: BTreeMap<String, f64>,
    /// Per-phase wall times, in execution order.
    pub phases: Vec<PhaseTiming>,
    /// Final counter values.
    pub counters: BTreeMap<String, u64>,
    /// Derived rates (e.g. `"events_per_sec"`, `"requests_per_sec"`).
    pub throughput: BTreeMap<String, f64>,
    /// Total wall-clock seconds for the run.
    pub wall_secs: f64,
}

impl RunRecord {
    /// A record for `experiment` seeded with `seed`; fill in the rest
    /// with the builder-style methods.
    pub fn new(experiment: impl Into<String>, seed: u64) -> Self {
        RunRecord {
            experiment: experiment.into(),
            seed,
            ..RunRecord::default()
        }
    }

    /// Sets one numeric parameter.
    pub fn param(mut self, name: impl Into<String>, value: f64) -> Self {
        self.params.insert(name.into(), value);
        self
    }

    /// Appends a phase timing.
    pub fn phase(mut self, name: impl Into<String>, wall_secs: f64) -> Self {
        self.phases.push(PhaseTiming {
            name: name.into(),
            wall_secs,
        });
        self
    }

    /// Sets one derived rate.
    pub fn rate(mut self, name: impl Into<String>, value: f64) -> Self {
        self.throughput.insert(name.into(), value);
        self
    }

    /// Sets the total wall time.
    pub fn wall(mut self, wall_secs: f64) -> Self {
        self.wall_secs = wall_secs;
        self
    }

    /// Copies counters from a snapshot, and turns its span histograms
    /// into phase timings (total seconds per span, appended in name
    /// order after any explicit phases). Histograms named `*_per_sec`
    /// hold observed rates, histograms named `*_min` hold
    /// simulated-time integrals (e.g. `sim.repair.time_to_redundancy_min`),
    /// and histograms named `*_pctl` hold per-request distributions
    /// reported as percentiles (e.g. `sim.admission.wait_min_pctl`);
    /// none is wall time, so all three are skipped.
    pub fn with_snapshot(mut self, snapshot: &Snapshot) -> Self {
        self.counters
            .extend(snapshot.counters.iter().map(|(name, &v)| (name.clone(), v)));
        for (name, stats) in &snapshot.histograms {
            if name.ends_with("_per_sec") || name.ends_with("_min") || name.ends_with("_pctl") {
                continue;
            }
            self.phases.push(PhaseTiming {
                name: name.clone(),
                wall_secs: stats.sum,
            });
        }
        self
    }
}

/// Appends [`RunRecord`]s to a file as JSON Lines.
#[derive(Debug)]
pub struct ManifestWriter {
    file: std::fs::File,
}

impl ManifestWriter {
    /// Opens `path` for appending (creating it and missing parent
    /// directories as needed).
    pub fn append_to(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(ManifestWriter { file })
    }

    /// Truncates `path` and opens it for writing (fresh manifest).
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        Ok(ManifestWriter { file })
    }

    /// Writes one record as a single JSON line and flushes.
    pub fn write(&mut self, record: &RunRecord) -> std::io::Result<()> {
        let line = serde_json::to_string(record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(self.file, "{line}")?;
        self.file.flush()
    }
}

/// Parses a JSONL manifest back into records, skipping blank lines.
pub fn read_manifest(path: impl AsRef<Path>) -> std::io::Result<Vec<RunRecord>> {
    let contents = std::fs::read_to_string(path)?;
    contents
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            serde_json::from_str(line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("vod-telemetry-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn record_builder_fills_fields() {
        let record = RunRecord::new("fig3", 42)
            .param("m", 200.0)
            .param("lambda", 40.0)
            .phase("plan", 0.5)
            .rate("events_per_sec", 1e6)
            .wall(1.25);
        assert_eq!(record.experiment, "fig3");
        assert_eq!(record.seed, 42);
        assert_eq!(record.params["m"], 200.0);
        assert_eq!(record.phases.len(), 1);
        assert_eq!(record.throughput["events_per_sec"], 1e6);
        assert_eq!(record.wall_secs, 1.25);
    }

    #[test]
    fn snapshot_merges_counters_and_spans() {
        let telemetry = Telemetry::enabled();
        telemetry.counter("sim.arrivals").add(10);
        drop(telemetry.span("sim.run"));
        telemetry
            .histogram("sim.engine.events_per_sec")
            .observe(1e6);
        let record = RunRecord::new("x", 1).with_snapshot(&telemetry.snapshot());
        assert_eq!(record.counters["sim.arrivals"], 10);
        assert!(record.phases.iter().any(|p| p.name == "sim.run"));
        // Rate histograms are not wall time; they must not become phases.
        assert!(!record.phases.iter().any(|p| p.name.ends_with("_per_sec")));
    }

    #[test]
    fn simulated_time_histograms_do_not_become_phases() {
        let telemetry = Telemetry::enabled();
        drop(telemetry.span("sim.run"));
        // Simulated minutes, not wall seconds.
        telemetry
            .histogram("sim.repair.time_to_redundancy_min")
            .observe(42.0);
        let record = RunRecord::new("x", 1).with_snapshot(&telemetry.snapshot());
        assert!(record.phases.iter().any(|p| p.name == "sim.run"));
        assert!(!record.phases.iter().any(|p| p.name.ends_with("_min")));
    }

    #[test]
    fn percentile_histograms_do_not_become_phases() {
        let telemetry = Telemetry::enabled();
        drop(telemetry.span("sim.run"));
        // Per-request wait-time distribution in simulated minutes.
        telemetry
            .histogram("sim.admission.wait_min_pctl")
            .observe(1.5);
        let record = RunRecord::new("x", 1).with_snapshot(&telemetry.snapshot());
        assert!(record.phases.iter().any(|p| p.name == "sim.run"));
        assert!(!record.phases.iter().any(|p| p.name.ends_with("_pctl")));
    }

    #[test]
    fn jsonl_round_trips() {
        let path = temp_path("roundtrip.jsonl");
        let a = RunRecord::new("fig1", 7).param("m", 100.0).wall(0.25);
        let b = RunRecord::new("fig2", 8)
            .phase("plan", 0.125)
            .rate("requests_per_sec", 1234.5);
        {
            let mut writer = ManifestWriter::create(&path).unwrap();
            writer.write(&a).unwrap();
            writer.write(&b).unwrap();
        }
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 2);
        for line in contents.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        let records = read_manifest(&path).unwrap();
        assert_eq!(records, vec![a, b]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_mode_accumulates() {
        let path = temp_path("append.jsonl");
        std::fs::remove_file(&path).ok();
        for seed in 0..3 {
            let mut writer = ManifestWriter::append_to(&path).unwrap();
            writer.write(&RunRecord::new("run", seed)).unwrap();
        }
        let records = read_manifest(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].seed, 2);
        std::fs::remove_file(&path).ok();
    }
}
