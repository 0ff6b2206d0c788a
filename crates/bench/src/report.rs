//! `BENCH_<name>.json` emission for the CI bench-regression gate.
//!
//! Benches call [`BenchReport::write_if_json_mode`] at the end of their
//! run; the file is only produced when the bench was invoked with
//! `--json` (`cargo bench -p perseas-bench -- --json`), so default runs
//! stay artifact-free. `tools/bench_gate` compares the emitted files
//! against the reviewed copies in `results/baselines/`; only metrics
//! named in a baseline's `gate` object can fail the build, and the gate
//! is read from the baseline so a PR cannot loosen it from the bench
//! side.

use perseas_obs::Json;

/// Whether `--json` was passed on the command line.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Builder for one bench's `BENCH_<name>.json` report.
#[derive(Debug, Clone)]
pub struct BenchReport {
    bench: String,
    metrics: Vec<(String, Json)>,
    /// How each labelled metric was obtained (`"measured"`: wall clock
    /// on the machine that ran the bench).
    basis: Vec<(String, Json)>,
    gate: Vec<(String, Json)>,
}

impl BenchReport {
    /// Starts a report for the bench called `bench`.
    pub fn new(bench: impl Into<String>) -> BenchReport {
        BenchReport {
            bench: bench.into(),
            metrics: Vec::new(),
            basis: Vec::new(),
            gate: Vec::new(),
        }
    }

    /// Records one flat metric.
    #[must_use]
    pub fn metric(mut self, name: &str, value: f64) -> Self {
        self.metrics.push((name.to_string(), Json::Num(value)));
        self
    }

    /// Records one flat metric labelled *measured*: a wall-clock figure
    /// of this machine, as opposed to a modeled (virtual-time) or counted
    /// one. The label lands in the report's `basis` object.
    #[must_use]
    pub fn measured(mut self, name: &str, value: f64) -> Self {
        self.basis.push((name.to_string(), Json::str("measured")));
        self.metric(name, value)
    }

    /// Gates an already-recorded metric as lower-is-better.
    #[must_use]
    pub fn gate_lower(self, name: &str, tolerance_pct: f64) -> Self {
        self.gate(name, "lower", tolerance_pct)
    }

    /// Gates an already-recorded metric as higher-is-better.
    #[must_use]
    pub fn gate_higher(self, name: &str, tolerance_pct: f64) -> Self {
        self.gate(name, "higher", tolerance_pct)
    }

    /// Gates an already-recorded metric as a duration: lower-is-better
    /// with the gate tool's default tolerance for the class.
    #[must_use]
    pub fn gate_duration(self, name: &str) -> Self {
        self.gate_spec(name, vec![("class", Json::str("duration"))])
    }

    /// Gates an already-recorded metric as a duration with an explicit
    /// tolerance, for wall-clock durations noisier than the default
    /// allows.
    #[must_use]
    pub fn gate_duration_within(self, name: &str, tolerance_pct: f64) -> Self {
        self.gate_spec(
            name,
            vec![
                ("class", Json::str("duration")),
                ("tolerance_pct", Json::Num(tolerance_pct)),
            ],
        )
    }

    fn gate(self, name: &str, better: &str, tolerance_pct: f64) -> Self {
        self.gate_spec(
            name,
            vec![
                ("better", Json::str(better)),
                ("tolerance_pct", Json::Num(tolerance_pct)),
            ],
        )
    }

    fn gate_spec(mut self, name: &str, spec: Vec<(&str, Json)>) -> Self {
        assert!(
            self.metrics.iter().any(|(n, _)| n == name),
            "gated metric {name} must be recorded first"
        );
        self.gate.push((name.to_string(), Json::object(spec)));
        self
    }

    /// The report as a JSON document.
    pub fn render(&self) -> String {
        let mut fields = vec![
            ("bench".to_string(), Json::str(&self.bench)),
            ("metrics".to_string(), Json::Object(self.metrics.clone())),
        ];
        if !self.basis.is_empty() {
            fields.push(("basis".to_string(), Json::Object(self.basis.clone())));
        }
        fields.push(("gate".to_string(), Json::Object(self.gate.clone())));
        let doc = Json::Object(fields);
        format!("{doc}\n")
    }

    /// Writes `results/BENCH_<bench>.json` when running in `--json` mode
    /// and returns the path written.
    pub fn write_if_json_mode(&self) -> Option<String> {
        if !json_mode() {
            return None;
        }
        let path = format!(
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_{}.json"),
            self.bench
        );
        std::fs::write(&path, self.render()).expect("write bench json");
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_the_parser() {
        let report = BenchReport::new("demo")
            .metric("virtual_us", 123.5)
            .metric("speedup", 4.0)
            .gate_lower("virtual_us", 15.0)
            .gate_higher("speedup", 25.0);
        let doc = Json::parse(&report.render()).expect("valid json");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("demo"));
        let metrics = doc.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), 2);
        let gate = doc.get("gate").and_then(Json::as_object).unwrap();
        let vt = &gate.iter().find(|(k, _)| k == "virtual_us").unwrap().1;
        assert_eq!(vt.get("better").and_then(Json::as_str), Some("lower"));
        assert_eq!(vt.get("tolerance_pct").and_then(Json::as_f64), Some(15.0));
    }

    #[test]
    fn measured_metrics_are_labelled_and_duration_gates_carry_a_tolerance() {
        let report = BenchReport::new("demo")
            .measured("wall_ns", 80.0)
            .metric("count", 3.0)
            .gate_duration_within("wall_ns", 75.0);
        let doc = Json::parse(&report.render()).expect("valid json");
        let basis = doc.get("basis").and_then(Json::as_object).unwrap();
        assert_eq!(basis.len(), 1, "only the measured metric is labelled");
        assert_eq!(basis[0].0, "wall_ns");
        assert_eq!(basis[0].1.as_str(), Some("measured"));
        let gate = doc.get("gate").and_then(|g| g.get("wall_ns")).unwrap();
        assert_eq!(gate.get("class").and_then(Json::as_str), Some("duration"));
        assert_eq!(gate.get("tolerance_pct").and_then(Json::as_f64), Some(75.0));
        // Unlabelled reports keep their old shape.
        assert!(!BenchReport::new("plain").render().contains("basis"));
    }

    #[test]
    #[should_panic(expected = "recorded first")]
    fn gating_an_unknown_metric_panics() {
        let _ = BenchReport::new("demo").gate_lower("ghost", 10.0);
    }
}
