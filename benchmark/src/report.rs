//! The metrics of one run, and how they are printed: a table for people,
//! then the JSON lines the `all` subcommand and the driver read.

use crate::spec::{declared, Metric};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Default)]
pub struct Metrics {
    /// Value and, for timings and rates, the samples behind it.
    values: BTreeMap<String, (f64, Option<u64>)>,
    /// Numbers that go with the metrics without being one: the rows of the
    /// layer-attribution tables, the run's phases.
    notes: Vec<(String, f64)>,
}

/// A metric as printed: its declaration, value, samples behind it.
type Row = (&'static Metric, f64, Option<u64>);

fn json_metrics(rows: &[Row]) -> String {
    let mut out = String::from("{");
    for (i, (m, v, _)) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    out
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.insert(name, value, None);
    }

    pub fn set_sampled(&mut self, name: &str, value: f64, samples: u64) {
        self.insert(name, value, Some(samples));
    }

    fn insert(&mut self, name: &str, value: f64, samples: Option<u64>) {
        assert!(
            declared().metric(name).is_some(),
            "metric {name} is not declared in BENCHMARK.json"
        );
        self.values.insert(name.to_string(), (value, samples));
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }

    /// `table`'s metrics in order. An end-to-end metric must have been
    /// measured; a per-layer metric the workload cannot produce reads 0.
    fn rows(&self, table: &'static [Metric], required: bool) -> Result<Vec<Row>, String> {
        table
            .iter()
            .map(|m| match self.values.get(&m.name) {
                Some(&(v, n)) if v.is_finite() => Ok((m, v, n)),
                Some(_) => Err(format!("metric {} is not a finite number", m.name)),
                None if required => Err(format!("metric {} was not measured", m.name)),
                None => Ok((m, 0.0, None)),
            })
            .collect()
    }

    /// The human-readable table and the JSON lines. A traced run ends with
    /// the per-layer metrics. An untraced run ends with the end-to-end
    /// metrics, which is all the driver reads: every one of them for a
    /// workload `BENCHMARK.json` lists, those it has for another. The line
    /// before that holds what its window measured of the ungated metrics
    /// (queries, recovery, the log's write amplification), so that
    /// `compare` can show them with their spread.
    pub fn render(
        &self,
        traced: bool,
        listed: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let d = declared();
        let measured =
            |rows: &mut Vec<Row>| rows.retain(|(m, ..)| self.values.contains_key(&m.name));
        let (rows, also) = if traced {
            (self.rows(&d.per_layer, false)?, Vec::new())
        } else {
            let mut gated = self.rows(&d.end_to_end, listed)?;
            let mut ungated = self.rows(&d.per_layer, false)?;
            measured(&mut gated);
            measured(&mut ungated);
            (gated, ungated)
        };
        let mut out = String::new();
        for (name, v) in &self.notes {
            let _ = writeln!(out, "{name:<52} {v:>16.4}");
        }
        let _ = writeln!(
            out,
            "{:<44} {:>16} {:<6} {:>10}",
            "metric", "value", "unit", "samples"
        );
        for (m, v, n) in rows.iter().chain(&also) {
            let samples = n.map_or(String::from("-"), |n| n.to_string());
            let _ = writeln!(out, "{:<44} {v:>16.4} {:<6} {samples:>10}", m.name, m.unit);
        }
        if !traced {
            let _ = writeln!(out, "{{\"ungated\": {}}}", json_metrics(&also));
        }
        let _ = write!(
            out,
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
            json_metrics(&rows)
        );
        Ok(out)
    }

    /// Everything measured, as a JSON object for the trace file.
    pub fn derived_json(&self) -> String {
        let mut out = String::from("{");
        let all = self
            .values
            .iter()
            .map(|(name, (v, _))| (name, v))
            .chain(self.notes.iter().map(|(name, v)| (name, v)));
        for (i, (name, v)) in all.enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(out, "{sep}\"{name}\":{v}");
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn value_of(metrics: &Value, name: &str) -> Option<f64> {
        metrics.get(name)?.get("value")?.as_f64()
    }

    #[test]
    fn an_untraced_result_needs_every_end_to_end_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        assert!(m.render(false, true, 10, 0).is_err());
        // A workload the driver does not run reports what it has.
        let unlisted = m.render(false, false, 10, 0).unwrap();
        assert!(unlisted
            .lines()
            .last()
            .unwrap()
            .contains("\"metrics\": {\"setup_s\""));
        for e in &declared().end_to_end {
            m.set_sampled(&e.name, 2.25, 1000);
        }
        m.set("recovery_s", 0.75);
        let text = m.render(false, true, 10, 1).unwrap();
        let mut lines = text.lines().rev();
        let doc = serde_json::from_str_value(lines.next().unwrap()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(10.0));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(1.0));
        let metrics = doc.get("metrics").unwrap();
        for e in &declared().end_to_end {
            let got = metrics.get(&e.name).unwrap();
            assert_eq!(got.get("value").and_then(Value::as_f64), Some(2.25));
            assert_eq!(got.get("unit").and_then(Value::as_str), Some(&*e.unit));
        }
        // The ungated metric it measured is on the line before, alone.
        assert!(metrics.get("recovery_s").is_none());
        let also = serde_json::from_str_value(lines.next().unwrap()).unwrap();
        let also = also.get("ungated").unwrap();
        assert_eq!(value_of(also, "recovery_s"), Some(0.75));
        assert!(also.get("nn_p50_us").is_none());
    }

    #[test]
    fn a_traced_result_lists_every_per_layer_metric_and_zero_for_the_absent() {
        let mut m = Metrics::default();
        m.set("wal.append_ns", 812.5);
        let text = m.render(true, true, 1, 0).unwrap();
        let doc = serde_json::from_str_value(text.lines().last().unwrap()).unwrap();
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(value_of(metrics, "wal.append_ns"), Some(812.5));
        assert_eq!(value_of(metrics, "school.shed_share"), Some(0.0));
        assert!(metrics.get("setup_s").is_none());
        assert!(serde_json::from_str_value(&m.derived_json()).is_ok());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        Metrics::default().set("made.up", 1.0);
    }
}
