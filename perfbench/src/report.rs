//! The metric vocabulary and the one-line JSON result.
//!
//! [`END_TO_END`] and [`PER_LAYER`] must list exactly the metrics of
//! `BENCHMARK.json`, in its order; the package tests check that.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed by untraced runs.
/// Every workload reports every one of them, and none is ever 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("deep_p50_us", "us"),
    ("deep_p90_us", "us"),
    ("switch_p50_us", "us"),
    ("switch_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs. A
/// layer a workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cache.view_run_p50_us", "us"),
    ("cache.view_run_p90_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("index.build_p50_us", "us"),
    ("index.builds", "count"),
    ("index.hit_ratio", "ratio"),
    ("index.bitset_mb", "MB"),
    ("labels.mb", "MB"),
    ("labels.appends", "count"),
    ("labels.rebuilds", "count"),
    ("labels.build_p50_us", "us"),
    ("query.project_p50_us", "us"),
    ("query.tuples_p50", "count"),
    ("views.build_p50_us", "us"),
    ("privacy.gate_p50_us", "us"),
    ("privacy.substitutions", "count"),
    ("remote.ping_p50_us", "us"),
    ("codec.encode_p50_us", "us"),
    ("codec.decode_p50_us", "us"),
    ("codec.answer_kb_p50", "KB"),
    ("wire.frame_p50_us", "us"),
    ("router.query_p50_us", "us"),
    ("remote.unexplained_p50_us", "us"),
    ("stream.apply_p50_us", "us"),
    ("stream.push_p50_us", "us"),
    ("stream.push_p90_us", "us"),
    ("stream.events_per_s", "1/s"),
    ("journal.fsync_p50_us", "us"),
    ("durable.upload_p50_us", "us"),
    ("durable.compactions", "count"),
    ("durable.reopen_ms", "ms"),
    ("resilience.shed", "count"),
    ("resilience.deadline_exceeded", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.deep_layer_sum_us", "us"),
    ("trace.deep_untraced_p50_us", "us"),
];

/// What one run measured: metric values by name, op accounting, and the
/// context lines printed before the result.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Failed operations: unexpected errors, oracle mismatches, and shed
    /// or deadline-exceeded requests.
    pub failed: u64,
    /// Oracle mismatches (also counted in `failed`).
    pub mismatches: u64,
    /// `key → JSON value` context: host, working set, storage.
    pub context: BTreeMap<String, String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a string context entry.
    pub fn context_str(&mut self, key: &str, value: &str) {
        self.context
            .insert(key.to_string(), format!("\"{}\"", escape(value)));
    }

    /// Adds a numeric context entry.
    pub fn context_num(&mut self, key: &str, value: impl std::fmt::Display) {
        self.context.insert(key.to_string(), value.to_string());
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0
    }

    /// The context line (a JSON object).
    pub fn context_json(&self) -> String {
        let fields: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The result line for the metric set `wanted`. Errors when a wanted
    /// metric was not measured, a measured one is not wanted, or a value
    /// is not finite.
    pub fn result_json(&self, wanted: &[(&str, &str)]) -> Result<String, String> {
        for name in self.metrics.keys() {
            if !wanted.iter().any(|(w, _)| w == name) {
                return Err(format!("metric `{name}` is not in the reported set"));
            }
        }
        let mut fields = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_requires_exactly_the_wanted_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("a", 1.5);
        assert_eq!(
            r.result_json(&[("a", "s")]).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert!(r.result_json(&[("a", "s"), ("b", "s")]).is_err());
        assert!(r.result_json(&[]).is_err());
        r.set("a", f64::NAN);
        assert!(r.result_json(&[("a", "s")]).is_err());
        r.mismatches = 1;
        assert!(!r.correct());
    }
}
