//! Result records and the output format: a human-readable report, a
//! run-environment line, and the final one-line JSON result.

use crate::harness::Tally;

/// End-to-end metrics: (name, unit), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MiB"),
    ("slo_rate_qps", "1/s"),
    ("swap_to_serve_ms_p50", "ms"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 50] = [
    ("net.overhead_us_p50", "us"),
    ("net.overhead_us_p99", "us"),
    ("net.reply_chunks_mean", "count"),
    ("proto.encode_us_per_reply", "us"),
    ("admission.admitted", "count"),
    ("admission.rejected", "count"),
    ("state.server_ms_p50", "ms"),
    ("state.exec_ms_p50", "ms"),
    ("state.pre_exec_us_p50", "us"),
    ("normalize.us_per_call", "us"),
    ("plan_cache.hit_ratio", "frac"),
    ("plan_cache.preparations", "count"),
    ("plan_cache.prepare_ms_p50", "ms"),
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("opt.optimize_ms", "ms"),
    ("opt.placement_kernel", "count"),
    ("opt.placement_tensor", "count"),
    ("opt.placement_classical", "count"),
    ("opt.pruning_fired", "bool"),
    ("fingerprint.us_per_call", "us"),
    ("result_cache.hit_ratio", "frac"),
    ("result_cache.executions", "count"),
    ("result_cache.evictions", "count"),
    ("result_cache.invalidations", "count"),
    ("relational.self_ms_p50", "ms"),
    ("relational.rows_out_mean", "rows"),
    ("runtime.score_ms_per_call", "ms"),
    ("runtime.rows_per_call", "rows"),
    ("runtime.calls_per_query", "count"),
    ("runtime.session_cache_hit_ratio", "frac"),
    ("ml.kernel_ns_per_row", "ns"),
    ("ml.classical_ns_per_row", "ns"),
    ("ml.flatten_ms", "ms"),
    ("ml.kernel_bytes_per_row", "B"),
    ("batcher.mean_batch", "rows"),
    ("batcher.batches", "count"),
    ("batcher.score_us_per_batch", "us"),
    ("batcher.busy_frac", "frac"),
    ("batcher.window_us", "us"),
    ("batcher.ewma_row_us", "us"),
    ("batcher.shed", "count"),
    ("batcher.expired", "count"),
    ("batcher.failed", "count"),
    ("tenant.swapped_p99_ms", "ms"),
    ("tenant.quiet_p99_ms", "ms"),
    ("obs.server_latency_us_p50", "us"),
    ("proc.cpu_ms_per_kreq", "ms"),
    ("loadgen.late_us_p99", "us"),
    ("host.steal_frac", "frac"),
];

/// Trace-quality metrics reported with the per-layer set.
pub const TRACE_METRICS: [(&str, &str); 2] = [
    ("trace.residual_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Every metric the traced run prints.
pub fn traced_metric_names() -> Vec<(&'static str, &'static str)> {
    PER_LAYER
        .iter()
        .chain(TRACE_METRICS.iter())
        .copied()
        .collect()
}

/// An exact counter identity checked after a run.
#[derive(Debug, Clone)]
pub struct Reconciliation {
    pub name: String,
    pub holds: bool,
    pub detail: String,
}

impl Reconciliation {
    pub fn equal(name: &str, lhs: u64, rhs: u64, detail: String) -> Reconciliation {
        Reconciliation {
            name: name.into(),
            holds: lhs == rhs,
            detail: format!("{detail}: {lhs} == {rhs}"),
        }
    }
}

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct RunReport {
    pub tally: Tally,
    pub metrics: Vec<(String, f64)>,
    pub reconciliations: Vec<Reconciliation>,
    /// Run environment and diagnostics, printed on the record line.
    pub env: Vec<(String, String)>,
    /// Free-text notes (e.g. why a metric reads 0 on this workload).
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    /// Set a run-record entry (a later value replaces an earlier one).
    pub fn env(&mut self, key: &str, value: impl ToString) {
        let value = value.to_string();
        match self.env.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.env.push((key.to_string(), value)),
        }
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn correct(&self) -> bool {
        self.tally.mismatches == 0 && self.reconciliations.iter().all(|r| r.holds)
    }
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (a metric that could not be
/// computed) are written as -1 and flagged in the notes by the caller.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

/// The final result line over `names` (the metric set of this mode).
pub fn result_line(report: &RunReport, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = report.get(name).unwrap_or(f64::NAN);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.tally.attempted,
        report.tally.failed(),
        metrics.join(", ")
    )
}

/// The run-environment record line.
pub fn env_line(report: &RunReport) -> String {
    let fields: Vec<String> = report
        .env
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    format!("{{\"run_environment\": {{{}}}}}", fields.join(", "))
}

/// The human-readable report.
pub fn human(workload: &str, report: &RunReport, names: &[(&str, &str)]) -> String {
    let mut out = format!("== {workload} ==\n");
    for (name, unit) in names {
        let v = report.get(name).unwrap_or(f64::NAN);
        out.push_str(&format!("  {name:<34} {v:>14.4} {unit}\n"));
    }
    let t = &report.tally;
    let failed_frac = t.failed() as f64 / t.attempted.max(1) as f64;
    out.push_str(&format!(
        "  {:<34} {failed_frac:>14.6} frac\n",
        "failed_frac"
    ));
    out.push_str(&format!(
        "  attempted {}  errors {}  oracle mismatches {}\n",
        t.attempted, t.errors, t.mismatches
    ));
    for (name, _) in names {
        if !report.get(name).is_some_and(f64::is_finite) {
            out.push_str(&format!(
                "  note: {name} could not be computed and is written as -1\n"
            ));
        }
    }
    for e in &t.examples {
        out.push_str(&format!("  failure example: {e}\n"));
    }
    for r in &report.reconciliations {
        let verdict = if r.holds { "holds" } else { "FAILS" };
        out.push_str(&format!(
            "  reconciliation {} {verdict}: {}\n",
            r.name, r.detail
        ));
    }
    for n in &report.notes {
        out.push_str(&format!("  note: {n}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every object in the `key` array of the file.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        let field = |obj: &str, f: &str| {
            let at = obj.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
            obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
        };
        json[open..close]
            .split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn owned(v: &[(&str, &str)]) -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(declared(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&json, "per_layer"), owned(&traced_metric_names()));
    }

    #[test]
    fn result_line_has_exactly_the_requested_metrics() {
        let mut report = RunReport::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            report.set(name, i as f64 + 0.5);
        }
        report.set("not_declared", 1.0);
        let line = result_line(&report, &END_TO_END);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 0, \"failed\": 0, \"metrics\": {")
        );
        assert!(!line.contains("not_declared"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
