//! The traced run's shared pieces: counter snapshots read through the
//! public stats and metrics API, an in-process replay of requests
//! through each layer's public functions with a span around every call,
//! and the metrics computed from both.

use crate::harness::{Sample, Served};
use crate::report::RunReport;
use crate::spans::Spans;
use crate::stats;
use raven_data::{RecordBatch, Table};
use raven_ir::{FingerprintBuilder, Plan};
use raven_ml::{FlatForest, Pipeline};
use raven_obs::metrics::HistogramSnapshot;
use raven_relational::{Executor, Scorer};
use raven_runtime::RavenScorer;
use raven_server::proto::Response;
use raven_server::{normalize, AdmissionStats, RegistrySnapshot, ServerState};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Counters read through the public API at one instant.
pub struct Snapshot {
    pub registry: RegistrySnapshot,
    pub admission: AdmissionStats,
    pub at: Instant,
}

pub fn snapshot(state: &ServerState) -> Snapshot {
    Snapshot {
        registry: state.metrics_snapshot("").unwrap_or_default(),
        admission: state.admission_stats(),
        at: Instant::now(),
    }
}

fn counter(s: &Snapshot, name: &str) -> u64 {
    s.registry.counters.get(name).copied().unwrap_or(0)
}

fn delta(a: &Snapshot, b: &Snapshot, name: &str) -> u64 {
    counter(b, name).saturating_sub(counter(a, name))
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Per-layer metrics from counter deltas between `a` and `b`.
pub fn counter_metrics(report: &mut RunReport, a: &Snapshot, b: &Snapshot) {
    let d = |name| delta(a, b, name);
    report.set(
        "admission.admitted",
        (b.admission.admitted - a.admission.admitted) as f64,
    );
    report.set(
        "admission.rejected",
        ((b.admission.rejected_overloaded + b.admission.rejected_deadline)
            - (a.admission.rejected_overloaded + a.admission.rejected_deadline)) as f64,
    );
    report.set(
        "plan_cache.hit_ratio",
        ratio(d("plan_cache_hits_total"), d("plan_cache_misses_total")),
    );
    report.set(
        "plan_cache.preparations",
        d("plan_cache_preparations_total") as f64,
    );
    report.set(
        "result_cache.hit_ratio",
        ratio(d("result_cache_hits_total"), d("result_cache_misses_total")),
    );
    report.set(
        "result_cache.executions",
        d("result_cache_executions_total") as f64,
    );
    report.set(
        "result_cache.evictions",
        d("result_cache_evictions_total") as f64,
    );
    report.set(
        "result_cache.invalidations",
        d("result_cache_invalidations_total") as f64,
    );
    report.set(
        "runtime.session_cache_hit_ratio",
        ratio(
            d("session_cache_hits_total"),
            d("session_cache_misses_total"),
        ),
    );
    // Placement is decided at prepare time, mostly during warm-up: the
    // totals since the server started say what the optimizer chose.
    report.set(
        "opt.placement_kernel",
        counter(b, "placement_kernel_total") as f64,
    );
    report.set(
        "opt.placement_tensor",
        counter(b, "placement_tensor_total") as f64,
    );
    report.set(
        "opt.placement_classical",
        counter(b, "placement_classical_total") as f64,
    );

    let batches = d("batcher_batches_total");
    let score_us = d("batcher_score_micros_total");
    let wall_us = b.at.duration_since(a.at).as_secs_f64() * 1e6;
    let per_batch = |v: u64| {
        if batches == 0 {
            0.0
        } else {
            v as f64 / batches as f64
        }
    };
    report.set("batcher.mean_batch", per_batch(d("batcher_rows_total")));
    report.set("batcher.batches", batches as f64);
    report.set("batcher.score_us_per_batch", per_batch(score_us));
    report.set("batcher.busy_frac", score_us as f64 / wall_us.max(1.0));
    let gauge = |name: &str| b.registry.gauges.get(name).copied().unwrap_or(0.0);
    report.set("batcher.window_us", gauge("batcher_window_us"));
    report.set("batcher.ewma_row_us", gauge("batcher_ewma_row_us"));
    report.set("batcher.shed", d("batcher_shed_total") as f64);
    report.set("batcher.expired", d("batcher_expired_total") as f64);
    report.set("batcher.failed", d("batcher_failed_total") as f64);

    let hist = |s: &Snapshot| {
        s.registry
            .histograms
            .get("query_latency_us")
            .cloned()
            .unwrap_or_default()
    };
    let (ha, hb) = (hist(a), hist(b));
    let mut window = HistogramSnapshot::default();
    for (i, slot) in window.buckets.iter_mut().enumerate() {
        *slot = hb.buckets[i].saturating_sub(ha.buckets[i]);
    }
    window.count = hb.count.saturating_sub(ha.count);
    window.sum = hb.sum.saturating_sub(ha.sum);
    report.set("obs.server_latency_us_p50", window.quantile(0.5) as f64);
}

/// `net.*` from the traced wire replay: client latency minus the
/// server-reported time, and the chunks per reply.
pub fn wire_metrics(report: &mut RunReport, samples: &[Sample]) {
    let overhead: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.server_ms.map(|srv| (s.latency_ms - srv) * 1e3))
        .collect();
    let sorted = stats::sorted(overhead);
    report.set(
        "net.overhead_us_p50",
        stats::percentile(&sorted, 0.5).unwrap_or(0.0),
    );
    report.set(
        "net.overhead_us_p99",
        stats::percentile(&sorted, 0.99).unwrap_or(0.0),
    );
    let chunks: Vec<f64> = samples
        .iter()
        .filter(|s| s.server_ms.is_some())
        .map(|s| s.chunks as f64)
        .collect();
    report.set(
        "net.reply_chunks_mean",
        if chunks.is_empty() {
            0.0
        } else {
            stats::mean(&chunks)
        },
    );
}

/// Record one root span per wire request.
pub fn wire_spans(spans: &mut Spans, samples: &[Sample], first_request: u64) {
    for (i, s) in samples.iter().enumerate() {
        spans.record(first_request + i as u64, "wire.request", None, s.sent, s.at);
    }
}

/// `proto.encode_us_per_reply`: encode each received table as the
/// server streams it (`RowsChunk` frames of 1024 rows, then `RowsEnd`).
pub fn encode_metric(report: &mut RunReport, tables: &[Table]) {
    if tables.is_empty() {
        report.set("proto.encode_us_per_reply", 0.0);
        return;
    }
    let chunk = raven_server::NetConfig::default().chunk_rows;
    let start = Instant::now();
    for table in tables {
        let n = table.num_rows();
        let mut offset = 0;
        loop {
            let len = chunk.min(n - offset);
            std::hint::black_box(
                Response::rows_chunk_frame(6, 1, table, offset, len).expect("encode chunk"),
            );
            offset += len;
            if offset >= n {
                break;
            }
        }
        let end = Response::RowsEnd {
            cache_hit: false,
            total_micros: 0,
            total_rows: n as u64,
        };
        std::hint::black_box(end.encode_framed(6, 1));
    }
    let us = start.elapsed().as_secs_f64() * 1e6;
    report.set("proto.encode_us_per_reply", us / tables.len() as f64);
}

/// A scorer that delegates to the tenant's `RavenScorer` and records
/// each call's interval and row count.
pub struct TimedScorer {
    inner: std::sync::Arc<RavenScorer>,
    pub calls: Mutex<Vec<(Instant, Instant, usize)>>,
}

impl TimedScorer {
    pub fn new(inner: std::sync::Arc<RavenScorer>) -> TimedScorer {
        TimedScorer {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }
}

impl Scorer for TimedScorer {
    fn score(&self, node: &Plan, batch: &RecordBatch) -> raven_relational::Result<Vec<f64>> {
        let start = Instant::now();
        let out = self.inner.score(node, batch);
        self.calls
            .lock()
            .expect("scorer call log")
            .push((start, Instant::now(), batch.num_rows()));
        out
    }

    fn parallelizable(&self, node: &Plan) -> bool {
        self.inner.parallelizable(node)
    }
}

/// Layer timings accumulated over replayed requests.
#[derive(Default)]
pub struct Layers {
    pub serve_ms: Vec<f64>,
    pub exec_ms: Vec<f64>,
    pub pre_exec_us: Vec<f64>,
    pub normalize_us: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub bind_us: Vec<f64>,
    pub optimize_ms: Vec<f64>,
    pub prepare_ms: Vec<f64>,
    pub fingerprint_us: Vec<f64>,
    pub relational_self_ms: Vec<f64>,
    pub rows_out: Vec<f64>,
    pub score_call_ms: Vec<f64>,
    pub score_call_rows: Vec<f64>,
    pub executed: u64,
    pub pruning_fired: bool,
    pub residual: Vec<f64>,
    /// The first result tables served, for encoding.
    pub tables: Vec<Table>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn span_us(spans: &Spans, i: usize) -> f64 {
    spans.spans[i].duration() as f64 / 1e3
}

/// Serve `sql` in `tenant` once through `ServerState::serve_in`, then
/// replay the same request through each layer's public functions with a
/// span around every call. `execute` replays execution too (also when
/// the server answered from its result cache, to price a miss).
pub fn replay_sql(
    served: &Served,
    tenant: &str,
    sql: &str,
    request: u64,
    execute: bool,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let state = &served.state;
    let (result, _) = spans.time(request, "state.serve_in", None, || {
        state.serve_in(tenant, sql, None)
    });
    let result = result.map_err(|e| format!("serve_in: {e}"))?;
    let total = result.total_time;
    if layers.tables.len() < ENCODE_SAMPLES {
        layers.tables.push((*result.table).clone());
    }
    layers.serve_ms.push(total.as_secs_f64() * 1e3);
    layers.exec_ms.push(result.exec_time.as_secs_f64() * 1e3);
    layers
        .pre_exec_us
        .push(us(total.saturating_sub(result.exec_time)));
    if !result.cache_hit {
        layers
            .prepare_ms
            .push(result.prepared.prepare_time.as_secs_f64() * 1e3);
    }
    layers.pruning_fired |= result
        .prepared
        .report
        .rule_applications
        .iter()
        .any(|(rule, _)| rule == "predicate_model_pruning");

    let shard = state.tenant(tenant).map_err(|e| e.to_string())?;
    let session = shard.session();
    let replay_start = Instant::now();
    let root = spans.record(request, "replay", None, replay_start, replay_start);

    let (normalized, n_span) =
        spans.time(request, "server::normalize", Some(root), || normalize(sql));
    let (template, params) = match normalized {
        Some(n) => (n.template, n.params),
        None => (sql.to_string(), Vec::new()),
    };
    let (query, p_span) = spans.time(request, "sql.parse", Some(root), || {
        raven_sql::parse(&template)
    });
    let query = query.map_err(|e| format!("parse: {e}"))?;
    let (plan, b_span) = spans.time(request, "sql.bind", Some(root), || {
        raven_sql::Binder::new(shard.catalog(), shard.store()).bind_query(&query)
    });
    let plan = plan.map_err(|e| format!("bind: {e}"))?;
    let (optimized, o_span) = spans.time(request, "opt.optimize", Some(root), || {
        session.optimize(plan)
    });
    optimized.map_err(|e| format!("optimize: {e}"))?;
    // The server memoizes the plan's share of the fingerprint per cached
    // plan and folds in the parameters per request; replay the same.
    let prepared = &result.prepared;
    let (_, f_span) = spans.time(request, "ir::fingerprint", Some(root), || {
        let base = prepared.fingerprint_base.get().cloned().unwrap_or_else(|| {
            FingerprintBuilder::new()
                .tenant(tenant)
                .plan(&prepared.plan)
        });
        std::hint::black_box(base.params(&params).finish())
    });
    layers.normalize_us.push(span_us(spans, n_span));
    layers.parse_us.push(span_us(spans, p_span));
    layers.bind_us.push(span_us(spans, b_span));
    layers.optimize_ms.push(span_us(spans, o_span) / 1e3);
    layers.fingerprint_us.push(span_us(spans, f_span));
    let mut covered = span_us(spans, n_span) + span_us(spans, f_span);
    if !result.cache_hit {
        covered += span_us(spans, p_span) + span_us(spans, b_span) + span_us(spans, o_span);
    }

    if execute {
        let bound = if prepared.param_count > 0 {
            prepared
                .plan
                .bind_parameters(&params)
                .map_err(|e| e.to_string())?
        } else {
            prepared.plan.clone()
        };
        let scorer = TimedScorer::new(session.scorer_shared());
        let exec_start = Instant::now();
        let table = Executor::new(shard.catalog(), &scorer, session.config().exec)
            .execute(&bound)
            .map_err(|e| format!("execute: {e}"))?;
        let exec_end = Instant::now();
        let e_span = spans.record(
            request,
            "relational.execute",
            Some(root),
            exec_start,
            exec_end,
        );
        for (a, b, rows) in scorer.calls.into_inner().expect("scorer call log") {
            spans.record(request, "runtime.score", Some(e_span), a, b);
            layers
                .score_call_ms
                .push(b.duration_since(a).as_secs_f64() * 1e3);
            layers.score_call_rows.push(rows as f64);
        }
        // Self time of the execute span: its own span first, then its
        // children re-parented onto index 0.
        let mut family = vec![spans.spans[e_span].clone()];
        family[0].parent = None;
        family.extend(spans.spans[e_span + 1..].iter().cloned().map(|mut s| {
            s.parent = Some(0);
            s
        }));
        let self_ns = crate::spans::self_times(&family)[0];
        layers.relational_self_ms.push(self_ns as f64 / 1e6);
        layers.rows_out.push(table.num_rows() as f64);
        layers.executed += 1;
        if !result.result_cache_hit {
            covered += span_us(spans, e_span);
        }
    }
    let end = Instant::now();
    let nanos = end.saturating_duration_since(replay_start).as_nanos() as u64;
    spans.spans[root].end = spans.spans[root].start + nanos;
    let total_us = us(total).max(1e-3);
    layers.residual.push((total_us - covered).abs() / total_us);
    Ok(())
}

/// Per-layer metrics from replayed requests.
pub fn layer_metrics(report: &mut RunReport, layers: &Layers) {
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let avg = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::mean(v) };
    report.set("state.server_ms_p50", med(&layers.serve_ms));
    report.set("state.exec_ms_p50", med(&layers.exec_ms));
    report.set("state.pre_exec_us_p50", med(&layers.pre_exec_us));
    report.set("normalize.us_per_call", avg(&layers.normalize_us));
    report.set("sql.parse_us", med(&layers.parse_us));
    report.set("sql.bind_us", med(&layers.bind_us));
    report.set("opt.optimize_ms", med(&layers.optimize_ms));
    report.set(
        "opt.pruning_fired",
        f64::from(u8::from(layers.pruning_fired)),
    );
    report.set("plan_cache.prepare_ms_p50", med(&layers.prepare_ms));
    report.set("fingerprint.us_per_call", avg(&layers.fingerprint_us));
    report.set("relational.self_ms_p50", med(&layers.relational_self_ms));
    report.set("relational.rows_out_mean", avg(&layers.rows_out));
    report.set("runtime.score_ms_per_call", avg(&layers.score_call_ms));
    report.set("runtime.rows_per_call", avg(&layers.score_call_rows));
    report.set(
        "runtime.calls_per_query",
        if layers.executed == 0 {
            0.0
        } else {
            layers.score_call_ms.len() as f64 / layers.executed as f64
        },
    );
    report.set("trace.residual_frac", med(&layers.residual));
    if layers.prepare_ms.is_empty() {
        report.note("plan_cache.prepare_ms_p50 reads 0: no replayed request missed the plan cache");
    }
}

/// `ml.*` for `model` over the raw inputs of `batch`: the columnar
/// kernel, the classical scorer, flattening, and the kernel's computed
/// bytes per row (16 B per node visit — the kernel walks every tree to
/// its full depth — plus 8 B per gathered column).
pub fn ml_metrics(report: &mut RunReport, model: &Pipeline, batch: &RecordBatch) {
    let rows = batch.num_rows();
    let raw = model.encode_inputs(batch).expect("encode inputs");
    let time = |f: &dyn Fn()| {
        let mut t: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .collect();
        t.sort_by(f64::total_cmp);
        t[2]
    };
    let classical = time(&|| {
        std::hint::black_box(model.predict_raw(&raw, rows).expect("classical score"));
    });
    report.set("ml.classical_ns_per_row", classical * 1e9 / rows as f64);
    match FlatForest::from_pipeline(model) {
        Ok(flat) => {
            let flatten = time(&|| {
                std::hint::black_box(FlatForest::from_pipeline(model).expect("flatten"));
            });
            let kernel = time(&|| {
                std::hint::black_box(flat.score_raw(&raw, rows).expect("kernel score"));
            });
            report.set("ml.kernel_ns_per_row", kernel * 1e9 / rows as f64);
            report.set("ml.flatten_ms", flatten * 1e3);
            report.set(
                "ml.kernel_bytes_per_row",
                (flat.total_depth() * 16 + flat.n_gathered() * 8) as f64,
            );
        }
        Err(e) => {
            for m in [
                "ml.kernel_ns_per_row",
                "ml.flatten_ms",
                "ml.kernel_bytes_per_row",
            ] {
                report.set(m, 0.0);
            }
            report.note(format!(
                "ml kernel metrics read 0: the model does not flatten ({e})"
            ));
        }
    }
}

/// `trace.overhead_frac`: the share of untraced throughput lost when
/// the same stream runs traced.
pub fn overhead(report: &mut RunReport, untraced_qps: f64, traced_qps: f64) {
    report.set(
        "trace.overhead_frac",
        1.0 - traced_qps / untraced_qps.max(1e-9),
    );
    report.env("trace.untraced_qps", format!("{untraced_qps:.1}"));
    report.env("trace.traced_qps", format!("{traced_qps:.1}"));
}

/// Write the spans to `perfbench/out/` under the checkout.
pub fn write_spans(report: &mut RunReport, spans: &Spans, workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{workload}-seed{seed}.jsonl"));
    match spans.write_jsonl(&path) {
        Ok(()) => report.env("trace_file", path.display()),
        Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
    }
    report.env("spans", spans.spans.len());
}

/// Requests whose wire spans are written out (all are measured).
const WIRE_SPANS_WRITTEN: usize = 20_000;
/// Received tables kept for `proto.encode_us_per_reply`.
const ENCODE_SAMPLES: usize = 1_000;

/// The wire half of a closed-loop traced run: the seeded stream runs
/// untraced, then again traced (a sample and a span per reply, counters
/// read around it). Fills the `net`, `proto`, counter, trace-overhead
/// and host metrics.
#[allow(clippy::too_many_arguments)]
pub fn wire_phases<'a, K: Send + 'static>(
    report: &mut RunReport,
    spans: &mut Spans,
    served: &Served,
    args: &crate::Args,
    workload: &str,
    depth: usize,
    streams: &dyn Fn() -> Vec<crate::harness::Stream<'a, K>>,
    check: &(dyn Fn(&K, &crate::wire::Outcome) -> crate::harness::Check + Sync),
) {
    use crate::harness::{closed_loop, LoopSpec};
    use std::sync::atomic::{AtomicU64, Ordering};
    // The traced pass runs to 1000 replies at least, for its p99.
    let spec = |detail| LoopSpec {
        depth,
        duration: Duration::from_secs_f64(args.seconds * 0.3),
        limit_ms: f64::INFINITY,
        min_completed: if detail { 1000 } else { 0 },
        detail,
    };
    let untraced = closed_loop(served.addr, spec(false), streams(), check);
    let tables = Mutex::new(Vec::new());
    let seen = AtomicU64::new(0);
    let sampling = |k: &K, o: &crate::wire::Outcome| {
        if let crate::wire::Outcome::Rows { table, .. } = o {
            if seen.fetch_add(1, Ordering::Relaxed).is_multiple_of(16) {
                let mut kept = tables.lock().expect("table sample lock");
                if kept.len() < ENCODE_SAMPLES {
                    kept.push(table.clone());
                }
            }
        }
        check(k, o)
    };
    let before = snapshot(&served.state);
    let window = crate::common::Window::open();
    let traced = closed_loop(served.addr, spec(true), streams(), &sampling);
    let after = snapshot(&served.state);
    window.close(report, traced.completed, args.seed, workload);
    overhead(
        report,
        untraced.figures().throughput,
        traced.figures().throughput,
    );
    counter_metrics(report, &before, &after);
    wire_metrics(report, &traced.detail);
    let written = traced.detail.len().min(WIRE_SPANS_WRITTEN);
    wire_spans(spans, &traced.detail[..written], 1 << 32);
    encode_metric(report, &tables.into_inner().expect("table sample lock"));
    report.tally.absorb(&untraced.tally);
    report.tally.absorb(&traced.tally);
}

/// Metrics a workload does not exercise read 0, with the reason noted.
pub fn not_exercised(report: &mut RunReport, metrics: &[&str], why: &str) {
    for m in metrics {
        report.set(m, 0.0);
    }
    report.note(format!("{} read 0: {why}", metrics.join(", ")));
}
