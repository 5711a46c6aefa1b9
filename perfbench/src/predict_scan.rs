//! `predict_scan`: the paper's hospital query over the 20k-row join,
//! closed loop, 2 connections × 1 in flight. Requests alternate the
//! depth-6 tree and the 48-tree forest, with `WHERE` constants drawn
//! per request from a pool of ~2.4M combinations, so every request hits
//! the template plan and misses the 256-entry result cache: the
//! executor, runtime and kernels do the work.

use crate::common::{self, Answer, SwapProbe, Window};
use crate::fixtures::{self, FOREST, TREE};
use crate::harness::{self, Check, LoopSpec, Served, Stream, CLIENT_THREADS};
use crate::host::RssSampler;
use crate::report::RunReport;
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats;
use crate::traced;
use crate::wire::{Conn, Outcome};
use crate::Args;
use raven_datagen::hospital::HospitalData;
use raven_ml::Pipeline;
use raven_server::proto::Request;
use raven_server::{ServerState, DEFAULT_TENANT};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const NAME: &str = "predict_scan";

/// Every `ORACLE_EVERY`-th reply of each client is checked against the
/// classical oracle after the timed window.
const ORACLE_EVERY: u64 = 12;

/// Latency limit for `slo_rate_qps` (goodput) on this workload.
pub const LIMIT_MS: f64 = 250.0;

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRequest {
    pub model: &'static str,
    /// Constants in hundredths, so the SQL text is exact.
    pub min_age_c: u32,
    pub min_stay_c: u32,
    pub seq: u64,
}

impl ScanRequest {
    pub fn sql(&self) -> String {
        fixtures::scan_sql(
            self.model,
            self.min_age_c as f64 / 100.0,
            self.min_stay_c as f64 / 100.0,
        )
    }
}

/// The request stream of client `thread`: models alternate; ages in
/// 18.00..44.99 and stay thresholds in 1.00..9.99 are uniform.
pub fn stream(seed: u64, thread: usize) -> impl FnMut() -> ScanRequest {
    let mut rng = Rng::new(seed, 0x5CA7_0000 + thread as u64);
    let mut seq = 0u64;
    move || {
        let model = if seq.is_multiple_of(2) { TREE } else { FOREST };
        let r = ScanRequest {
            model,
            min_age_c: 1800 + rng.below(2700) as u32,
            min_stay_c: 100 + rng.below(900) as u32,
            seq,
        };
        seq += 1;
        r
    }
}

pub struct Fixture {
    pub data: HospitalData,
    pub tree: Pipeline,
    pub tree_v2: Pipeline,
    pub forest: Pipeline,
}

impl Fixture {
    pub fn build() -> Fixture {
        let data = fixtures::hospital_data();
        Fixture {
            tree: fixtures::tree(&data, 6),
            tree_v2: fixtures::tree(&data, 5),
            forest: fixtures::forest(fixtures::FIXTURE_SEED + 1),
            data,
        }
    }

    /// Registration, model store, bind and warm-up: one request per
    /// template primes the plan and inference-session caches.
    pub fn setup(&self) -> Served {
        let state = Arc::new(ServerState::new(harness::server_config()));
        self.data
            .register(state.catalog())
            .expect("register tables");
        state
            .store_model(TREE, self.tree.clone())
            .expect("store tree");
        state
            .store_model(FOREST, self.forest.clone())
            .expect("store forest");
        let served = harness::bind(state);
        let mut conn = Conn::connect(served.addr).expect("connect warm-up");
        for model in [TREE, FOREST] {
            let warm = ScanRequest {
                model,
                min_age_c: 1800,
                min_stay_c: 100,
                seq: 0,
            };
            conn.submit(&query(&warm.sql()));
            let replies = conn.recv().expect("warm-up reply");
            assert!(
                replies
                    .iter()
                    .all(|r| !matches!(r.outcome, Outcome::Error(_))),
                "warm-up query failed: {replies:?}"
            );
        }
        served
    }
}

pub fn query(sql: &str) -> Request {
    Request::Query {
        sql: sql.to_string(),
        tenant: DEFAULT_TENANT.to_string(),
        deadline: None,
    }
}

fn streams(seed: u64) -> Vec<Stream<'static, ScanRequest>> {
    (0..CLIENT_THREADS)
        .map(|t| {
            let mut next = stream(seed, t);
            Box::new(move || {
                let r = next();
                let q = query(&r.sql());
                (r, q)
            }) as Stream<'static, ScanRequest>
        })
        .collect()
}

pub fn timed(args: &Args) -> RunReport {
    let fx = Fixture::build();
    let (served, (), setup_s) = harness::repeated_setup(|| (fx.setup(), ()));
    let mut report = RunReport::default();
    report.set("setup_s", setup_s);

    // Sampled replies are checked after the timed window, so the
    // oracle's own work never competes with the measured requests.
    let deferred: Mutex<Vec<(ScanRequest, raven_data::Table)>> = Mutex::new(Vec::new());
    let check = |r: &ScanRequest, outcome: &Outcome| match outcome {
        Outcome::Rows { table, .. } => {
            if r.seq.is_multiple_of(ORACLE_EVERY) {
                deferred
                    .lock()
                    .expect("deferred lock")
                    .push((r.clone(), table.clone()));
            }
            Check::Ok
        }
        Outcome::Error(e) => Check::Error(e.clone()),
        other => Check::Error(format!("unexpected reply {other:?}")),
    };

    // Swap-to-serve: the tree alternates depth 6 and depth 5 between
    // the segments of the window.
    let probe = ScanRequest {
        model: TREE,
        min_age_c: 2000,
        min_stay_c: 300,
        seq: 0,
    };
    let answers = [&fx.tree, &fx.tree_v2].map(|m| {
        let session = fixtures::oracle_session(&fx.data, &[(TREE, m)]);
        Answer::rows(&session.query(&probe.sql()).expect("oracle probe").table)
    });
    let swap = SwapProbe {
        tenant: DEFAULT_TENANT,
        model: TREE,
        versions: [&fx.tree, &fx.tree_v2],
        probe: query(&probe.sql()),
        answers,
    };

    let admitted_before = served.state.admission_stats();
    let window = Window::open();
    let rss = RssSampler::start();
    let run = common::segmented_window(
        &served,
        LoopSpec {
            depth: 1,
            duration: Duration::from_secs_f64(args.seconds),
            limit_ms: LIMIT_MS,
            min_completed: 1000,
            detail: false,
        },
        &mut streams(args.seed),
        &check,
        &swap,
    );
    let peak_rss = rss.finish();
    let attempted = run.tally.attempted + run.swap_tally.attempted;
    window.close(&mut report, attempted, args.seed, NAME);
    let mut tally = run.tally.clone();
    tally.absorb(&run.swap_tally);

    let w = run.figures();
    let lat = w.latency;
    report.set("throughput_qps", w.throughput);
    report.set("latency_p50_ms", lat.p50);
    report.set("latency_p99_ms", lat.p99.unwrap_or(f64::NAN));
    report.set("peak_rss_mb", peak_rss);
    report.set("slo_rate_qps", w.goodput);
    report.set("swap_to_serve_ms_p50", stats::median(&run.swaps));
    report.env("completed", lat.count);
    if lat.p99.is_none() {
        report.note(format!(
            "only {} requests completed; p99 needs 1000 — raise --seconds",
            lat.count
        ));
    }

    // Admission: every query of the window, probes included, was
    // admitted or rejected.
    report
        .reconciliations
        .push(common::admission_reconciliation(
            admitted_before,
            served.state.admission_stats(),
            attempted,
        ));

    // The classical oracle over the sampled replies.
    let oracle = fixtures::oracle_session(&fx.data, &[(TREE, &fx.tree), (FOREST, &fx.forest)]);
    let sampled = deferred.into_inner().expect("deferred lock");
    report.env("oracle_checked", sampled.len());
    for (r, table) in &sampled {
        let expected = oracle.query(&r.sql()).expect("oracle query").table;
        let verdict = Answer::rows(&expected).check(&Outcome::Rows {
            table: table.clone(),
            server_time: Duration::ZERO,
            chunks: 0,
        });
        if verdict != Check::Ok {
            tally.mismatches += 1;
            if tally.examples.len() < 5 {
                tally.examples.push(format!("{verdict:?} for {}", r.sql()));
            }
        }
    }
    report.tally = tally;
    report.set(
        "ok_frac",
        1.0 - report.tally.failed() as f64 / report.tally.attempted.max(1) as f64,
    );
    served.shutdown();
    report
}

/// The traced run: the stream over the wire untraced and traced, then
/// an in-process replay of its first requests through each layer.
pub fn traced(args: &Args) -> RunReport {
    let fx = Fixture::build();
    let served = fx.setup();
    let mut report = RunReport::default();
    let mut spans = Spans::new(Instant::now());
    let ok = |_: &ScanRequest, o: &Outcome| match o {
        Outcome::Error(e) => Check::Error(e.clone()),
        _ => Check::Ok,
    };
    traced::wire_phases(
        &mut report,
        &mut spans,
        &served,
        args,
        NAME,
        1,
        &|| streams(args.seed),
        &ok,
    );

    let mut layers = traced::Layers::default();
    // The next stream of the same seed: requests the wire phases never
    // sent, so each one misses the result cache as in the timed run.
    let mut next = stream(args.seed, CLIENT_THREADS);
    let budget = Instant::now() + Duration::from_secs_f64(args.seconds * 0.3);
    let mut request = 0;
    while Instant::now() < budget || request < 4 {
        let r = next();
        if let Err(e) = traced::replay_sql(
            &served,
            DEFAULT_TENANT,
            &r.sql(),
            request,
            true,
            &mut spans,
            &mut layers,
        ) {
            report.tally.record(&Check::Error(e));
        }
        request += 1;
    }
    report.env("replayed", request);
    traced::layer_metrics(&mut report, &layers);
    traced::ml_metrics(&mut report, &fx.forest, &fx.data.joined_batch());
    traced::not_exercised(
        &mut report,
        &["tenant.swapped_p99_ms", "tenant.quiet_p99_ms"],
        "one tenant, no model swaps in the timed stream",
    );
    traced::not_exercised(
        &mut report,
        &["loadgen.late_us_p99"],
        "a closed loop has no send schedule to fall behind",
    );
    traced::not_exercised(
        &mut report,
        &[
            "batcher.mean_batch",
            "batcher.batches",
            "batcher.score_us_per_batch",
            "batcher.busy_frac",
            "batcher.window_us",
            "batcher.ewma_row_us",
            "batcher.shed",
            "batcher.expired",
            "batcher.failed",
        ],
        "no Score frames on this workload",
    );
    traced::write_spans(&mut report, &spans, NAME, args.seed);
    served.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let take = |seed, thread| {
            let mut s = stream(seed, thread);
            (0..200).map(|_| s()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(8, 0));
        assert_ne!(take(7, 0), take(7, 1));
    }
}
