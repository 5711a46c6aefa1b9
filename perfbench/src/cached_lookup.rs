//! `cached_lookup`: single-patient PREDICT SQL over the 20k-row join,
//! closed loop, 2 connections × 16 pipelined. Patient ids are
//! Zipf-skewed over a pool of 192 — smaller than the 256-entry result
//! cache, and warmed during set-up — so in steady state the wire, the
//! reactor fast path, `normalize`, the fingerprint and the result cache
//! do the work while the executor and scorer do none. (A miss costs a
//! full join: the single-patient predicate does not prune it.)

use crate::common::{self, Answer, SwapProbe, Window};
use crate::fixtures::{self, TREE};
use crate::harness::{self, Check, LoopSpec, Served, Stream, CLIENT_THREADS};
use crate::host::RssSampler;
use crate::predict_scan::query;
use crate::report::RunReport;
use crate::rng::{Rng, Zipf};
use crate::spans::Spans;
use crate::stats;
use crate::traced;
use crate::wire::{Conn, Outcome};
use crate::Args;
use raven_datagen::hospital::HospitalData;
use raven_ml::Pipeline;
use raven_server::{ServerState, DEFAULT_TENANT};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "cached_lookup";

/// Distinct patients looked up; must stay below the result cache's 256.
pub const POOL: usize = 192;
/// Zipf exponent of the id popularity.
pub const ZIPF_S: f64 = 1.0;
/// Pipelined requests per connection.
pub const DEPTH: usize = 16;
/// Latency limit for `slo_rate_qps` (goodput) on this workload.
pub const LIMIT_MS: f64 = 5.0;
/// The model the swap probe alternates: the tree under a name of its
/// own, so a swap invalidates only the probe's cached result, never the
/// pool's.
pub const SWAP_MODEL: &str = "swap_tree";

/// The id pool of this seed: [`POOL`] distinct patients.
pub fn pool(seed: u64) -> Vec<i64> {
    let mut rng = Rng::new(seed, 0x1D_0000);
    let mut ids = Vec::with_capacity(POOL);
    while ids.len() < POOL {
        let id = rng.below(fixtures::HOSPITAL_ROWS) as i64;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

/// The request stream of client `thread`: Zipf-ranked ids of the pool.
pub fn stream(seed: u64, thread: usize) -> impl FnMut() -> i64 {
    let ids = pool(seed);
    let zipf = Zipf::new(POOL, ZIPF_S);
    let mut rng = Rng::new(seed, 0x1D_1000 + thread as u64);
    move || ids[zipf.sample(&mut rng)]
}

pub struct Fixture {
    pub data: HospitalData,
    pub tree: Pipeline,
    pub tree_v2: Pipeline,
}

impl Fixture {
    pub fn build() -> Fixture {
        let data = fixtures::hospital_data();
        Fixture {
            tree: fixtures::tree(&data, 6),
            tree_v2: fixtures::tree(&data, 5),
            data,
        }
    }

    /// Registration, model store, bind, and a warm-up that executes
    /// every pooled id once. The first execution of each id is the
    /// answer every later reply must repeat.
    pub fn setup(&self, ids: &[i64]) -> (Served, HashMap<i64, Answer>) {
        let state = Arc::new(ServerState::new(harness::server_config()));
        self.data
            .register(state.catalog())
            .expect("register tables");
        state
            .store_model(TREE, self.tree.clone())
            .expect("store tree");
        state
            .store_model(SWAP_MODEL, self.tree.clone())
            .expect("store swap tree");
        let served = harness::bind(state);
        let mut first = HashMap::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = ids
                .chunks(ids.len().div_ceil(CLIENT_THREADS))
                .map(|part| {
                    let addr = served.addr;
                    scope.spawn(move || {
                        let mut conn = Conn::connect(addr).expect("connect warm-up");
                        let mut by_id = HashMap::new();
                        for &id in part {
                            by_id.insert(conn.submit(&query(&fixtures::lookup_sql(TREE, id))), id);
                        }
                        let mut answers = Vec::new();
                        while conn.in_flight() > 0 {
                            for reply in conn.recv().expect("warm-up reply") {
                                let Outcome::Rows { table, .. } = &reply.outcome else {
                                    panic!("warm-up lookup failed: {:?}", reply.outcome);
                                };
                                answers.push((by_id[&reply.id], Answer::rows(table)));
                            }
                        }
                        answers
                    })
                })
                .collect();
            for h in handles {
                first.extend(h.join().expect("warm-up thread panicked"));
            }
        });
        (served, first)
    }
}

pub fn timed(args: &Args) -> RunReport {
    let fx = Fixture::build();
    let ids = pool(args.seed);
    let (served, first, setup_s) = harness::repeated_setup(|| fx.setup(&ids));
    let mut report = RunReport::default();
    report.set("setup_s", setup_s);

    let check = |id: &i64, outcome: &Outcome| first[id].check(outcome);

    // Swap-to-serve: between the segments of the window, probe a
    // patient the two tree versions score apart.
    let batch = fx.data.joined_batch();
    let (a, b) = (
        fx.tree.predict(&batch).expect("predict v1"),
        fx.tree_v2.predict(&batch).expect("predict v2"),
    );
    let probe_id = (0..a.len())
        .find(|&i| a[i].to_bits() != b[i].to_bits())
        .expect("the tree versions disagree somewhere") as i64;
    let probe_sql = fixtures::lookup_sql(SWAP_MODEL, probe_id);
    let answers = [&fx.tree, &fx.tree_v2].map(|m| {
        let session = fixtures::oracle_session(&fx.data, &[(SWAP_MODEL, m)]);
        Answer::rows(&session.query(&probe_sql).expect("oracle probe").table)
    });
    let swap = SwapProbe {
        tenant: DEFAULT_TENANT,
        model: SWAP_MODEL,
        versions: [&fx.tree, &fx.tree_v2],
        probe: query(&probe_sql),
        answers,
    };

    let tenant = served.state.default_tenant().clone();
    let results_before = tenant.result_cache_stats();
    let admitted_before = served.state.admission_stats();
    let window = Window::open();
    let rss = RssSampler::start();
    let run = common::segmented_window(
        &served,
        LoopSpec {
            depth: DEPTH,
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

    // Every swap makes its probe miss once; any other miss is a pooled
    // lookup that fell out of the cache.
    let results = tenant.result_cache_stats();
    let misses = (results.misses - results_before.misses).saturating_sub(run.swaps.len() as u64);
    report.env("result_cache_misses_in_window", misses);
    if misses > 0 {
        report.note(format!(
            "{misses} result-cache misses in the timed window: the pool of {POOL} should fit"
        ));
    }
    report
        .reconciliations
        .push(common::admission_reconciliation(
            admitted_before,
            served.state.admission_stats(),
            attempted,
        ));
    report.tally = tally;
    report.set(
        "ok_frac",
        1.0 - report.tally.failed() as f64 / report.tally.attempted.max(1) as f64,
    );
    served.shutdown();
    report
}

fn streams(seed: u64) -> Vec<Stream<'static, i64>> {
    (0..CLIENT_THREADS)
        .map(|t| {
            let mut next = stream(seed, t);
            Box::new(move || {
                let id = next();
                (id, query(&fixtures::lookup_sql(TREE, id)))
            }) as Stream<'static, i64>
        })
        .collect()
}

/// The traced run: the stream over the wire untraced and traced, then
/// an in-process replay through each layer. The replay also executes
/// each lookup, to price the full join a result-cache miss would run.
pub fn traced(args: &Args) -> RunReport {
    let fx = Fixture::build();
    let ids = pool(args.seed);
    let (served, first) = fx.setup(&ids);
    let mut report = RunReport::default();
    let mut spans = Spans::new(Instant::now());
    let check = |id: &i64, outcome: &Outcome| first[id].check(outcome);
    traced::wire_phases(
        &mut report,
        &mut spans,
        &served,
        args,
        NAME,
        DEPTH,
        &|| streams(args.seed),
        &check,
    );
    let mut layers = traced::Layers::default();
    let mut next = stream(args.seed, CLIENT_THREADS);
    let budget = Instant::now() + Duration::from_secs_f64(args.seconds * 0.3);
    let mut request = 0;
    while Instant::now() < budget || request < 4 {
        let sql = fixtures::lookup_sql(TREE, next());
        if let Err(e) = traced::replay_sql(
            &served,
            DEFAULT_TENANT,
            &sql,
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
    traced::ml_metrics(&mut report, &fx.tree, &fx.data.joined_batch());
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
            (0..500).map(|_| s()).collect::<Vec<_>>()
        };
        assert_eq!(take(3, 1), take(3, 1));
        assert_ne!(take(3, 1), take(4, 1));
        assert_eq!(pool(3).len(), POOL);
        assert!(take(3, 0).iter().all(|id| pool(3).contains(id)));
    }
}
