//! `model_churn`: a closed loop of per-tenant single-patient PREDICT
//! reads across four tenants whose tables and models share names, with
//! about one operation in a hundred a write to tenant `t0`: a
//! `store_model_in` that alternates two pre-trained forest versions, or
//! (one write in five) a `replace_table_in` of one of its tables. Writes
//! invalidate `t0`'s plan and result caches while reads run beside
//! them, so this is the workload where SQL parsing, the optimizer,
//! forest flattening and cache invalidation run in steady state.

use crate::common::{self, Answer, Window};
use crate::fixtures::{self, TABLES};
use crate::harness::{self, Check, Figures, Recorder, Sample, Served, Tally, CLIENT_THREADS};
use crate::host::RssSampler;
use crate::report::{Reconciliation, RunReport};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{self, LatencySummary};
use crate::traced;
use crate::wire::{Conn, Outcome};
use crate::Args;
use raven_datagen::hospital::HospitalData;
use raven_ml::Pipeline;
use raven_server::proto::Request;
use raven_server::ServerState;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "model_churn";

pub const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];
/// The tenant every write goes to.
pub const SWAPPED: usize = 0;
/// The model every tenant serves under the same name.
pub const MODEL: &str = "stay";
/// Patients each tenant's reads look up.
pub const KEYS: usize = 24;
/// Client 0 sends a write after every `READS_PER_WRITE` of its reads,
/// so 1 operation in about 100 is a write. A write costs ~40 reads'
/// worth of work (a re-prepare, then a miss for every key of `t0`), so
/// about a quarter of reads in `t0` miss and the p99 sits well inside
/// the miss regime rather than on its edge.
pub const READS_PER_WRITE: usize = 50;
/// One write in `REPLACE_EVERY` replaces a table instead of a model.
pub const REPLACE_EVERY: usize = 5;
/// Latency limit for `slo_rate_qps` (goodput) on this workload.
pub const LIMIT_MS: f64 = 50.0;

/// One generated write to the swapped tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Write {
    StoreModel,
    ReplaceTable { table: usize },
}

/// The read stream of client `thread`: (tenant, key), uniform.
pub fn reads(seed: u64, thread: usize) -> impl FnMut() -> (usize, usize) {
    let mut rng = Rng::new(seed, 0xC4_0000 + thread as u64);
    move || (rng.below(TENANTS.len()), rng.below(KEYS))
}

/// The write stream: one write in [`REPLACE_EVERY`] replaces a table.
pub fn writes(seed: u64) -> impl FnMut() -> Write {
    let mut rng = Rng::new(seed, 0xC4_FFFF);
    move || {
        if rng.below(REPLACE_EVERY) == 0 {
            Write::ReplaceTable {
                table: rng.below(TABLES.len()),
            }
        } else {
            Write::StoreModel
        }
    }
}

/// The patients each tenant's reads look up: ids the two forest versions
/// score apart, so a read's answer always shows which version served it.
fn keys(data: &HospitalData, versions: &[Pipeline; 2]) -> Vec<i64> {
    let batch = data.joined_batch();
    let a = versions[0].predict(&batch).expect("score v1");
    let b = versions[1].predict(&batch).expect("score v2");
    let ids: Vec<i64> = (0..a.len())
        .filter(|&i| (a[i] - b[i]).abs() > 1e-6)
        .map(|i| i as i64)
        .take(KEYS)
        .collect();
    assert_eq!(ids.len(), KEYS, "too few patients tell the versions apart");
    ids
}

pub struct Fixture {
    pub data: Vec<HospitalData>,
    pub versions: [Pipeline; 2],
    /// Per tenant, the looked-up ids.
    pub keys: Vec<Vec<i64>>,
    /// `answers[tenant][version][key]`; quiet tenants only serve version 0.
    pub answers: Vec<[Vec<Answer>; 2]>,
}

impl Fixture {
    pub fn build() -> Fixture {
        let versions = [
            fixtures::forest(fixtures::FIXTURE_SEED + 200),
            fixtures::forest(fixtures::FIXTURE_SEED + 201),
        ];
        let data: Vec<HospitalData> = (0..TENANTS.len()).map(fixtures::tenant_data).collect();
        let keys: Vec<Vec<i64>> = data.iter().map(|d| keys(d, &versions)).collect();
        let answers = data
            .iter()
            .zip(&keys)
            .map(|(d, ids)| {
                let per_version = |v: &Pipeline| {
                    let session = fixtures::oracle_session(d, &[(MODEL, v)]);
                    ids.iter()
                        .map(|&id| {
                            let sql = fixtures::lookup_sql(MODEL, id);
                            Answer::rows(&session.query(&sql).expect("oracle lookup").table)
                        })
                        .collect::<Vec<_>>()
                };
                [per_version(&versions[0]), per_version(&versions[1])]
            })
            .collect();
        Fixture {
            data,
            versions,
            keys,
            answers,
        }
    }

    pub fn read(&self, tenant: usize, key: usize) -> Request {
        Request::Query {
            sql: fixtures::lookup_sql(MODEL, self.keys[tenant][key]),
            tenant: TENANTS[tenant].to_string(),
            deadline: None,
        }
    }

    /// Tenants, tables, models, bind, and a warm-up read of every key.
    pub fn setup(&self) -> Served {
        let state = Arc::new(ServerState::new(harness::server_config()));
        for (t, name) in TENANTS.iter().enumerate() {
            let d = &self.data[t];
            for (table, contents) in
                TABLES
                    .iter()
                    .zip([&d.patient_info, &d.blood_tests, &d.prenatal_tests])
            {
                state
                    .register_table_in(name, table, contents.clone())
                    .expect("register tenant table");
            }
            state
                .store_model_in(name, MODEL, self.versions[0].clone())
                .expect("store tenant model");
        }
        let served = harness::bind(state);
        let mut conn = Conn::connect(served.addr).expect("connect warm-up");
        for t in 0..TENANTS.len() {
            for k in 0..KEYS {
                conn.submit(&self.read(t, k));
            }
        }
        while conn.in_flight() > 0 {
            for reply in conn.recv().expect("warm-up reply") {
                assert!(
                    !matches!(reply.outcome, Outcome::Error(_)),
                    "warm-up read failed: {:?}",
                    reply.outcome
                );
            }
        }
        served
    }
}

/// Model generations of the swapped tenant: generation `g` serves
/// version `g % 2`. `started` moves before a `store_model_in` call and
/// `committed` after it returns. Only client 0 writes.
#[derive(Default)]
pub struct Generations {
    started: AtomicU64,
    committed: AtomicU64,
}

/// What one client thread measured.
struct Part {
    recorder: Recorder,
    swapped_ms: Vec<f64>,
    quiet_ms: Vec<f64>,
    swap_ms: Vec<f64>,
    tally: Tally,
    reads: u64,
    writes: u64,
    /// Per-read samples (traced runs only).
    detail: Option<Vec<Sample>>,
}

#[allow(clippy::too_many_arguments)]
fn client(
    fx: &Fixture,
    served: &Served,
    gens: &Generations,
    seed: u64,
    thread: usize,
    recorder: Recorder,
    start: Instant,
    duration: Duration,
    detail: bool,
) -> Part {
    let mut part = Part {
        recorder,
        swapped_ms: Vec::new(),
        quiet_ms: Vec::new(),
        swap_ms: Vec::new(),
        tally: Tally::default(),
        reads: 0,
        writes: 0,
        detail: detail.then(Vec::new),
    };
    let mut next_read = reads(seed, thread);
    let mut next_write = writes(seed);
    let mut reads_done = 0usize;
    let mut conn = Conn::connect(served.addr).expect("connect client");
    let swapped = TENANTS[SWAPPED];
    let read = |part: &mut Part, conn: &mut Conn, tenant: usize, key: usize| -> Check {
        let committed = gens.committed.load(Ordering::SeqCst);
        let sent = Instant::now();
        conn.submit(&fx.read(tenant, key));
        let reply = match conn.recv() {
            Ok(mut r) if r.len() == 1 => r.pop().expect("one reply"),
            Ok(r) => panic!("expected one reply, got {}", r.len()),
            Err(e) => {
                let c = Check::Error(e);
                part.tally.record(&c);
                return c;
            }
        };
        let started = gens.started.load(Ordering::SeqCst);
        let ms = reply.at.duration_since(sent).as_secs_f64() * 1e3;
        let answers = &fx.answers[tenant];
        let verdict = match &reply.outcome {
            Outcome::Error(e) => Check::Error(e.clone()),
            outcome if tenant != SWAPPED => answers[0][key].check(outcome),
            outcome => {
                // Any version committed between send and reply may serve.
                let valid: Vec<usize> = (committed..=started.max(committed))
                    .map(|g| (g % 2) as usize)
                    .take(2)
                    .collect();
                if valid.iter().any(|&v| answers[v][key].matches(outcome)) {
                    Check::Ok
                } else {
                    Check::Mismatch(format!(
                        "stale read in {swapped}: key {key} generations {committed}..={started}"
                    ))
                }
            }
        };
        if tenant == SWAPPED {
            part.swapped_ms.push(ms);
        } else {
            part.quiet_ms.push(ms);
        }
        part.reads += 1;
        if let Some(d) = &mut part.detail {
            d.push(harness::sample(&reply, sent));
        }
        part.recorder
            .push(reply.at, ms, verdict == Check::Ok && ms <= LIMIT_MS);
        part.tally.record(&verdict);
        verdict
    };
    while start.elapsed() < duration {
        if thread != 0 || reads_done < READS_PER_WRITE {
            let (tenant, key) = next_read();
            read(&mut part, &mut conn, tenant, key);
            reads_done += 1;
            continue;
        }
        reads_done = 0;
        match next_write() {
            Write::ReplaceTable { table } => {
                let d = &fx.data[SWAPPED];
                let contents = [&d.patient_info, &d.blood_tests, &d.prenatal_tests][table].clone();
                let outcome = served
                    .state
                    .replace_table_in(swapped, TABLES[table], contents);
                part.writes += 1;
                part.tally.record(&match outcome {
                    Ok(()) => Check::Ok,
                    Err(e) => Check::Error(format!("replace_table_in: {e}")),
                });
            }
            Write::StoreModel => {
                let generation = gens.started.fetch_add(1, Ordering::SeqCst) + 1;
                let version = (generation % 2) as usize;
                let model = fx.versions[version].clone();
                let swap_start = Instant::now();
                let stored = served.state.store_model_in(swapped, MODEL, model);
                gens.committed.store(generation, Ordering::SeqCst);
                part.writes += 1;
                if let Err(e) = stored {
                    part.tally
                        .record(&Check::Error(format!("store_model_in: {e}")));
                    continue;
                }
                part.tally.record(&Check::Ok);
                // Swap-to-serve: read in the swapped tenant until the new
                // version answers (any other answer is counted stale).
                for _ in 0..3 {
                    if read(&mut part, &mut conn, SWAPPED, 0) == Check::Ok {
                        part.swap_ms.push(swap_start.elapsed().as_secs_f64() * 1e3);
                        break;
                    }
                }
            }
        }
    }
    part
}

/// Invalidations recorded by `tenant`'s plan and result caches.
fn invalidations(state: &ServerState, tenant: &str) -> u64 {
    state.try_tenant(tenant).map_or(0, |t| {
        t.plan_cache_stats().invalidations + t.result_cache_stats().invalidations
    })
}

pub struct ChurnRun {
    pub swapped: LatencySummary,
    pub quiet: LatencySummary,
}

pub fn timed(args: &Args) -> RunReport {
    let fx = Fixture::build();
    let (served, (), setup_s) = harness::repeated_setup(|| (fx.setup(), ()));
    let mut report = RunReport::default();
    report.set("setup_s", setup_s);
    let gens = Generations::default();
    let (run, churn, _) = measure(&fx, &served, &gens, args, &mut report, false);
    report.env(
        "tenant.swapped_p99_ms",
        format!("{:.3}", churn.swapped.p99.unwrap_or(f64::NAN)),
    );
    report.env(
        "tenant.quiet_p99_ms",
        format!("{:.3}", churn.quiet.p99.unwrap_or(f64::NAN)),
    );
    report.tally = run;
    report.set(
        "ok_frac",
        1.0 - report.tally.failed() as f64 / report.tally.attempted.max(1) as f64,
    );
    served.shutdown();
    report
}

/// The timed window: metrics and reconciliations go into `report`.
pub fn measure(
    fx: &Fixture,
    served: &Served,
    gens: &Generations,
    args: &Args,
    report: &mut RunReport,
    detail: bool,
) -> (Tally, ChurnRun, Vec<Sample>) {
    let quiet_before: u64 = TENANTS
        .iter()
        .enumerate()
        .filter(|(t, _)| *t != SWAPPED)
        .map(|(_, name)| invalidations(&served.state, name))
        .sum();
    let admitted_before = served.state.admission_stats();
    let window = Window::open();
    let rss = RssSampler::start();
    let duration = Duration::from_secs_f64(args.seconds);
    let mut recorders: Vec<Recorder> = (0..CLIENT_THREADS)
        .map(|_| Recorder::new(Instant::now(), duration))
        .collect();
    // The window starts once the buffers are in place.
    let start = Instant::now();
    let parts: Vec<Part> = std::thread::scope(|scope| {
        let handles: Vec<_> = recorders
            .drain(..)
            .enumerate()
            .map(|(t, mut recorder)| {
                recorder.begin(start);
                scope.spawn(move || {
                    client(
                        fx, served, gens, args.seed, t, recorder, start, duration, detail,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let peak_rss = rss.finish();
    let mut tally = Tally::default();
    let (mut swapped, mut quiet, mut swaps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reads, mut writes) = (0u64, 0u64);
    let mut recorders = Vec::new();
    let mut samples = Vec::new();
    for p in parts {
        tally.absorb(&p.tally);
        swapped.extend(p.swapped_ms);
        quiet.extend(p.quiet_ms);
        swaps.extend(p.swap_ms);
        reads += p.reads;
        writes += p.writes;
        recorders.push(p.recorder);
        samples.extend(p.detail.unwrap_or_default());
    }
    window.close(report, tally.attempted, args.seed, NAME);
    let figures = Figures::of(&recorders);
    report.set("throughput_qps", figures.throughput);
    report.set("latency_p50_ms", figures.latency.p50);
    report.set("latency_p99_ms", figures.latency.p99.unwrap_or(f64::NAN));
    report.set("peak_rss_mb", peak_rss);
    report.set("slo_rate_qps", figures.goodput);
    report.set("swap_to_serve_ms_p50", stats::median(&swaps));
    report.env("reads", reads);
    report.env("writes", writes);
    report.env("swaps_timed", swaps.len());

    report
        .reconciliations
        .push(common::admission_reconciliation(
            admitted_before,
            served.state.admission_stats(),
            reads,
        ));
    let quiet_after: u64 = TENANTS
        .iter()
        .enumerate()
        .filter(|(t, _)| *t != SWAPPED)
        .map(|(_, name)| invalidations(&served.state, name))
        .sum();
    report.reconciliations.push(Reconciliation::equal(
        "tenant_isolation",
        quiet_after - quiet_before,
        0,
        format!("invalidations in the quiet tenants after {writes} writes to t0"),
    ));
    let churn = ChurnRun {
        swapped: LatencySummary::of(swapped),
        quiet: LatencySummary::of(quiet),
    };
    (tally, churn, samples)
}

/// The traced run: the op stream over the wire untraced and traced
/// (counters read around it, reads split by tenant), then an in-process
/// replay of the next ops of the seed: reads through each layer, writes
/// through `store_model_in` / `replace_table_in`, so plan-cache misses
/// after each swap time `PreparedQuery::prepare_time`.
pub fn traced(args: &Args) -> RunReport {
    let fx = Fixture::build();
    let served = fx.setup();
    let mut report = RunReport::default();
    let mut spans = Spans::new(Instant::now());
    let phase = Args {
        seconds: args.seconds * 0.3,
        ..args.clone()
    };
    // One generation record across both passes: the model version the
    // first pass leaves in t0 is where the second one starts.
    let gens = Generations::default();
    let (untraced, _, _) = measure(&fx, &served, &gens, &phase, &mut report, false);
    let untraced_qps = report.get("throughput_qps").unwrap_or(f64::NAN);
    let before = traced::snapshot(&served.state);
    let (run, churn, samples) = measure(&fx, &served, &gens, &phase, &mut report, true);
    let after = traced::snapshot(&served.state);
    report.tally.absorb(&untraced);
    report.tally.absorb(&run);
    let traced_qps = report.get("throughput_qps").unwrap_or(f64::NAN);
    traced::overhead(&mut report, untraced_qps, traced_qps);
    traced::counter_metrics(&mut report, &before, &after);
    traced::wire_metrics(&mut report, &samples);
    traced::wire_spans(&mut spans, &samples[..samples.len().min(20_000)], 1 << 32);
    report.set(
        "tenant.swapped_p99_ms",
        churn.swapped.p99.unwrap_or(f64::NAN),
    );
    report.set("tenant.quiet_p99_ms", churn.quiet.p99.unwrap_or(f64::NAN));

    let mut layers = traced::Layers::default();
    let mut next_read = reads(args.seed, CLIENT_THREADS);
    let mut next_write = writes(args.seed);
    let budget = Instant::now() + Duration::from_secs_f64(args.seconds * 0.3);
    let mut request = 0u64;
    let mut generation = 0usize;
    while Instant::now() < budget || request < 4 {
        // One write per 100 operations, as in the timed stream.
        if request % 100 != 99 {
            let (tenant, key) = next_read();
            let sql = fixtures::lookup_sql(MODEL, fx.keys[tenant][key]);
            if let Err(e) = traced::replay_sql(
                &served,
                TENANTS[tenant],
                &sql,
                request,
                true,
                &mut spans,
                &mut layers,
            ) {
                report.tally.record(&Check::Error(e));
            }
        } else {
            match next_write() {
                Write::StoreModel => {
                    generation += 1;
                    let model = fx.versions[generation % 2].clone();
                    let (stored, _) = spans.time(request, "state.store_model_in", None, || {
                        served.state.store_model_in(TENANTS[SWAPPED], MODEL, model)
                    });
                    if let Err(e) = stored {
                        report
                            .tally
                            .record(&Check::Error(format!("store_model_in: {e}")));
                    }
                }
                Write::ReplaceTable { table } => {
                    let d = &fx.data[SWAPPED];
                    let contents =
                        [&d.patient_info, &d.blood_tests, &d.prenatal_tests][table].clone();
                    let (replaced, _) = spans.time(request, "state.replace_table_in", None, || {
                        served
                            .state
                            .replace_table_in(TENANTS[SWAPPED], TABLES[table], contents)
                    });
                    if let Err(e) = replaced {
                        report
                            .tally
                            .record(&Check::Error(format!("replace_table_in: {e}")));
                    }
                }
            }
        }
        request += 1;
    }
    report.env("replayed", request);
    traced::layer_metrics(&mut report, &layers);
    traced::encode_metric(&mut report, &layers.tables);
    traced::ml_metrics(
        &mut report,
        &fx.versions[0],
        &fx.data[SWAPPED].joined_batch(),
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
            let mut s = reads(seed, thread);
            (0..2000).map(|_| s()).collect::<Vec<_>>()
        };
        assert_eq!(take(5, 0), take(5, 0));
        assert_ne!(take(5, 0), take(6, 0));
        let take_writes = |seed| {
            let mut w = writes(seed);
            (0..1000).map(|_| w()).collect::<Vec<_>>()
        };
        assert_eq!(take_writes(5), take_writes(5));
        assert_ne!(take_writes(5), take_writes(6));
        let replaces = take_writes(5)
            .iter()
            .filter(|w| **w != Write::StoreModel)
            .count();
        assert!(
            (150..=250).contains(&replaces),
            "1 write in 5 replaces: {replaces}"
        );
    }
}
