//! `point_score`: pipelined v6 `Score` frames, open loop at fixed
//! arrival rates. Requests alternate a depth-6 tree and an MLP on seeded
//! hospital rows; SQL, the optimizer, the executor and both caches are
//! bypassed, so the micro-batcher and the scorer invocations do the
//! work. Latency is timed from each request's due time, so a stall in
//! the server also charges the requests queued behind it.

use crate::common::{self, Answer, SwapProbe, Window};
use crate::fixtures::{self, MLP};
use crate::harness::{
    self, Check, Figures, LoopSpec, Recorder, Served, Stream, Tally, CLIENT_THREADS,
};
use crate::host::RssSampler;
use crate::report::{Reconciliation, RunReport};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{self, LatencySummary};
use crate::traced;
use crate::wire::{self, Conn, Outcome};
use crate::Args;
use raven_datagen::hospital::HospitalData;
use raven_ml::Pipeline;
use raven_server::proto::Request;
use raven_server::{ServerState, DEFAULT_TENANT};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "point_score";

/// The cheap model of the pair.
pub const SCORE_TREE: &str = "stay_tree";
/// Patients whose rows requests draw from.
pub const ROW_POOL: usize = 4096;
/// The p99 latency limit of a passing rate (the deadline the adaptive
/// batcher was tuned for).
pub const LIMIT_MS: f64 = 5.0;
/// The arrival-rate grid: `RATE_BASE · RATE_STEP^k` requests/s.
pub const RATE_BASE: f64 = 1000.0;
pub const RATE_STEP: f64 = 1.05;
/// Measurement rounds per run; each metric is its median over rounds.
pub const ROUNDS: usize = 5;
/// Steps a search is expected to take, for sizing each step's length.
pub const SEARCH_STEPS: usize = 10;
/// A search starts at this share of the measured saturation throughput.
pub const SEARCH_START: f64 = 0.5;
/// The coarse ascent moves `COARSE` grid steps (×1.22) at a time.
pub const COARSE: usize = 4;
/// Fewest requests per step (at least 1000, so p99 has 10 beyond it).
pub const STEP_REQUESTS: usize = 2000;
/// The fixed open-loop rate whose latency the run record reports.
pub const REFERENCE_RATE: f64 = 4000.0;
/// Pipelined requests per connection in the saturation phase.
pub const SATURATION_DEPTH: usize = 16;

/// One generated request: which model and which pooled row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoreRequest {
    pub mlp: bool,
    pub row: usize,
}

/// The request stream of stream `stream`: models alternate, rows uniform.
pub fn stream(seed: u64, stream: u64) -> impl FnMut() -> ScoreRequest {
    let mut rng = Rng::new(seed, 0x5C0_0000 + stream);
    let mut seq = 0u64;
    move || {
        let r = ScoreRequest {
            mlp: seq % 2 == 1,
            row: rng.below(ROW_POOL),
        };
        seq += 1;
        r
    }
}

pub struct Fixture {
    pub data: HospitalData,
    pub tree: Pipeline,
    pub tree_v2: Pipeline,
    pub mlp: Pipeline,
    /// Raw input rows per model, and their oracle scores.
    pub tree_rows: Vec<Vec<f64>>,
    pub mlp_rows: Vec<Vec<f64>>,
    pub tree_scores: Vec<f64>,
    pub mlp_scores: Vec<f64>,
}

fn oracle_scores(model: &Pipeline, rows: &[Vec<f64>]) -> Vec<f64> {
    rows.iter()
        .map(|r| model.predict_raw(r, 1).expect("oracle score")[0])
        .collect()
}

impl Fixture {
    pub fn build() -> Fixture {
        let data = fixtures::hospital_data();
        let tree = fixtures::tree(&data, 6);
        let mlp = fixtures::mlp();
        let tree_rows = fixtures::raw_rows(&data, &tree, ROW_POOL);
        let mlp_rows = fixtures::raw_rows(&data, &mlp, ROW_POOL);
        Fixture {
            tree_scores: oracle_scores(&tree, &tree_rows),
            mlp_scores: oracle_scores(&mlp, &mlp_rows),
            tree_v2: fixtures::tree(&data, 5),
            tree,
            mlp,
            tree_rows,
            mlp_rows,
            data,
        }
    }

    pub fn request(&self, r: ScoreRequest) -> Request {
        let (model, rows) = if r.mlp {
            (MLP, &self.mlp_rows)
        } else {
            (SCORE_TREE, &self.tree_rows)
        };
        Request::Score {
            model: model.to_string(),
            tenant: DEFAULT_TENANT.to_string(),
            row: rows[r.row].clone(),
        }
    }

    pub fn answer(&self, r: ScoreRequest) -> Answer {
        Answer::Exact(if r.mlp {
            self.mlp_scores[r.row]
        } else {
            self.tree_scores[r.row]
        })
    }

    /// Model store, bind, and a warm-up of 256 scores per model so the
    /// batcher's cost estimates have settled.
    pub fn setup(&self) -> (Served, u64) {
        let state = Arc::new(ServerState::new(harness::server_config()));
        state
            .store_model(SCORE_TREE, self.tree.clone())
            .expect("store tree");
        state.store_model(MLP, self.mlp.clone()).expect("store mlp");
        let served = harness::bind(state);
        let mut conn = Conn::connect(served.addr).expect("connect warm-up");
        let mut sent = 0u64;
        for i in 0..512 {
            let r = ScoreRequest {
                mlp: i % 2 == 1,
                row: i % ROW_POOL,
            };
            conn.submit(&self.request(r));
            sent += 1;
            if conn.in_flight() == SATURATION_DEPTH {
                while conn.in_flight() > 0 {
                    for reply in conn.recv().expect("warm-up reply") {
                        assert!(
                            !matches!(reply.outcome, Outcome::Error(_)),
                            "warm-up score failed: {:?}",
                            reply.outcome
                        );
                    }
                }
            }
        }
        while conn.in_flight() > 0 {
            conn.recv().expect("warm-up reply");
        }
        (served, sent)
    }
}

/// One fixed-rate step of the open loop.
pub struct Step {
    pub rate: f64,
    /// Latency from each request's due time, per connection.
    pub recorders: Vec<Recorder>,
    /// How late the generator sent each request (µs).
    pub late_us: Vec<f64>,
    pub tally: Tally,
}

impl Step {
    pub fn figures(&self) -> Figures {
        Figures::of(&self.recorders)
    }

    /// p99 within the limit, nothing failed, and no growing backlog: the
    /// last tenth of each connection's requests is served within the
    /// limit too.
    pub fn passes(&self) -> bool {
        let whole: Vec<f64> = self
            .recorders
            .iter()
            .flat_map(|r| r.samples().iter().map(|&v| v as f64))
            .collect();
        let tail: Vec<f64> = self
            .recorders
            .iter()
            .flat_map(|r| {
                let s = r.samples();
                s[s.len() * 9 / 10..].iter().map(|&v| v as f64)
            })
            .collect();
        self.tally.failed() == 0
            && LatencySummary::of(whole).p99.is_some_and(|p| p <= LIMIT_MS)
            && stats::median(&tail) <= LIMIT_MS
    }
}

/// Send `requests` requests at `rate`/s on one connection: request `i`
/// is due at `start + i / rate`. One client thread sleeps until each due
/// time and writes (every request already due goes out in one write);
/// the other blocks on replies. Neither polls, so the generator takes
/// little CPU from the server it shares the cores with.
pub fn open_loop(fx: &Fixture, addr: SocketAddr, seed: u64, rate: f64, requests: usize) -> Step {
    let mut next = stream(seed, rate as u64);
    let plan: Vec<ScoreRequest> = (0..requests).map(|_| next()).collect();
    let (mut writer, mut reader) = wire::connect(addr).expect("connect client");
    reader
        .set_patience(Duration::from_secs(10))
        .expect("set read timeout");
    let start = Instant::now() + Duration::from_millis(2);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let due = |i: usize| start + interval.mul_f64(i as f64);
    let mut step = Step {
        rate,
        recorders: vec![Recorder::with_capacity(
            start,
            due(requests) - start,
            requests,
        )],
        late_us: Vec::with_capacity(requests),
        tally: Tally::default(),
    };
    let sent = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late = Vec::with_capacity(requests);
            let mut i = 0;
            while i < requests {
                let now = Instant::now();
                if due(i) > now {
                    std::thread::sleep(due(i) - now);
                    continue;
                }
                while i < requests && due(i) <= now {
                    writer.submit(&fx.request(plan[i]));
                    late.push(now.duration_since(due(i)).as_secs_f64() * 1e6);
                    i += 1;
                }
                if let Err(e) = writer.flush() {
                    return (late, Some(e));
                }
            }
            (late, None)
        });
        let mut received = 0;
        while received < requests {
            let replies = match reader.recv() {
                Ok(r) => r,
                Err(e) => {
                    for _ in received..requests {
                        step.tally.record(&Check::Error(e.clone()));
                    }
                    break;
                }
            };
            for reply in replies {
                received += 1;
                let Some(&r) = plan.get(reply.id as usize) else {
                    step.tally
                        .record(&Check::Error(format!("unknown id {}", reply.id)));
                    continue;
                };
                let verdict = fx.answer(r).check(&reply.outcome);
                let ms = reply
                    .at
                    .duration_since(due(reply.id as usize))
                    .as_secs_f64()
                    * 1e3;
                let good = verdict == Check::Ok && ms <= LIMIT_MS;
                step.recorders[0].push(reply.at, ms, good);
                step.tally.record(&verdict);
            }
        }
        sender.join().expect("sender thread panicked")
    });
    step.late_us = sent.0;
    if let Some(e) = sent.1 {
        step.tally.record(&Check::Error(e));
    }
    step
}

pub fn grid_rate(k: usize) -> f64 {
    RATE_BASE * RATE_STEP.powi(k as i32)
}

/// The largest grid index whose rate is at most `rate` (0 below the base).
pub fn grid_index_below(rate: f64) -> usize {
    if rate <= RATE_BASE {
        return 0;
    }
    ((rate / RATE_BASE).ln() / RATE_STEP.ln()).floor() as usize
}

/// One search of the rate grid from index `from`: move in coarse strides
/// of [`COARSE`] grid steps — down until a rate passes, or up until one
/// fails — then ascend one grid step at a time from the highest coarse
/// pass. A rate fails only when two steps at it fail, so one host stall
/// does not end the search; a growing backlog fails every time. Returns
/// the highest rate that passed (0 if even the base rate fails) and the
/// steps run.
pub fn search(
    fx: &Fixture,
    addr: SocketAddr,
    seed: u64,
    from: usize,
    step_s: f64,
) -> (f64, Vec<Step>) {
    let mut steps = Vec::new();
    let mut run = |k: usize| {
        let rate = grid_rate(k);
        let requests = ((rate * step_s) as usize).max(STEP_REQUESTS);
        for _ in 0..2 {
            let step = open_loop(fx, addr, seed, rate, requests);
            let pass = step.passes();
            steps.push(step);
            if pass {
                return true;
            }
        }
        false
    };
    // `best` passed; `ceiling` is the lowest index known to fail.
    let mut best = from;
    let mut ceiling = None;
    while !run(best) {
        ceiling = Some(best);
        if best == 0 {
            return (0.0, steps);
        }
        best = best.saturating_sub(COARSE);
    }
    let mut next = best + COARSE;
    while ceiling.is_none_or(|c| next < c) && run(next) {
        best = next;
        next += COARSE;
    }
    let top = ceiling.map_or(next, |c| c.min(next));
    for fine in best + 1..top {
        if !run(fine) {
            break;
        }
        best = fine;
    }
    (grid_rate(best), steps)
}

pub fn timed(args: &Args) -> RunReport {
    let fx = Fixture::build();
    let (served, warm_sent, setup_s) = harness::repeated_setup(|| fx.setup());
    let mut report = RunReport::default();
    report.set("setup_s", setup_s);
    let phases = measure(&fx, &served, args, &mut report);
    let mut tally = phases.tally;

    // Swap-to-serve: a row the two tree versions score apart.
    let probe_row = (0..ROW_POOL)
        .find(|&i| {
            let row = &fx.tree_rows[i];
            fx.tree_v2.predict_raw(row, 1).expect("score v2")[0].to_bits()
                != fx.tree_scores[i].to_bits()
        })
        .expect("the tree versions disagree somewhere");
    let swap = SwapProbe {
        tenant: DEFAULT_TENANT,
        model: SCORE_TREE,
        versions: [&fx.tree, &fx.tree_v2],
        probe: fx.request(ScoreRequest {
            mlp: false,
            row: probe_row,
        }),
        answers: [
            Answer::Exact(fx.tree_scores[probe_row]),
            Answer::Exact(
                fx.tree_v2
                    .predict_raw(&fx.tree_rows[probe_row], 1)
                    .expect("score v2")[0],
            ),
        ],
    };
    let swaps = swap.run(&served, common::SWAPS, &mut tally);
    report.set("swap_to_serve_ms_p50", stats::median(&swaps));

    // The batcher's books, once it has settled: every request the
    // generator sent is counted, and each ended exactly one way.
    let batcher = settled_batcher(&served);
    let outcomes =
        batcher.batched_rows + batcher.bad_arity + batcher.shed + batcher.expired + batcher.failed;
    report.reconciliations.push(Reconciliation::equal(
        "batcher",
        batcher.requests,
        outcomes,
        "requests == scored + bad_arity + shed + expired + failed".into(),
    ));
    report.reconciliations.push(Reconciliation::equal(
        "batcher_requests",
        batcher.requests,
        warm_sent + tally.attempted,
        "batcher requests == score requests sent".into(),
    ));
    // Scores bypass admission: the global ring must see none of them.
    report
        .reconciliations
        .push(common::admission_reconciliation(
            Default::default(),
            served.state.admission_stats(),
            0,
        ));
    report.tally = tally;
    report.set(
        "ok_frac",
        1.0 - report.tally.failed() as f64 / report.tally.attempted.max(1) as f64,
    );
    served.shutdown();
    report
}

/// Everything the timed phases sent.
pub struct Phases {
    pub tally: Tally,
}

/// The timed phases, in [`ROUNDS`] rounds so that a stretch of host
/// interference lands in one round rather than in one metric: each
/// round sends a burst at [`REFERENCE_RATE`] (its latency is recorded
/// in the run record), runs a closed loop with every connection's window
/// full (throughput and the latency metrics), and searches the rate grid
/// upward from half that throughput (`slo_rate_qps`). Each metric is the
/// median over rounds. Metrics go into `report`.
///
/// The gated latency percentiles come from the saturated closed loop:
/// at a low fixed rate the p99 is set by a few multi-millisecond
/// scheduling stalls per second on a shared 2-core host and moved by
/// more than any useful regression bound between identical runs.
pub fn measure(fx: &Fixture, served: &Served, args: &Args, report: &mut RunReport) -> Phases {
    let mut tally = Tally::default();
    let round_s = args.seconds / ROUNDS as f64;
    let window = Window::open();
    let rss = RssSampler::start();
    let (mut p50s, mut p99s, mut capacities, mut rates) = (vec![], vec![], vec![], vec![]);
    let (mut reference_p50s, mut reference_p99s) = (vec![], vec![]);
    let mut late = Vec::new();
    let mut steps = Vec::new();
    for round in 0..ROUNDS {
        let seed = args.seed.wrapping_add(round as u64);
        let requests = ((REFERENCE_RATE * round_s * 0.15) as usize).max(STEP_REQUESTS);
        let reference = open_loop(fx, served.addr, seed, REFERENCE_RATE, requests);
        let lat = reference.figures().latency;
        reference_p50s.push(lat.p50);
        reference_p99s.push(lat.p99.unwrap_or(f64::NAN));
        late.extend(reference.late_us.iter().copied());
        tally.absorb(&reference.tally);

        let saturation = harness::closed_loop(
            served.addr,
            LoopSpec {
                depth: SATURATION_DEPTH,
                duration: Duration::from_secs_f64(round_s * 0.2),
                limit_ms: LIMIT_MS,
                min_completed: 1000,
                detail: false,
            },
            (0..CLIENT_THREADS)
                .map(|t| {
                    let mut next = stream(seed, 0xFFFF_0000 + t as u64);
                    Box::new(move || {
                        let r = next();
                        (r, fx.request(r))
                    }) as Stream<'_, ScoreRequest>
                })
                .collect(),
            &|r: &ScoreRequest, outcome: &Outcome| fx.answer(*r).check(outcome),
        );
        let figures = saturation.figures();
        let capacity = figures.throughput;
        p50s.push(figures.latency.p50);
        p99s.push(figures.latency.p99.unwrap_or(f64::NAN));
        capacities.push(capacity);
        tally.absorb(&saturation.tally);

        let from = grid_index_below(capacity * SEARCH_START);
        let (rate, s) = search(
            fx,
            served.addr,
            seed,
            from,
            round_s * 0.5 / SEARCH_STEPS as f64,
        );
        rates.push(rate);
        for step in &s {
            tally.absorb(&step.tally);
        }
        steps.extend(s);
    }
    let peak_rss = rss.finish();
    window.close(report, tally.attempted, args.seed, NAME);
    report.set("throughput_qps", stats::median(&capacities));
    report.set("latency_p50_ms", stats::median(&p50s));
    report.set("latency_p99_ms", stats::median(&p99s));
    report.set("peak_rss_mb", peak_rss);
    report.set("slo_rate_qps", stats::median(&rates));
    let late = stats::sorted(late);
    let late_p99 = stats::percentile(&late, 0.99).unwrap_or(f64::NAN);
    report.set("loadgen.late_us_p99", late_p99);
    report.env("loadgen.late_us_p99", format!("{late_p99:.1}"));
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.env("rounds.latency_p99_ms", list(&p99s));
    report.env("rounds.reference_p50_ms", list(&reference_p50s));
    report.env("rounds.reference_p99_ms", list(&reference_p99s));
    report.env("rounds.throughput_qps", list(&capacities));
    report.env("rounds.slo_rate_qps", list(&rates));
    report.env(
        "steps",
        steps
            .iter()
            .map(|s| {
                let p99 = s.figures().latency.p99.unwrap_or(f64::NAN);
                let verdict = if s.passes() { "pass" } else { "fail" };
                format!("{:.0}/s p99 {p99:.3} ms {verdict}", s.rate)
            })
            .collect::<Vec<_>>()
            .join("; "),
    );
    Phases { tally }
}

/// Batcher counters once no request is still being scored: read until
/// two consecutive snapshots agree.
pub fn settled_batcher(served: &Served) -> raven_server::BatcherStats {
    let mut last = served.state.batcher_stats();
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(5));
        let now = served.state.batcher_stats();
        if now.requests == last.requests && now.batched_rows == last.batched_rows {
            return now;
        }
        last = now;
    }
    last
}

/// The traced run: the saturated closed loop untraced and traced (the
/// batcher's counters read around it), an open-loop step at the
/// reference rate for the generator's lateness, then an in-process
/// replay of scores through `ServerState::score_row_in` beside the
/// classical `Pipeline::predict_raw` of the same row.
pub fn traced(args: &Args) -> RunReport {
    let fx = Fixture::build();
    let (served, _) = fx.setup();
    let mut report = RunReport::default();
    let mut spans = Spans::new(Instant::now());
    let streams = || {
        (0..CLIENT_THREADS)
            .map(|t| {
                let mut next = stream(args.seed, 0xFFFF_0000 + t as u64);
                let fx = &fx;
                Box::new(move || {
                    let r = next();
                    (r, fx.request(r))
                }) as Stream<'_, ScoreRequest>
            })
            .collect()
    };
    let check = |r: &ScoreRequest, outcome: &Outcome| fx.answer(*r).check(outcome);
    traced::wire_phases(
        &mut report,
        &mut spans,
        &served,
        args,
        NAME,
        SATURATION_DEPTH,
        &streams,
        &check,
    );
    let reference = open_loop(
        &fx,
        served.addr,
        args.seed,
        REFERENCE_RATE,
        STEP_REQUESTS * 2,
    );
    report.tally.absorb(&reference.tally);
    let late = stats::sorted(reference.late_us);
    report.set(
        "loadgen.late_us_p99",
        stats::percentile(&late, 0.99).unwrap_or(f64::NAN),
    );

    let mut serve_us = Vec::new();
    let mut residual = Vec::new();
    let mut next = stream(args.seed, CLIENT_THREADS as u64);
    let budget = Instant::now() + Duration::from_secs_f64(args.seconds * 0.2);
    let mut request = 0u64;
    while Instant::now() < budget || request < 4 {
        let r = next();
        let (model, name, row) = if r.mlp {
            (&fx.mlp, MLP, &fx.mlp_rows[r.row])
        } else {
            (&fx.tree, SCORE_TREE, &fx.tree_rows[r.row])
        };
        let (scored, root) = spans.time(request, "state.score_row_in", None, || {
            served.state.score_row_in(DEFAULT_TENANT, name, row.clone())
        });
        let (_, ml) = spans.time(request, "ml.predict_raw", None, || {
            std::hint::black_box(model.predict_raw(row, 1).expect("classical score"))
        });
        report.tally.record(&fx.answer(r).check(&match scored {
            Ok(v) => Outcome::Score(v),
            Err(e) => Outcome::Error(e.to_string()),
        }));
        let (total, covered) = (
            spans.spans[root].duration() as f64,
            spans.spans[ml].duration() as f64,
        );
        serve_us.push(total / 1e3);
        residual.push((total - covered).abs() / total.max(1.0));
        request += 1;
    }
    report.env("replayed", request);
    report.env(
        "state.score_row_us_p50",
        format!("{:.2}", stats::median(&serve_us)),
    );
    report.set("trace.residual_frac", stats::median(&residual));
    traced::ml_metrics(&mut report, &fx.tree, &fx.data.joined_batch());
    traced::not_exercised(
        &mut report,
        &[
            "state.server_ms_p50",
            "state.exec_ms_p50",
            "state.pre_exec_us_p50",
            "normalize.us_per_call",
            "plan_cache.prepare_ms_p50",
            "sql.parse_us",
            "sql.bind_us",
            "opt.optimize_ms",
            "opt.pruning_fired",
            "fingerprint.us_per_call",
            "relational.self_ms_p50",
            "relational.rows_out_mean",
            "runtime.score_ms_per_call",
            "runtime.rows_per_call",
            "runtime.calls_per_query",
        ],
        "Score frames go to the micro-batcher and bypass SQL, the optimizer and the executor \
         (the batcher's own scoring is in batcher.*; state.score_row_us_p50 in the run record)",
    );
    traced::not_exercised(
        &mut report,
        &[
            "net.overhead_us_p50",
            "net.overhead_us_p99",
            "net.reply_chunks_mean",
            "proto.encode_us_per_reply",
            "admission.admitted",
            "admission.rejected",
            "plan_cache.hit_ratio",
            "plan_cache.preparations",
            "opt.placement_kernel",
            "opt.placement_tensor",
            "opt.placement_classical",
            "result_cache.hit_ratio",
            "result_cache.executions",
            "result_cache.evictions",
            "result_cache.invalidations",
            "runtime.session_cache_hit_ratio",
            "obs.server_latency_us_p50",
        ],
        "a Score reply carries no server time or row chunks, and scores pass no \
         admission ring, cache, optimizer or query-latency histogram",
    );
    traced::not_exercised(
        &mut report,
        &["tenant.swapped_p99_ms", "tenant.quiet_p99_ms"],
        "one tenant, no model swaps in the timed stream",
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
        let take = |seed, s| {
            let mut st = stream(seed, s);
            (0..300).map(|_| st()).collect::<Vec<_>>()
        };
        assert_eq!(take(11, 0), take(11, 0));
        assert_ne!(take(11, 0), take(12, 0));
    }

    #[test]
    fn grid_steps_stay_within_five_percent() {
        for k in 0..100 {
            let ratio = grid_rate(k + 1) / grid_rate(k);
            assert!((ratio - RATE_STEP).abs() < 1e-9);
        }
    }
}
