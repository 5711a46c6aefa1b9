//! Pieces every workload shares: expected answers, the model-swap
//! probe, and the end-of-run environment record.

use crate::harness::{self, Check, Figures, LoopResult, LoopSpec, Recorder, Served, Stream, Tally};
use crate::host;
use crate::report::{Reconciliation, RunReport};
use crate::wire::{Conn, Outcome};
use raven_data::Table;
use raven_ml::Pipeline;
use raven_server::proto::Request;
use raven_server::AdmissionStats;
use std::time::Instant;

/// An oracle's answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Canonical rows of a result table ([`crate::fixtures::canonical_rows`]).
    Rows(Vec<Vec<u64>>),
    /// A point score. The micro-batcher scores with the classical f64
    /// `Pipeline::predict_raw`, so scores must match bitwise.
    Exact(f64),
}

impl Answer {
    pub fn rows(table: &Table) -> Answer {
        Answer::Rows(crate::fixtures::canonical_rows(table))
    }

    pub fn matches(&self, outcome: &Outcome) -> bool {
        match (self, outcome) {
            (Answer::Rows(rows), Outcome::Rows { table, .. }) => {
                *rows == crate::fixtures::canonical_rows(table)
            }
            (Answer::Exact(v), Outcome::Score(s)) => v.to_bits() == s.to_bits(),
            _ => false,
        }
    }

    /// Judge `outcome` against this answer.
    pub fn check(&self, outcome: &Outcome) -> Check {
        match outcome {
            Outcome::Error(e) => Check::Error(e.clone()),
            _ if self.matches(outcome) => Check::Ok,
            Outcome::Score(s) => Check::Mismatch(format!("score {s} expected {self:?}")),
            Outcome::Rows { table, .. } => Check::Mismatch(format!(
                "{} rows differ from the oracle's answer",
                table.num_rows()
            )),
        }
    }
}

/// Model swaps per timed run.
pub const SWAPS: usize = 100;

/// Segments a closed-loop timed window is cut into. [`SWAPS`] /
/// `SEGMENTS` model swaps follow each segment, so the swap-to-serve
/// samples are spread over the whole run instead of one burst that a
/// stretch of host contention can cover.
pub const SEGMENTS: usize = 5;

/// The swap-to-serve probe: `model` in `tenant` alternates between
/// `versions`, and `probe` is a request the two versions answer apart.
/// Version 0 is the one being served between swap batches.
pub struct SwapProbe<'a> {
    pub tenant: &'a str,
    pub model: &'a str,
    pub versions: [&'a Pipeline; 2],
    pub probe: Request,
    pub answers: [Answer; 2],
}

impl SwapProbe<'_> {
    /// Make `count` swaps (an even number, so version 0 is served again
    /// afterwards); after each `store_model_in` call, send the probe
    /// until its reply carries the new version's answer. Returns the
    /// swap-to-serve times in ms. A reply that still carries the old
    /// answer after the store returned is a stale read and counts as a
    /// failure.
    pub fn run(&self, served: &Served, count: usize, tally: &mut Tally) -> Vec<f64> {
        assert!(count.is_multiple_of(2), "swaps must come in pairs");
        assert_ne!(
            self.answers[0], self.answers[1],
            "swap probe cannot tell the versions apart"
        );
        let mut conn = Conn::connect(served.addr).expect("connect swap client");
        let mut times = Vec::new();
        for i in 0..count {
            let next = (i + 1) % 2;
            let pipeline = self.versions[next].clone();
            let start = Instant::now();
            served
                .state
                .store_model_in(self.tenant, self.model, pipeline)
                .expect("store model");
            loop {
                conn.submit(&self.probe);
                let reply = match conn.recv() {
                    Ok(mut r) if r.len() == 1 => r.pop().expect("one reply"),
                    Ok(r) => panic!("expected one probe reply, got {}", r.len()),
                    Err(e) => {
                        tally.record(&Check::Error(e));
                        return times;
                    }
                };
                let verdict = self.answers[next].check(&reply.outcome);
                tally.record(&verdict);
                if verdict == Check::Ok {
                    times.push(start.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                if let Check::Error(_) = verdict {
                    break;
                }
            }
        }
        times
    }
}

/// What [`segmented_window`] measured.
pub struct Segmented {
    /// One closed loop per segment.
    pub loops: Vec<LoopResult>,
    /// Replies and failures of every segment's closed loop.
    pub tally: Tally,
    /// Swap-to-serve times (ms) of every swap batch.
    pub swaps: Vec<f64>,
    /// Probe requests and failures of every swap batch.
    pub swap_tally: Tally,
}

impl Segmented {
    /// Slice figures over every segment.
    pub fn figures(&self) -> Figures {
        let recorders: Vec<&[Recorder]> = self.loops.iter().map(|l| &l.recorders[..]).collect();
        Figures::of_segments(&recorders)
    }
}

/// Run `spec` as [`SEGMENTS`] closed loops of `spec.duration /
/// SEGMENTS` each, the streams carrying on from one segment to the
/// next, with [`SWAPS`] / `SEGMENTS` probe swaps after each segment.
pub fn segmented_window<K: Send + 'static>(
    served: &Served,
    spec: LoopSpec,
    streams: &mut [Stream<'_, K>],
    check: &(dyn Fn(&K, &Outcome) -> Check + Sync),
    swap: &SwapProbe,
) -> Segmented {
    let segment = LoopSpec {
        duration: spec.duration / SEGMENTS as u32,
        min_completed: spec.min_completed.div_ceil(SEGMENTS as u64),
        ..spec
    };
    let mut out = Segmented {
        loops: Vec::new(),
        tally: Tally::default(),
        swaps: Vec::new(),
        swap_tally: Tally::default(),
    };
    for _ in 0..SEGMENTS {
        let borrowed: Vec<Stream<'_, K>> = streams
            .iter_mut()
            .map(|next| Box::new(next) as Stream<'_, K>)
            .collect();
        let run = harness::closed_loop(served.addr, segment, borrowed, check);
        out.tally.absorb(&run.tally);
        out.loops.push(run);
        let swaps = swap.run(served, SWAPS / SEGMENTS, &mut out.swap_tally);
        out.swaps.extend(swaps);
    }
    out
}

/// Readings taken around a timed window.
pub struct Window {
    cpu_ms: f64,
    ticks: (u64, u64),
}

impl Window {
    pub fn open() -> Window {
        Window {
            cpu_ms: host::process_cpu_ms(),
            ticks: host::cpu_ticks(),
        }
    }

    /// Record the run environment and host readings into `report`.
    pub fn close(self, report: &mut RunReport, requests: u64, seed: u64, workload: &str) {
        let cpu = host::process_cpu_ms() - self.cpu_ms;
        let steal = host::steal_frac(self.ticks, host::cpu_ticks());
        report.set("proc.cpu_ms_per_kreq", cpu / (requests.max(1) as f64 / 1e3));
        report.set("host.steal_frac", steal);
        report.env("workload", workload);
        report.env("git_sha", host::git_sha());
        report.env("nproc", host::nproc());
        report.env("rustc", host::rustc_version());
        report.env("seed", seed);
        report.env("config", crate::harness::config_record());
        report.env("host.steal_frac", format!("{steal:.6}"));
    }
}

/// `admitted + rejected == attempted` for the global admission ring
/// over a window that sent `attempted` queries.
pub fn admission_reconciliation(
    before: AdmissionStats,
    after: AdmissionStats,
    attempted: u64,
) -> Reconciliation {
    let total = |s: AdmissionStats| s.admitted + s.rejected_overloaded + s.rejected_deadline;
    Reconciliation::equal(
        "admission",
        total(after) - total(before),
        attempted,
        "admitted + rejected == attempted".into(),
    )
}
