//! The serving process under test and the closed-loop load generator.

use crate::stats::{self, LatencySummary};
use crate::wire::{Conn, Outcome, Reply};
use raven_server::proto::Request;
use raven_server::{NetConfig, RavenServer, ServerConfig, ServerState};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads and connections the generator uses: one each per core
/// of the reference 2-core host, so the generator never outnumbers the
/// cores the server runs on.
pub const CLIENT_THREADS: usize = 2;

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Set-ups go on past [`SETUPS`] until they have taken this long (or
/// [`MAX_SETUPS`] were made), so a cheap set-up is timed often enough
/// for a steady median.
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Most set-ups per run.
pub const MAX_SETUPS: usize = 51;

/// A bound server with its default configuration.
pub struct Served {
    pub state: Arc<ServerState>,
    pub server: RavenServer,
    pub addr: SocketAddr,
}

impl Served {
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig::default()
}

pub fn net_config() -> NetConfig {
    NetConfig::default()
}

/// The configuration the server runs with, as printed in the run record.
pub fn config_record() -> String {
    format!("{:?} {:?}", server_config(), net_config())
}

/// Bind a listener over `state` with the default `NetConfig`.
pub fn bind(state: Arc<ServerState>) -> Served {
    let server = RavenServer::bind(state.clone(), net_config()).expect("bind listener");
    let addr = server.local_addr();
    Served {
        state,
        server,
        addr,
    }
}

/// Run `setup` [`SETUPS`] times or more (see [`SETUP_BUDGET`]),
/// shutting down all but the last server; returns it with the median
/// set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> (Served, T)) -> (Served, T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let began = Instant::now();
    while times.len() < SETUPS || (began.elapsed() < SETUP_BUDGET && times.len() < MAX_SETUPS) {
        if let Some((served, _)) = last.take() {
            Served::shutdown(served);
        }
        let start = Instant::now();
        let built = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    let (served, extra) = last.expect("at least one set-up");
    (served, extra, stats::median(&times))
}

/// The verdict on one reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    Ok,
    /// The server answered, but not what the oracle expects.
    Mismatch(String),
    /// An error frame or a reply of the wrong kind.
    Error(String),
}

/// Outcome counts across a run. `failed` in the result line is
/// `errors + mismatches`.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub mismatches: u64,
    /// The first few failure messages, for the report.
    pub examples: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, check: &Check) {
        self.attempted += 1;
        let message = match check {
            Check::Ok => return,
            Check::Mismatch(m) => {
                self.mismatches += 1;
                format!("mismatch: {m}")
            }
            Check::Error(m) => {
                self.errors += 1;
                format!("error: {m}")
            }
        };
        if self.examples.len() < 5 {
            self.examples.push(message);
        }
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
        for e in &other.examples {
            if self.examples.len() < 5 {
                self.examples.push(e.clone());
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }
}

/// Slices a timed window is cut into. Rates and percentiles are taken
/// per slice and combined by their median, so a transient disturbance
/// on a shared host moves one slice rather than the run.
pub const SLICES: usize = 10;

/// Latencies a client thread keeps per second of window: well above the
/// fastest rate one thread has reached (~90k/s), so nothing is dropped,
/// while short windows get small buffers.
const LATENCIES_PER_SECOND: f64 = 200_000.0;

/// One client thread's latency samples (ms), in arrival order, held in
/// a fixed-size buffer allocated and touched up front, so the
/// generator's memory does not grow with the server's throughput and
/// `peak_rss_mb` stays a reading of the server.
pub struct Recorder {
    start: Instant,
    slice: Duration,
    buf: Vec<f32>,
    /// `marks[k]` is where slice `k` starts in `buf`.
    marks: Vec<usize>,
    /// Per slice: replies, and replies that passed within the limit.
    done: [u64; SLICES],
    good: [u64; SLICES],
}

impl Recorder {
    pub fn new(start: Instant, window: Duration) -> Recorder {
        let capacity = (window.as_secs_f64() * LATENCIES_PER_SECOND) as usize + 1000;
        Recorder::with_capacity(start, window, capacity)
    }

    /// A recorder for at most `capacity` replies.
    pub fn with_capacity(start: Instant, window: Duration, capacity: usize) -> Recorder {
        let mut buf = vec![1.0f32; capacity];
        buf.clear();
        Recorder {
            start,
            slice: window / SLICES as u32,
            buf,
            marks: vec![0],
            done: [0; SLICES],
            good: [0; SLICES],
        }
    }

    /// Record a reply that arrived at `at` after `ms`; `good` when it
    /// passed its check within the latency limit.
    /// Start the window at `start` (after the buffer is in place).
    pub fn begin(&mut self, start: Instant) {
        self.start = start;
    }

    /// A full buffer still counts replies; it stops keeping latencies.
    pub fn push(&mut self, at: Instant, ms: f64, good: bool) {
        let k = (at.saturating_duration_since(self.start).as_nanos() / self.slice.as_nanos().max(1))
            as usize;
        if k < SLICES {
            self.done[k] += 1;
            self.good[k] += u64::from(good);
        }
        if self.buf.len() == self.buf.capacity() {
            return;
        }
        // Replies after the window keep a mark of their own, past the
        // last slice: they count in whole-window percentiles only.
        while self.marks.len() <= k.min(SLICES) {
            self.marks.push(self.buf.len());
        }
        self.buf.push(ms as f32);
    }

    /// Every recorded latency, in arrival order.
    pub fn samples(&self) -> &[f32] {
        &self.buf
    }

    fn slice_samples(&self, k: usize) -> &[f32] {
        let from = self.marks.get(k).copied().unwrap_or(self.buf.len());
        let to = self.marks.get(k + 1).copied().unwrap_or(self.buf.len());
        &self.buf[from..to]
    }
}

/// Slice-wise figures over the recorders of every client thread.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    /// Median over slices of replies per second.
    pub throughput: f64,
    /// Median over slices of good replies per second.
    pub goodput: f64,
    pub latency: LatencySummary,
}

impl Figures {
    /// Median slice figures. A percentile is the median over the slices
    /// that hold 10 samples beyond it, while at least half of them do;
    /// otherwise it is taken over the whole window (still needing 10
    /// samples beyond it).
    pub fn of(recorders: &[Recorder]) -> Figures {
        Figures::of_segments(&[recorders])
    }

    /// Median figures over the slices of every segment, each segment
    /// being the recorders of one window.
    pub fn of_segments(segments: &[&[Recorder]]) -> Figures {
        let mut rates = Vec::new();
        let mut goods = Vec::new();
        let mut p50s = Vec::new();
        let mut p99s = Vec::new();
        for recorders in segments {
            let slice_s = recorders.first().map_or(1.0, |r| r.slice.as_secs_f64());
            for k in 0..SLICES {
                let samples: Vec<f64> = recorders
                    .iter()
                    .flat_map(|r| r.slice_samples(k).iter().map(|&v| v as f64))
                    .collect();
                rates.push(recorders.iter().map(|r| r.done[k]).sum::<u64>() as f64 / slice_s);
                goods.push(recorders.iter().map(|r| r.good[k]).sum::<u64>() as f64 / slice_s);
                let sorted = stats::sorted(samples);
                p50s.push(stats::percentile(&sorted, 0.5));
                p99s.push(stats::percentile(&sorted, 0.99));
            }
        }
        let whole = LatencySummary::of(
            segments
                .iter()
                .flat_map(|recorders| recorders.iter())
                .flat_map(|r| r.buf.iter().map(|&v| v as f64))
                .collect(),
        );
        let by_slice = |v: Vec<Option<f64>>, fallback: Option<f64>| {
            let held: Vec<f64> = v.iter().flatten().copied().collect();
            if !held.is_empty() && held.len() * 2 >= v.len() {
                Some(stats::median(&held))
            } else {
                fallback
            }
        };
        Figures {
            throughput: stats::median(&rates),
            goodput: stats::median(&goods),
            latency: LatencySummary {
                count: whole.count,
                p50: by_slice(p50s, Some(whole.p50)).unwrap_or(f64::NAN),
                p99: by_slice(p99s, whole.p99),
            },
        }
    }
}

/// One completed request as the client saw it (kept in detail mode).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub latency_ms: f64,
    /// Server-reported time for query replies (`None` for scores).
    pub server_ms: Option<f64>,
    pub chunks: usize,
    pub sent: Instant,
    pub at: Instant,
}

/// Per-thread cap on kept [`Sample`]s in detail mode.
const DETAIL_CAP: usize = 200_000;

/// Closed-loop settings.
#[derive(Debug, Clone, Copy)]
pub struct LoopSpec {
    /// Requests in flight per connection.
    pub depth: usize,
    pub duration: Duration,
    /// Latency limit for goodput (`slo_rate_qps` on closed loops).
    pub limit_ms: f64,
    /// Keep sending past `duration` until this many replies completed
    /// (so a slow server still yields a p99).
    pub min_completed: u64,
    /// Keep a [`Sample`] per reply (traced runs only).
    pub detail: bool,
}

/// What a closed loop measured.
#[derive(Default)]
pub struct LoopResult {
    pub recorders: Vec<Recorder>,
    pub completed: u64,
    pub tally: Tally,
    pub detail: Vec<Sample>,
}

impl LoopResult {
    /// Call after the timed window: it merges the per-thread samples.
    pub fn figures(&self) -> Figures {
        Figures::of(&self.recorders)
    }
}

/// A generator of requests for one client thread: each call yields the
/// next request and the key its reply is checked against.
pub type Stream<'a, K> = Box<dyn FnMut() -> (K, Request) + Send + 'a>;

/// Drive `streams.len()` connections in a closed loop as `spec` says;
/// each reply is judged by `check`. Requests in flight when time is up
/// are drained and counted.
pub fn closed_loop<K: Send + 'static>(
    addr: SocketAddr,
    spec: LoopSpec,
    streams: Vec<Stream<'_, K>>,
    check: &(dyn Fn(&K, &Outcome) -> Check + Sync),
) -> LoopResult {
    let mut recorders: Vec<Recorder> = streams
        .iter()
        .map(|_| Recorder::new(Instant::now(), spec.duration))
        .collect();
    // The window starts once the buffers are in place.
    let start = Instant::now();
    for r in &mut recorders {
        r.begin(start);
    }
    let completed = AtomicU64::new(0);
    let results: Vec<LoopResult> = std::thread::scope(|scope| {
        let completed = &completed;
        let handles: Vec<_> = streams
            .into_iter()
            .zip(recorders.drain(..))
            .map(|(mut next, recorder)| {
                scope.spawn(move || {
                    let mut out = LoopResult {
                        recorders: vec![recorder],
                        ..Default::default()
                    };
                    let mut conn = Conn::connect(addr).expect("connect client");
                    let mut waiting: HashMap<u32, (K, Instant)> = HashMap::new();
                    loop {
                        let open = start.elapsed() < spec.duration
                            || completed.load(Ordering::Relaxed) < spec.min_completed;
                        while open && conn.in_flight() < spec.depth {
                            let (key, request) = next();
                            let id = conn.submit(&request);
                            waiting.insert(id, (key, Instant::now()));
                        }
                        if conn.in_flight() == 0 {
                            break;
                        }
                        let replies = match conn.recv() {
                            Ok(r) => r,
                            Err(e) => {
                                // The connection is gone: every request
                                // still waiting on it failed.
                                for _ in waiting.drain() {
                                    out.tally.record(&Check::Error(e.clone()));
                                }
                                break;
                            }
                        };
                        for reply in replies {
                            let Some((key, sent)) = waiting.remove(&reply.id) else {
                                out.tally.record(&Check::Error(format!(
                                    "reply for unknown id {}",
                                    reply.id
                                )));
                                continue;
                            };
                            let verdict = check(&key, &reply.outcome);
                            let s = sample(&reply, sent);
                            let good = verdict == Check::Ok && s.latency_ms <= spec.limit_ms;
                            out.recorders[0].push(reply.at, s.latency_ms, good);
                            out.completed += 1;
                            completed.fetch_add(1, Ordering::Relaxed);
                            if spec.detail && out.detail.len() < DETAIL_CAP {
                                out.detail.push(s);
                            }
                            out.tally.record(&verdict);
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = LoopResult::default();
    for r in results {
        all.recorders.extend(r.recorders);
        all.completed += r.completed;
        all.tally.absorb(&r.tally);
        all.detail.extend(r.detail);
    }
    all
}

pub fn sample(reply: &Reply, sent: Instant) -> Sample {
    let (server_ms, chunks) = match &reply.outcome {
        Outcome::Rows {
            server_time,
            chunks,
            ..
        } => (Some(server_time.as_secs_f64() * 1e3), *chunks),
        _ => (None, 0),
    };
    Sample {
        latency_ms: reply.at.duration_since(sent).as_secs_f64() * 1e3,
        server_ms,
        chunks,
        sent,
        at: reply.at,
    }
}
