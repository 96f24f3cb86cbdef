//! The two serving workloads: closed-loop clients against an
//! in-process server, over HTTP through the gateway (`serve_warm_http`)
//! or straight over NDJSON (`serve_cold_ndjson`).

use crate::layers::{self, LayerInputs};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Report};
use poisongame::core::bridge::solve_discretized_with;
use poisongame::core::{CostCurve, EffectCurve, PoisonGame};
use poisongame::data::synth::{spambase_like, SpambaseConfig};
use poisongame::data::Dataset;
use poisongame::exec::{PoolStats, WorkerPool};
use poisongame::gateway::client::HttpClient;
use poisongame::gateway::server::{Gateway, GatewayConfig, GatewayHandle};
use poisongame::linalg::Xoshiro256StarStar;
use poisongame::serve::client::Client;
use poisongame::serve::protocol::{
    CellRequest, EstimateRequest, Request, RequestKind, ServerStats, SolveRequest, SolveResult,
};
use poisongame::serve::server::{Server, ServerConfig, ServerHandle};
use poisongame::sim::estimate::estimate_curves;
use poisongame::sim::jsonio::Json;
use poisongame::sim::pipeline::{DataSource, ExperimentConfig};
use poisongame::sim::scenario::{run_matrix_with, AttackSpec, DefenseSpec, LearnerSpec, Scenario};
use poisongame::sim::timing::{self, TimingSnapshot};
use poisongame::sim::ExecPolicy;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Closed-loop connections: callers of this service are experiment
/// scripts that wait on each reply, and two keep the clients within the
/// cores of the 2-core host the bounds were set on.
const CONNECTIONS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Length of the warm request cycle: the `load_test` 20-slot cycle,
/// twice, with its own seed per slot.
const WARM_CYCLE: usize = 40;
/// Epochs of the warm cycle's cells (the `load_test` setting).
const WARM_EPOCHS: usize = 20;
/// Rows of the warm cycle's synthetic dataset.
const WARM_ROWS: usize = 300;
/// Epochs of the cold workload's cells: low, so preparation outweighs
/// the fit.
const COLD_EPOCHS: usize = 2;
/// Rows of the generated Spambase-scale file.
const FILE_ROWS: usize = 4601;
/// Rows of the inline `csv_text` body.
const INLINE_ROWS: usize = 60;
/// Rows per chunk for the chunked file reads.
const CHUNK_ROWS: usize = 256;
/// File name of the generated CSV under the server's data dir.
const FILE_NAME: &str = "spambase.csv";
/// Kinds × source forms of the cold workload (see [`cold_combination`]).
const COLD_COMBINATIONS: usize = 9;
/// Cold combinations with each kind once and each source form once: the
/// warm-up sends them, and the traced replay takes its cells from them.
const COLD_DIAGONAL: [usize; 3] = [0, 4, 8];
/// Leading cold requests per connection whose responses are
/// re-derived in-process (one lap: every combination).
const COLD_SAMPLED_REQUESTS: usize = COLD_COMBINATIONS;
/// Percentile of the latency tails on the provenance line. A run has
/// hundreds to thousands of samples per kind, but on a shared host p99
/// swung by 2.8× between runs of the same seed where p90 moved 1.9×.
const TAIL_PCT: f64 = 90.0;
/// Solves timed one after another on the idle server.
const IDLE_SOLVES: usize = 200;
/// Warm-up seeds have this bit set; measured seeds never do, so the
/// warm-up cannot pre-fill the cache with a measured preparation.
const WARMUP_SEED_BIT: u64 = 1 << 62;
/// First request index of the traced half of a traced run, beyond
/// anything the untraced half reaches.
const TRACED_FIRST_INDEX: usize = 1 << 20;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cell,
    Estimate,
    Solve,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cell => "cell",
            Kind::Estimate => "estimate",
            Kind::Solve => "solve",
        }
    }
}

/// One request, ready for either transport.
#[derive(Clone)]
struct Req {
    kind: Kind,
    /// Requests sharing a slot must get byte-identical responses.
    slot: Option<usize>,
    payload: RequestKind,
    /// HTTP route and body (the request document minus the `id`/`type`
    /// envelope the gateway owns).
    route: String,
    body: String,
}

impl Req {
    fn new(kind: Kind, slot: Option<usize>, payload: RequestKind, http: bool) -> Req {
        let (route, body) = if http {
            http_form(&payload)
        } else {
            (String::new(), String::new())
        };
        Req {
            kind,
            slot,
            payload,
            route,
            body,
        }
    }
}

fn http_form(kind: &RequestKind) -> (String, String) {
    let doc = Request {
        id: 0,
        deadline_ms: None,
        kind: kind.clone(),
    }
    .to_line();
    let Ok(Json::Obj(fields)) = Json::parse(doc.trim_end()) else {
        unreachable!("request documents render as JSON objects")
    };
    let body = Json::Obj(
        fields
            .into_iter()
            .filter(|(key, _)| key != "id" && key != "type")
            .collect(),
    )
    .render();
    (format!("/v1/{}", kind.type_name()), body)
}

enum Transport {
    Ndjson(Client),
    Http(HttpClient),
}

impl Transport {
    fn connect(addr: &str, http: bool) -> Result<Transport, String> {
        Ok(if http {
            Transport::Http(HttpClient::connect(addr).map_err(|e| e.to_string())?)
        } else {
            Transport::Ndjson(Client::connect(addr).map_err(|e| e.to_string())?)
        })
    }

    /// The response's result document, rendered: byte-comparable
    /// across transports.
    fn call(&mut self, req: &Req) -> Result<String, String> {
        match self {
            Transport::Ndjson(client) => client
                .call(req.payload.clone(), None)
                .map(|result| result.render())
                .map_err(|e| e.to_string()),
            Transport::Http(client) => {
                let response = client
                    .post(&req.route, &req.body)
                    .map_err(|e| e.to_string())?;
                if response.status == 200 {
                    Ok(response.body)
                } else {
                    Err(format!("HTTP {}: {}", response.status, response.body))
                }
            }
        }
    }
}

struct Reply {
    conn: usize,
    index: usize,
    kind: Kind,
    slot: Option<usize>,
    latency_ms: f64,
    /// The result document when it is checked after the window;
    /// `Ok(None)` when it was checked in the client or needs no check.
    result: Result<Option<String>, String>,
}

/// The bodies one connection keeps: each slot's first reply, against
/// which the connection's later replies to that slot are compared as
/// they arrive, so a run's memory does not grow with its reply count.
#[derive(Default)]
struct FirstReplies(HashMap<usize, String>);

impl FirstReplies {
    /// What a reply keeps: slotted replies keep the slot's first body;
    /// unslotted ones keep theirs when `keep` is set.
    fn record(
        &mut self,
        slot: Option<usize>,
        keep: bool,
        result: Result<String, String>,
    ) -> Result<Option<String>, String> {
        let body = result?;
        match slot {
            Some(slot) => match self.0.get(&slot) {
                Some(first) if *first == body => Ok(None),
                Some(_) => Err(format!("differs from the first reply to slot {slot}")),
                None => {
                    self.0.insert(slot, body.clone());
                    Ok(Some(body))
                }
            },
            None => Ok(keep.then_some(body)),
        }
    }
}

struct Window {
    replies: Vec<Reply>,
    elapsed_s: f64,
}

impl Window {
    fn ok(&self) -> usize {
        self.replies.iter().filter(|r| r.result.is_ok()).count()
    }

    fn throughput(&self) -> f64 {
        self.ok() as f64 / self.elapsed_s
    }

    fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.replies
            .iter()
            .filter(|r| r.kind == kind && r.result.is_ok())
            .map(|r| r.latency_ms)
            .collect()
    }
}

static REQUEST_IDS: AtomicU64 = AtomicU64::new(1);

/// `CONNECTIONS` closed-loop clients, each sending its next request
/// only after the previous reply, until `seconds` have passed.
/// Connection `c` sends requests `first`, `first + 1`, … of its
/// sequence.
/// Unslotted replies keep their bodies for the in-process check when
/// `sampled(index)`.
fn drive(
    addr: &str,
    http: bool,
    seconds: f64,
    first: usize,
    request: &(dyn Fn(usize, usize) -> Req + Sync),
    sampled: fn(usize) -> bool,
    tracer: Option<&Tracer>,
) -> Result<Window, String> {
    let barrier = Barrier::new(CONNECTIONS + 1);
    let (replies, started) = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<Vec<Reply>, String> {
                    let transport = Transport::connect(addr, http);
                    barrier.wait();
                    let mut transport = transport?;
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    let mut replies = Vec::new();
                    let mut firsts = FirstReplies::default();
                    let mut index = first;
                    while Instant::now() < deadline {
                        let req = request(conn, index);
                        let t0 = Instant::now();
                        let result = match tracer {
                            Some(tracer) => {
                                let id = REQUEST_IDS.fetch_add(1, Ordering::Relaxed);
                                let name = format!("client.{}", req.kind.name());
                                tracer.span(&name, None, id, |_| transport.call(&req))
                            }
                            None => transport.call(&req),
                        };
                        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                        if result.is_err() {
                            // The connection may be gone; a fresh one
                            // keeps the loop closed.
                            transport = Transport::connect(addr, http)?;
                        }
                        replies.push(Reply {
                            conn,
                            index,
                            kind: req.kind,
                            slot: req.slot,
                            latency_ms,
                            result: firsts.record(req.slot, sampled(index), result),
                        });
                        index += 1;
                    }
                    Ok(replies)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let replies: Result<Vec<Vec<Reply>>, String> = threads
            .into_iter()
            .map(|t| t.join().map_err(|_| "client thread panicked".to_string())?)
            .collect();
        (replies, started)
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    Ok(Window {
        replies: replies?.into_iter().flatten().collect(),
        elapsed_s,
    })
}

/// [`IDLE_SOLVES`] solves sent back to back over NDJSON. Each arrives
/// just after the multiplexer's poll tick and waits out most of its
/// 0.5 ms park, a steady share of the round trip; arrivals jittered
/// across the tick, and the gateway's extra thread hops, moved the
/// median by a quarter between runs.
fn idle_solves(addr: &str, req: &Req) -> Result<Window, String> {
    let mut transport = Transport::connect(addr, false)?;
    let mut firsts = FirstReplies::default();
    let started = Instant::now();
    let replies = (0..IDLE_SOLVES)
        .map(|index| {
            let t0 = Instant::now();
            let result = transport.call(req);
            Reply {
                conn: CONNECTIONS,
                index,
                kind: Kind::Solve,
                slot: req.slot,
                latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                result: firsts.record(req.slot, false, result),
            }
        })
        .collect();
    Ok(Window {
        replies,
        elapsed_s: started.elapsed().as_secs_f64(),
    })
}

/// A running in-process server, with the gateway in front of it for
/// the HTTP workload.
struct Service {
    server: ServerHandle,
    gateway: Option<GatewayHandle>,
    backend: String,
    /// Where the clients connect: the gateway, or the server itself.
    front: String,
}

impl Service {
    fn start(data_dir: Option<PathBuf>, http: bool) -> Result<Service, String> {
        let server = Server::bind(ServerConfig {
            shards: crate::host::nproc(),
            data_dir,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("server bind: {e}"))?;
        let backend = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let server = server.spawn();
        let (gateway, front) = if http {
            let gateway = Gateway::bind(GatewayConfig {
                backend: backend.clone(),
                backend_pool: CONNECTIONS,
                ..GatewayConfig::default()
            })
            .map_err(|e| format!("gateway bind: {e}"))?;
            let front = gateway.local_addr().to_string();
            (Some(gateway.spawn()), front)
        } else {
            (None, backend.clone())
        };
        Ok(Service {
            server,
            gateway,
            backend,
            front,
        })
    }

    fn stats(&self) -> Result<ServerStats, String> {
        Client::connect(&self.backend)
            .map_err(|e| e.to_string())?
            .stats()
            .map_err(|e| e.to_string())
    }

    /// Drain and stop the server (and gateway), joining their threads.
    fn stop(self) -> Result<(), String> {
        match self.gateway {
            Some(gateway) => {
                let response = HttpClient::connect(&self.front)
                    .and_then(|mut c| c.post("/v1/shutdown", ""))
                    .map_err(|e| format!("gateway shutdown: {e}"))?;
                if response.status != 200 {
                    return Err(format!("gateway shutdown: HTTP {}", response.status));
                }
                gateway.join().map_err(|e| format!("gateway: {e}"))?;
            }
            None => Client::connect(&self.backend)
                .map_err(|e| e.to_string())?
                .shutdown()
                .map_err(|e| format!("server shutdown: {e}"))?,
        }
        self.server
            .join()
            .map(|_| ())
            .map_err(|e| format!("server: {e}"))
    }
}

/// SplitMix64 finalizer: decorrelated seeds from one workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Position `index` of connection `conn`'s walk over `len` items: every
/// lap of `len` requests visits each item once, in an order drawn from
/// the seed for that connection and lap. Connections walking one fixed
/// order settle into a relative phase that lasts the whole run, and
/// which requests meet on a shard, hence throughput and tails, then
/// moved with the run.
fn lap_order(seed: u64, conn: usize, index: usize, len: usize) -> usize {
    let key = mix(seed, ((conn as u64) << 40) | (index / len) as u64);
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, (mix(key, i as u64) % (i as u64 + 1)) as usize);
    }
    order[index % len]
}

/// The solve slot both serving workloads send: the `load_test` curve
/// samples, with the game's budget drawn from the seed.
fn solve_request(seed: u64) -> SolveRequest {
    SolveRequest {
        effect_samples: vec![(0.0, 2.0e-4), (0.1, 9.0e-5), (0.3, 1.5e-5), (0.45, -1.0e-6)],
        cost_samples: vec![(0.0, 0.0), (0.1, 0.009), (0.3, 0.04)],
        n_points: 600 + (seed % 97) as usize,
        resolution: 40,
        ..SolveRequest::default()
    }
}

fn knn_logreg() -> Scenario {
    Scenario::builder()
        .defense(DefenseSpec::Knn { k: 5 })
        .learner(LearnerSpec::LogReg)
        .build()
}

/// The cold workload's triples. At Spambase scale the boundary attack
/// (~160 ms per cell) and the kNN filter (~670 ms) would bury the
/// preparation this workload is about, so its cells poison with the
/// linear-time baselines and filter with the radius filter.
fn cold_scenario(logreg: bool) -> Scenario {
    if logreg {
        Scenario::builder()
            .attack(AttackSpec::RandomNoise)
            .learner(LearnerSpec::LogReg)
            .build()
    } else {
        Scenario::builder().attack(AttackSpec::LabelFlip).build()
    }
}

fn config(seed: u64, source: DataSource, epochs: usize) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        source,
        epochs,
        ..ExperimentConfig::paper()
    }
}

/// The `load_test` cycle: cell svm/radius, solve, estimate, cell
/// logreg/knn, each slot with its own seed drawn from the workload
/// seed. (`load_test` shares five seeds over the cycle; five
/// preparations land on two shards by hash anywhere from 5/0 to 3/2
/// depending on the seed, which moved throughput by ±20 % between
/// seeds. Thirty distinct preparations even that out, and still fit
/// the default per-shard cache bound of 32.)
fn warm_cycle(seed: u64) -> Vec<Req> {
    (0..WARM_CYCLE)
        .map(|i| {
            let cfg = config(
                mix(seed, i as u64),
                DataSource::SyntheticSpambase { rows: WARM_ROWS },
                WARM_EPOCHS,
            );
            let (kind, payload) = match i % 4 {
                0 => (
                    Kind::Cell,
                    RequestKind::Cell(CellRequest {
                        config: cfg,
                        ..CellRequest::default()
                    }),
                ),
                1 => (Kind::Solve, RequestKind::Solve(solve_request(seed))),
                2 => (
                    Kind::Estimate,
                    RequestKind::Estimate(EstimateRequest {
                        config: cfg,
                        placements: vec![0.05, 0.2],
                        strengths: vec![0.0, 0.2],
                    }),
                ),
                _ => (
                    Kind::Cell,
                    RequestKind::Cell(CellRequest {
                        config: cfg,
                        scenario: knn_logreg(),
                        ..CellRequest::default()
                    }),
                ),
            };
            Req::new(kind, Some(i), payload, true)
        })
        .collect()
}

/// Inputs of the cold workload: the generated file (pinned checksum)
/// and the inline body.
struct ColdInputs {
    data_dir: PathBuf,
    checksum: u64,
    inline: String,
    file_bytes: Vec<u8>,
}

/// Spambase-like rows as CSV with four decimals (the real file's
/// precision class), label last.
fn compact_csv(data: &Dataset) -> String {
    let mut out = String::new();
    for (x, y) in data.iter() {
        for v in x {
            out.push_str(&format!("{v:.4},"));
        }
        out.push_str(&format!("{}\n", y.to_bit()));
    }
    out
}

pub fn synthetic_csv(rows: usize, seed: u64) -> String {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    compact_csv(&spambase_like(&SpambaseConfig::small(rows), &mut rng))
}

fn cold_inputs(seed: u64, dir: &Path) -> Result<ColdInputs, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let text = synthetic_csv(FILE_ROWS, mix(seed, 0xf11e));
    let path = dir.join(FILE_NAME);
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(ColdInputs {
        data_dir: dir.to_path_buf(),
        checksum: poisongame::io::checksum_bytes(text.as_bytes()),
        inline: synthetic_csv(INLINE_ROWS, mix(seed, 0x1a1e)),
        file_bytes: text.into_bytes(),
    })
}

/// Request `index` of connection `conn`, with a fresh seed: every lap
/// sends each of the [`COLD_COMBINATIONS`] once.
fn cold_request(inputs: &ColdInputs, seed: u64, conn: usize, index: usize) -> Req {
    let cell_seed = mix(seed, ((conn as u64) << 40) | index as u64) & !WARMUP_SEED_BIT;
    cold_combination(
        inputs,
        cell_seed,
        lap_order(seed, conn, index, COLD_COMBINATIONS),
    )
}

/// Combination `combination` on `cell_seed`: kind `combination % 3`
/// (cell, estimate, cell) on source form `combination / 3` (chunked
/// file, whole file, inline text).
fn cold_combination(inputs: &ColdInputs, cell_seed: u64, combination: usize) -> Req {
    let (phase, form) = (combination % 3, combination / 3);
    let source = match form {
        0 | 1 => DataSource::File {
            path: FILE_NAME.to_string(),
            checksum: Some(inputs.checksum),
            format: "spambase".to_string(),
            chunk_rows: (form == 0).then_some(CHUNK_ROWS),
            max_inflight_chunks: None,
        },
        _ => DataSource::CsvText {
            text: inputs.inline.clone(),
        },
    };
    let cfg = ExperimentConfig {
        scenario: cold_scenario(false),
        ..config(cell_seed, source, COLD_EPOCHS)
    };
    match phase {
        0 => Req::new(
            Kind::Cell,
            None,
            RequestKind::Cell(CellRequest {
                scenario: cold_scenario(false),
                config: cfg,
                ..CellRequest::default()
            }),
            false,
        ),
        1 => Req::new(
            Kind::Estimate,
            None,
            RequestKind::Estimate(EstimateRequest {
                config: cfg,
                placements: vec![0.05, 0.2],
                strengths: vec![0.0, 0.2],
            }),
            false,
        ),
        _ => Req::new(
            Kind::Cell,
            None,
            RequestKind::Cell(CellRequest {
                config: cfg,
                scenario: cold_scenario(true),
                ..CellRequest::default()
            }),
            false,
        ),
    }
}

/// A file source names a path under the server's data dir; the
/// in-process reference reads the same file by its resolved path.
fn resolve(config: &ExperimentConfig, data_dir: Option<&Path>) -> ExperimentConfig {
    let mut config = config.clone();
    if let (DataSource::File { path, .. }, Some(root)) = (&mut config.source, data_dir) {
        *path = root.join(path.as_str()).display().to_string();
    }
    config
}

/// The response the server must send, computed in-process.
fn reference(payload: &RequestKind, data_dir: Option<&Path>) -> Result<String, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    match payload {
        RequestKind::Cell(req) => run_matrix_with(
            &resolve(&req.config, data_dir),
            &req.as_matrix(),
            &ExecPolicy::sequential(),
        )
        .map(|r| r.to_json().render())
        .map_err(|e| err(&e)),
        RequestKind::Estimate(req) => estimate_curves(
            &resolve(&req.config, data_dir),
            &req.placements,
            &req.strengths,
        )
        .map(|c| c.to_json().render())
        .map_err(|e| err(&e)),
        RequestKind::Solve(req) => {
            let game = solve_game(req)?;
            let solution =
                solve_discretized_with(&game, req.resolution, req.solver).map_err(|e| err(&e))?;
            Ok(SolveResult {
                value: solution.value,
                solver: solution.solver.clone(),
                defender_support: solution.defender_strategy.support().to_vec(),
                defender_probabilities: solution.defender_strategy.probabilities().to_vec(),
                attacker_support: solution.attacker_support.clone(),
            }
            .to_json()
            .render())
        }
        _ => Err("no in-process reference for this request kind".to_string()),
    }
}

fn solve_game(req: &SolveRequest) -> Result<PoisonGame, String> {
    let effect = EffectCurve::from_samples(&req.effect_samples).map_err(|e| e.to_string())?;
    let cost = CostCurve::from_samples(&req.cost_samples).map_err(|e| e.to_string())?;
    PoisonGame::new(effect, cost, req.n_points).map_err(|e| e.to_string())
}

/// Counters the program exports, read at the edges of a window.
struct Counters {
    timing: TimingSnapshot,
    pool: PoolStats,
    io: [u64; 6],
    server: ServerStats,
}

fn io_counters() -> [u64; 6] {
    let m = poisongame::io::telemetry::metrics();
    [
        m.rows.get(),
        m.bytes.get(),
        m.chunks.get(),
        m.parse_nanos.snapshot().sum,
        m.fallback.get(),
        m.checksum_mismatch.get(),
    ]
}

impl Counters {
    fn read(service: &Service) -> Result<Counters, String> {
        Ok(Counters {
            timing: timing::snapshot(),
            pool: WorkerPool::global().stats(),
            io: io_counters(),
            server: service.stats()?,
        })
    }
}

/// Per-layer numbers derived from two counter readings around a
/// window of `elapsed_s`.
fn counter_metrics(before: &Counters, after: &Counters, elapsed_s: f64, report: &mut Report) {
    let (b, a) = (&before.server, &after.server);
    layers::phase_metrics(
        &after.timing.since(&before.timing),
        (
            a.cache_hits - b.cache_hits,
            a.cache_misses - b.cache_misses,
            a.cache_evictions - b.cache_evictions,
        ),
        &after.pool.since(&before.pool),
        report,
    );
    let io: Vec<u64> = (0..6).map(|i| after.io[i] - before.io[i]).collect();
    report.metric(
        "io.mb_per_s",
        if io[3] == 0 {
            0.0
        } else {
            io[1] as f64 / 1e6 / (io[3] as f64 / 1e9)
        },
        "MB/s",
    );
    report.metric("io.rows_total", io[0] as f64, "count");
    report.metric("io.chunks_total", io[2] as f64, "count");
    report.metric("io.fallback_total", io[4] as f64, "count");
    report.metric("io.checksum_mismatch_total", io[5] as f64, "count");
    // Shards are matched by index; a resize would reset them, and no
    // workload resizes.
    let shards = a.shards.len().max(1);
    let busy: u64 = a
        .shards
        .iter()
        .zip(&b.shards)
        .map(|(a, b)| a.busy_micros - b.busy_micros)
        .sum();
    report.metric(
        "serve.busy_frac",
        busy as f64 / 1e6 / (shards as f64 * elapsed_s),
        "ratio",
    );
    let completed: Vec<u64> = a
        .shards
        .iter()
        .zip(&b.shards)
        .map(|(a, b)| a.completed - b.completed)
        .collect();
    let max = completed.iter().copied().max().unwrap_or(0);
    let min = completed.iter().copied().min().unwrap_or(0);
    report.metric("serve.shard_skew", max as f64 / min.max(1) as f64, "ratio");
    let queue_p99 = a
        .telemetry
        .as_ref()
        .map(|t| {
            t.kinds
                .iter()
                .map(|k| k.queue_wait_p99_nanos)
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);
    report.metric("serve.queue_wait_p99_ms", queue_p99 as f64 / 1e6, "ms");
    report.metric("serve.shed", (a.shed - b.shed) as f64, "count");
    report.metric("serve.failed", (a.failed - b.failed) as f64, "count");
}

/// Median HTTP-minus-NDJSON time of the same solve request, in µs.
fn gateway_hop_us(service: &Service, req: &Req) -> Result<f64, String> {
    let mut http = Transport::connect(&service.front, true)?;
    let mut ndjson = Transport::connect(&service.backend, false)?;
    let (mut over_http, mut over_ndjson) = (Vec::new(), Vec::new());
    for _ in 0..40 {
        for (transport, out) in [(&mut http, &mut over_http), (&mut ndjson, &mut over_ndjson)] {
            let t0 = Instant::now();
            transport.call(req)?;
            out.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(median(&over_http) - median(&over_ndjson))
}

struct Workload {
    http: bool,
    data_dir: Option<PathBuf>,
    requests: Box<dyn Fn(usize, usize) -> Req + Sync>,
    /// Requests sent before timing starts.
    warmup: Vec<Req>,
    /// Whether an unslotted reply (by request index) is re-derived
    /// in-process; slotted replies are re-derived once per slot.
    sampled: fn(usize) -> bool,
    /// Cells the traced run replays layer by layer.
    probes: Vec<CellRequest>,
    layer_inputs: LayerInputs,
}

fn warm_workload(seed: u64) -> Workload {
    let cycle = warm_cycle(seed);
    let probes = cycle[..4]
        .iter()
        .filter_map(|r| match &r.payload {
            RequestKind::Cell(req) => Some(req.clone()),
            _ => None,
        })
        .collect();
    let solve = solve_request(seed);
    let layer_inputs = LayerInputs {
        csv: synthetic_csv(FILE_ROWS, mix(seed, 0xf11e)),
        game: solve_game(&solve).expect("the solve slot's curves are valid"),
    };
    let warmup = cycle.clone();
    Workload {
        http: true,
        data_dir: None,
        requests: Box::new(move |conn, i| cycle[lap_order(seed, conn, i, WARM_CYCLE)].clone()),
        warmup,
        // Every request is slotted.
        sampled: |_| false,
        probes,
        layer_inputs,
    }
}

fn cold_workload(seed: u64, inputs: ColdInputs) -> Workload {
    let data_dir = inputs.data_dir.clone();
    // Warm-up: each kind once and each form once, on warm-up seeds.
    let warmup = COLD_DIAGONAL
        .iter()
        .map(|&c| cold_combination(&inputs, mix(seed, c as u64) | WARMUP_SEED_BIT, c))
        .collect();
    let probes = COLD_DIAGONAL
        .iter()
        .filter_map(|&c| {
            match cold_combination(&inputs, mix(seed, c as u64) & !WARMUP_SEED_BIT, c).payload {
                RequestKind::Cell(req) => Some(CellRequest {
                    config: resolve(&req.config, Some(&data_dir)),
                    ..req
                }),
                _ => None,
            }
        })
        .collect();
    let solve = solve_request(seed);
    let layer_inputs = LayerInputs {
        csv: String::from_utf8(inputs.file_bytes.clone()).expect("generated CSV is UTF-8"),
        game: solve_game(&solve).expect("the solve slot's curves are valid"),
    };
    Workload {
        http: false,
        data_dir: Some(data_dir),
        requests: Box::new(move |conn, i| cold_request(&inputs, seed, conn, i)),
        warmup,
        // The first rounds of every connection cover each kind on each
        // source form.
        sampled: |index| index < COLD_SAMPLED_REQUESTS,
        probes,
        layer_inputs,
    }
}

/// Bring up the service and warm it; returns the service and the
/// set-up time.
fn set_up(
    workload_of: &dyn Fn(u64) -> Result<Workload, String>,
    seed: u64,
) -> Result<(Service, Workload, f64), String> {
    let t0 = Instant::now();
    WorkerPool::global();
    let workload = workload_of(seed)?;
    let service = Service::start(workload.data_dir.clone(), workload.http)?;
    let mut client = Transport::connect(&service.front, workload.http)?;
    for req in &workload.warmup {
        client.call(req).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok((service, workload, t0.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, work_dir: &Path) -> Result<Report, String> {
    let cold = args.workload == "serve_cold_ndjson";
    let seed = args.seed;
    let data_dir = work_dir.join(format!("cold-{seed}"));
    let workload_of = |seed: u64| -> Result<Workload, String> {
        Ok(if cold {
            cold_workload(seed, cold_inputs(seed, &data_dir)?)
        } else {
            warm_workload(seed)
        })
    };
    let mut report = Report::default();
    let (service, workload, first_setup_s) = set_up(&workload_of, seed)?;

    let tracer = Tracer::new();
    let seconds = args.seconds as f64;
    let (window, traced) = if args.trace {
        // Half untraced, half traced: the difference is the tracing
        // overhead; the layer counters cover the traced half.
        let untraced = drive(
            &service.front,
            workload.http,
            seconds / 2.0,
            0,
            &*workload.requests,
            workload.sampled,
            None,
        )?;
        let before = Counters::read(&service)?;
        // The traced half continues each connection's sequence, so the
        // cold workload's seeds stay fresh.
        let traced = drive(
            &service.front,
            workload.http,
            seconds / 2.0,
            TRACED_FIRST_INDEX,
            &*workload.requests,
            workload.sampled,
            Some(&tracer),
        )?;
        let after = Counters::read(&service)?;
        counter_metrics(&before, &after, traced.elapsed_s, &mut report);
        report.metric(
            "trace.overhead_frac",
            1.0 - traced.throughput() / untraced.throughput(),
            "ratio",
        );
        (untraced, Some(traced))
    } else {
        let window = drive(
            &service.front,
            workload.http,
            seconds,
            0,
            &*workload.requests,
            workload.sampled,
            None,
        )?;
        (window, None)
    };
    // Under load a solve (it has no preparation, so it goes to the
    // least-queued shard, shard 0 when both queues are empty) waits about
    // half the time for the cell that shard is running, and its median
    // flips between the two cases from run to run. `solve_p50_ms` is
    // therefore timed on the idle server, after the window: the solver
    // plus the mux path. The gateway's share is `gateway.hop_us`.
    let solve = Req::new(
        Kind::Solve,
        Some(usize::MAX),
        RequestKind::Solve(solve_request(seed)),
        workload.http,
    );
    let solve_of = |_: usize, _: usize| solve.clone();
    let solves = idle_solves(&service.backend, &solve)?;
    // Read before the in-process checks, which are the benchmark's work.
    let peak_rss_mb = crate::host::peak_rss_mb();
    let io_at_end = io_counters();

    // Correctness: every reply succeeded, replies sharing a slot agree
    // byte for byte, and sampled replies equal the in-process result.
    type RequestOf<'a> = &'a (dyn Fn(usize, usize) -> Req + Sync);
    let all: Vec<(&Reply, RequestOf)> = window
        .replies
        .iter()
        .chain(traced.iter().flat_map(|w| w.replies.iter()))
        .map(|r| (r, &*workload.requests as RequestOf))
        .chain(solves.replies.iter().map(|r| (r, &solve_of as RequestOf)))
        .collect();
    let mut failed = 0u64;
    let mut canonical: BTreeMap<usize, &str> = BTreeMap::new();
    let mut checked: BTreeSet<usize> = BTreeSet::new();
    let mut rederived = 0usize;
    for &(reply, request_of) in &all {
        let body = match &reply.result {
            Ok(Some(body)) => body,
            Ok(None) => continue,
            Err(e) => {
                failed += 1;
                report.problem(format!(
                    "{} request {} on connection {} failed: {e}",
                    reply.kind.name(),
                    reply.index,
                    reply.conn
                ));
                continue;
            }
        };
        if let Some(slot) = reply.slot {
            match canonical.get(&slot) {
                None => {
                    canonical.insert(slot, body);
                }
                Some(first) if *first == body => {}
                Some(_) => {
                    failed += 1;
                    report.problem(format!(
                        "slot {slot}: connection {} request {} disagrees with an earlier reply",
                        reply.conn, reply.index
                    ));
                    continue;
                }
            }
        }
        if reply.slot.is_some_and(|s| checked.contains(&s)) {
            continue;
        }
        let req = request_of(reply.conn, reply.index);
        let matches =
            reference(&req.payload, workload.data_dir.as_deref()).as_deref() == Ok(body.as_str());
        rederived += 1;
        if let Some(slot) = reply.slot {
            checked.insert(slot);
        }
        if !matches {
            failed += 1;
            report.problem(format!(
                "{} request {} on connection {}: reply differs from the in-process result",
                reply.kind.name(),
                reply.index,
                reply.conn
            ));
        }
    }
    report.note(format!(
        "{} replies checked; {rederived} re-derived by the in-process pipeline",
        all.len()
    ));
    if cold {
        // A mis-pathed file would silently benchmark the synthetic
        // generator instead of the reader.
        if io_at_end[4] != 0 || io_at_end[5] != 0 {
            failed += 1;
            report.problem(format!(
                "file sources fell back or failed their checksum: fallback {} mismatch {}",
                io_at_end[4], io_at_end[5]
            ));
        }
        if io_at_end[0] == 0 {
            failed += 1;
            report.problem("no rows were read from the data dir".to_string());
        }
    }
    report.attempted = all.len() as u64;
    report.failed = failed;

    if args.trace {
        let hop = if workload.http {
            gateway_hop_us(&service, &solve)?
        } else {
            0.0
        };
        report.metric("gateway.hop_us", hop, "us");
        layers::measure(
            &workload.probes,
            &workload.layer_inputs,
            &tracer,
            &mut report,
        )?;
        report.spans = Some(tracer);
    } else {
        report.metric("throughput_rps", window.throughput(), "1/s");
        let cells = window.latencies(Kind::Cell);
        report.latencies("cell_p50_ms", Some(("cell_p90_ms", TAIL_PCT)), &cells);
        let estimates = window.latencies(Kind::Estimate);
        report.latencies(
            "estimate_p50_ms",
            Some(("estimate_p90_ms", TAIL_PCT)),
            &estimates,
        );
        report.latencies("solve_p50_ms", None, &solves.latencies(Kind::Solve));
        report.metric("peak_rss_mb", peak_rss_mb, "MB");
    }
    let errors = report.failed as f64 / report.attempted.max(1) as f64;
    report.note(format!(
        "error_rate {errors} ({} of {} attempted)",
        report.failed, report.attempted
    ));
    service.stop()?;
    // The other set-ups, each on a fresh service, run after the window,
    // so that `peak_rss_mb` covers the life of one service: run before
    // it, they raised the peak by anywhere from 2.5 to 6.7 MB.
    let mut setup_times = vec![first_setup_s];
    if !args.trace {
        for _ in 1..SETUPS {
            let (service, _, secs) = set_up(&workload_of, seed)?;
            setup_times.push(secs);
            service.stop()?;
        }
        report.metric("setup_s", median(&setup_times), "s");
    }
    report.note(format!(
        "set-up: {} × [{}] s",
        setup_times.len(),
        setup_times
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if cold {
        // Best effort: the directory only holds this run's inputs.
        let _ = std::fs::remove_dir_all(&data_dir);
    }
    Ok(report)
}
