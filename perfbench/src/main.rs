//! The repository's benchmark: three workloads, each measured end to
//! end (`--trace 0`) or split by layer in a separate traced run
//! (`--trace 1`). See `README.md` for what each metric means on each
//! workload.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm_http --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A wrong output
//! anywhere makes `correct` false and the exit code 1.

mod host;
mod layers;
mod serving;
mod stats;
mod table1;
mod trace;

use poisongame::sim::jsonio::Json;
use stats::Percentile;
use std::path::{Path, PathBuf};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["serve_warm_http", "serve_cold_ndjson", "paper_table1"];

/// The benchmark's declaration, one directory up from this package.
const DECLARATION: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `(name, unit)` of every metric `BENCHMARK.json` declares under
/// `section` (`end_to_end` or `per_layer`), sorted.
fn declared_metrics(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(DECLARATION).map_err(|e| format!("{DECLARATION}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{DECLARATION}: {e}"))?;
    let mut out: Vec<(String, String)> = doc
        .get(section)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{DECLARATION}: no `{section}` list"))?
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("{DECLARATION}: a `{section}` entry lacks name or unit"))
        })
        .collect::<Result<_, _>>()?;
    out.sort();
    Ok(out)
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What one run found: counts, metrics, and every correctness
/// violation.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    percentiles: Vec<(&'static str, Percentile)>,
    pub spans: Option<Tracer>,
}

impl Report {
    /// An end-to-end (`--trace 0`) or per-layer (`--trace 1`) metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Latency samples in ms: their median as the metric `p50`, and
    /// with `tail = (name, pct)` their `pct` percentile as `name` on the
    /// provenance line only, each with its sample counts. The tails
    /// carry no bound: between runs of the same code on a shared 2-core
    /// host their spread exceeded the largest bound a metric may have.
    pub fn latencies(
        &mut self,
        p50: &'static str,
        tail: Option<(&'static str, f64)>,
        values: &[f64],
    ) {
        self.metric(p50, stats::median(values), "ms");
        self.percentiles
            .push((p50, stats::percentile(values, 50.0)));
        if let Some((name, pct)) = tail {
            self.percentiles
                .push((name, stats::percentile(values, pct)));
        }
    }

    pub fn problem(&mut self, message: String) {
        self.problems.push(message);
    }

    pub fn note(&mut self, message: String) {
        self.notes.push(message);
    }
}

fn provenance(args: &Args, report: &Report) -> Json {
    let percentiles = report
        .percentiles
        .iter()
        .map(|(name, p)| {
            (
                *name,
                Json::obj(vec![
                    ("percentile", Json::Num(p.pct)),
                    ("value_ms", Json::Num(p.value)),
                    ("samples", Json::Num(p.samples as f64)),
                    ("beyond", Json::Num(p.beyond as f64)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("cpu", Json::str(&host::cpu_model())),
        ("rustc", Json::str(host::rustc_version())),
        ("git_sha", Json::str(&host::git_sha(Path::new(".")))),
        ("percentiles", Json::obj(percentiles)),
        (
            "unmeasured_layers",
            Json::Arr(
                ["online", "linalg", "obs"]
                    .into_iter()
                    .map(Json::str)
                    .collect(),
            ),
        ),
    ])
}

/// What each workload claims to stress, checked on its traced run.
/// A violated claim is reported, not failed: it says the workload no
/// longer measures what it was chosen for, not that an output is wrong.
fn predictions(workload: &str, report: &Report) -> Vec<(&'static str, bool)> {
    let m = |name: &str| {
        report
            .metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(f64::NAN, |(_, v, _)| *v)
    };
    match workload {
        "serve_warm_http" => vec![
            ("fit is over 90% of prep+fit+eval", m("sim.fit_share") > 0.9),
            (
                "prep cache hit rate over 0.95",
                m("sim.cache_hit_rate") > 0.95,
            ),
        ],
        "serve_cold_ndjson" => vec![
            ("prep outweighs fit", m("sim.prep_ms") > m("sim.fit_ms")),
            (
                "prep cache hit rate under 0.05",
                m("sim.cache_hit_rate") < 0.05,
            ),
            ("rows were read from files", m("io.rows_total") > 0.0),
        ],
        _ => vec![
            ("no file source is read", m("io.rows_total") == 0.0),
            ("fit dominates the phase counters", m("sim.fit_share") > 0.5),
        ],
    }
}

fn run(args: &Args, work_dir: &Path) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "paper_table1" => table1::run(args)?,
        _ => serving::run(args, work_dir)?,
    };
    if args.trace {
        let tracer = report.spans.take().expect("traced runs keep their spans");
        let spans = tracer.spans();
        report.metric("trace.spans", spans.len() as f64, "count");
        let replays = spans.iter().filter(|s| s.name == "replay.cell").count();
        report.metric("trace.replay_cells", replays as f64, "count");
        for (name, t) in tracer.totals() {
            report.note(format!(
                "span {name}: {} × total {:.3} ms, self {:.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        let path = work_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        report.note(format!("spans written to {}", path.display()));
        for (claim, holds) in predictions(&args.workload, &report) {
            let verdict = if holds { "holds" } else { "VIOLATED" };
            report.note(format!("prediction {verdict}: {claim}"));
        }
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // Everything the benchmark writes stays inside its own directory.
    let work_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work"));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("{}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let mut report = match run(&args, &work_dir) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            std::process::exit(1);
        }
    };
    // Every run reports exactly the metrics BENCHMARK.json declares
    // for its mode, in the declared units.
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut reported: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
        .collect();
    reported.sort();
    match declared_metrics(section) {
        Ok(declared) if declared == reported => {}
        Ok(declared) => report.problem(format!(
            "reported metrics {reported:?} differ from the declared {section} {declared:?}"
        )),
        Err(e) => report.problem(e),
    }

    for note in &report.notes {
        println!("{note}");
    }
    for problem in &report.problems {
        println!("FAILED: {problem}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    println!("provenance {}", provenance(&args, &report).render());
    let correct = report.problems.is_empty();
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                *name,
                Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(unit)),
                ]),
            )
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}
