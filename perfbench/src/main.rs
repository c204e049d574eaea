//! The DDoShield-IoT benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload live_detection --seed 7 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! runs the traced variant that reports the per-layer metrics and
//! writes its spans to `.bench_out/`. Every run checks the program's
//! outputs; the last stdout line is the JSON result, and the process
//! exits non-zero if any check failed. `METRICS.md` documents each
//! metric, the layer-to-end-to-end mapping and the failure fractions.

mod live;
mod metrics;
mod provenance;
mod serving;
mod sharded;
mod stats;
mod trace;

use std::time::{Duration, Instant};

use metrics::Values;
use trace::Tracer;

/// What the command line asks for.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Scenario seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Cores available to the process (`nproc`).
    pub nproc: usize,
    /// When the run started.
    pub started: Instant,
}

/// Repetitions always measured: the identity checks compare two.
pub const MIN_REPS: usize = 2;

/// Whether to start another repetition: always until [`MIN_REPS`], then
/// while one more repetition of the mean length so far still ends
/// within `--seconds` of the run's start, up to `max`. Stopping before
/// the budget, not after it, keeps every run's length predictable.
pub fn another_rep(config: &RunConfig, done: usize, loop_start: Instant, max: usize) -> bool {
    if done < MIN_REPS {
        return true;
    }
    let per_rep = loop_start.elapsed() / done as u32;
    done < max && config.started.elapsed() + per_rep <= config.seconds
}

/// Correctness bookkeeping: each timed operation counts as attempted,
/// and as failed if any of its checks failed.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Descriptions of every failed check.
    pub errors: Vec<String>,
}

impl Ledger {
    /// Records one operation and the checks it failed (empty = passed).
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.errors.extend(problems);
        }
    }
}

/// What a workload run produces.
#[derive(Debug)]
pub struct Outcome {
    /// Metric values (end-to-end or per-layer, by mode).
    pub values: Values,
    /// Correctness bookkeeping.
    pub ledger: Ledger,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
    /// Virtual seconds one repetition simulates in its timed region.
    pub virtual_s: f64,
    /// Repetitions measured.
    pub reps: usize,
    /// Worker threads the sharded runs used (0 when not sharded).
    pub shard_workers: usize,
}

impl Outcome {
    fn new(virtual_s: f64) -> Self {
        Outcome {
            values: Values::new(),
            ledger: Ledger::default(),
            notes: Vec::new(),
            tracer: None,
            virtual_s,
            reps: 0,
            shard_workers: 0,
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }
}

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 3] = ["live_detection", "serving_chaos", "sharded_100k"];

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Ok(RunConfig {
        workload,
        seed,
        seconds: Duration::from_secs(seconds.max(1)),
        trace,
        nproc,
        started: Instant::now(),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut outcome = match config.workload.as_str() {
        "live_detection" => live::run(&config),
        "serving_chaos" => serving::run(&config),
        _ => sharded::run(&config),
    };
    if !config.trace {
        outcome.set("peak_rss_mb", provenance::peak_rss_mb());
    }

    println!("{}", provenance::line(&config, &outcome));
    for note in &outcome.notes {
        println!("{note}");
    }
    if let Some(tracer) = &outcome.tracer {
        match provenance::write_spans(&config, tracer) {
            Ok(path) => println!("spans: {path}"),
            Err(e) => outcome.ledger.op(vec![format!("writing spans: {e}")]),
        }
    }
    let schema = if config.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    if !config.trace {
        // End-to-end metrics are measured on every workload and never 0.
        let missing: Vec<String> = schema
            .iter()
            .filter(|d| outcome.values.get(&d.name).copied().unwrap_or(0.0) == 0.0)
            .map(|d| format!("end-to-end metric {} was not measured", d.name))
            .collect();
        if !missing.is_empty() {
            outcome.ledger.op(missing);
        }
    }
    for error in &outcome.ledger.errors {
        println!("CHECK FAILED: {error}");
    }
    let correct = outcome.ledger.errors.is_empty();
    match metrics::result_line(
        &schema,
        &outcome.values,
        correct,
        outcome.ledger.attempted.max(1),
        outcome.ledger.failed,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
