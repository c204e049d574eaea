//! Where a number came from: cores, threads, seed, commit, virtual
//! length, and the process's peak memory. Also writes the span file.

use std::fmt::Write as _;
use std::path::Path;

use crate::trace::Tracer;
use crate::{Outcome, RunConfig};

/// Directory (relative to the working directory) the span files go to.
const OUT_DIR: &str = ".bench_out";

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// The commit of the checkout, read from `.git` in the working
/// directory without running git; `unknown` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON line recording what the run measured on.
pub fn line(config: &RunConfig, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"rayon_threads\": {}, \"shard_workers\": {}, \"commit\": \"{}\", \"virtual_s_per_rep\": {}, \
         \"reps\": {}, \"seconds\": {}}}}}",
        config.workload,
        config.seed,
        u8::from(config.trace),
        config.nproc,
        rayon::current_num_threads(),
        outcome.shard_workers,
        commit(),
        outcome.virtual_s,
        outcome.reps,
        config.seconds.as_secs(),
    );
    out
}

/// Writes the traced run's spans to
/// `.bench_out/spans-<workload>-seed<seed>.json`, returning the path.
pub fn write_spans(config: &RunConfig, tracer: &Tracer) -> std::io::Result<String> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!(
        "{OUT_DIR}/spans-{}-seed{}.json",
        config.workload, config.seed
    );
    std::fs::write(&path, tracer.to_json())?;
    Ok(path)
}
