//! `sharded_100k`: the 100k-device, 64-cell sharded chaos run for one
//! virtual second, once on one worker and once on `nproc` workers.
//!
//! `netsim` and the shard coordinator do all the work; the detector is
//! a fixed threshold, so `ml` does none. Set-up is the same plan cut to
//! one virtual millisecond: building and finishing the 64 cell worlds
//! on one worker, with almost nothing simulated.

use std::time::Instant;

use ddoshield::shardplan::{run_sharded_chaos, ShardPlanConfig, ShardedChaosReport};
use netsim::time::{SimDuration, SimTime};

use crate::stats::median;
use crate::trace::Tracer;
use crate::{another_rep, Outcome, RunConfig};

/// Upper bound on repetitions, whatever `--seconds` asks for.
const MAX_REPS: usize = 20;

/// Cross-shard conservation and clock checks of one run.
fn problems(report: &ShardedChaosReport, end: SimTime, label: &str) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(v) = report.stats.conservation_violation() {
        problems.push(format!("{label}: {v}"));
    }
    if let Some(v) = report.stats.clock_violation(end) {
        problems.push(format!("{label}: {v}"));
    }
    problems
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let plan = ShardPlanConfig::bench_100k(config.seed);
    let end = SimTime::ZERO + plan.duration;
    let workers = config.nproc.min(plan.cells);
    let mut out = Outcome::new(plan.duration.as_secs_f64());
    out.shard_workers = workers;
    let mut tracer = config.trace.then(|| Tracer::new("sharded_100k"));
    let begun = Instant::now();
    let mut first: Option<String> = None;
    let (mut setup, mut w1, mut wn, mut speedup) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut stats = None;
    let mut rep = 0;
    while another_rep(config, rep, begun, MAX_REPS) {
        let root = tracer.as_mut().map(|t| t.open("shard.rep", None, rep, ""));
        let mut build = plan.clone();
        build.duration = SimDuration::from_millis(1);
        let t = Instant::now();
        let built = run_sharded_chaos(&build);
        let t_built = Instant::now();
        setup.push((t_built - t).as_secs_f64());
        let mut problems = problems(&built, SimTime::ZERO + build.duration, "set-up");

        // Alternate which worker count runs first.
        let order: [(usize, &'static str); 2] = if rep % 2 == 0 {
            [(1, "w1"), (workers, "wn")]
        } else {
            [(workers, "wn"), (1, "w1")]
        };
        let mut outputs = Vec::new();
        let mut spans = Vec::new();
        for (shards, label) in order {
            let mut run = plan.clone();
            run.shards = shards;
            let t = Instant::now();
            let report = run_sharded_chaos(&run);
            let secs = t.elapsed().as_secs_f64();
            spans.push((t, Instant::now(), label));
            if label == "w1" {
                w1.push(secs);
            } else {
                wn.push(secs);
                stats.get_or_insert(report.stats.clone());
            }
            problems.extend(self::problems(&report, end, label));
            outputs.push(report.output());
        }
        if outputs[0] != outputs[1] {
            problems.push(format!("output differs between 1 and {workers} workers"));
        }
        match &first {
            None => first = Some(outputs[0].clone()),
            Some(f) if *f != outputs[0] => {
                problems.push("output differs between repetitions".into())
            }
            Some(_) => {}
        }
        speedup.push(w1[rep] / wn[rep]);
        if let (Some(tracer), Some(root)) = (tracer.as_mut(), root) {
            tracer.record("netsim.shard.build", t, t_built, Some(root), rep, "");
            for (start, stop, label) in spans {
                tracer.record("netsim.shard.run", start, stop, Some(root), rep, label);
            }
            tracer.close(root);
        }
        out.ledger.op(problems);
        rep += 1;
    }
    out.reps = rep;
    if config.trace {
        let stats = stats.expect("at least one repetition");
        let events = stats.events_processed.max(1) as f64;
        out.set("netsim.shard.build_s", median(&setup));
        out.set("netsim.shard.wall_s.w1", median(&w1));
        out.set("netsim.shard.wall_s.wn", median(&wn));
        out.set("netsim.shard.workers", workers as f64);
        out.set("netsim.shard.rounds", stats.rounds as f64);
        out.set("netsim.shard.cross_sent", stats.cross_sent as f64);
        out.set("netsim.shard.events", stats.events_processed as f64);
        out.set("netsim.shard.ns_per_event.w1", median(&w1) * 1e9 / events);
        out.set("netsim.shard.ns_per_event.wn", median(&wn) * 1e9 / events);
        out.set("netsim.shard.speedup", median(&speedup));
        out.tracer = tracer;
    } else {
        out.set("setup_s", median(&setup));
        out.set(
            "sim_rate",
            median(&wn.iter().map(|w| out.virtual_s / w).collect::<Vec<_>>()),
        );
    }
    out.notes.push(format!(
        "sharded: wall median {:.4} s on 1 worker, {:.4} s on {workers} workers (speedup {:.3}) over {rep} reps",
        median(&w1),
        median(&wn),
        median(&speedup)
    ));
    out
}
