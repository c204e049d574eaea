//! `serving_chaos`: E13, the long-lived serving layer under the full
//! chaos fault plan, split into set-up and a timed
//! `Testbed::run_live_serving`.
//!
//! Two tenants (the TServer link on a drop-oldest queue, device 0 on
//! sampled degradation), challenger promotion mid-run and background
//! retrains, configured exactly as `run_serving_detection`; each run
//! checks its split against one `run_serving_detection` call. The
//! traced variant also runs the identical scenario with an idle IDS
//! (same timer cadence, no detection) to separate simulation time from
//! serving time, after checking both runs dispatched the same events.

use std::time::Instant;

use ddoshield::experiments::{
    chaos_scenario, run_serving_detection, run_training_capture, train_serving_models,
    ExperimentScale,
};
use ddoshield::testbed::{ServingRunReport, ServingTenantTarget};
use ids::pipeline::{ModelKind, TrainedIds};
use ids::serving::{BackpressurePolicy, RetrainPolicy, ServingConfig, TenantConfig};
use ml::kmeans::KMeansConfig;
use netsim::packet::Provenance;
use netsim::time::SimDuration;
use netsim::world::{App, Ctx};

use crate::live::{epoch_offset, phase_events, ready_testbed, record_setup, scale};
use crate::metrics::{PHASES, TENANTS, TENANT_COUNTERS};
use crate::stats::{fraction, median};
use crate::trace::Tracer;
use crate::{another_rep, Outcome, RunConfig};

/// Upper bound on repetitions, whatever `--seconds` asks for.
const MAX_REPS: usize = 40;

/// E13 at the quick profile's capture and model sizes, with a live
/// phase three times as long (210 virtual s): one serving run then
/// outlasts the host's short contention episodes. Promotion, retrain
/// cadence and the fault plan all scale with the live length, so the
/// run keeps E13's shape: two tenants, a mid-run promotion, four
/// background retrains and every fault of the chaos plan.
pub fn serving_scale() -> ExperimentScale {
    ExperimentScale {
        live_secs: 210,
        ..scale()
    }
}

/// The serving configuration and tenants of `run_serving_detection`.
fn e13_config(
    seed: u64,
    scale: &ExperimentScale,
    champion: TrainedIds,
    challenger: TrainedIds,
) -> (ServingConfig, Vec<(TenantConfig, ServingTenantTarget)>) {
    let mut config = ServingConfig::new(champion);
    config.challenger = Some(challenger);
    config.promote_challenger_at_tick = Some(scale.live_secs / 2);
    config.promote_delay_ticks = 2;
    config.retrain = Some(RetrainPolicy {
        every_windows: (scale.live_secs / 4).max(4),
        delay_windows: 2,
        kind: ModelKind::KMeans(KMeansConfig {
            k_max: 8,
            ..KMeansConfig::default()
        }),
        replay_capacity: scale.max_train_samples.min(4_000),
        rng_salt: seed ^ 0x5e47e,
    });
    let mut tserver = TenantConfig::new("tserver");
    tserver.queue_capacity = 512;
    tserver.policy = BackpressurePolicy::DropOldest;
    tserver.budget.drain_records_per_tick = 256;
    let mut dev0 = TenantConfig::new("dev0");
    dev0.queue_capacity = 256;
    dev0.policy = BackpressurePolicy::DegradeSampled { keep: 2 };
    dev0.budget.drain_records_per_tick = 128;
    let tenants = vec![
        (tserver, ServingTenantTarget::TServer),
        (dev0, ServingTenantTarget::Device(0)),
    ];
    (config, tenants)
}

/// Every tenant's log and counters, as one comparable text.
fn fingerprint(report: &ServingRunReport) -> String {
    let mut text = format!(
        "gen={} swaps={} retrains={}\n",
        report.generation, report.swaps, report.retrains
    );
    for t in &report.tenants {
        text.push_str(&format!(
            "# {} {:?}\n{}",
            t.name,
            t.counters,
            t.log.serialize_compact()
        ));
    }
    text
}

/// Conservation and generation checks of one serving run.
fn problems(report: &ServingRunReport) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(v) = report.handle.conservation_violation() {
        problems.push(format!("serving conservation: {v}"));
    }
    for t in &report.tenants {
        if let Some(v) = t.log.generation_violation() {
            problems.push(format!("tenant {}: {v}", t.name));
        }
    }
    problems
}

/// An IDS that only keeps the serving layer's timer cadence: the twin
/// of the serving run, without detection.
struct IdleIds {
    window_secs: u64,
}

impl App for IdleIds {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_secs(self.window_secs), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.set_timer(SimDuration::from_secs(self.window_secs), 0);
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let scale = serving_scale();
    let epoch = epoch_offset(&scale);
    let live = SimDuration::from_secs(scale.live_secs);
    let mut out = Outcome::new(scale.live_secs as f64);
    let mut tracer = config.trace.then(|| Tracer::new("serving_chaos"));
    // Training is deterministic, so one champion/challenger pair serves
    // every repetition.
    let t0 = Instant::now();
    let capture = run_training_capture(config.seed, &scale);
    let t1 = Instant::now();
    let (champion, challenger) = train_serving_models(&capture, &scale, config.seed);
    let t2 = Instant::now();
    drop(capture);
    if let Some(tracer) = tracer.as_mut() {
        tracer.record("core.training_capture", t0, t1, None, 0, "");
        tracer.record("ids.serving.train", t1, t2, None, 0, "");
    }
    out.notes.push(format!(
        "training capture {:.4} s; training champion and challenger {:.4} s",
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64()
    ));
    let begun = Instant::now();
    let mut first: Option<String> = None;
    let mut setup = Vec::new();
    let mut serving_wall = Vec::new();
    let mut twin_wall = Vec::new();
    let (mut offered, mut lost, mut ingested, mut degraded) = (0u64, 0, 0, 0);
    let mut rep = 0;
    while another_rep(config, rep, begun, MAX_REPS) {
        let root = tracer
            .as_mut()
            .map(|t| t.open("serving.rep", None, rep, ""));
        let (mut bed, at) =
            ready_testbed(chaos_scenario(config.seed, scale.live_secs, epoch), epoch);
        setup.push((at[3] - at[0]).as_secs_f64());
        if let (Some(tracer), Some(root)) = (tracer.as_mut(), root) {
            record_setup(tracer, at, root, rep, "");
        }

        let (serving, tenants) =
            e13_config(config.seed, &scale, champion.clone(), challenger.clone());
        let t = Instant::now();
        let report = bed.run_live_serving(live, serving, tenants);
        let end = Instant::now();
        serving_wall.push((end - t).as_secs_f64());
        let mut problems = problems(&report);
        let text = fingerprint(&report);
        match &first {
            None => {
                // The split must be E13 itself (checked in the traced run,
                // which keeps the untraced run's time for measuring).
                if config.trace {
                    let reference = run_serving_detection(config.seed, &scale);
                    if fingerprint(&reference.report) != text {
                        problems.push("set-up/run split differs from run_serving_detection".into());
                    }
                }
                first = Some(text);
            }
            Some(first) if *first != text => {
                problems.push("serving logs differ between repetitions".into());
            }
            Some(_) => {}
        }
        for t in &report.tenants {
            let c = &t.counters;
            offered += c.records_offered;
            lost += c.records_shed + c.records_sampled_out;
            ingested += c.windows_ingested;
            degraded += c.windows_degraded + c.windows_shed;
        }

        if let (Some(tracer), Some(root)) = (tracer.as_mut(), root) {
            tracer.record("ids.serving.run", t, end, Some(root), rep, "");
            // The twin: same scenario, an idle IDS, plain run_for.
            let (mut twin, at) =
                ready_testbed(chaos_scenario(config.seed, scale.live_secs, epoch), epoch);
            tracer.record("reference.setup", at[0], at[3], Some(root), rep, "");
            let (container, now) = (twin.ids_container(), twin.runtime().now());
            twin.runtime_mut().install(
                container,
                Box::new(IdleIds { window_secs: 1 }),
                Provenance::Benign,
                now,
            );
            let ((), span) = tracer.time("netsim.run_for", Some(root), rep, "serving", || {
                twin.runtime_mut().run_for(live)
            });
            twin_wall.push(tracer.spans()[span].secs());
            let served = phase_events(&report.telemetry);
            let idle = phase_events(&twin.telemetry());
            if served != idle {
                problems.push(format!(
                    "serving and idle twin dispatched different events: {served:?} vs {idle:?} ({PHASES:?})"
                ));
            }
            if rep == 0 {
                report_counters(&mut out, &report);
            }
            tracer.close(root);
        }
        out.ledger.op(problems);
        rep += 1;
    }
    out.reps = rep;
    if config.trace {
        let serving = median(&serving_wall);
        out.set(
            "ids.serving.sim_rate",
            overall_rate(scale.live_secs, &serving_wall),
        );
        out.set("netsim.run_for_s.serving", median(&twin_wall));
        let self_s: Vec<f64> = serving_wall
            .iter()
            .zip(&twin_wall)
            .map(|(s, t)| s - t)
            .collect();
        out.set("ids.serving.self_s", median(&self_s));
        out.set("ids.serving.records_shed_frac", fraction(lost, offered));
        out.set(
            "ids.serving.windows_degraded_frac",
            fraction(degraded, ingested),
        );
        let tracer = tracer.expect("traced run");
        let by_rep = |name: &str| median(&tracer.self_secs_by_rep(name, ""));
        // Made once per run, so recorded once.
        let once = |name: &str| tracer.self_secs_by_rep(name, "").iter().sum::<f64>();
        out.set("core.training_capture_s", once("core.training_capture"));
        out.set("ids.serving.train_s", once("ids.serving.train"));
        out.set("core.deploy_s", by_rep("core.deploy"));
        out.set("core.infection_lead_s", by_rep("core.infection_lead"));
        out.set("core.epoch_offset_s", by_rep("core.epoch_offset"));
        out.notes.push(format!(
            "serving wall median {serving:.4} s over {rep} reps"
        ));
        out.tracer = Some(tracer);
    } else {
        out.set("setup_s", median(&setup));
        out.set("sim_rate", overall_rate(scale.live_secs, &serving_wall));
        out.notes.push(format!(
            "serving: records shed or sampled out {:.4}, windows degraded or shed {:.4}",
            fraction(lost, offered),
            fraction(degraded, ingested)
        ));
    }
    out
}

/// Virtual seconds per wall second over all repetitions: total virtual
/// time over total wall time, so every serving run weighs by its
/// length.
fn overall_rate(virtual_secs: u64, walls: &[f64]) -> f64 {
    (virtual_secs as f64 * walls.len() as f64) / walls.iter().sum::<f64>()
}

/// The serving layer's counters (deterministic: taken from one run).
fn report_counters(out: &mut Outcome, report: &ServingRunReport) {
    out.set("ids.serving.swaps", report.swaps as f64);
    out.set("ids.serving.retrains", report.retrains as f64);
    out.set(
        "ids.serving.batch_rows",
        report
            .telemetry
            .counter("ids.serving.batch_rows")
            .unwrap_or(0) as f64,
    );
    for tenant in &report.tenants {
        let Some(name) = TENANTS.iter().find(|t| **t == tenant.name) else {
            continue;
        };
        let c = &tenant.counters;
        // In TENANT_COUNTERS order.
        let values = [
            c.records_offered,
            c.records_admitted,
            c.records_processed,
            c.records_shed,
            c.records_sampled_out,
            c.windows_ingested,
            c.windows_classified,
            c.windows_degraded,
            c.windows_shed,
        ];
        for (counter, value) in TENANT_COUNTERS.iter().zip(values) {
            out.set(format!("ids.serving.{name}.{counter}"), value as f64);
        }
    }
}
