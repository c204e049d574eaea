//! `live_detection`: Table I's loop, closed-loop in virtual time.
//!
//! Set-up makes the training capture and deploys one detection
//! testbed per model through the infection lead-in and the epoch
//! offset. The timed part trains the three paper models and runs one
//! `Testbed::run_live` per model. The traced variant rebuilds
//! `run_live` from public calls, one virtual second at a time, and
//! times every layer; it must reproduce `run_live`'s verdict log byte
//! for byte, and its decomposed training must reproduce
//! `TrainedIds::train`'s model.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use capture::dataset::Dataset;
use capture::record::PacketRecord;
use capture::sniffer::SnifferHandle;
use ddoshield::experiments::{
    detection_scenario, paper_models, run_training_capture, ExperimentScale,
};
use ddoshield::scenario::ScenarioConfig;
use ddoshield::testbed::Testbed;
use features::extract::{extract_matrix, WindowAggregator, TOTAL_FEATURES};
use features::scaling::Scaler;
use ids::pipeline::{
    detection_from_predictions, train_model_view, IdsConfig, ModelKind, TrainedIds,
};
use ids::realtime::{DetectionLog, OverloadPolicy};
use ml::classifier::{evaluate_view, Classifier, RowSpan};
use ml::matrix::FeatureMatrix;
use netsim::packet::Provenance;
use netsim::rng::SimRng;
use netsim::time::SimDuration;
use netsim::world::{App, Ctx};
use obs::RunTelemetry;

use crate::metrics::{MODELS, PHASES};
use crate::stats::{fraction, median, percentile, remainder, tail};
use crate::trace::{SpanId, Tracer};
use crate::{another_rep, Outcome, RunConfig};

/// Upper bound on repetitions, whatever `--seconds` asks for.
const MAX_REPS: usize = 12;
/// Window-latency samples per model the traced run collects, so the
/// p90 has ten samples beyond it.
const MIN_WINDOW_SAMPLES: usize = 100;

/// The experiment scale: quick-profile capture, live length and model
/// sizes (90 s capture, 70 s live, 4 CNN epochs).
pub fn scale() -> ExperimentScale {
    ExperimentScale::quick()
}

/// The virtual offset between the training epoch and the live phase,
/// as in `run_full_evaluation`.
pub fn epoch_offset(scale: &ExperimentScale) -> u64 {
    scale.capture_secs + 5
}

/// The IDS options every paper model is trained with.
pub fn ids_config(scale: &ExperimentScale) -> IdsConfig {
    IdsConfig {
        max_train_samples: scale.max_train_samples,
        ..IdsConfig::default()
    }
}

/// Deploys `scenario` and runs it through the infection lead-in and the
/// epoch offset, so the live phase can start. Returns the testbed and
/// the instants at which deploy, lead-in and epoch offset began and the
/// last of them ended.
pub fn ready_testbed(scenario: ScenarioConfig, epoch_offset_secs: u64) -> (Testbed, [Instant; 4]) {
    let t0 = Instant::now();
    let mut bed = Testbed::deploy(scenario);
    let t1 = Instant::now();
    bed.run_infection_lead();
    let t2 = Instant::now();
    let _ = bed.run_capture(SimDuration::from_secs(epoch_offset_secs));
    (bed, [t0, t1, t2, Instant::now()])
}

/// Records the set-up stages of one testbed as spans.
pub fn record_setup(
    tracer: &mut Tracer,
    at: [Instant; 4],
    parent: SpanId,
    rep: usize,
    part: &'static str,
) {
    tracer.record("core.deploy", at[0], at[1], Some(parent), rep, part);
    tracer.record("core.infection_lead", at[1], at[2], Some(parent), rep, part);
    tracer.record("core.epoch_offset", at[2], at[3], Some(parent), rep, part);
}

/// Trains one paper model exactly as `run_full_evaluation` does.
fn train(
    capture: &Dataset,
    kind: &ModelKind,
    config: IdsConfig,
    seed: u64,
) -> Result<TrainedIds, String> {
    let mut rng = SimRng::seed_from(seed ^ 0x7ea1);
    TrainedIds::train(capture, kind, config, &mut rng)
        .map(|outcome| outcome.ids)
        .map_err(|e| format!("{}: training failed: {e}", kind.name()))
}

/// The seven `netsim.phase.*.events` counters, in `PHASES` order.
pub fn phase_events(telemetry: &RunTelemetry) -> [u64; 7] {
    PHASES.map(|p| {
        telemetry
            .counter(&format!("netsim.phase.{p}.events"))
            .unwrap_or(0)
    })
}

/// One repetition's figures for one model.
#[derive(Debug, Clone)]
struct ModelRep {
    live_wall_s: f64,
    log: String,
    accuracy: f64,
    windows: usize,
    degraded: usize,
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let scale = scale();
    let mut out = Outcome::new((scale.live_secs * MODELS.len() as u64) as f64);
    if config.trace {
        traced(config, &scale, &mut out);
    } else {
        untraced(config, &scale, &mut out);
    }
    out
}

fn untraced(config: &RunConfig, scale: &ExperimentScale, out: &mut Outcome) {
    let kinds = paper_models(scale);
    let epoch = epoch_offset(scale);
    let live = SimDuration::from_secs(scale.live_secs);
    // Training is deterministic, so one training serves every
    // repetition; the traced run times it per repetition.
    let t = Instant::now();
    let capture = run_training_capture(config.seed, scale);
    let t_capture = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let trained: Vec<Result<TrainedIds, String>> = kinds
        .iter()
        .map(|k| train(&capture, k, ids_config(scale), config.seed))
        .collect();
    out.notes.push(format!(
        "training capture {t_capture:.4} s; training the three models {:.4} s",
        t.elapsed().as_secs_f64()
    ));
    drop(capture);

    let begun = Instant::now();
    let mut setup = Vec::new();
    let mut sim_rate = Vec::new();
    let mut per_model: Vec<Vec<ModelRep>> = vec![Vec::new(); MODELS.len()];
    let mut rep = 0;
    while another_rep(config, rep, begun, MAX_REPS) {
        let t = Instant::now();
        let mut beds: Vec<Testbed> = kinds
            .iter()
            .map(|_| {
                ready_testbed(
                    detection_scenario(config.seed, scale.live_secs, epoch),
                    epoch,
                )
                .0
            })
            .collect();
        setup.push(t.elapsed().as_secs_f64());

        let mut wall = 0.0;
        for (i, (bed, ids)) in beds.iter_mut().zip(&trained).enumerate() {
            let ids = match ids {
                Ok(ids) => ids.clone(),
                Err(e) => {
                    out.ledger.op(vec![e.clone()]);
                    continue;
                }
            };
            let t = Instant::now();
            let report = bed.run_live(live, ids);
            let secs = t.elapsed().as_secs_f64();
            wall += secs;
            let model_rep = ModelRep {
                live_wall_s: secs,
                log: report.log.serialize_compact(),
                accuracy: report.log.mean_accuracy() * 100.0,
                windows: report.log.len(),
                degraded: report.log.degraded_count(),
            };
            out.ledger.op(log_problems(
                MODELS[i],
                &report.log,
                &model_rep.log,
                per_model[i].first(),
            ));
            per_model[i].push(model_rep);
        }
        sim_rate.push(out.virtual_s / wall);
        rep += 1;
    }
    out.reps = rep;
    out.set("setup_s", median(&setup));
    out.set("sim_rate", median(&sim_rate));
    for (i, reps) in per_model.iter().enumerate() {
        let Some(first) = reps.first() else { continue };
        let rates: Vec<f64> = reps
            .iter()
            .map(|r| scale.live_secs as f64 / r.live_wall_s)
            .collect();
        out.notes.push(format!(
            "Table I {}: accuracy {:.2} %, {} windows ({} degraded); live sim rate median {:.3} vs/s",
            MODELS[i],
            first.accuracy,
            first.windows,
            first.degraded,
            median(&rates)
        ));
    }
}

/// Checks one model's live log: non-empty, live, and byte-identical to
/// the first repetition's.
fn log_problems(
    model: &str,
    log: &DetectionLog,
    text: &str,
    first: Option<&ModelRep>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if log.is_empty() {
        problems.push(format!("{model}: run_live logged no window"));
    }
    if let Some(v) = log.liveness_violation() {
        problems.push(format!("{model}: {v}"));
    }
    if let Some(first) = first {
        if first.log != text {
            problems.push(format!("{model}: verdict log differs between repetitions"));
        }
    }
    problems
}

/// The stratified training-sample cap of `TrainedIds::train`, rebuilt
/// so training can be timed stage by stage. The traced run checks the
/// resulting model against `TrainedIds::train`'s, byte for byte.
fn stratified_cap(indices: &[usize], y: &[usize], max: usize, rng: &mut SimRng) -> Vec<usize> {
    if indices.len() <= max {
        return indices.to_vec();
    }
    let mut by_class: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for &i in indices {
        by_class[y[i].min(1)].push(i);
    }
    let frac = max as f64 / indices.len() as f64;
    let mut out = Vec::with_capacity(max);
    for class in &mut by_class {
        rng.shuffle(class);
        let take = ((class.len() as f64 * frac).round() as usize).min(class.len());
        out.extend_from_slice(&class[..take]);
    }
    out.sort_unstable();
    out
}

/// `TrainedIds::train`, decomposed into timed stages: window features,
/// scaler fit, model fit and holdout evaluation.
#[allow(clippy::too_many_arguments)]
fn train_traced(
    capture: &Dataset,
    kind: &ModelKind,
    config: IdsConfig,
    seed: u64,
    tracer: &mut Tracer,
    parent: SpanId,
    rep: usize,
    part: &'static str,
) -> Result<Box<dyn Classifier>, String> {
    let mut rng = SimRng::seed_from(seed ^ 0x7ea1);
    let ((mut x, y), _) = tracer.time("features.extract_matrix", Some(parent), rep, part, || {
        extract_matrix(capture, config.window_secs)
    });
    if x.is_empty() {
        return Err(format!("{part}: empty training matrix"));
    }
    tracer.time("features.scaler_fit", Some(parent), rep, part, || {
        Scaler::fit_transform_matrix(config.scaling, &mut x)
    });
    let mut indices: Vec<usize> = (0..x.n_rows()).collect();
    rng.shuffle(&mut indices);
    let holdout = ((x.n_rows() as f64 * config.holdout_fraction) as usize).min(x.n_rows() / 2);
    let (test_idx, train_idx) = indices.split_at(holdout);
    let train_idx = stratified_cap(train_idx, &y, config.max_train_samples, &mut rng);
    let yt: Vec<usize> = train_idx.iter().map(|&i| y[i]).collect();
    let (model, _) = tracer.time("ml.train", Some(parent), rep, part, || {
        train_model_view(kind, x.subset(&train_idx), &yt, &mut rng)
    });
    let model = model.map_err(|e| format!("{part}: traced training failed: {e}"))?;
    let (eval_idx, eval_y): (&[usize], Vec<usize>) = if test_idx.is_empty() {
        (&train_idx, yt)
    } else {
        (test_idx, test_idx.iter().map(|&i| y[i]).collect())
    };
    tracer.time("ml.holdout_eval", Some(parent), rep, part, || {
        evaluate_view(model.as_ref(), x.subset(eval_idx), &eval_y)
    });
    Ok(model)
}

/// What the drain app hands the traced loop at each tick.
#[derive(Debug, Default)]
struct Drained {
    records: Vec<PacketRecord>,
    drain: Option<(Instant, Instant)>,
    pressure: f64,
}

/// Drains the sniffer on the IDS container's timer, exactly where
/// `RealTimeIds` drains it. Draining inside the event loop, not after
/// `run_for` returns, keeps the event order of `run_live`: a record
/// captured at the tick instant but after the timer fires lands in the
/// next drain in both.
struct DrainApp {
    feed: SnifferHandle,
    shared: Rc<RefCell<Drained>>,
    window_secs: u64,
    capacity: Option<usize>,
}

impl App for DrainApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(capacity) = self.capacity {
            self.feed.set_capacity(Some(capacity));
        }
        ctx.set_timer(SimDuration::from_secs(self.window_secs), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let mut shared = self.shared.borrow_mut();
        let start = Instant::now();
        self.feed.drain_into(&mut shared.records);
        shared.drain = Some((start, Instant::now()));
        shared.pressure = ctx.cpu_pressure();
        ctx.set_timer(SimDuration::from_secs(self.window_secs), 0);
    }
}

/// Counts the traced loop reports besides its spans.
#[derive(Debug, Default)]
struct LoopCounts {
    records: u64,
    windows: u64,
    rows: u64,
    work: u64,
    flows_touched: u64,
    window_ms: Vec<f64>,
}

/// `run_live`, rebuilt from public calls one virtual second at a time:
/// `Runtime::run_for`, `SnifferHandle::drain_into` (on the IDS
/// container's timer), `WindowAggregator::push`,
/// `Window::append_features`, `Scaler::transform_matrix`,
/// `Classifier::predict_batch_spans_into` and
/// `detection_from_predictions`, each in its own span.
#[allow(clippy::too_many_arguments)]
fn live_traced(
    bed: &mut Testbed,
    ids: &TrainedIds,
    live_secs: u64,
    tracer: &mut Tracer,
    parent: SpanId,
    rep: usize,
    part: &'static str,
    log: &DetectionLog,
) -> LoopCounts {
    let window_secs = ids.window_secs();
    let overload = OverloadPolicy::default();
    let shared = Rc::new(RefCell::new(Drained::default()));
    let app = DrainApp {
        feed: bed.sniffer().clone(),
        shared: Rc::clone(&shared),
        window_secs,
        capacity: overload.feed_capacity,
    };
    let (container, now) = (bed.ids_container(), bed.runtime().now());
    bed.runtime_mut()
        .install(container, Box::new(app), Provenance::Benign, now);

    let mut aggregator = WindowAggregator::new(window_secs).with_stats_refresh(ids.stats_refresh());
    let mut scratch = FeatureMatrix::new(TOTAL_FEATURES);
    let mut predictions = Vec::new();
    let mut spans: Vec<RowSpan> = Vec::new();
    let mut span_work = Vec::new();
    let mut records = Vec::new();
    let mut completed = Vec::new();
    let mut counts = LoopCounts::default();
    let tick = SimDuration::from_secs(window_secs);
    for _ in 0..live_secs / window_secs {
        let t = Instant::now();
        bed.runtime_mut().run_for(tick);
        let run_for = tracer.record("netsim.run_for", t, Instant::now(), Some(parent), rep, part);
        let (drain, pressure) = {
            let mut d = shared.borrow_mut();
            std::mem::swap(&mut d.records, &mut records);
            (d.drain.take(), d.pressure)
        };
        let Some((drain_start, drain_end)) = drain else {
            continue;
        };
        tracer.record(
            "capture.drain",
            drain_start,
            drain_end,
            Some(run_for),
            rep,
            part,
        );
        counts.records += records.len() as u64;

        let t = Instant::now();
        completed.clear();
        for &record in &records {
            if let Some(window) = aggregator.push(record) {
                completed.push(window);
            }
        }
        let t_push = Instant::now();
        tracer.record("features.push", t, t_push, Some(parent), rep, part);

        scratch.clear();
        spans.clear();
        let mut row_start = 0;
        for window in &completed {
            window.append_features(&mut scratch);
            let len = scratch.n_rows() - row_start;
            spans.push(RowSpan {
                start: row_start,
                len,
            });
            row_start += len;
        }
        let t_append = Instant::now();
        tracer.record("features.append", t_push, t_append, Some(parent), rep, part);

        ids.scaler().transform_matrix(&mut scratch);
        let t_scale = Instant::now();
        tracer.record("features.scale", t_append, t_scale, Some(parent), rep, part);

        counts.work += ids.model().predict_batch_spans_into(
            scratch.view(),
            &spans,
            &mut predictions,
            &mut span_work,
        );
        let t_predict = Instant::now();
        tracer.record("ml.predict", t_scale, t_predict, Some(parent), rep, part);

        for (slot, window) in completed.iter().enumerate() {
            let mut detection =
                detection_from_predictions(window, &predictions[spans[slot].range()]);
            let modelled = overload.modelled_cost_secs(window.records.len(), pressure);
            detection.degraded = modelled > window_secs as f64;
            log.push(detection);
            counts
                .window_ms
                .push((Instant::now() - drain_start).as_secs_f64() * 1e3);
        }
        tracer.record(
            "ids.detect",
            t_predict,
            Instant::now(),
            Some(parent),
            rep,
            part,
        );
        counts.windows += completed.len() as u64;
        counts.rows += scratch.n_rows() as u64;
    }
    counts.flows_touched = aggregator.flows_touched();
    counts
}

/// The per-model layers whose self times add up to the traced loop.
const LOOP_LAYERS: [(&str, &str); 7] = [
    ("netsim.run_for", "netsim.run_for_s"),
    ("capture.drain", "capture.drain_s"),
    ("features.push", "features.push_s"),
    ("features.append", "features.append_s"),
    ("features.scale", "features.scale_s"),
    ("ml.predict", "ml.predict_s"),
    ("ids.detect", "ids.detect_s"),
];

fn traced(config: &RunConfig, scale: &ExperimentScale, out: &mut Outcome) {
    let kinds = paper_models(scale);
    let ids_cfg = ids_config(scale);
    let epoch = epoch_offset(scale);
    let live = SimDuration::from_secs(scale.live_secs);
    let mut tracer = Tracer::new("live_detection");
    let begun = Instant::now();

    let mut train_untraced = Vec::new();
    let mut untraced_wall: Vec<Vec<f64>> = vec![Vec::new(); MODELS.len()];
    let mut traced_wall: Vec<Vec<f64>> = vec![Vec::new(); MODELS.len()];
    let mut events_by_rep: Vec<Vec<u64>> = vec![Vec::new(); MODELS.len()];
    let mut counts: Vec<LoopCounts> = (0..MODELS.len()).map(|_| LoopCounts::default()).collect();
    let mut window_ms: Vec<Vec<f64>> = vec![Vec::new(); MODELS.len()];
    let (mut windows_all, mut degraded_all) = (0u64, 0u64);
    let mut shared_counts: Option<([u64; 7], u64, f64)> = None;
    let mut rep = 0;
    while another_rep(config, rep, begun, MAX_REPS)
        || (rep < MAX_REPS && window_ms.iter().any(|w| w.len() < MIN_WINDOW_SAMPLES))
    {
        let root = tracer.open("live.rep", None, rep, "");
        let (capture, _) = tracer.time("core.training_capture", Some(root), rep, "", || {
            run_training_capture(config.seed, scale)
        });
        // One testbed per model for the untraced run_live, one for the
        // traced loop; only the latter count towards the set-up layers,
        // matching the untraced run's three testbeds.
        let mut pairs: Vec<(Testbed, Testbed)> = Vec::new();
        for m in MODELS {
            let scenario = detection_scenario(config.seed, scale.live_secs, epoch);
            let (reference, at) = ready_testbed(scenario.clone(), epoch);
            tracer.record("reference.setup", at[0], at[3], Some(root), rep, m);
            let (bed, at) = ready_testbed(scenario, epoch);
            record_setup(&mut tracer, at, root, rep, m);
            pairs.push((reference, bed));
        }

        let mut untraced_train = 0.0;
        let mut trained = Vec::new();
        for (i, kind) in kinds.iter().enumerate() {
            let t = Instant::now();
            let reference = train(&capture, kind, ids_cfg, config.seed);
            untraced_train += t.elapsed().as_secs_f64();
            let span = tracer.open("ids.train", Some(root), rep, MODELS[i]);
            let model = train_traced(
                &capture,
                kind,
                ids_cfg,
                config.seed,
                &mut tracer,
                span,
                rep,
                MODELS[i],
            );
            tracer.close(span);
            let mut problems = Vec::new();
            match (&reference, &model) {
                (Ok(ids), Ok(model)) => {
                    if ids.model().encode() != model.encode() {
                        problems.push(format!(
                            "{}: stage-by-stage training differs from TrainedIds::train",
                            MODELS[i]
                        ));
                    }
                }
                (Err(e), _) | (_, Err(e)) => problems.push(e.clone()),
            }
            out.ledger.op(problems);
            trained.push(reference.ok());
        }
        train_untraced.push(untraced_train);

        for (i, ((reference, bed), ids)) in pairs.iter_mut().zip(trained).enumerate() {
            let Some(ids) = ids else { continue };
            let part = MODELS[i];
            // Alternate which of the pair runs first, so host drift does
            // not bias the tracing overhead one way.
            let run_reference = |reference: &mut Testbed| {
                let t = Instant::now();
                let report = reference.run_live(live, ids.clone());
                (report, t.elapsed().as_secs_f64())
            };
            let mut reference_run = (rep % 2 == 0).then(|| run_reference(reference));

            let before = phase_events(&bed.telemetry());
            let dropped0 = bed.sniffer().dropped_overflow();
            let log = DetectionLog::new();
            let span = tracer.open("ids.live", Some(root), rep, part);
            let loop_counts = live_traced(
                bed,
                &ids,
                scale.live_secs,
                &mut tracer,
                span,
                rep,
                part,
                &log,
            );
            tracer.close(span);
            traced_wall[i].push(tracer.spans()[span].secs());
            let (report, secs) = reference_run
                .take()
                .unwrap_or_else(|| run_reference(reference));
            untraced_wall[i].push(secs);
            windows_all += report.log.len() as u64;
            degraded_all += report.log.degraded_count() as u64;
            let telemetry = bed.telemetry();
            let after = phase_events(&telemetry);
            let delta: [u64; 7] = std::array::from_fn(|p| after[p] - before[p]);
            events_by_rep[i].push(delta.iter().sum());
            if shared_counts.is_none() {
                let client = bed.client_stats();
                let snaps = [
                    client.http.snapshot(),
                    client.video.snapshot(),
                    client.ftp.snapshot(),
                ];
                let failed: u64 = snaps.iter().map(|c| c.failed).sum();
                let started: u64 = snaps.iter().map(|c| c.started).sum();
                let dropped = bed.sniffer().dropped_overflow() - dropped0;
                shared_counts = Some((delta, dropped, fraction(failed, started)));
            }

            let mut problems =
                log_problems(part, &report.log, &report.log.serialize_compact(), None);
            if log.serialize_compact() != report.log.serialize_compact() {
                problems.push(format!(
                    "{part}: traced loop's verdict log differs from run_live's"
                ));
            }
            out.ledger.op(problems);
            window_ms[i].extend_from_slice(&loop_counts.window_ms);
            if rep == 0 {
                counts[i] = loop_counts;
            }
        }
        tracer.close(root);
        rep += 1;
    }
    out.reps = rep;

    for (i, m) in MODELS.iter().enumerate() {
        let layer: Vec<Vec<f64>> = LOOP_LAYERS
            .iter()
            .map(|(span, _)| tracer.self_secs_by_rep(span, m))
            .collect();
        for ((_, metric), by_rep) in LOOP_LAYERS.iter().zip(&layer) {
            out.set(format!("{metric}.{m}"), median(by_rep));
        }
        let per_rep = |f: &dyn Fn(usize) -> f64| -> f64 {
            median(&(0..untraced_wall[i].len()).map(f).collect::<Vec<_>>())
        };
        out.set(
            format!("ids.live.sim_rate.{m}"),
            per_rep(&|r| scale.live_secs as f64 / untraced_wall[i][r]),
        );
        out.set(
            format!("netsim.ns_per_event.{m}"),
            per_rep(&|r| layer[0][r] * 1e9 / events_by_rep[i][r].max(1) as f64),
        );
        let c = &counts[i];
        out.set(
            format!("ml.predict_ns_per_row.{m}"),
            per_rep(&|r| layer[5][r] * 1e9 / c.rows.max(1) as f64),
        );
        out.set(format!("ml.predict_work.{m}"), c.work as f64);
        out.set(
            format!("ids.remainder_s.{m}"),
            per_rep(&|r| {
                let selfs: Vec<f64> = layer.iter().map(|l| l[r]).collect();
                remainder(untraced_wall[i][r], &selfs)
            }),
        );
        out.set(
            format!("trace.overhead_s.{m}"),
            per_rep(&|r| traced_wall[i][r] - untraced_wall[i][r]),
        );
        out.set(
            format!("ml.train_s.{m}"),
            median(&tracer.self_secs_by_rep("ml.train", m)),
        );
        let samples = &window_ms[i];
        out.set(format!("ids.window_ms.p50.{m}"), percentile(samples, 50.0));
        out.set(format!("ids.window_ms.p90.{m}"), percentile(samples, 90.0));
        out.set(format!("ids.window_ms.n.{m}"), samples.len() as f64);
        match tail(samples) {
            Some(t) if t.percentile >= 90.0 => out.notes.push(format!(
                "{m}: window latency p50 {:.3} ms, p{} {:.3} ms over {} windows",
                percentile(samples, 50.0),
                t.percentile,
                t.value,
                t.count
            )),
            other => out.ledger.errors.push(format!(
                "{m}: {} window-latency samples do not support a p90 (highest: {:?})",
                samples.len(),
                other.map(|t| t.percentile)
            )),
        }
    }
    if let Some((phases, dropped, client_failed)) = shared_counts {
        for (p, n) in PHASES.iter().zip(phases) {
            out.set(format!("netsim.phase.{p}.events"), n as f64);
        }
        out.set("netsim.events", phases.iter().sum::<u64>() as f64);
        out.set("capture.dropped", dropped as f64);
        out.set("traffic.client_failed_frac", client_failed);
    }
    out.set("capture.records", counts[0].records as f64);
    out.set("features.windows", counts[0].windows as f64);
    out.set("features.flows_touched", counts[0].flows_touched as f64);
    out.set(
        "ids.windows_degraded_frac",
        fraction(degraded_all, windows_all),
    );
    out.set("ids.train_s", median(&train_untraced));
    let sum_models = |name: &str| -> f64 {
        let by_model: Vec<Vec<f64>> = MODELS
            .iter()
            .map(|m| tracer.self_secs_by_rep(name, m))
            .collect();
        median(
            &(0..rep)
                .map(|r| by_model.iter().map(|v| v[r]).sum())
                .collect::<Vec<f64>>(),
        )
    };
    out.set(
        "features.extract_matrix_s",
        sum_models("features.extract_matrix"),
    );
    out.set("features.scaler_fit_s", sum_models("features.scaler_fit"));
    out.set("ml.holdout_eval_s", sum_models("ml.holdout_eval"));
    out.set(
        "core.training_capture_s",
        median(&tracer.self_secs_by_rep("core.training_capture", "")),
    );
    out.set("core.deploy_s", sum_models("core.deploy"));
    out.set("core.infection_lead_s", sum_models("core.infection_lead"));
    out.set("core.epoch_offset_s", sum_models("core.epoch_offset"));
    out.tracer = Some(tracer);
}
