//! Canned experiment runners: one function per table/figure of the paper
//! (the per-experiment index lives in DESIGN.md §4).
//!
//! The paper's runs are 10 minutes of capture + 5 minutes of live
//! detection on a physical laptop; ours are virtual-time runs whose
//! durations scale via [`ExperimentScale`]. Crucially, the live run is a
//! *fresh deployment with a different seed and shifted traffic
//! intensities* — like the paper's separate detection run — which is the
//! distribution shift that exposes the RF's brittleness on
//! window-statistical features (Table I).

use capture::dataset::ClassCounts;
use ids::pipeline::{IdsConfig, ModelKind, TrainedIds};
use ids::realtime::DetectionLog;
use ids::resources::SustainabilityReport;
use ml::cnn::CnnConfig;
use ml::kmeans::KMeansConfig;
use ml::metrics::MetricsReport;
use ml::rf::{ForestConfig, TreeConfig};
use netsim::rng::SimRng;
use netsim::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::scenario::{
    rotation, CpuPressureSpec, FaultPlanConfig, JitterSpec, LifecycleTarget, LinkFlapSpec,
    LossRampSpec, RebootSpec, ScenarioConfig, ThrottleSpec,
};
use crate::testbed::{LiveReport, ServingRunReport, ServingTenantTarget, Testbed};

/// How long the capture and detection phases run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Capture (training) phase length in virtual seconds.
    pub capture_secs: u64,
    /// Live detection phase length in virtual seconds.
    pub live_secs: u64,
    /// Cap on training samples after feature extraction.
    pub max_train_samples: usize,
    /// CNN training epochs.
    pub cnn_epochs: usize,
}

impl ExperimentScale {
    /// Fast profile for tests (seconds of wall-clock).
    pub fn quick() -> Self {
        ExperimentScale { capture_secs: 90, live_secs: 70, max_train_samples: 4_000, cnn_epochs: 4 }
    }

    /// The swarm-testing profile: the shortest run that still trains a
    /// two-class model and pushes a handful of windows through the live
    /// IDS. A thousand-seed swarm must finish locally in minutes.
    pub fn swarm() -> Self {
        ExperimentScale { capture_secs: 30, live_secs: 30, max_train_samples: 1_500, cnn_epochs: 1 }
    }

    /// The default benchmarking profile.
    pub fn standard() -> Self {
        ExperimentScale { capture_secs: 140, live_secs: 70, max_train_samples: 12_000, cnn_epochs: 6 }
    }

    /// Durations matching the paper's 10 min + 5 min runs.
    pub fn paper() -> Self {
        ExperimentScale {
            capture_secs: 600,
            live_secs: 300,
            max_train_samples: 40_000,
            cnn_epochs: 8,
        }
    }
}

/// The training-run scenario.
pub fn training_scenario(seed: u64, capture_secs: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_default(seed);
    config.attacks = attack_plan(capture_secs, 8, 140, 12, 25);
    config
}

/// The detection-run scenario: same topology, different seed, shifted
/// intensities — the out-of-training-distribution conditions of a
/// separate live run. The benign side is much busier (every device runs
/// the full three-protocol client mix with shorter think times) while
/// the floods are *slower-and-longer* per bot, so live window volumes
/// land in the gap between the two training clusters. Basic per-packet
/// features keep their meaning, but decision trees cannot extrapolate
/// into that unseen interior and the RF's axis-aligned thresholds flip
/// whole windows — the mechanism behind Table I's RF collapse — whereas
/// centroid distances (K-Means) and a smooth learned decision function
/// (CNN) degrade gracefully.
pub fn detection_scenario(seed: u64, live_secs: u64, epoch_offset_secs: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_default(seed ^ 0x5eed_0fde_7ec7);
    // The live run happens *after* the training run on the same
    // continuing clock (the paper's separate 5-minute detection run):
    // its attacks start `epoch_offset_secs` in, once the training
    // epoch has elapsed, and are phase-shifted relative to training.
    config.attacks = attack_plan(live_secs, epoch_offset_secs + 16, 34, 16, 24);
    config.clients_per_device = 3;
    config.workload.http_think_mean *= 0.25;
    config.workload.ftp_think_mean *= 0.5;
    config.workload.video_think_mean *= 0.5;
    config
}

/// Evenly spaced SYN/ACK/UDP rotation over the
/// `[first_start, first_start + run_secs]` span, leaving a quiet tail.
fn attack_plan(
    run_secs: u64,
    first_start: u64,
    pps: u32,
    duration: u32,
    spacing: u64,
) -> Vec<crate::scenario::AttackPhase> {
    let end = first_start + run_secs;
    let mut starts = Vec::new();
    let mut t = first_start;
    while t + duration as u64 + 8 < end {
        starts.push(t);
        t += spacing;
    }
    if starts.is_empty() {
        starts.push(end.saturating_sub(duration as u64 + 3).max(1));
    }
    rotation(&starts, duration, pps)
}

/// The three model profiles evaluated in Tables I and II, mirroring the
/// paper's toolchain defaults (scikit-learn's unbounded-depth forests, a
/// compact TensorFlow CNN, U-K-Means).
pub fn paper_models(scale: &ExperimentScale) -> Vec<ModelKind> {
    vec![
        ModelKind::RandomForest(ForestConfig {
            n_trees: 60,
            tree: TreeConfig {
                max_depth: 22,
                min_samples_split: 2,
                max_features: None,
                threshold_candidates: 24,
            },
            bootstrap: true,
        }),
        ModelKind::KMeans(KMeansConfig { k_max: 24, ..KMeansConfig::default() }),
        ModelKind::Cnn(CnnConfig { epochs: scale.cnn_epochs, ..CnnConfig::default() }),
    ]
}

/// Everything one full evaluation produces: Table I, Table II, the
/// dataset statistics (§IV-D) and the per-second accuracy series.
#[derive(Debug)]
pub struct FullReport {
    /// Composition of the training capture (E3).
    pub dataset: ClassCounts,
    /// Duration of the training capture in virtual seconds.
    pub capture_secs: f64,
    /// Per-model results.
    pub models: Vec<ModelReport>,
}

/// One model's end-to-end results.
#[derive(Debug)]
pub struct ModelReport {
    /// Model display name ("RF", "K-Means", "CNN").
    pub name: &'static str,
    /// Train-time holdout metrics (E5: §IV-D "training metrics").
    pub train_metrics: MetricsReport,
    /// Samples used for fitting.
    pub train_samples: usize,
    /// Real-time per-window log (E1 / E4).
    pub log: DetectionLog,
    /// Sustainability row (E2 / Table II).
    pub sustainability: SustainabilityReport,
}

impl ModelReport {
    /// The Table I cell: average real-time accuracy in percent.
    pub fn accuracy_percent(&self) -> f64 {
        self.log.mean_accuracy() * 100.0
    }
}

/// Runs a live phase whose meter feeds a CPU % figure (Table II, E7,
/// E8), with inference pinned to one thread. The meter's CPU % is each
/// tick's wall-clock busy time, which equals CPU time only while predict
/// runs on one core — a parallel predict would read cheaper the more
/// cores the host has. Verdicts are identical at any thread count, so
/// only the meter sees the pin.
fn run_metered_live(live: &mut Testbed, live_secs: u64, ids: TrainedIds) -> LiveReport {
    ml::par::with_threads(1, || live.run_live(SimDuration::from_secs(live_secs), ids))
}

/// Runs the complete evaluation: one training capture, three model
/// trainings, and one (identical, same-seed) live deployment per model.
pub fn run_full_evaluation(seed: u64, scale: &ExperimentScale) -> FullReport {
    let capture = run_training_capture(seed, scale);
    let dataset = capture.class_counts();
    let capture_secs = capture.duration_secs();

    let models = paper_models(scale)
        .into_iter()
        .map(|kind| {
            let ids_config = IdsConfig {
                max_train_samples: scale.max_train_samples,
                ..IdsConfig::default()
            };
            let mut rng = SimRng::seed_from(seed ^ 0x7ea1);
            let outcome = TrainedIds::train(&capture, &kind, ids_config, &mut rng)
                .expect("training capture contains both classes");
            // Fresh live deployment; the same detection seed for every
            // model makes the packet streams identical across models.
            // The detection epoch starts after the training epoch has
            // elapsed on the continuing clock (as in the paper's
            // back-to-back runs), so live timestamps exceed trained ones.
            let epoch_offset = scale.capture_secs + 5;
            let mut live = Testbed::deploy(detection_scenario(seed, scale.live_secs, epoch_offset));
            live.run_infection_lead();
            let _ = live.run_capture(SimDuration::from_secs(epoch_offset));
            let report = run_metered_live(&mut live, scale.live_secs, outcome.ids);
            ModelReport {
                name: kind.name(),
                train_metrics: outcome.holdout_metrics,
                train_samples: outcome.train_samples,
                log: report.log,
                sustainability: report.sustainability,
            }
        })
        .collect();

    FullReport { dataset, capture_secs, models }
}

/// E8 (§V extension): evaluates the paper's *planned* additional models
/// — SVM, Isolation Forest and an autoencoder — in the identical
/// capture-train-live pipeline as Table I, alongside the original three.
pub fn run_extended_evaluation(seed: u64, scale: &ExperimentScale) -> FullReport {
    let capture = run_training_capture(seed, scale);
    let dataset = capture.class_counts();
    let capture_secs = capture.duration_secs();

    let mut kinds = paper_models(scale);
    kinds.push(ModelKind::Svm(Default::default()));
    kinds.push(ModelKind::IsolationForest(Default::default()));
    kinds.push(ModelKind::Autoencoder(Default::default()));

    let models = kinds
        .into_iter()
        .map(|kind| {
            let ids_config = IdsConfig {
                max_train_samples: scale.max_train_samples,
                ..IdsConfig::default()
            };
            let mut rng = SimRng::seed_from(seed ^ 0x7ea1);
            let outcome = TrainedIds::train(&capture, &kind, ids_config, &mut rng)
                .expect("training capture contains both classes");
            let epoch_offset = scale.capture_secs + 5;
            let mut live = Testbed::deploy(detection_scenario(seed, scale.live_secs, epoch_offset));
            live.run_infection_lead();
            let _ = live.run_capture(SimDuration::from_secs(epoch_offset));
            let report = run_metered_live(&mut live, scale.live_secs, outcome.ids);
            ModelReport {
                name: kind.name(),
                train_metrics: outcome.holdout_metrics,
                train_samples: outcome.train_samples,
                log: report.log,
                sustainability: report.sustainability,
            }
        })
        .collect();

    FullReport { dataset, capture_secs, models }
}

/// The outcome of the federated-learning experiment (E9).
#[derive(Debug)]
pub struct FederatedReport {
    /// Coordinator-holdout accuracy after each FedAvg round.
    pub round_accuracy: Vec<f64>,
    /// Live real-time accuracy of the federated global model (%).
    pub federated_live_percent: f64,
    /// Live real-time accuracy of the centrally trained CNN (%).
    pub centralized_live_percent: f64,
    /// Number of participating clients.
    pub clients: usize,
}

/// E9 (§VI future work): emulates the FL-based NIDS the paper plans —
/// several monitoring sites capture their own traffic (separate testbed
/// deployments with different seeds), train the shared CNN locally, and
/// only exchange parameters (FedAvg). The federated global model is then
/// pitted against a centrally trained CNN on the same live run.
pub fn run_federated_experiment(
    seed: u64,
    scale: &ExperimentScale,
    clients: usize,
) -> FederatedReport {
    use ids::federated::{train_federated, FederatedConfig};

    // Each client is an independent site: same topology (so addresses
    // transfer), different seed.
    let shards: Vec<capture::dataset::Dataset> = (0..clients)
        .map(|i| run_training_capture(seed.wrapping_add(i as u64 * 101), scale))
        .collect();
    let holdout = run_training_capture(seed.wrapping_add(7_777), scale);

    let mut rng = SimRng::seed_from(seed ^ 0xfed);
    let fed_config = FederatedConfig {
        rounds: 5,
        local_epochs: scale.cnn_epochs.max(2) / 2 + 1,
        cnn: CnnConfig { ..CnnConfig::default() },
        window_secs: 1,
    };
    let outcome =
        train_federated(&shards, &holdout, &fed_config, &mut rng).expect("clients have both classes");
    let round_accuracy: Vec<f64> = outcome.round_metrics.iter().map(|m| m.accuracy).collect();

    let ids_config = IdsConfig { max_train_samples: scale.max_train_samples, ..IdsConfig::default() };
    let federated_ids =
        TrainedIds::from_parts(Box::new(outcome.global), outcome.scaler, ids_config);

    // Centralised baseline: the ordinary pipeline on the first shard.
    let mut rng = SimRng::seed_from(seed ^ 0x7ea1);
    let central = TrainedIds::train(
        &shards[0],
        &ModelKind::Cnn(CnnConfig { epochs: scale.cnn_epochs, ..CnnConfig::default() }),
        ids_config,
        &mut rng,
    )
    .expect("shard has both classes");

    let epoch_offset = scale.capture_secs + 5;
    let live_accuracy = |ids: TrainedIds| {
        let mut live = Testbed::deploy(detection_scenario(seed, scale.live_secs, epoch_offset));
        live.run_infection_lead();
        let _ = live.run_capture(SimDuration::from_secs(epoch_offset));
        let report = live.run_live(SimDuration::from_secs(scale.live_secs), ids);
        report.log.mean_accuracy() * 100.0
    };

    FederatedReport {
        round_accuracy,
        federated_live_percent: live_accuracy(federated_ids),
        centralized_live_percent: live_accuracy(central.ids),
        clients,
    }
}

/// One vector's live-detection outcome in the detectability comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VectorDetectability {
    /// The attack vector (display name).
    pub vector: String,
    /// Mean real-time accuracy (%).
    pub accuracy_percent: f64,
    /// Malicious-packet recall over the whole run (%): the fraction of
    /// the flood's packets the IDS flagged.
    pub malicious_recall_percent: f64,
}

/// E10 (extension): per-vector detectability. The IDS trains on the
/// paper's three vectors, then faces live runs that each use a single
/// vector — including the HTTP flood the paper defers because it
/// "necessitates additional application-level analysis". The expected
/// shape: SYN/ACK/UDP floods remain detectable; the HTTP flood (real
/// GET requests over real connections) is much harder for the
/// flow-statistics IDS.
pub fn run_vector_detectability(seed: u64, scale: &ExperimentScale) -> Vec<VectorDetectability> {
    use botnet::commands::AttackVector;
    let capture = run_training_capture(seed, scale);
    let ids_config = IdsConfig { max_train_samples: scale.max_train_samples, ..IdsConfig::default() };

    AttackVector::EXTENDED
        .iter()
        .map(|&vector| {
            let epoch_offset = scale.capture_secs + 5;
            let mut config = detection_scenario(seed, scale.live_secs, epoch_offset);
            // Single-vector schedule at the same cadence.
            for phase in &mut config.attacks {
                phase.vector = vector;
                if vector == AttackVector::HttpFlood {
                    phase.pps = 120; // requests/s per bot
                }
            }
            let mut live = Testbed::deploy(config);
            live.run_infection_lead();
            let _ = live.run_capture(SimDuration::from_secs(epoch_offset));
            // Training is deterministic in the seed, so re-fitting here
            // yields the *identical* model for every vector — one
            // deployed IDS facing each attack in turn.
            let mut rng2 = SimRng::seed_from(seed ^ 0x7ea1);
            let fresh = TrainedIds::train(
                &capture,
                &ModelKind::KMeans(KMeansConfig { k_max: 24, ..KMeansConfig::default() }),
                ids_config,
                &mut rng2,
            )
            .expect("training capture contains both classes");
            let report = live.run_live(SimDuration::from_secs(scale.live_secs), fresh.ids);
            VectorDetectability {
                vector: vector.to_string(),
                accuracy_percent: report.log.mean_accuracy() * 100.0,
                malicious_recall_percent: report
                    .log
                    .malicious_recall()
                    .map_or(f64::NAN, |r| r * 100.0),
            }
        })
        .collect()
}

/// The detection scenario under chaos: the standard live run plus a
/// full fault plan — a bridge outage mid-flood, a transient loss ramp,
/// a latency-jitter ramp, a bandwidth throttle, and a CPU-pressure
/// spike on the IDS node strong enough to drive windows into
/// `degraded`. All offsets are relative to the end of the infection
/// lead, scaled to land inside the live phase.
pub fn chaos_scenario(seed: u64, live_secs: u64, epoch_offset_secs: u64) -> ScenarioConfig {
    let mut config = detection_scenario(seed, live_secs, epoch_offset_secs);
    let live_start = epoch_offset_secs; // live phase begins after the epoch gap
    let at = |frac: f64| SimDuration::from_secs_f64(live_start as f64 + live_secs as f64 * frac);
    config.faults = FaultPlanConfig {
        flaps: vec![LinkFlapSpec { start: at(0.20), down_for: SimDuration::from_secs(2) }],
        random_flap: None,
        loss_ramps: vec![LossRampSpec {
            start: at(0.40),
            duration: SimDuration::from_secs(6),
            peak: 0.25,
            steps: 6,
        }],
        jitter: vec![JitterSpec {
            start: at(0.55),
            duration: SimDuration::from_secs(6),
            peak: SimDuration::from_millis(40),
            steps: 6,
        }],
        throttles: vec![ThrottleSpec {
            start: at(0.70),
            duration: SimDuration::from_secs(5),
            factor: 0.25,
        }],
        ids_pressure: vec![CpuPressureSpec {
            start: at(0.30),
            duration: SimDuration::from_secs(10),
            factor: 5_000.0,
        }],
        crashes: Vec::new(),
        reboots: Vec::new(),
    };
    config
}

/// The detection scenario under container-lifecycle faults: a device
/// reboots mid-run (losing its memory-resident bot, as a Mirai
/// infection would), and later the TServer itself reboots, failing
/// benign transactions until it returns. Offsets are relative to the
/// end of the infection lead, scaled to land inside the live phase
/// with enough tail for the C2 to evict the silent bot (heartbeat
/// timeout, ~25 s) and re-scan the rebooted device.
pub fn lifecycle_scenario(seed: u64, live_secs: u64, epoch_offset_secs: u64) -> ScenarioConfig {
    let mut config = detection_scenario(seed, live_secs, epoch_offset_secs);
    let live_start = epoch_offset_secs;
    let at = |frac: f64| SimDuration::from_secs_f64(live_start as f64 + live_secs as f64 * frac);
    config.faults.reboots = vec![
        RebootSpec {
            target: LifecycleTarget::Device(0),
            start: at(0.25),
            down_for: SimDuration::from_secs(3),
        },
        RebootSpec {
            target: LifecycleTarget::TServer,
            start: at(0.35),
            down_for: SimDuration::from_secs(4),
        },
    ];
    config
}

/// The outcome of a lifecycle chaos run: detection log, robustness
/// accounting (downtime, benign success rate, eviction/reinfection)
/// and bridge counters. Like [`run_chaos_detection`], a pure function
/// of the seed — repeated runs are byte-identical.
#[derive(Debug)]
pub struct LifecycleOutcome {
    /// The live phase's detection log, sustainability and robustness.
    pub live: LiveReport,
    /// Bridge counters after the run.
    pub bridge_stats: netsim::link::LinkStats,
    /// The exact scenario that ran.
    pub scenario: ScenarioConfig,
}

/// E12: the detection pipeline while containers crash and reboot.
/// Trains the K-Means IDS on a clean capture, then deploys the live
/// run with the [`lifecycle_scenario`] reboot plan. The robustness
/// report shows the benign success-rate dip during the TServer outage
/// and the eviction → reinfection cycle after the device reboot.
pub fn run_lifecycle_detection(seed: u64, scale: &ExperimentScale) -> LifecycleOutcome {
    let capture = run_training_capture(seed, scale);
    let ids_config = IdsConfig { max_train_samples: scale.max_train_samples, ..IdsConfig::default() };
    let mut rng = SimRng::seed_from(seed ^ 0x7ea1);
    let outcome = TrainedIds::train(
        &capture,
        &ModelKind::KMeans(KMeansConfig { k_max: 24, ..KMeansConfig::default() }),
        ids_config,
        &mut rng,
    )
    .expect("training capture contains both classes");

    let epoch_offset = scale.capture_secs + 5;
    let scenario = lifecycle_scenario(seed, scale.live_secs, epoch_offset);
    let mut live = Testbed::deploy(scenario.clone());
    live.run_infection_lead();
    let _ = live.run_capture(SimDuration::from_secs(epoch_offset));
    let report = live.run_live(SimDuration::from_secs(scale.live_secs), outcome.ids);
    let bridge_stats = live.bridge_stats();
    LifecycleOutcome { live: report, bridge_stats, scenario }
}

/// The outcome of a chaos detection run (E11).
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The live phase's detection log, sustainability and robustness.
    pub live: LiveReport,
    /// Bridge counters after the run — fault drops are visible as
    /// `drops_link_down` and the loss ramp as `drops_lost`.
    pub bridge_stats: netsim::link::LinkStats,
    /// The exact scenario that ran (fault plan included).
    pub scenario: ScenarioConfig,
}

/// E11: the detection pipeline under injected faults. Trains on a clean
/// capture, then deploys the live run with the [`chaos_scenario`] fault
/// plan. The whole run is a pure function of `seed`: repeated
/// invocations produce byte-identical detection logs
/// ([`ids::realtime::DetectionLog::serialize_compact`]) and link counters.
pub fn run_chaos_detection(seed: u64, scale: &ExperimentScale) -> ChaosOutcome {
    run_kmeans_live(seed, scale, true)
}

/// The fault-free twin of [`run_chaos_detection`]: identical training,
/// identical scenario, empty fault plan. Pairing the two isolates the
/// effect of the injected chaos on the same traffic.
pub fn run_baseline_detection(seed: u64, scale: &ExperimentScale) -> ChaosOutcome {
    run_kmeans_live(seed, scale, false)
}

fn run_kmeans_live(seed: u64, scale: &ExperimentScale, with_faults: bool) -> ChaosOutcome {
    let capture = run_training_capture(seed, scale);
    let ids_config = IdsConfig { max_train_samples: scale.max_train_samples, ..IdsConfig::default() };
    let mut rng = SimRng::seed_from(seed ^ 0x7ea1);
    let outcome = TrainedIds::train(
        &capture,
        &ModelKind::KMeans(KMeansConfig { k_max: 24, ..KMeansConfig::default() }),
        ids_config,
        &mut rng,
    )
    .expect("training capture contains both classes");

    let epoch_offset = scale.capture_secs + 5;
    let scenario = if with_faults {
        chaos_scenario(seed, scale.live_secs, epoch_offset)
    } else {
        detection_scenario(seed, scale.live_secs, epoch_offset)
    };
    let mut live = Testbed::deploy(scenario.clone());
    live.run_infection_lead();
    let _ = live.run_capture(SimDuration::from_secs(epoch_offset));
    let report = live.run_live(SimDuration::from_secs(scale.live_secs), outcome.ids);
    let bridge_stats = live.bridge_stats();
    ChaosOutcome { live: report, bridge_stats, scenario }
}

/// Champion and challenger for a serving run, trained deterministically
/// from one capture: the champion is the standard K-Means IDS, the
/// challenger a coarser (cheaper) K-Means fitted from an independent
/// RNG stream.
pub fn train_serving_models(
    capture: &capture::dataset::Dataset,
    scale: &ExperimentScale,
    seed: u64,
) -> (TrainedIds, TrainedIds) {
    let ids_config = IdsConfig { max_train_samples: scale.max_train_samples, ..IdsConfig::default() };
    let mut rng = SimRng::seed_from(seed ^ 0x7ea1);
    let champion = TrainedIds::train(
        capture,
        &ModelKind::KMeans(KMeansConfig { k_max: 24, ..KMeansConfig::default() }),
        ids_config,
        &mut rng,
    )
    .expect("training capture contains both classes");
    let mut rng = SimRng::seed_from(seed ^ 0xc4a1);
    let challenger = TrainedIds::train(
        capture,
        &ModelKind::KMeans(KMeansConfig { k_max: 8, ..KMeansConfig::default() }),
        ids_config,
        &mut rng,
    )
    .expect("training capture contains both classes");
    (champion.ids, challenger.ids)
}

/// The outcome of a serving-layer run (E13).
#[derive(Debug)]
pub struct ServingOutcome {
    /// Per-tenant logs, accounting, swap history and telemetry.
    pub report: ServingRunReport,
    /// Bridge counters after the run.
    pub bridge_stats: netsim::link::LinkStats,
    /// The exact scenario that ran.
    pub scenario: ScenarioConfig,
}

/// E13: the long-lived serving layer under the full chaos plan (CPU
/// pressure spike + link flap + loss/jitter/throttle ramps). Trains a
/// champion and a cheaper challenger, deploys a two-tenant
/// [`ids::serving::IdsService`] — the TServer link on a drop-oldest
/// bounded queue, one device link on sampled degradation — promotes the
/// challenger mid-run (a boundary hot-swap that bumps the generation in
/// the `DetectionLog`), and retrains in the background from the replay
/// buffer. Budgets are sized so the flood phases actually overflow the
/// queues: the run exercises every shed/degrade path while conservation
/// (`ingested == classified + degraded + shed`) holds exactly.
///
/// A pure function of `seed`: repeated runs (and runs under different
/// `ml::par` thread counts) are byte-identical.
pub fn run_serving_detection(seed: u64, scale: &ExperimentScale) -> ServingOutcome {
    let capture = run_training_capture(seed, scale);
    let (champion, challenger) = train_serving_models(&capture, scale, seed);

    let epoch_offset = scale.capture_secs + 5;
    let scenario = chaos_scenario(seed, scale.live_secs, epoch_offset);
    let mut live = Testbed::deploy(scenario.clone());
    live.run_infection_lead();
    let _ = live.run_capture(SimDuration::from_secs(epoch_offset));

    let mut config = ids::serving::ServingConfig::new(champion);
    config.challenger = Some(challenger);
    config.promote_challenger_at_tick = Some(scale.live_secs / 2);
    config.promote_delay_ticks = 2;
    config.retrain = Some(ids::serving::RetrainPolicy {
        every_windows: (scale.live_secs / 4).max(4),
        delay_windows: 2,
        kind: ModelKind::KMeans(KMeansConfig { k_max: 8, ..KMeansConfig::default() }),
        replay_capacity: scale.max_train_samples.min(4_000),
        rng_salt: seed ^ 0x5e47e,
    });
    if scenario.buggify.enabled {
        config.chaos = Some((scenario.buggify.swarm_seed, scenario.buggify.intensity));
    }
    let tenants = vec![
        (
            {
                let mut t = ids::serving::TenantConfig::new("tserver");
                t.queue_capacity = 512;
                t.policy = ids::serving::BackpressurePolicy::DropOldest;
                t.budget.drain_records_per_tick = 256;
                t
            },
            ServingTenantTarget::TServer,
        ),
        (
            {
                let mut t = ids::serving::TenantConfig::new("dev0");
                t.queue_capacity = 256;
                t.policy = ids::serving::BackpressurePolicy::DegradeSampled { keep: 2 };
                t.budget.drain_records_per_tick = 128;
                t
            },
            ServingTenantTarget::Device(0),
        ),
    ];
    let report = live.run_live_serving(SimDuration::from_secs(scale.live_secs), config, tenants);
    let bridge_stats = live.bridge_stats();
    ServingOutcome { report, bridge_stats, scenario }
}

/// Runs just the training capture (E3's dataset statistics).
pub fn run_training_capture(seed: u64, scale: &ExperimentScale) -> capture::dataset::Dataset {
    let mut testbed = Testbed::deploy(training_scenario(seed, scale.capture_secs));
    testbed.run_infection_lead();
    testbed.run_capture(SimDuration::from_secs(scale.capture_secs))
}

/// One churn/duration grid point of the attack-impact experiment (E6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackImpactPoint {
    /// Churn rate (departures per device per minute).
    pub churn_per_min: f64,
    /// Attack duration in seconds.
    pub attack_secs: u32,
    /// Bots connected to the C2 at the end of the run.
    pub connected_bots: u64,
    /// Flood packets that reached the victim's NIC.
    pub victim_recv_packets: u64,
    /// SYNs the victim's HTTP backlog had to drop.
    pub victim_syn_drops: u64,
    /// Benign HTTP transactions completed during the run.
    pub benign_completed: u64,
    /// Benign HTTP transactions that failed during the run.
    pub benign_failed: u64,
}

/// E6: how churn and attack duration shape attack impact on the TServer
/// (the scenario axes DDoSim/the paper call out in §III-A).
pub fn run_attack_impact(seed: u64, churn_rates: &[f64], attack_secs: &[u32]) -> Vec<AttackImpactPoint> {
    let mut out = Vec::new();
    for &churn in churn_rates {
        for &duration in attack_secs {
            let mut config = ScenarioConfig::paper_default(seed);
            config.churn_rate_per_min = churn;
            config.attacks = rotation(&[10], duration, 400);
            let run_secs = 10 + duration as u64 + 10;
            let mut testbed = Testbed::deploy(config);
            testbed.run_infection_lead();
            let before_recv =
                testbed.runtime().world().node_stats(testbed.runtime().node(testbed.tserver())).recv_packets;
            let _ = testbed.run_capture(SimDuration::from_secs(run_secs));
            let stats =
                testbed.runtime().world().node_stats(testbed.runtime().node(testbed.tserver()));
            let (_, syn_drops) = testbed.tserver_backlog_pressure();
            let http = testbed.client_stats().http.snapshot();
            out.push(AttackImpactPoint {
                churn_per_min: churn,
                attack_secs: duration,
                connected_bots: testbed.botnet_stats().snapshot().connected_bots,
                victim_recv_packets: stats.recv_packets - before_recv,
                victim_syn_drops: syn_drops,
                benign_completed: http.completed,
                benign_failed: http.failed,
            });
        }
    }
    out
}

/// One point of the statistical-feature-period ablation (E7: §IV-E's
/// CPU mitigation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowAblationPoint {
    /// Statistical-feature recomputation period, in 1-second windows.
    pub stats_period: u64,
    /// Mean IDS CPU utilisation (%).
    pub cpu_percent: f64,
    /// Mean real-time accuracy (%).
    pub accuracy_percent: f64,
    /// Distinct flows folded at window closes over the run
    /// (`features.incremental.flows_touched`) — the deterministic
    /// measure of statistical-feature work: downgraded windows track
    /// handshakes only and fold nothing, so a longer period folds
    /// strictly fewer flows.
    pub flows_folded: u64,
}

/// E7: "extending the period for computing these features" reduces CPU
/// use (at some accuracy cost from staler statistics) — the mitigation
/// §IV-E proposes. Detection windows stay at 1 s; the statistical
/// features are recomputed only every `stats_period`-th window.
pub fn run_window_ablation(seed: u64, scale: &ExperimentScale, periods: &[u64]) -> Vec<WindowAblationPoint> {
    let capture = run_training_capture(seed, scale);
    periods
        .iter()
        .map(|&stats_period| {
            let ids_config = IdsConfig {
                stats_refresh: stats_period.max(1) as usize,
                max_train_samples: scale.max_train_samples,
                ..IdsConfig::default()
            };
            let mut rng = SimRng::seed_from(seed ^ 0xab1a);
            let outcome = TrainedIds::train(
                &capture,
                &ModelKind::KMeans(KMeansConfig { k_max: 24, ..KMeansConfig::default() }),
                ids_config,
                &mut rng,
            )
            .expect("capture contains both classes");
            let epoch_offset = scale.capture_secs + 5;
            let mut live = Testbed::deploy(detection_scenario(seed, scale.live_secs, epoch_offset));
            live.run_infection_lead();
            let _ = live.run_capture(SimDuration::from_secs(epoch_offset));
            let report = run_metered_live(&mut live, scale.live_secs, outcome.ids);
            WindowAblationPoint {
                stats_period,
                cpu_percent: report.sustainability.cpu_percent,
                accuracy_percent: report.log.mean_accuracy() * 100.0,
                flows_folded: report
                    .telemetry
                    .counter("features.incremental.flows_touched")
                    .unwrap_or(0),
            }
        })
        .collect()
}
