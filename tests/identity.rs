//! Byte-identity guard for the zero-copy packet pipeline.
//!
//! The slab-backed packet pool, the sniffer double-buffer and the
//! persistent window accumulator are pure representation changes: they
//! must not alter a single byte of what the testbed produces. This test
//! pins three artifacts of a fixed-seed run against golden fixtures
//! captured from the pre-pool pipeline (`tests/golden/`):
//!
//! - the labelled dataset CSV export (as FNV-1a hash + byte length —
//!   the full export is several megabytes),
//! - the live run's full telemetry text export,
//! - the per-window alert stream (`DetectionLog::serialize_compact`),
//!   for the K-Means IDS and, separately, for the CNN IDS (the CNN
//!   stream pins the batched inference kernel's verdicts).
//!
//! It also asserts plain same-seed reproducibility (two in-process runs
//! are byte-identical), independent of the fixtures.
//!
//! To regenerate the fixtures after an *intentional* behaviour change:
//! `UPDATE_IDENTITY_FIXTURES=1 cargo test --test identity`.

use capture::record::PacketRecord;
use ddoshield::experiments::{
    chaos_scenario, detection_scenario, training_scenario, ExperimentScale,
};
use ddoshield::Testbed;
use features::extract::{Window, WindowAggregator, DEFAULT_ACK_GRACE_SECS};
use features::window::{AckGrace, WindowStats};
use ids::pipeline::{IdsConfig, ModelKind, TrainedIds};
use ml::cnn::CnnConfig;
use ml::kmeans::KMeansConfig;
use netsim::time::SimDuration;
use netsim::SimRng;
use std::path::Path;

const SEED: u64 = 11;

fn scale() -> ExperimentScale {
    ExperimentScale { capture_secs: 40, live_secs: 30, max_train_samples: 2_000, cnn_epochs: 2 }
}

fn kmeans() -> ModelKind {
    ModelKind::KMeans(KMeansConfig { k_max: 24, ..KMeansConfig::default() })
}

/// One full capture → train `model` → live pass at a fixed seed,
/// returning (dataset CSV, telemetry text, alert stream).
fn produce_artifacts(model: &ModelKind) -> (String, String, String) {
    let scale = scale();

    let mut testbed = Testbed::deploy(training_scenario(SEED, scale.capture_secs));
    testbed.run_infection_lead();
    let capture = testbed.run_capture(SimDuration::from_secs(scale.capture_secs));
    let mut csv = Vec::new();
    capture.write_csv(&mut csv).expect("write to Vec cannot fail");
    let dataset_csv = String::from_utf8(csv).expect("csv is ascii");

    let ids_config = IdsConfig { max_train_samples: scale.max_train_samples, ..IdsConfig::default() };
    let mut rng = SimRng::seed_from(SEED ^ 0x7ea1);
    let outcome = TrainedIds::train(
        &capture,
        model,
        ids_config,
        &mut rng,
    )
    .expect("training capture contains both classes");

    let epoch_offset = scale.capture_secs + 5;
    let mut live = Testbed::deploy(detection_scenario(SEED, scale.live_secs, epoch_offset));
    live.run_infection_lead();
    let _ = live.run_capture(SimDuration::from_secs(epoch_offset));
    let report = live.run_live(SimDuration::from_secs(scale.live_secs), outcome.ids);

    let telemetry = report.telemetry.render_text();
    let alerts = report.log.serialize_compact();
    (dataset_csv, telemetry, alerts)
}

/// FNV-1a over the artifact's bytes; any single-byte change flips it.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn check_fixture(name: &str, produced: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("UPDATE_IDENTITY_FIXTURES").is_some() {
        std::fs::write(&path, produced).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e} (run with UPDATE_IDENTITY_FIXTURES=1)", path.display()));
    assert_eq!(
        produced, &golden,
        "{name} diverged from the pre-pool pipeline's bytes; if the change is intentional, \
         regenerate with UPDATE_IDENTITY_FIXTURES=1"
    );
}

#[test]
fn pipeline_outputs_are_byte_identical_to_golden_and_across_runs() {
    let (csv_a, telemetry_a, alerts_a) = produce_artifacts(&kmeans());

    // Same-seed reproducibility within this build.
    let (csv_b, telemetry_b, alerts_b) = produce_artifacts(&kmeans());
    assert_eq!(csv_a, csv_b, "dataset export differs across same-seed runs");
    assert_eq!(telemetry_a, telemetry_b, "telemetry differs across same-seed runs");
    assert_eq!(alerts_a, alerts_b, "alert stream differs across same-seed runs");

    // Identity with the committed pre-refactor artifacts. The pool
    // gauges (`netsim.pool.*`) did not exist before the zero-copy
    // refactor, so they are stripped before the golden comparison and
    // checked for presence separately.
    let dataset_digest = format!("fnv1a={:016x} bytes={}\n", fnv1a(csv_a.as_bytes()), csv_a.len());
    check_fixture("dataset.digest", &dataset_digest);
    let (telemetry_legacy, pool_lines) = split_pool_lines(&telemetry_a);
    assert!(
        pool_lines.iter().any(|l| l.contains("netsim.pool.high_water")),
        "pool gauges missing from telemetry"
    );
    check_fixture("telemetry.txt", &telemetry_legacy);
    check_fixture("alerts.txt", &alerts_a);
}

/// The CNN IDS's live alert stream at the same seed and scale, pinned
/// against a fixture captured from the per-row im2col inference path:
/// the row-lockstep batch kernel must reproduce every verdict.
#[test]
fn cnn_alert_stream_is_byte_identical_to_golden() {
    let model = ModelKind::Cnn(CnnConfig { epochs: scale().cnn_epochs, ..CnnConfig::default() });
    let (_, _, alerts) = produce_artifacts(&model);
    check_fixture("alerts_cnn.txt", &alerts);
}

/// Streams `records` through the incremental (`FlowDelta`-backed)
/// [`WindowAggregator`] and, in lockstep, replays the same windowing
/// control flow on the batch oracle
/// ([`WindowStats::compute_streaming`] for fresh windows,
/// [`AckGrace::advance`] for `stats_refresh`-downgraded
/// handshake-only windows), panicking on the first bit mismatch.
/// Returns the incremental path's per-window statistical rows as
/// stable text (window index + the raw f64 bits of every feature).
fn extract_both_ways(records: &[PacketRecord], refresh: usize) -> String {
    use std::fmt::Write as _;
    let window_secs = 1u64;
    let grace = DEFAULT_ACK_GRACE_SECS;
    let mut agg = WindowAggregator::new(window_secs).with_stats_refresh(refresh);
    let mut incremental: Vec<(Window, bool)> = Vec::new();
    for &r in records {
        if let Some(w) = agg.push(r) {
            incremental.push((w, false));
        }
    }
    if let Some(w) = agg.flush() {
        incremental.push((w, true));
    }
    assert!(!incremental.is_empty(), "capture produced no windows");

    let mut out = String::new();
    let mut carry = AckGrace::default();
    let mut cached: Option<WindowStats> = None;
    for (emitted, (window, is_flush)) in incremental.iter().enumerate() {
        let nominal = window_secs as f64;
        let start = (window.index * window_secs) as f64;
        let (span, end) = if *is_flush {
            let last_ts = window.records.last().expect("non-empty window").ts.as_secs_f64();
            ((last_ts - start).clamp(1e-3, nominal), f64::INFINITY)
        } else {
            (nominal, start + nominal)
        };
        // The aggregator's refresh predicate: window number `emitted`
        // opened with `emitted` windows already closed.
        let full = cached.is_none() || emitted % refresh == 0;
        let stats = if full {
            let (stats, next) =
                WindowStats::compute_streaming(&window.records, span, end, grace, &carry);
            carry = next;
            cached = Some(stats);
            stats
        } else {
            carry = carry.advance(&window.records, end, grace);
            cached.expect("cache checked above")
        };
        assert_eq!(
            window.stats.as_features().map(f64::to_bits),
            stats.as_features().map(f64::to_bits),
            "window {} (refresh {refresh}): incremental stats diverged from the batch oracle",
            window.index
        );
        write!(out, "w={}", window.index).expect("writing to String cannot fail");
        for v in window.stats.as_features() {
            write!(out, " {:016x}", v.to_bits()).expect("writing to String cannot fail");
        }
        out.push('\n');
    }
    out
}

/// Byte-identity of the incremental feature extractor against the
/// batch oracle over the full chaos capture — every window, every
/// statistical feature, bit for bit — at `stats_refresh = 1` (every
/// window fresh, ACK-grace carry crossing every boundary) and
/// `stats_refresh = 3` (handshake-only downgraded windows whose carry
/// advances without stats). The per-window bits are also pinned as a
/// golden digest so a divergence in *both* paths at once cannot slip
/// through.
#[test]
fn incremental_extraction_matches_batch_oracle_on_chaos_capture() {
    let scale = scale();
    let epoch_offset = scale.capture_secs + 5;
    let mut testbed = Testbed::deploy(chaos_scenario(SEED, scale.live_secs, epoch_offset));
    testbed.run_infection_lead();
    let capture = testbed.run_capture(SimDuration::from_secs(epoch_offset + scale.live_secs));
    let records = capture.records();
    assert!(!records.is_empty(), "chaos capture produced no records");

    let mut digest = String::new();
    for refresh in [1usize, 3] {
        let rows = extract_both_ways(records, refresh);
        let windows = rows.lines().count();
        digest.push_str(&format!(
            "refresh={refresh} windows={windows} fnv1a={:016x}\n",
            fnv1a(rows.as_bytes())
        ));
    }
    check_fixture("features.digest", &digest);
}

/// Splits telemetry text into (everything except pool gauges, pool
/// gauge lines), preserving line order and the trailing newline shape.
fn split_pool_lines(telemetry: &str) -> (String, Vec<String>) {
    let mut rest = String::with_capacity(telemetry.len());
    let mut pool = Vec::new();
    for line in telemetry.lines() {
        if line.contains("netsim.pool.") {
            pool.push(line.to_string());
        } else {
            rest.push_str(line);
            rest.push('\n');
        }
    }
    (rest, pool)
}
