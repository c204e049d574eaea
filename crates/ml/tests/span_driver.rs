//! The span-predict driver against the per-row oracle.
//!
//! Every batch entry point runs through `predict_batch_spans_into`,
//! which cuts the spans' rows, back to back, into fixed 64-row blocks
//! (a block may hold rows of several spans) and runs them on the
//! worker pool. For RF, K-Means and the CNN, with spans of 0, 1, 63,
//! 64, 65 and 200 rows — adjacent or with gaps between them — over a
//! full view and a subset view, the classes and per-span work must be
//! identical at 1 and 4 threads and equal to per-row
//! `predict_with_work`.

use ml::classifier::{Classifier, RowSpan};
use ml::cnn::{Cnn, CnnConfig};
use ml::kmeans::{KMeansConfig, KMeansDetector};
use ml::matrix::{FeatureMatrix, MatrixView};
use ml::par;
use ml::rf::{ForestConfig, RandomForest};
use netsim::rng::SimRng;

const DIMS: usize = 23;
const SPAN_LENS: [usize; 6] = [0, 1, 63, 64, 65, 200];

/// Two overlapping classes. With `nan`, every 17th row carries a NaN so
/// RF walks take their NaN-routes-right path too (probe rows only: a
/// NaN would poison CNN training).
fn synth(n: usize, seed: u64, nan: bool) -> (FeatureMatrix, Vec<usize>) {
    let mut rng = SimRng::seed_from(seed);
    let mut matrix = FeatureMatrix::new(DIMS);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = rng.chance(0.5);
        let shift = if class { 0.6 } else { 0.0 };
        let mut row: Vec<f64> = (0..DIMS).map(|_| rng.standard_normal() + shift).collect();
        if nan && i % 17 == 0 {
            row[i % DIMS] = f64::NAN;
        }
        matrix.push_row(&row);
        labels.push(usize::from(class));
    }
    (matrix, labels)
}

fn models() -> Vec<Box<dyn Classifier>> {
    let (train, labels) = synth(600, 1, false);
    let mut rng = SimRng::seed_from(2);
    let forest = RandomForest::fit_view(
        train.view(),
        &labels,
        &ForestConfig { n_trees: 15, ..ForestConfig::default() },
        &mut rng,
    )
    .unwrap();
    let kmeans =
        KMeansDetector::fit_view(train.view(), &labels, &KMeansConfig::default(), &mut rng).unwrap();
    let cnn_config = CnnConfig { input_len: DIMS, epochs: 2, ..CnnConfig::default() };
    let cnn = Cnn::fit_view(train.view(), &labels, &cnn_config, &mut rng).unwrap();
    vec![Box::new(forest), Box::new(kmeans), Box::new(cnn)]
}

/// Spans of every length in `SPAN_LENS`, starting at row 3 so no span
/// starts on a block boundary of the view, with `gap` unused rows after
/// each span.
fn spans(gap: usize) -> Vec<RowSpan> {
    let mut start = 3;
    SPAN_LENS
        .iter()
        .map(|&len| {
            let span = RowSpan { start, len };
            start += len + gap;
            span
        })
        .collect()
}

fn check(model: &dyn Classifier, view: MatrixView<'_>, gap: usize, what: &str) {
    let name = model.name();
    let spans = spans(gap);
    let per_row: Vec<(usize, u64)> =
        spans.iter().flat_map(RowSpan::range).map(|i| model.predict_with_work(view.row(i))).collect();
    let classes: Vec<usize> = per_row.iter().map(|p| p.0).collect();
    let mut expected_work = Vec::new();
    let mut offset = 0;
    for span in &spans {
        expected_work.push(per_row[offset..offset + span.len].iter().map(|p| p.1).sum::<u64>());
        offset += span.len;
    }
    let total: u64 = expected_work.iter().sum();
    assert!(classes.contains(&0) && classes.contains(&1), "{name} {what}: both classes exercised");

    for threads in [1, 4] {
        par::with_threads(threads, || {
            let (mut out, mut span_work) = (vec![9; 3], vec![9; 11]);
            let got = model.predict_batch_spans_into(view, &spans, &mut out, &mut span_work);
            assert_eq!(out, classes, "{name} {what} at {threads} threads: classes");
            assert_eq!(span_work, expected_work, "{name} {what} at {threads} threads: span work");
            assert_eq!(got, total, "{name} {what} at {threads} threads: total work");

            let whole: Vec<(usize, u64)> =
                (0..view.n_rows()).map(|i| model.predict_with_work(view.row(i))).collect();
            let whole_classes: Vec<usize> = whole.iter().map(|p| p.0).collect();
            let whole_work: u64 = whole.iter().map(|p| p.1).sum();
            let mut into = Vec::new();
            assert_eq!(model.predict_batch_into(view, &mut into), whole_work, "{name} {what}");
            assert_eq!(into, whole_classes, "{name} {what}: predict_batch_into");
            assert_eq!(model.predict_batch_with_work(view), (whole_classes.clone(), whole_work));
            assert_eq!(model.predict_batch(view), whole_classes, "{name} {what}: predict_batch");
        });
    }
}

#[test]
fn span_driver_matches_per_row_at_any_thread_count() {
    let (probe, _) = synth(520, 3, true);
    // A subset view that reverses the rows and skips every fifth one.
    let subset: Vec<usize> = (0..probe.n_rows()).rev().filter(|i| i % 5 != 0).collect();
    assert!(subset.len() >= 3 + SPAN_LENS.iter().map(|len| len + 2).sum::<usize>());
    for model in models() {
        for gap in [0, 2] {
            check(model.as_ref(), probe.view(), gap, &format!("full view, gap {gap}"));
            check(model.as_ref(), probe.subset(&subset), gap, &format!("subset view, gap {gap}"));
        }
    }
}
