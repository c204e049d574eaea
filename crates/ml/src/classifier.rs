//! The common interface the IDS uses to drive any of the three models.

use std::cell::Cell;

use crate::codec::DecodeError;
use crate::matrix::MatrixView;
use crate::metrics::{ConfusionMatrix, MetricsReport};
use crate::par;

/// Rows per block of batch prediction: the unit
/// [`Classifier::predict_block`] receives and the parallel driver
/// schedules. A fixed constant, never derived from the thread count.
pub const BLOCK_ROWS: usize = 64;

/// A contiguous run of matrix rows belonging to one logical unit (a
/// window, a tenant) inside a coalesced batch. The serving layer stacks
/// every tenant's ready windows into one [`crate::matrix::FeatureMatrix`]
/// and classifies them in a single
/// [`Classifier::predict_batch_spans_into`] pass; the spans are what let
/// per-tenant budgets, degradation ladders and per-window work
/// attribution survive the coalescing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSpan {
    /// First row of the span.
    pub start: usize,
    /// Number of rows in the span.
    pub len: usize,
}

impl RowSpan {
    /// The row range the span covers.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// A trained binary traffic classifier (0 = benign, 1 = malicious).
///
/// Object-safe so the IDS can hold `Box<dyn Classifier>` and swap models
/// at deployment time, the way the paper's IDS container selects one of
/// RF / K-Means / CNN "based on user needs". `Send + Sync` is a
/// supertrait so batch prediction can fan rows out across threads
/// (models are plain parameter data; none hold interior mutability).
pub trait Classifier: Send + Sync {
    /// Human-readable model name ("RF", "K-Means", "CNN").
    fn name(&self) -> &'static str;

    /// Classifies one feature vector.
    fn predict(&self, features: &[f64]) -> usize;

    /// Classifies one feature vector and reports the *deterministic*
    /// work the prediction performed, in model-specific units (RF: tree
    /// nodes visited; CNN: multiply-accumulates; K-Means: distance
    /// multiply-adds). Work units are a pure function of the model and
    /// the input — never wall-clock time — so telemetry built on them
    /// stays byte-identical across same-seed runs and thread counts.
    ///
    /// The default reports zero work for models without an instrumented
    /// hot path.
    fn predict_with_work(&self, features: &[f64]) -> (usize, u64) {
        (self.predict(features), 0)
    }

    /// Classifies the view rows named by `rows` into `out`, one
    /// `(class, work)` pair per row (`out.len() == rows.len()`): the
    /// batched form of [`Classifier::predict_with_work`], and the one
    /// batch kernel a model specialises. Every batch entry point runs it
    /// over fixed [`BLOCK_ROWS`]-row blocks, on several threads at once;
    /// a block may hold rows of several spans. Each pair must equal
    /// [`Classifier::predict_with_work`] on that row. The default is that
    /// per-row loop.
    fn predict_block(&self, view: MatrixView<'_>, rows: &[usize], out: &mut [(usize, u64)]) {
        for (slot, &i) in out.iter_mut().zip(rows) {
            *slot = self.predict_with_work(view.row(i));
        }
    }

    /// Classifies the rows of several disjoint, in-order [`RowSpan`]s in
    /// one pass: `out` receives every span's predictions back to back
    /// (span order), `span_work` receives one deterministic work total
    /// per span, and the return value is the grand total. Both buffers
    /// are cleared and refilled, reusing their capacity, so after
    /// warm-up a steady-state pass does not touch the allocator on the
    /// calling thread.
    ///
    /// The spans' rows, back to back, are cut into fixed
    /// [`BLOCK_ROWS`]-row blocks — a block may straddle spans, so short
    /// spans still fill a block — and the blocks run through
    /// [`Classifier::predict_block`] in parallel ([`par::par_blocks`]).
    /// The kernel reports work per row, so each span's total is exact
    /// wherever the block edges fall. Block boundaries never depend on
    /// the thread count, so classes and per-span work are identical at
    /// any thread count and equal to per-row
    /// [`Classifier::predict_with_work`] — which is what lets the
    /// serving layer coalesce all tenants' windows into one matrix pass
    /// while keeping per-window work attribution exact.
    fn predict_batch_spans_into(
        &self,
        view: MatrixView<'_>,
        spans: &[RowSpan],
        out: &mut Vec<usize>,
        span_work: &mut Vec<u64>,
    ) -> u64 {
        span_work.clear();
        span_work.resize(spans.len(), 0);
        predict_spans(self, view, spans, out, span_work)
    }

    /// Classifies every row of a view into a caller-owned buffer (`out`
    /// is cleared and refilled, reusing its capacity) and returns the
    /// summed work units: the span driver over one whole-view span.
    fn predict_batch_into(&self, view: MatrixView<'_>, out: &mut Vec<usize>) -> u64 {
        let whole = [RowSpan { start: 0, len: view.n_rows() }];
        predict_spans(self, view, &whole, out, &mut [0])
    }

    /// Classifies every row of a view and totals the deterministic work
    /// units (see [`Classifier::predict_with_work`]).
    fn predict_batch_with_work(&self, view: MatrixView<'_>) -> (Vec<usize>, u64) {
        let mut out = Vec::new();
        let work = self.predict_batch_into(view, &mut out);
        (out, work)
    }

    /// Classifies every row visible through a flat matrix view, in row
    /// order. All batch feature data travels as
    /// [`crate::matrix::FeatureMatrix`] rows; there is no nested-`Vec`
    /// batch path.
    fn predict_batch(&self, view: MatrixView<'_>) -> Vec<usize> {
        self.predict_batch_with_work(view).0
    }

    /// Serialises the model (the PKL-file analogue). The blob length is
    /// the paper's "Model Size" metric.
    fn encode(&self) -> Vec<u8>;

    /// Approximate resident memory of the model's parameters and
    /// buffers, in bytes (the paper's "Memory" metric).
    fn memory_bytes(&self) -> u64;

    /// Clones the model behind the trait object, so one training phase
    /// can feed several independent deployments (e.g. a swarm of
    /// buggify runs replaying the same trained IDS under many seeds).
    fn clone_box(&self) -> Box<dyn Classifier>;
}

/// The span driver's per-thread scratch: the spans' view rows back to
/// back, and one `(class, work)` slot per row.
#[derive(Default)]
struct SpanScratch {
    rows: Vec<usize>,
    results: Vec<(usize, u64)>,
}

thread_local! {
    /// Taken out for a driver call and put back after it, so a warm
    /// thread reuses both buffers and a nested call on the same thread
    /// just starts with empty ones.
    static SPAN_SCRATCH: Cell<SpanScratch> =
        const { Cell::new(SpanScratch { rows: Vec::new(), results: Vec::new() }) };
}

/// The span driver behind every batch entry point: fills `out` with the
/// spans' classes and `span_work` (one slot per span) with their work.
fn predict_spans<C: Classifier + ?Sized>(
    model: &C,
    view: MatrixView<'_>,
    spans: &[RowSpan],
    out: &mut Vec<usize>,
    span_work: &mut [u64],
) -> u64 {
    debug_assert_eq!(spans.len(), span_work.len());
    let SpanScratch { mut rows, mut results } = SPAN_SCRATCH.take();
    rows.clear();
    rows.extend(spans.iter().flat_map(RowSpan::range));
    results.clear();
    results.resize(rows.len(), (0, 0));
    par::par_blocks(&mut results, BLOCK_ROWS, |first, block| {
        model.predict_block(view, &rows[first..first + block.len()], block);
    });
    out.clear();
    out.extend(results.iter().map(|&(class, _)| class));
    let mut total = 0u64;
    let mut rest = &results[..];
    for (span, work) in spans.iter().zip(span_work) {
        let (head, tail) = rest.split_at(span.len);
        rest = tail;
        *work = head.iter().map(|&(_, w)| w).sum();
        total += *work;
    }
    SPAN_SCRATCH.set(SpanScratch { rows, results });
    total
}

impl Clone for Box<dyn Classifier> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Evaluates a classifier on the labelled rows of a matrix view,
/// producing the paper's train-time metric row.
pub fn evaluate_view(model: &dyn Classifier, view: MatrixView<'_>, y: &[usize]) -> MetricsReport {
    let predictions = model.predict_batch(view);
    let m = ConfusionMatrix::from_predictions(y, &predictions);
    MetricsReport::from_confusion(&m)
}

/// Error training a model on unusable data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// No training samples.
    EmptyDataset,
    /// Rows have inconsistent arity.
    RaggedFeatures,
    /// Labels and features differ in length.
    LabelMismatch,
    /// Training needs both classes present.
    SingleClass,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            TrainError::EmptyDataset => "empty training dataset",
            TrainError::RaggedFeatures => "ragged feature matrix",
            TrainError::LabelMismatch => "labels and features differ in length",
            TrainError::SingleClass => "training data contains a single class",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TrainError {}

/// Validates a supervised training set, returning its feature arity.
pub fn validate_training_set(x: &[Vec<f64>], y: &[usize]) -> Result<usize, TrainError> {
    if x.is_empty() {
        return Err(TrainError::EmptyDataset);
    }
    if x.len() != y.len() {
        return Err(TrainError::LabelMismatch);
    }
    let dims = x[0].len();
    if x.iter().any(|row| row.len() != dims) {
        return Err(TrainError::RaggedFeatures);
    }
    if y.iter().all(|&l| l == y[0]) {
        return Err(TrainError::SingleClass);
    }
    Ok(dims)
}

/// Validates a supervised training view, returning its feature arity
/// (views are rectangular by construction, so ragged rows cannot occur).
pub fn validate_matrix(view: MatrixView<'_>, y: &[usize]) -> Result<usize, TrainError> {
    if view.is_empty() {
        return Err(TrainError::EmptyDataset);
    }
    if view.n_rows() != y.len() {
        return Err(TrainError::LabelMismatch);
    }
    if y.iter().all(|&l| l == y[0]) {
        return Err(TrainError::SingleClass);
    }
    Ok(view.n_cols())
}

/// Error loading a serialised model.
pub type LoadError = DecodeError;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::FeatureMatrix;

    struct Always(usize);
    impl Classifier for Always {
        fn name(&self) -> &'static str {
            "always"
        }
        fn predict(&self, _features: &[f64]) -> usize {
            self.0
        }
        fn encode(&self) -> Vec<u8> {
            vec![self.0 as u8]
        }
        fn memory_bytes(&self) -> u64 {
            1
        }
        fn clone_box(&self) -> Box<dyn Classifier> {
            Box::new(Always(self.0))
        }
    }

    #[test]
    fn evaluate_scores_a_constant_model() {
        let x = vec![vec![0.0]; 4];
        let y = vec![1, 1, 0, 0];
        let m = FeatureMatrix::from_rows(&x).unwrap();
        let report = evaluate_view(&Always(1), m.view(), &y);
        assert!((report.accuracy - 0.5).abs() < 1e-12);
        assert!((report.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evaluate_view_covers_subsets() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 0, 1, 0];
        let m = FeatureMatrix::from_rows(&x).unwrap();
        let full = evaluate_view(&Always(1), m.view(), &y);
        assert!((full.accuracy - 0.5).abs() < 1e-12);
        let subset = vec![0, 2];
        let sub = evaluate_view(&Always(1), m.subset(&subset), &[1, 1]);
        assert!((sub.accuracy - 1.0).abs() < 1e-12);
    }

    /// The three batch entry points agree row-for-row, and the into-
    /// variant reuses its output buffer without reallocating.
    #[test]
    fn batch_entry_points_agree() {
        let x = vec![vec![0.5], vec![1.5], vec![2.5]];
        let m = FeatureMatrix::from_rows(&x).unwrap();
        let model = Always(1);
        let batch = model.predict_batch(m.view());
        let (with_work, work) = model.predict_batch_with_work(m.view());
        let mut into = Vec::with_capacity(8);
        let into_work = model.predict_batch_into(m.view(), &mut into);
        assert_eq!(batch, vec![1, 1, 1]);
        assert_eq!(batch, with_work);
        assert_eq!(batch, into);
        assert_eq!(work, into_work);
        let ptr = into.as_ptr();
        let _ = model.predict_batch_into(m.view(), &mut into);
        assert_eq!(ptr, into.as_ptr(), "into-variant must reuse its buffer");
    }

    /// Wraps `Always` with work proportional to the row's first value,
    /// so per-span work attribution is observable.
    struct Weighted;
    impl Classifier for Weighted {
        fn name(&self) -> &'static str {
            "weighted"
        }
        fn predict(&self, features: &[f64]) -> usize {
            usize::from(features[0] > 1.0)
        }
        fn predict_with_work(&self, features: &[f64]) -> (usize, u64) {
            (self.predict(features), features[0] as u64)
        }
        fn encode(&self) -> Vec<u8> {
            Vec::new()
        }
        fn memory_bytes(&self) -> u64 {
            0
        }
        fn clone_box(&self) -> Box<dyn Classifier> {
            Box::new(Weighted)
        }
    }

    /// Spans tiling the matrix must reproduce `predict_batch_into`
    /// exactly — same predictions, same total work — while splitting the
    /// work by span.
    #[test]
    fn span_batch_matches_plain_batch() {
        let x: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64]).collect();
        let m = FeatureMatrix::from_rows(&x).unwrap();
        let model = Weighted;
        let mut plain = Vec::new();
        let plain_work = model.predict_batch_into(m.view(), &mut plain);
        let spans =
            [RowSpan { start: 0, len: 3 }, RowSpan { start: 3, len: 0 }, RowSpan { start: 3, len: 4 }];
        let mut spanned = Vec::new();
        let mut span_work = Vec::new();
        let total = model.predict_batch_spans_into(m.view(), &spans, &mut spanned, &mut span_work);
        assert_eq!(spanned, plain);
        assert_eq!(total, plain_work);
        assert_eq!(span_work, vec![1 + 2, 0, 3 + 4 + 5 + 6]);
    }

    #[test]
    fn training_set_validation() {
        assert_eq!(validate_training_set(&[], &[]), Err(TrainError::EmptyDataset));
        assert_eq!(
            validate_training_set(&[vec![1.0]], &[0, 1]),
            Err(TrainError::LabelMismatch)
        );
        assert_eq!(
            validate_training_set(&[vec![1.0], vec![1.0, 2.0]], &[0, 1]),
            Err(TrainError::RaggedFeatures)
        );
        assert_eq!(
            validate_training_set(&[vec![1.0], vec![2.0]], &[1, 1]),
            Err(TrainError::SingleClass)
        );
        assert_eq!(validate_training_set(&[vec![1.0], vec![2.0]], &[0, 1]), Ok(1));
    }

    #[test]
    fn matrix_validation_mirrors_row_validation() {
        let m = FeatureMatrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert_eq!(validate_matrix(m.view(), &[0]), Err(TrainError::LabelMismatch));
        assert_eq!(validate_matrix(m.view(), &[1, 1]), Err(TrainError::SingleClass));
        assert_eq!(validate_matrix(m.view(), &[0, 1]), Ok(1));
        let empty: Vec<usize> = Vec::new();
        assert_eq!(validate_matrix(m.subset(&empty), &[]), Err(TrainError::EmptyDataset));
    }
}
