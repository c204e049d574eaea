//! Proof that steady-state batch prediction is allocation-free.
//!
//! A counting global allocator wraps the system allocator (the same
//! harness as `netsim`'s flood test; the crate-level
//! `#![forbid(unsafe_code)]` covers `src/`, the shim lives in this
//! integration test only). After one warm-up pass grows every reusable
//! buffer — the caller's prediction and span-work `Vec`s, the span
//! driver's per-thread scratch, the CNN's thread-local lane block, the
//! worker pool's job queue — repeated
//! `predict_batch_into` sweeps over a random forest, repeated single-row
//! CNN predictions and repeated RF, K-Means and CNN span-batch passes
//! must perform **zero** heap allocations on the calling thread. The
//! span passes run twice: serially, and under a 4-thread budget so the
//! parallel block driver and its pool joins are covered too.
//!
//! This is the teeth behind the inference memory model: the SoA node
//! pool walks flat slices, the K-Means kernel sweeps centroids
//! flattened once at fit time, the lockstep CNN kernel reuses one lane
//! block per thread, the block driver splits its reused scratch in
//! place and a pool join keeps its job on the stack. Any regression
//! that reintroduces a per-row, per-block or per-layer `Vec` fails here
//! rather than showing up only as a bench slowdown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ml::classifier::{Classifier, RowSpan};
use ml::cnn::{Cnn, CnnConfig};
use ml::kmeans::{KMeansConfig, KMeansDetector};
use ml::matrix::FeatureMatrix;
use ml::par;
use ml::rf::{ForestConfig, RandomForest};
use netsim::rng::SimRng;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `true` only on the test thread — the libtest main thread lazily
    /// allocates channel-wait state at a wall-clock-dependent moment,
    /// which must not count against us, and pool workers warm their own
    /// thread-local buffers on their first block.
    /// Const-initialised so the allocator's read never itself allocates.
    static COUNTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count_here() {
    if COUNTING.try_with(std::cell::Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_here();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const DIMS: usize = 23;

fn synth(n: usize, seed: u64) -> (FeatureMatrix, Vec<usize>) {
    let mut rng = SimRng::seed_from(seed);
    let mut matrix = FeatureMatrix::new(DIMS);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let class = rng.chance(0.5);
        let shift = if class { 0.8 } else { 0.0 };
        let row: Vec<f64> = (0..DIMS).map(|_| rng.standard_normal() + shift).collect();
        matrix.push_row(&row);
        labels.push(usize::from(class));
    }
    (matrix, labels)
}

#[test]
fn steady_state_prediction_allocates_nothing() {
    let (matrix, labels) = synth(400, 99);
    let mut rng = SimRng::seed_from(7);
    let forest = RandomForest::fit_view(
        matrix.view(),
        &labels,
        &ForestConfig { n_trees: 9, ..ForestConfig::default() },
        &mut rng,
    )
    .unwrap();
    let cnn_config = CnnConfig { input_len: DIMS, epochs: 1, ..CnnConfig::default() };
    let cnn = Cnn::fit_view(matrix.view(), &labels, &cnn_config, &mut rng).unwrap();
    let kmeans =
        KMeansDetector::fit_view(matrix.view(), &labels, &KMeansConfig::default(), &mut rng)
            .unwrap();
    let models: [&dyn Classifier; 3] = [&forest, &kmeans, &cnn];

    // Span layout of a coalesced batch: empty and one-row spans, and
    // spans that straddle lane blocks and leave a short tail block.
    let spans = [(0, 13), (13, 0), (13, 1), (14, 250), (264, 136)]
        .map(|(start, len)| RowSpan { start, len });

    // Warm-up: grow the caller's output buffers, the driver's scratch,
    // the CNN's thread-local lane block and the pool's job queue to
    // their working set.
    let mut predictions = Vec::new();
    let warm_work = forest.predict_batch_into(matrix.view(), &mut predictions);
    assert!(warm_work > 0);
    assert_eq!(predictions.len(), matrix.n_rows());
    let warm_class = cnn.predict(matrix.row(0));
    let (mut cnn_classes, mut span_work) = (Vec::new(), Vec::new());
    let warm_span_work =
        cnn.predict_batch_spans_into(matrix.view(), &spans, &mut cnn_classes, &mut span_work);
    let warm_classes = cnn_classes.clone();
    // Warm span passes of every model, serial and parallel, with
    // their results kept as the steady-state reference.
    let span_pass = |model: &dyn Classifier, classes: &mut Vec<usize>, work: &mut Vec<u64>| {
        let total = model.predict_batch_spans_into(matrix.view(), &spans, classes, work);
        (classes.iter().sum::<usize>(), total)
    };
    let (mut classes, mut work) = (Vec::new(), Vec::new());
    let warm_spans: Vec<(usize, u64)> = [1, 4]
        .iter()
        .flat_map(|&threads| {
            par::with_threads(threads, || models.map(|m| span_pass(m, &mut classes, &mut work)))
        })
        .collect();
    assert_eq!(warm_spans[..3], warm_spans[3..], "span passes are thread-count invariant");

    // Steady state: full-dataset forest sweeps, per-row CNN calls, CNN
    // span batches and every model's span batches at 1 and 4 threads,
    // with the allocator watching.
    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut checksum = 0usize;
    for _ in 0..5 {
        forest.predict_batch_into(matrix.view(), &mut predictions);
        checksum += predictions.iter().sum::<usize>();
    }
    for i in 0..matrix.n_rows() {
        checksum += cnn.predict(matrix.row(i));
    }
    for _ in 0..3 {
        let work =
            cnn.predict_batch_spans_into(matrix.view(), &spans, &mut cnn_classes, &mut span_work);
        checksum += cnn_classes.iter().sum::<usize>() + work as usize;
    }
    let mut steady_spans = [(0usize, 0u64); 6];
    for _ in 0..3 {
        par::with_threads(1, || {
            for (slot, model) in models.iter().enumerate() {
                steady_spans[slot] = span_pass(*model, &mut classes, &mut work);
            }
        });
        par::with_threads(4, || {
            for (slot, model) in models.iter().enumerate() {
                steady_spans[3 + slot] = span_pass(*model, &mut classes, &mut work);
            }
        });
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(false));

    assert_eq!(
        after - before,
        0,
        "steady-state prediction allocated {} times (checksum {checksum})",
        after - before
    );
    assert_eq!(steady_spans[..], warm_spans[..]);
    assert_eq!(cnn.predict(matrix.row(0)), warm_class);
    assert_eq!(cnn_classes, warm_classes);
    assert_eq!(span_work.iter().sum::<u64>(), warm_span_work);
}
