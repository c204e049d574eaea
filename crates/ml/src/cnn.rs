#![allow(clippy::needless_range_loop)] // index arithmetic mirrors the math
//! A trainable 1-D convolutional neural network.
//!
//! The paper's CNN IDS (TensorFlow in the original) is reproduced from
//! scratch: two 1-D convolution layers (the second dilated, per the
//! paper's §III-B discussion of dilated convolution), ReLU activations,
//! max-pooling for down-sampling, and two dense layers ending in a
//! softmax over {benign, malicious}. Training is mini-batch SGD with the
//! Adam optimiser on the cross-entropy loss, with full backpropagation
//! implemented by hand (verified against numerical gradients in the
//! tests).
//!
//! A feature vector is treated as a 1-channel signal of length
//! `input_len`, so convolution mixes neighbouring features — local
//! connections and weight sharing, as the paper describes.
//!
//! Mini-batch gradients are computed in parallel: each batch is cut into
//! fixed [`MICRO_BATCH`]-example chunks, one partial [`Grads`] per chunk,
//! folded in chunk order before the Adam step — so the fitted network is
//! identical at any thread count.

use std::cell::RefCell;

use netsim::rng::SimRng;
use serde::{Deserialize, Serialize};

use crate::classifier::{validate_matrix, validate_training_set, Classifier, TrainError};
use crate::matrix::{FeatureMatrix, MatrixView};
use crate::nn::{relu, relu_grad, softmax, softmax_into, Adam, Dense};
use crate::codec::{DecodeError, Decoder, Encoder};
use crate::par;

const CNN_MAGIC: u32 = 0x636e_6e31; // "cnn1"

/// Examples per parallel gradient work unit. Fixed (never derived from
/// the thread count) so partial-gradient sums always fold in the same
/// order.
const MICRO_BATCH: usize = 16;

/// Rows the inference kernel runs through the network together. Each
/// weight is loaded once per block and applied to every lane; 8 lanes
/// keep a pooling pair's accumulators in registers.
const LANES: usize = 8;

/// Architecture and training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CnnConfig {
    /// Input feature count (signal length).
    pub input_len: usize,
    /// Filters in the first convolution.
    pub conv1_filters: usize,
    /// Filters in the second convolution.
    pub conv2_filters: usize,
    /// Kernel width (odd, for symmetric same-padding).
    pub kernel: usize,
    /// Dilation of the second convolution.
    pub dilation2: usize,
    /// Hidden units in the first dense layer.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
}

impl Default for CnnConfig {
    fn default() -> Self {
        CnnConfig {
            input_len: 23,
            conv1_filters: 8,
            conv2_filters: 16,
            kernel: 3,
            dilation2: 2,
            hidden: 32,
            epochs: 8,
            batch_size: 64,
            learning_rate: 1e-3,
        }
    }
}

const CLASSES: usize = 2;

/// A 1-D convolution layer with same-padding.
#[derive(Debug, Clone, PartialEq)]
struct Conv1d {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    dilation: usize,
    /// `[out_ch][in_ch][kernel]` flattened.
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Conv1d {
    fn new(in_ch: usize, out_ch: usize, kernel: usize, dilation: usize, rng: &mut SimRng) -> Self {
        let fan_in = (in_ch * kernel) as f64;
        let scale = (2.0 / fan_in).sqrt(); // He init for ReLU nets
        let w = (0..out_ch * in_ch * kernel).map(|_| scale * rng.standard_normal()).collect();
        Conv1d { in_ch, out_ch, kernel, dilation, w, b: vec![0.0; out_ch] }
    }

    #[inline]
    fn widx(&self, o: usize, i: usize, k: usize) -> usize {
        (o * self.in_ch + i) * self.kernel + k
    }

    /// `input` is `[in_ch][len]`; output is `[out_ch][len]` (same pad).
    fn forward(&self, input: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let len = input[0].len();
        let half = (self.kernel / 2) as isize;
        let mut out = vec![vec![0.0; len]; self.out_ch];
        for o in 0..self.out_ch {
            for p in 0..len {
                let mut acc = self.b[o];
                for i in 0..self.in_ch {
                    for k in 0..self.kernel {
                        let offset = (k as isize - half) * self.dilation as isize;
                        let src = p as isize + offset;
                        if src >= 0 && (src as usize) < len {
                            acc += self.w[self.widx(o, i, k)] * input[i][src as usize];
                        }
                    }
                }
                out[o][p] = acc;
            }
        }
        out
    }

    /// Zero halo each side of a padded input: the reach of the kernel's
    /// outermost tap, so padded position `p + k * dilation` is the
    /// input element (or padding zero) tap `k` of output `p` reads.
    fn halo(&self) -> usize {
        (self.kernel / 2) * self.dilation
    }

    /// Lockstep convolution → ReLU → max-pool over `L` lanes. `x` is the
    /// zero-padded input, `[in_ch][len + 2·halo][L]`; the pooled output
    /// of channel `o`, position `q` lands at
    /// `out[(o * out_stride + out_pad + q) * L + lane]`. Each lane
    /// accumulates `b + w·x` over taps in `[i * kernel + k]` order,
    /// padding taps included (each adds `w * 0.0`); both positions of a
    /// pooling pair share each weight load. The odd trailing position,
    /// which the pool drops, is never computed.
    fn pool_lanes<const L: usize>(
        &self,
        x: &[f64],
        len: usize,
        out: &mut [f64],
        out_stride: usize,
        out_pad: usize,
    ) {
        let channel_len = (len + 2 * self.halo()) * L;
        let taps = self.in_ch * self.kernel;
        for (o, w) in self.w.chunks_exact(taps).enumerate() {
            for q in 0..len / 2 {
                let (mut left, mut right) = ([self.b[o]; L], [self.b[o]; L]);
                for (w_i, channel) in w.chunks_exact(self.kernel).zip(x.chunks_exact(channel_len)) {
                    for (k, &wv) in w_i.iter().enumerate() {
                        let at = (2 * q + k * self.dilation) * L;
                        let (x0, x1) = channel[at..at + 2 * L].split_at(L);
                        for ((a0, a1), (&v0, &v1)) in
                            left.iter_mut().zip(&mut right).zip(x0.iter().zip(x1))
                        {
                            *a0 += wv * v0;
                            *a1 += wv * v1;
                        }
                    }
                }
                relu(&mut left);
                relu(&mut right);
                let dst = &mut out[(o * out_stride + out_pad + q) * L..][..L];
                for ((d, a), b) in dst.iter_mut().zip(left).zip(right) {
                    *d = if a >= b { a } else { b };
                }
            }
        }
    }

    /// Backward pass: returns gradient wrt input; accumulates parameter
    /// gradients into `gw`/`gb`.
    fn backward(
        &self,
        input: &[Vec<f64>],
        grad_out: &[Vec<f64>],
        gw: &mut [f64],
        gb: &mut [f64],
    ) -> Vec<Vec<f64>> {
        let len = input[0].len();
        let half = (self.kernel / 2) as isize;
        let mut grad_in = vec![vec![0.0; len]; self.in_ch];
        for o in 0..self.out_ch {
            for p in 0..len {
                let g = grad_out[o][p];
                if g == 0.0 {
                    continue;
                }
                gb[o] += g;
                for i in 0..self.in_ch {
                    for k in 0..self.kernel {
                        let offset = (k as isize - half) * self.dilation as isize;
                        let src = p as isize + offset;
                        if src >= 0 && (src as usize) < len {
                            gw[self.widx(o, i, k)] += g * input[i][src as usize];
                            grad_in[i][src as usize] += g * self.w[self.widx(o, i, k)];
                        }
                    }
                }
            }
        }
        grad_in
    }
}

/// Max pool with window 2, stride 2. Returns (pooled, argmax positions).
fn maxpool2(x: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<Vec<usize>>) {
    let out_len = x[0].len() / 2;
    let mut out = vec![vec![0.0; out_len]; x.len()];
    let mut arg = vec![vec![0usize; out_len]; x.len()];
    for (c, channel) in x.iter().enumerate() {
        for p in 0..out_len {
            let (a, b) = (channel[2 * p], channel[2 * p + 1]);
            if a >= b {
                out[c][p] = a;
                arg[c][p] = 2 * p;
            } else {
                out[c][p] = b;
                arg[c][p] = 2 * p + 1;
            }
        }
    }
    (out, arg)
}

fn maxpool2_backward(grad_out: &[Vec<f64>], arg: &[Vec<usize>], in_len: usize) -> Vec<Vec<f64>> {
    let mut grad_in = vec![vec![0.0; in_len]; grad_out.len()];
    for c in 0..grad_out.len() {
        for p in 0..grad_out[c].len() {
            grad_in[c][arg[c][p]] += grad_out[c][p];
        }
    }
    grad_in
}

/// Lane-interleaved activations of one lockstep block: value `v` of
/// lane `l` lives at `v * L + l`, so the innermost loop of every layer
/// runs across rows. Every buffer is re-zeroed and refilled per block,
/// so a warmed-up block makes repeated inference allocation-free.
#[derive(Debug, Default)]
struct LaneBlock {
    /// Zero-padded input rows, `[len + 2·halo1][L]`.
    x: Vec<f64>,
    /// Zero-padded pooled conv1 activations (conv2's input),
    /// `[conv1_filters][len / 2 + 2·halo2][L]`.
    p1: Vec<f64>,
    /// Pooled conv2 activations in the reference's flatten order — the
    /// dense head's input, `[conv2_filters · pooled2][L]`.
    flat: Vec<f64>,
    /// Hidden dense activations, `[hidden][L]`.
    hidden: Vec<f64>,
    /// Output logits, `[CLASSES][L]`.
    logits: Vec<f64>,
    /// One lane's softmax distribution.
    probs: Vec<f64>,
}

thread_local! {
    /// Per-thread block backing every inference entry point, so
    /// steady-state prediction allocates nothing without threading a
    /// buffer through the [`Classifier`] trait.
    static BLOCK: RefCell<LaneBlock> = RefCell::new(LaneBlock::default());
}

/// Clears `buf` to `n` zeros, reusing its capacity.
fn zeroed(buf: &mut Vec<f64>, n: usize) -> &mut [f64] {
    buf.clear();
    buf.resize(n, 0.0);
    buf
}

struct ForwardCache {
    x0: Vec<Vec<f64>>,
    z1: Vec<Vec<f64>>,
    a1: Vec<Vec<f64>>,
    p1: Vec<Vec<f64>>,
    arg1: Vec<Vec<usize>>,
    z2: Vec<Vec<f64>>,
    a2: Vec<Vec<f64>>,
    arg2: Vec<Vec<usize>>,
    flat: Vec<f64>,
    z3: Vec<f64>,
    a3: Vec<f64>,
    probs: Vec<f64>,
}

struct Grads {
    c1w: Vec<f64>,
    c1b: Vec<f64>,
    c2w: Vec<f64>,
    c2b: Vec<f64>,
    f1w: Vec<f64>,
    f1b: Vec<f64>,
    f2w: Vec<f64>,
    f2b: Vec<f64>,
}

impl Grads {
    fn zero_like(net: &Cnn) -> Self {
        Grads {
            c1w: vec![0.0; net.conv1.w.len()],
            c1b: vec![0.0; net.conv1.b.len()],
            c2w: vec![0.0; net.conv2.w.len()],
            c2b: vec![0.0; net.conv2.b.len()],
            f1w: vec![0.0; net.fc1.w.len()],
            f1b: vec![0.0; net.fc1.b.len()],
            f2w: vec![0.0; net.fc2.w.len()],
            f2b: vec![0.0; net.fc2.b.len()],
        }
    }

    /// Element-wise accumulation of another gradient set (folding the
    /// per-micro-batch partials).
    fn add(&mut self, other: &Grads) {
        let pairs: [(&mut Vec<f64>, &Vec<f64>); 8] = [
            (&mut self.c1w, &other.c1w),
            (&mut self.c1b, &other.c1b),
            (&mut self.c2w, &other.c2w),
            (&mut self.c2b, &other.c2b),
            (&mut self.f1w, &other.f1w),
            (&mut self.f1b, &other.f1b),
            (&mut self.f2w, &other.f2w),
            (&mut self.f2b, &other.f2b),
        ];
        for (dst, src) in pairs {
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }

    fn scale(&mut self, factor: f64) {
        for g in [
            &mut self.c1w,
            &mut self.c1b,
            &mut self.c2w,
            &mut self.c2b,
            &mut self.f1w,
            &mut self.f1b,
            &mut self.f2w,
            &mut self.f2b,
        ] {
            for v in g.iter_mut() {
                *v *= factor;
            }
        }
    }
}

/// The trained CNN classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Cnn {
    config: CnnConfig,
    conv1: Conv1d,
    conv2: Conv1d,
    fc1: Dense,
    fc2: Dense,
}

impl Cnn {
    /// Randomly initialised network (exposed for training experiments).
    pub fn init(config: CnnConfig, rng: &mut SimRng) -> Self {
        let pooled1 = config.input_len / 2;
        let pooled2 = pooled1 / 2;
        let flat = config.conv2_filters * pooled2;
        Cnn {
            config,
            conv1: Conv1d::new(1, config.conv1_filters, config.kernel, 1, rng),
            conv2: Conv1d::new(config.conv1_filters, config.conv2_filters, config.kernel, config.dilation2, rng),
            fc1: Dense::new(flat, config.hidden, rng),
            fc2: Dense::new(config.hidden, CLASSES, rng),
        }
    }

    /// Trains a CNN on the rows of a matrix view.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] for unusable training data.
    pub fn fit_view(
        view: MatrixView<'_>,
        y: &[usize],
        config: &CnnConfig,
        rng: &mut SimRng,
    ) -> Result<Self, TrainError> {
        let dims = validate_matrix(view, y)?;
        let mut config = *config;
        config.input_len = dims;
        let mut net = Cnn::init(config, rng);
        net.train_view(view, y, rng);
        Ok(net)
    }

    /// Trains a CNN on labelled feature vectors.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] for unusable training data.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[usize],
        config: &CnnConfig,
        rng: &mut SimRng,
    ) -> Result<Self, TrainError> {
        validate_training_set(x, y)?;
        let m = FeatureMatrix::from_rows(x)?;
        Cnn::fit_view(m.view(), y, config, rng)
    }

    /// Runs additional training epochs on the given data.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub fn train(&mut self, x: &[Vec<f64>], y: &[usize], rng: &mut SimRng) {
        if x.is_empty() {
            return;
        }
        let m = FeatureMatrix::from_rows(x).expect("rectangular training data");
        self.train_view(m.view(), y, rng);
    }

    /// Runs additional training epochs on the rows of a matrix view.
    pub fn train_view(&mut self, view: MatrixView<'_>, y: &[usize], rng: &mut SimRng) {
        let mut adam = (
            Adam::new(self.conv1.w.len()),
            Adam::new(self.conv1.b.len()),
            Adam::new(self.conv2.w.len()),
            Adam::new(self.conv2.b.len()),
            Adam::new(self.fc1.w.len()),
            Adam::new(self.fc1.b.len()),
            Adam::new(self.fc2.w.len()),
            Adam::new(self.fc2.b.len()),
        );
        let mut t = 0usize;
        let mut indices: Vec<usize> = (0..view.n_rows()).collect();
        for _ in 0..self.config.epochs {
            rng.shuffle(&mut indices);
            for batch in indices.chunks(self.config.batch_size.max(1)) {
                let mut grads = self.batch_grads(view, y, batch);
                grads.scale(1.0 / batch.len() as f64);
                t += 1;
                let lr = self.config.learning_rate;
                adam.0.step(&mut self.conv1.w, &grads.c1w, lr, t);
                adam.1.step(&mut self.conv1.b, &grads.c1b, lr, t);
                adam.2.step(&mut self.conv2.w, &grads.c2w, lr, t);
                adam.3.step(&mut self.conv2.b, &grads.c2b, lr, t);
                adam.4.step(&mut self.fc1.w, &grads.f1w, lr, t);
                adam.5.step(&mut self.fc1.b, &grads.f1b, lr, t);
                adam.6.step(&mut self.fc2.w, &grads.f2w, lr, t);
                adam.7.step(&mut self.fc2.b, &grads.f2b, lr, t);
            }
        }
    }

    /// Summed (unscaled) gradients over one mini-batch: fixed
    /// [`MICRO_BATCH`]-example chunks in parallel, partials folded in
    /// chunk order.
    fn batch_grads(&self, view: MatrixView<'_>, y: &[usize], batch: &[usize]) -> Grads {
        let n_micro = batch.len().div_ceil(MICRO_BATCH);
        let partials = par::par_map_indexed(n_micro, |m| {
            let lo = m * MICRO_BATCH;
            let hi = (lo + MICRO_BATCH).min(batch.len());
            let mut g = Grads::zero_like(self);
            for &i in &batch[lo..hi] {
                let cache = self.forward(view.row(i));
                self.backward(&cache, y[i], &mut g);
            }
            g
        });
        let mut parts = partials.into_iter();
        let mut grads = parts.next().unwrap_or_else(|| Grads::zero_like(self));
        for p in parts {
            grads.add(&p);
        }
        grads
    }

    fn forward(&self, features: &[f64]) -> ForwardCache {
        let x0 = vec![features.to_vec()];
        let z1 = self.conv1.forward(&x0);
        let mut a1 = z1.clone();
        for c in &mut a1 {
            relu(c);
        }
        let (p1, arg1) = maxpool2(&a1);
        let z2 = self.conv2.forward(&p1);
        let mut a2 = z2.clone();
        for c in &mut a2 {
            relu(c);
        }
        let (p2, arg2) = maxpool2(&a2);
        let flat: Vec<f64> = p2.iter().flatten().copied().collect();
        let z3 = self.fc1.forward(&flat);
        let mut a3 = z3.clone();
        relu(&mut a3);
        let z4 = self.fc2.forward(&a3);
        let probs = softmax(&z4);
        ForwardCache { x0, z1, a1, p1, arg1, z2, a2, arg2, flat, z3, a3, probs }
    }

    fn backward(&self, cache: &ForwardCache, label: usize, grads: &mut Grads) {
        // Softmax + cross-entropy gradient.
        let mut dlogits = cache.probs.clone();
        dlogits[label] -= 1.0;
        let mut da3 = self.fc2.backward(&cache.a3, &dlogits, &mut grads.f2w, &mut grads.f2b);
        relu_grad(&cache.z3, &mut da3);
        let dflat = self.fc1.backward(&cache.flat, &da3, &mut grads.f1w, &mut grads.f1b);
        // Un-flatten into [C2][pooled2].
        let pooled2 = cache.flat.len() / self.conv2.out_ch;
        let dp2: Vec<Vec<f64>> =
            dflat.chunks(pooled2).map(<[f64]>::to_vec).collect();
        let mut da2 = maxpool2_backward(&dp2, &cache.arg2, cache.a2[0].len());
        for (channel, pre) in da2.iter_mut().zip(&cache.z2) {
            relu_grad(pre, channel);
        }
        let dp1 = self.conv2.backward(&cache.p1, &da2, &mut grads.c2w, &mut grads.c2b);
        let mut da1 = maxpool2_backward(&dp1, &cache.arg1, cache.a1[0].len());
        for (channel, pre) in da1.iter_mut().zip(&cache.z1) {
            relu_grad(pre, channel);
        }
        let _ = self.conv1.backward(&cache.x0, &da1, &mut grads.c1w, &mut grads.c1b);
    }

    /// The row-lockstep inference kernel: runs up to `L` rows through
    /// the network together, leaving lane `l`'s logits at
    /// `block.logits[c * L + l]`. Lanes past `rows.len()` stay
    /// zero-filled; lanes never mix, so their outputs are simply
    /// ignored. Each lane reproduces the nested-`Vec` [`Cnn::forward`]
    /// bit for bit (DESIGN.md §11.2).
    ///
    /// # Panics
    ///
    /// Panics if a row's length is not the configured `input_len`.
    fn forward_lanes<const L: usize>(&self, rows: &[&[f64]], block: &mut LaneBlock) {
        debug_assert!(rows.len() <= L);
        let len = self.config.input_len;
        let (halo1, halo2) = (self.conv1.halo(), self.conv2.halo());
        let pooled1 = len / 2;
        let p1_stride = pooled1 + 2 * halo2;

        let x = zeroed(&mut block.x, (len + 2 * halo1) * L);
        for (lane, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), len, "feature arity mismatch");
            for (p, &v) in row.iter().enumerate() {
                x[(halo1 + p) * L + lane] = v;
            }
        }
        let p1 = zeroed(&mut block.p1, self.conv1.out_ch * p1_stride * L);
        self.conv1.pool_lanes::<L>(&block.x, len, p1, p1_stride, halo2);
        let flat = zeroed(&mut block.flat, self.fc1.input * L);
        self.conv2.pool_lanes::<L>(&block.p1, pooled1, flat, pooled1 / 2, 0);
        let hidden = zeroed(&mut block.hidden, self.fc1.output * L);
        self.fc1.forward_lanes::<L>(&block.flat, hidden);
        relu(hidden);
        let logits = zeroed(&mut block.logits, CLASSES * L);
        self.fc2.forward_lanes::<L>(&block.hidden, logits);
    }

    /// Softmax of lane `lane`'s logits into `block.probs`.
    fn lane_probs<const L: usize>(block: &mut LaneBlock, lane: usize) -> &[f64] {
        let logits: [f64; CLASSES] = std::array::from_fn(|c| block.logits[c * L + lane]);
        softmax_into(&logits, &mut block.probs);
        &block.probs
    }

    /// Multiply-accumulates of one forward pass: each conv layer slides
    /// its full weight tensor across its (unclipped) output positions,
    /// and each dense layer touches every weight once. A deterministic
    /// function of the architecture — boundary clipping is ignored.
    fn macs_per_row(&self) -> u64 {
        let pooled1 = self.config.input_len / 2;
        (self.conv1.w.len() * self.config.input_len
            + self.conv2.w.len() * pooled1
            + self.fc1.w.len()
            + self.fc2.w.len()) as u64
    }

    /// Cross-entropy loss on one sample (used by the gradient check).
    pub fn loss(&self, features: &[f64], label: usize) -> f64 {
        let cache = self.forward(features);
        -cache.probs[label].max(1e-12).ln()
    }

    /// Class probabilities for one sample.
    pub fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        self.with_proba(features, <[f64]>::to_vec)
    }

    /// Runs one row through the kernel at block width 1 and hands its
    /// class probabilities to `f`.
    fn with_proba<T>(&self, features: &[f64], f: impl FnOnce(&[f64]) -> T) -> T {
        BLOCK.with(|block| {
            let block = &mut *block.borrow_mut();
            self.forward_lanes::<1>(&[features], block);
            f(Self::lane_probs::<1>(block, 0))
        })
    }

    /// The architecture configuration.
    pub fn config(&self) -> &CnnConfig {
        &self.config
    }

    /// Federated averaging (McMahan et al.'s FedAvg aggregation step):
    /// the element-wise mean of the networks' parameters, weighted by
    /// `weights` (typically each client's sample count).
    ///
    /// Returns `None` if the slice is empty, lengths mismatch, or
    /// architectures differ.
    pub fn federated_average(nets: &[Cnn], weights: &[f64]) -> Option<Cnn> {
        let first = nets.first()?;
        if nets.len() != weights.len() || nets.iter().any(|n| n.config != first.config) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let mut out = first.clone();
        let zero = |v: &mut Vec<f64>| v.iter_mut().for_each(|x| *x = 0.0);
        zero(&mut out.conv1.w);
        zero(&mut out.conv1.b);
        zero(&mut out.conv2.w);
        zero(&mut out.conv2.b);
        zero(&mut out.fc1.w);
        zero(&mut out.fc1.b);
        zero(&mut out.fc2.w);
        zero(&mut out.fc2.b);
        for (net, &weight) in nets.iter().zip(weights) {
            let share = weight / total;
            let acc = |dst: &mut [f64], src: &[f64]| {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += share * s;
                }
            };
            acc(&mut out.conv1.w, &net.conv1.w);
            acc(&mut out.conv1.b, &net.conv1.b);
            acc(&mut out.conv2.w, &net.conv2.w);
            acc(&mut out.conv2.b, &net.conv2.b);
            acc(&mut out.fc1.w, &net.fc1.w);
            acc(&mut out.fc1.b, &net.fc1.b);
            acc(&mut out.fc2.w, &net.fc2.w);
            acc(&mut out.fc2.b, &net.fc2.b);
        }
        Some(out)
    }

    /// Total trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.conv1.w.len()
            + self.conv1.b.len()
            + self.conv2.w.len()
            + self.conv2.b.len()
            + self.fc1.w.len()
            + self.fc1.b.len()
            + self.fc2.w.len()
            + self.fc2.b.len()
    }

    /// Decodes a CNN from its binary blob.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    pub fn decode(blob: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(blob);
        d.expect_magic(CNN_MAGIC)?;
        let config = CnnConfig {
            input_len: d.get_usize()?,
            conv1_filters: d.get_usize()?,
            conv2_filters: d.get_usize()?,
            kernel: d.get_usize()?,
            dilation2: d.get_usize()?,
            hidden: d.get_usize()?,
            epochs: d.get_usize()?,
            batch_size: d.get_usize()?,
            learning_rate: d.get_f64()?,
        };
        let mut read_layer = |in_ch: usize, out_ch: usize, kernel: usize, dilation: usize| {
            Ok::<Conv1d, DecodeError>(Conv1d {
                in_ch,
                out_ch,
                kernel,
                dilation,
                w: d.get_f64_slice()?,
                b: d.get_f64_slice()?,
            })
        };
        let conv1 = read_layer(1, config.conv1_filters, config.kernel, 1)?;
        let conv2 = read_layer(config.conv1_filters, config.conv2_filters, config.kernel, config.dilation2)?;
        let pooled2 = (config.input_len / 2) / 2;
        let flat = config.conv2_filters * pooled2;
        let fc1 = Dense { input: flat, output: config.hidden, w: d.get_f64_slice()?, b: d.get_f64_slice()? };
        let fc2 = Dense { input: config.hidden, output: CLASSES, w: d.get_f64_slice()?, b: d.get_f64_slice()? };
        if fc1.w.len() != flat * config.hidden || fc2.w.len() != config.hidden * CLASSES {
            return Err(DecodeError::Corrupt("dense layer arity"));
        }
        Ok(Cnn { config, conv1, conv2, fc1, fc2 })
    }
}

/// The verdict for a class distribution: malicious when it outweighs
/// benign.
fn class_of(probs: &[f64]) -> usize {
    usize::from(probs[1] > probs[0])
}

impl Classifier for Cnn {
    fn name(&self) -> &'static str {
        "CNN"
    }

    fn predict(&self, features: &[f64]) -> usize {
        self.with_proba(features, class_of)
    }

    fn predict_with_work(&self, features: &[f64]) -> (usize, u64) {
        (self.predict(features), self.macs_per_row())
    }

    fn predict_block(&self, view: MatrixView<'_>, rows: &[usize], out: &mut [(usize, u64)]) {
        let work = self.macs_per_row();
        // Rows go through the kernel in `LANES`-wide lockstep groups.
        BLOCK.with(|block| {
            let block = &mut *block.borrow_mut();
            for (group_rows, slots) in rows.chunks(LANES).zip(out.chunks_mut(LANES)) {
                let mut group: [&[f64]; LANES] = [&[]; LANES];
                for (lane, &row) in group.iter_mut().zip(group_rows) {
                    *lane = view.row(row);
                }
                self.forward_lanes::<LANES>(&group[..slots.len()], block);
                for (lane, slot) in slots.iter_mut().enumerate() {
                    *slot = (class_of(Self::lane_probs::<LANES>(block, lane)), work);
                }
            }
        });
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(CNN_MAGIC);
        e.put_usize(self.config.input_len);
        e.put_usize(self.config.conv1_filters);
        e.put_usize(self.config.conv2_filters);
        e.put_usize(self.config.kernel);
        e.put_usize(self.config.dilation2);
        e.put_usize(self.config.hidden);
        e.put_usize(self.config.epochs);
        e.put_usize(self.config.batch_size);
        e.put_f64(self.config.learning_rate);
        for layer in [&self.conv1, &self.conv2] {
            e.put_f64_slice(&layer.w);
            e.put_f64_slice(&layer.b);
        }
        for layer in [&self.fc1, &self.fc2] {
            e.put_f64_slice(&layer.w);
            e.put_f64_slice(&layer.b);
        }
        e.finish()
    }

    fn memory_bytes(&self) -> u64 {
        // Parameters plus the activation buffers a forward pass holds.
        let activations = self.config.input_len * (1 + self.config.conv1_filters * 2)
            + (self.config.input_len / 2) * self.config.conv2_filters * 2
            + self.config.hidden * 2
            + CLASSES * 2;
        ((self.parameter_count() + activations) * std::mem::size_of::<f64>()) as u64
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::RowSpan;

    fn tiny_config() -> CnnConfig {
        CnnConfig {
            input_len: 8,
            conv1_filters: 2,
            conv2_filters: 3,
            kernel: 3,
            dilation2: 2,
            hidden: 4,
            epochs: 30,
            batch_size: 16,
            learning_rate: 5e-3,
        }
    }

    /// The profiling hook agrees with `predict` and reports a fixed,
    /// input-independent MAC count (the architecture is static).
    #[test]
    fn predict_with_work_reports_architecture_macs() {
        let mut rng = SimRng::seed_from(42);
        let config = tiny_config();
        let net = Cnn::init(config, &mut rng);
        let a: Vec<f64> = (0..config.input_len).map(|_| rng.standard_normal()).collect();
        let b: Vec<f64> = (0..config.input_len).map(|_| rng.standard_normal()).collect();
        let (class_a, work_a) = net.predict_with_work(&a);
        let (class_b, work_b) = net.predict_with_work(&b);
        assert_eq!(class_a, net.predict(&a));
        assert_eq!(class_b, net.predict(&b));
        assert!(work_a > 0);
        assert_eq!(work_a, work_b, "MACs depend only on the architecture");
    }

    /// Numerical gradient check on a tiny network: analytic backprop
    /// must match central finite differences.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SimRng::seed_from(1);
        let config = tiny_config();
        let mut net = Cnn::init(config, &mut rng);
        let x: Vec<f64> = (0..config.input_len).map(|_| rng.standard_normal()).collect();
        let label = 1usize;

        let mut grads = Grads::zero_like(&net);
        let cache = net.forward(&x);
        net.backward(&cache, label, &mut grads);

        let eps = 1e-5;
        // Check a sample of parameters in every group.
        let checks: Vec<(&str, usize)> = vec![
            ("c1w", 0),
            ("c1w", 3),
            ("c1b", 1),
            ("c2w", 5),
            ("c2b", 2),
            ("f1w", 7),
            ("f1b", 0),
            ("f2w", 3),
            ("f2b", 1),
        ];
        for (group, idx) in checks {
            let analytic = match group {
                "c1w" => grads.c1w[idx],
                "c1b" => grads.c1b[idx],
                "c2w" => grads.c2w[idx],
                "c2b" => grads.c2b[idx],
                "f1w" => grads.f1w[idx],
                "f1b" => grads.f1b[idx],
                "f2w" => grads.f2w[idx],
                _ => grads.f2b[idx],
            };
            let param: &mut f64 = match group {
                "c1w" => &mut net.conv1.w[idx],
                "c1b" => &mut net.conv1.b[idx],
                "c2w" => &mut net.conv2.w[idx],
                "c2b" => &mut net.conv2.b[idx],
                "f1w" => &mut net.fc1.w[idx],
                "f1b" => &mut net.fc1.b[idx],
                "f2w" => &mut net.fc2.w[idx],
                _ => &mut net.fc2.b[idx],
            };
            let original = *param;
            *param = original + eps;
            let plus = net.loss(&x, label);
            let param: &mut f64 = match group {
                "c1w" => &mut net.conv1.w[idx],
                "c1b" => &mut net.conv1.b[idx],
                "c2w" => &mut net.conv2.w[idx],
                "c2b" => &mut net.conv2.b[idx],
                "f1w" => &mut net.fc1.w[idx],
                "f1b" => &mut net.fc1.b[idx],
                "f2w" => &mut net.fc2.w[idx],
                _ => &mut net.fc2.b[idx],
            };
            *param = original - eps;
            let minus = net.loss(&x, label);
            let param: &mut f64 = match group {
                "c1w" => &mut net.conv1.w[idx],
                "c1b" => &mut net.conv1.b[idx],
                "c2w" => &mut net.conv2.w[idx],
                "c2b" => &mut net.conv2.b[idx],
                "f1w" => &mut net.fc1.w[idx],
                "f1b" => &mut net.fc1.b[idx],
                "f2w" => &mut net.fc2.w[idx],
                _ => &mut net.fc2.b[idx],
            };
            *param = original;
            let numeric = (plus - minus) / (2.0 * eps);
            let denom = analytic.abs().max(numeric.abs()).max(1e-8);
            assert!(
                (analytic - numeric).abs() / denom < 1e-4,
                "{group}[{idx}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    fn separable_data(n: usize, dims: usize, rng: &mut SimRng) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let base = if class == 0 { -1.0 } else { 1.0 };
            x.push((0..dims).map(|_| base + 0.5 * rng.standard_normal()).collect());
            y.push(class);
        }
        (x, y)
    }

    #[test]
    fn cnn_learns_a_separable_problem() {
        let mut rng = SimRng::seed_from(2);
        let (x, y) = separable_data(300, 8, &mut rng);
        let net = Cnn::fit(&x, &y, &tiny_config(), &mut rng).unwrap();
        let correct = x.iter().zip(&y).filter(|(xi, &yi)| net.predict(xi) == yi).count();
        assert!(correct as f64 / x.len() as f64 > 0.95, "train acc {correct}/300");
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn random_matrix(rows: usize, dims: usize, rng: &mut SimRng) -> FeatureMatrix {
        let mut m = FeatureMatrix::new(dims);
        for _ in 0..rows {
            let row: Vec<f64> = (0..dims).map(|_| rng.standard_normal()).collect();
            m.push_row(&row);
        }
        m
    }

    /// Lockstep logits and probabilities of every row of `view`, run in
    /// `L`-row blocks (the last one short when `L` does not divide the
    /// row count).
    fn lockstep_outputs<const L: usize>(net: &Cnn, view: MatrixView<'_>) -> Vec<(Vec<u64>, Vec<u64>)> {
        let rows: Vec<&[f64]> = view.rows().collect();
        let mut block = LaneBlock::default();
        let mut out = Vec::new();
        for group in rows.chunks(L) {
            net.forward_lanes::<L>(group, &mut block);
            for lane in 0..group.len() {
                let logits: Vec<f64> = (0..CLASSES).map(|c| block.logits[c * L + lane]).collect();
                let probs = Cnn::lane_probs::<L>(&mut block, lane);
                out.push((bits(&logits), bits(probs)));
            }
        }
        out
    }

    /// Checks every inference entry point of `net` on the rows of
    /// `view` against the nested-`Vec` reference forward pass.
    fn assert_matches_reference(net: &Cnn, view: MatrixView<'_>, what: &str) {
        let reference: Vec<_> = view
            .rows()
            .map(|row| {
                let cache = net.forward(row);
                (bits(&net.fc2.forward(&cache.a3)), bits(&cache.probs))
            })
            .collect();
        assert_eq!(lockstep_outputs::<LANES>(net, view), reference, "{what}, 8 lanes");
        assert_eq!(lockstep_outputs::<1>(net, view), reference, "{what}, 1 lane");

        let classes: Vec<usize> = view.rows().map(|r| class_of(&net.forward(r).probs)).collect();
        let per_row: Vec<(usize, u64)> = view.rows().map(|r| net.predict_with_work(r)).collect();
        let per_row_classes: Vec<usize> = per_row.iter().map(|p| p.0).collect();
        assert_eq!(per_row_classes, classes, "{what}: predict");
        let mut into = Vec::new();
        let into_work = net.predict_batch_into(view, &mut into);
        assert_eq!(into, classes, "{what}: predict_batch_into");
        assert_eq!(net.predict_batch_with_work(view), (classes.clone(), into_work), "{what}");

        // Spans of length 0 and 1 and ones that straddle lane blocks,
        // tiling the view.
        let mut spans: Vec<RowSpan> = [(0, 0), (0, 1), (1, 0), (1, 9), (10, 1), (11, 0)]
            .map(|(start, len)| RowSpan { start, len })
            .to_vec();
        spans.push(RowSpan { start: 11, len: view.n_rows() - 11 });
        let (mut spanned, mut span_work) = (Vec::new(), Vec::new());
        let total = net.predict_batch_spans_into(view, &spans, &mut spanned, &mut span_work);
        assert_eq!(spanned, classes, "{what}: spans");
        let expected_work: Vec<u64> =
            spans.iter().map(|s| per_row[s.range()].iter().map(|p| p.1).sum()).collect();
        assert_eq!(span_work, expected_work, "{what}: span work");
        assert_eq!(total, into_work, "{what}: total work");
    }

    /// The row-lockstep kernel must reproduce the nested-`Vec`
    /// reference forward pass bit for bit — logits and probabilities —
    /// at block widths 8 and 1, on fresh and trained networks, across
    /// seeds, the tiny and the default architecture and signal lengths
    /// (odd lengths drop a pooled position), with row counts that leave
    /// a short tail block and through subset views. Every batch entry
    /// point must then agree with the reference verdicts, and span work
    /// must equal per-row work.
    #[test]
    fn lockstep_kernel_matches_reference_bits() {
        for arch in [tiny_config(), CnnConfig::default()] {
            for input_len in [26, 23, 9, 8] {
                for seed in 31..34 {
                    let mut rng = SimRng::seed_from(seed);
                    let config = CnnConfig { input_len, epochs: 2, ..arch };
                    let init = Cnn::init(config, &mut rng);
                    let (x, y) = separable_data(60, input_len, &mut rng);
                    let trained = Cnn::fit(&x, &y, &config, &mut rng).unwrap();
                    let m = random_matrix(19, input_len, &mut rng);
                    let subset = [18, 3, 3, 0, 11, 7, 16, 2, 9, 5, 14];
                    for net in [&init, &trained] {
                        for view in [m.view(), m.subset(&subset)] {
                            let what =
                                format!("{} filters, input_len {input_len}, seed {seed}", arch.conv2_filters);
                            assert_matches_reference(net, view, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let mut rng = SimRng::seed_from(3);
        let net = Cnn::init(tiny_config(), &mut rng);
        let x: Vec<f64> = (0..8).map(|_| rng.standard_normal()).collect();
        let probs = net.predict_proba(&x);
        assert_eq!(probs.len(), 2);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn codec_roundtrip_preserves_predictions() {
        let mut rng = SimRng::seed_from(4);
        let (x, y) = separable_data(100, 8, &mut rng);
        let config = CnnConfig { epochs: 3, ..tiny_config() };
        let net = Cnn::fit(&x, &y, &config, &mut rng).unwrap();
        let back = Cnn::decode(&net.encode()).unwrap();
        for xi in &x {
            assert_eq!(net.predict(xi), back.predict(xi));
            let a = net.predict_proba(xi);
            let b = back.predict_proba(xi);
            assert!((a[0] - b[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let mut rng = SimRng::seed_from(5);
        let net = Cnn::init(tiny_config(), &mut rng);
        // conv1: 2*1*3 + 2; conv2: 3*2*3 + 3; fc1: (3*2)*4 + 4; fc2: 4*2 + 2
        assert_eq!(net.parameter_count(), (6 + 2) + (18 + 3) + (24 + 4) + (8 + 2));
    }

    #[test]
    fn training_rejects_bad_input() {
        let mut rng = SimRng::seed_from(6);
        assert_eq!(
            Cnn::fit(&[], &[], &tiny_config(), &mut rng),
            Err(TrainError::EmptyDataset)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut rng = SimRng::seed_from(7);
            let (x, y) = separable_data(60, 8, &mut rng);
            let config = CnnConfig { epochs: 2, ..tiny_config() };
            Cnn::fit(&x, &y, &config, &mut rng).unwrap().encode()
        };
        assert_eq!(run(), run());
    }

    /// Batches larger than one micro-batch must fold their partial
    /// gradients identically at any thread budget.
    #[test]
    fn training_is_thread_count_invariant() {
        let run = |threads: usize| {
            crate::par::with_threads(threads, || {
                let mut rng = SimRng::seed_from(8);
                let (x, y) = separable_data(200, 8, &mut rng);
                let config = CnnConfig { epochs: 2, batch_size: 64, ..tiny_config() };
                Cnn::fit(&x, &y, &config, &mut rng).unwrap().encode()
            })
        };
        assert_eq!(run(1), run(4));
    }

    /// Batch prediction splits rows into fixed lockstep blocks, so the
    /// classes and work totals are identical at any thread budget.
    #[test]
    fn batch_prediction_is_thread_count_invariant() {
        let mut rng = SimRng::seed_from(9);
        let (x, y) = separable_data(120, 8, &mut rng);
        let net = Cnn::fit(&x, &y, &CnnConfig { epochs: 2, ..tiny_config() }, &mut rng).unwrap();
        let m = random_matrix(203, 8, &mut rng);
        let run = |threads: usize| crate::par::with_threads(threads, || net.predict_batch_with_work(m.view()));
        let (classes, work) = run(1);
        assert_eq!(run(4), (classes.clone(), work));
        assert_eq!(classes, m.view().rows().map(|r| net.predict(r)).collect::<Vec<_>>());
        assert!(classes.contains(&0) && classes.contains(&1), "both classes exercised");
    }
}
