//! The DUST fine-tuned tuple embedding model (Sec. 4).
//!
//! Architecture (Fig. 3, bottom right): a frozen base encoder produces a
//! tuple representation which is passed through a dropout layer and two
//! linear layers; the final linear layer's output is the fixed-dimension
//! tuple embedding. Training minimizes the cosine-embedding loss
//!
//! ```text
//! L(e1, e2) = 1 - cos(e1, e2)              if label = 1 (unionable)
//!             max(0, cos(e1, e2) - margin) if label = 0 (non-unionable)
//! ```
//!
//! with plain SGD, early stopping on validation loss with a patience
//! window — exactly the training loop the paper describes, with the
//! transformer backbone replaced by the deterministic hashing encoder
//! (DESIGN.md §2).
//!
//! ## One layout, lane-tiled kernels
//!
//! Both weight matrices are held **input-major** (`w[k][j]`: row `k` holds
//! the weight of input `k` into every output unit `j`), the transpose of
//! the `output × input` rows the persisted format and the textbook loop
//! use. A layer is then `acc[j] += w[k][j] · x[k]` for `k` ascending over a
//! block of [`LANES`] adjacent units that starts at `b[j]`: every unit
//! keeps the single accumulator, start value and summation order of the
//! per-unit serial loop — so each `f32` is the same bits — but the lanes of
//! a block are independent, which is what lets the compiler vectorize a sum
//! whose per-unit form is one latency-bound chain. The SGD update runs on
//! the same layout with the same expression order, so trained weights are
//! the same bits too (`crates/embed/tests/head_properties.rs` keeps the
//! serial loops as its oracle). Row-major `output × input` exists only at
//! the import/export boundary ([`ProjectionHead::from_raw_weights`] /
//! [`ProjectionHead::raw_weights`]); there is no second resident copy.

use crate::distance::cosine_similarity;
use crate::models::{PretrainedModel, TupleEncoder};
use crate::vector::Vector;
use dust_table::Tuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::array;

/// One training example: a pair of base embeddings and a unionability label.
#[derive(Debug, Clone)]
pub struct PairExample {
    /// Base embedding of the first tuple.
    pub a: Vector,
    /// Base embedding of the second tuple.
    pub b: Vector,
    /// `true` when the tuples come from the same table or unionable tables.
    pub unionable: bool,
}

/// Hyper-parameters of the fine-tuning head and its training loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FineTuneConfig {
    /// Hidden layer width.
    pub hidden_dim: usize,
    /// Output embedding dimensionality.
    pub output_dim: usize,
    /// Dropout probability applied to the base embedding during training.
    pub dropout: f32,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Maximum number of epochs.
    pub max_epochs: usize,
    /// Early-stopping patience (epochs without validation improvement).
    pub patience: usize,
    /// Margin of the cosine-embedding loss for non-unionable pairs.
    pub margin: f64,
    /// RNG seed (weight init, dropout masks, shuffling).
    pub seed: u64,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        FineTuneConfig {
            hidden_dim: 128,
            output_dim: 64,
            dropout: 0.1,
            learning_rate: 0.3,
            max_epochs: 100,
            patience: 10,
            margin: 0.0,
            seed: 7,
        }
    }
}

/// Report returned by [`ProjectionHead::train`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Number of epochs actually run (early stopping may cut training short).
    pub epochs_run: usize,
    /// Training loss of the final epoch.
    pub final_train_loss: f64,
    /// Best validation loss observed.
    pub best_val_loss: f64,
    /// Validation loss after each epoch.
    pub val_losses: Vec<f64>,
}

/// The cosine-embedding loss of a single pair.
pub fn cosine_embedding_loss(e1: &Vector, e2: &Vector, unionable: bool, margin: f64) -> f64 {
    let cos = cosine_similarity(e1, e2);
    if unionable {
        1.0 - cos
    } else {
        (cos - margin).max(0.0)
    }
}

/// Dropout + two linear layers (tanh in between), trained with SGD.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProjectionHead {
    input_dim: usize,
    config: FineTuneConfig,
    /// `input_dim × hidden_dim`, row-major (see the module docs).
    w1: Vec<f32>,
    b1: Vec<f32>,
    /// `hidden_dim × output_dim`, row-major.
    w2: Vec<f32>,
    b2: Vec<f32>,
}

/// Activation and gradient buffers of one training run (or one loss
/// evaluation), allocated once and reused for every pair.
struct Scratch {
    sides: [Side; 2],
    grad_out: Vec<f32>,
    grad_hidden: Vec<f32>,
}

/// What one side of a pair leaves behind for its backward pass.
struct Side {
    /// The input after dropout.
    x: Vec<f32>,
    /// Hidden activations (after tanh).
    hidden: Vec<f32>,
    out: Vector,
}

impl ProjectionHead {
    /// Create a head with small random weights.
    pub fn new(input_dim: usize, config: FineTuneConfig) -> Self {
        assert!(input_dim > 0 && config.hidden_dim > 0 && config.output_dim > 0);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scale1 = (1.0 / input_dim as f32).sqrt();
        let scale2 = (1.0 / config.hidden_dim as f32).sqrt();
        // Drawn in `output × input` order, the order of the exported form.
        let w1 = (0..config.hidden_dim * input_dim)
            .map(|_| rng.gen_range(-scale1..scale1))
            .collect();
        let w2 = (0..config.output_dim * config.hidden_dim)
            .map(|_| rng.gen_range(-scale2..scale2))
            .collect();
        let (b1, b2) = (vec![0.0; config.hidden_dim], vec![0.0; config.output_dim]);
        Self::from_raw_weights(input_dim, config, w1, b1, w2, b2)
    }

    /// Input dimensionality expected by the head.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output embedding dimensionality.
    pub fn output_dim(&self) -> usize {
        self.config.output_dim
    }

    /// The configuration the head was built with.
    pub fn config(&self) -> &FineTuneConfig {
        &self.config
    }

    /// Export the trained weights: `(w1, b1, w2, b2)` with `w1` as
    /// `hidden_dim × input_dim` row-major and `w2` as `output_dim ×
    /// hidden_dim` row-major — the persisted form, transposed out of the
    /// resident layout (hence owned). Together with [`Self::input_dim`] and
    /// [`Self::config`] this is the head's whole state.
    pub fn raw_weights(&self) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (h_dim, o_dim) = (self.config.hidden_dim, self.config.output_dim);
        (
            transposed(&self.w1, self.input_dim, h_dim),
            self.b1.clone(),
            transposed(&self.w2, h_dim, o_dim),
            self.b2.clone(),
        )
    }

    /// Reassemble a head from exported weights — the exact inverse of
    /// [`Self::raw_weights`]. Weights round-trip verbatim, so every forward
    /// pass of the restored head is bit-identical to the original's.
    /// Panics if the buffer lengths disagree with the dimensions.
    pub fn from_raw_weights(
        input_dim: usize,
        config: FineTuneConfig,
        w1: Vec<f32>,
        b1: Vec<f32>,
        w2: Vec<f32>,
        b2: Vec<f32>,
    ) -> Self {
        let (h_dim, o_dim) = (config.hidden_dim, config.output_dim);
        assert_eq!(w1.len(), h_dim * input_dim, "w1 shape mismatch");
        assert_eq!(b1.len(), h_dim, "b1 shape mismatch");
        assert_eq!(w2.len(), o_dim * h_dim, "w2 shape mismatch");
        assert_eq!(b2.len(), o_dim, "b2 shape mismatch");
        ProjectionHead {
            input_dim,
            w1: transposed(&w1, h_dim, input_dim),
            b1,
            w2: transposed(&w2, o_dim, h_dim),
            b2,
            config,
        }
    }

    /// Forward pass in evaluation mode (no dropout).
    pub fn embed(&self, x: &Vector) -> Vector {
        self.embed_with(x.as_slice(), &mut vec![0.0; self.config.hidden_dim])
    }

    /// [`Self::embed`] with the caller's hidden-layer buffer, so a batch
    /// allocates nothing per input but the embedding it returns.
    fn embed_with(&self, x: &[f32], hidden: &mut [f32]) -> Vector {
        let mut out = vec![0.0; self.config.output_dim];
        self.forward(x, hidden, &mut out);
        Vector::new(out)
    }

    /// The forward pass, for evaluation and training alike (training feeds
    /// it the input after dropout): leaves the hidden activations in
    /// `hidden` and the embedding in `out`.
    fn forward(&self, x: &[f32], hidden: &mut [f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        layer(&self.w1, &self.b1, x, hidden);
        for h in hidden.iter_mut() {
            *h = h.tanh();
        }
        layer(&self.w2, &self.b2, hidden, out);
    }

    fn scratch(&self) -> Scratch {
        let side = || Side {
            x: vec![0.0; self.input_dim],
            hidden: vec![0.0; self.config.hidden_dim],
            out: Vector::zeros(self.config.output_dim),
        };
        Scratch {
            sides: [side(), side()],
            grad_out: vec![0.0; self.config.output_dim],
            grad_hidden: vec![0.0; self.config.hidden_dim],
        }
    }

    /// Average loss over a set of pairs (evaluation mode).
    pub fn evaluate_loss(&self, pairs: &[PairExample]) -> f64 {
        self.evaluate_loss_with(pairs, &mut self.scratch())
    }

    fn evaluate_loss_with(&self, pairs: &[PairExample], scratch: &mut Scratch) -> f64 {
        if pairs.is_empty() {
            return 0.0;
        }
        let [a, b] = &mut scratch.sides;
        let total: f64 = pairs
            .iter()
            .map(|p| {
                self.forward(p.a.as_slice(), &mut a.hidden, a.out.as_mut_slice());
                self.forward(p.b.as_slice(), &mut b.hidden, b.out.as_mut_slice());
                cosine_embedding_loss(&a.out, &b.out, p.unionable, self.config.margin)
            })
            .sum();
        total / pairs.len() as f64
    }

    /// Train with SGD and early stopping; returns a training report.
    pub fn train(&mut self, train: &[PairExample], validation: &[PairExample]) -> TrainReport {
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        let mut scratch = self.scratch();
        let mut best_val = f64::INFINITY;
        let mut best_weights = (
            self.w1.clone(),
            self.b1.clone(),
            self.w2.clone(),
            self.b2.clone(),
        );
        let mut epochs_without_improvement = 0usize;
        let mut val_losses = Vec::new();
        let mut final_train_loss = 0.0;
        let mut epochs_run = 0usize;
        let mut order: Vec<usize> = (0..train.len()).collect();

        for _epoch in 0..self.config.max_epochs {
            epochs_run += 1;
            shuffle(&mut order, &mut rng);
            let mut epoch_loss = 0.0;
            for &idx in &order {
                let pair = &train[idx];
                epoch_loss += self.sgd_step(pair, &mut rng, &mut scratch);
            }
            final_train_loss = if train.is_empty() {
                0.0
            } else {
                epoch_loss / train.len() as f64
            };
            let val_loss = if validation.is_empty() {
                final_train_loss
            } else {
                self.evaluate_loss_with(validation, &mut scratch)
            };
            val_losses.push(val_loss);
            if val_loss + 1e-9 < best_val {
                best_val = val_loss;
                best_weights = (
                    self.w1.clone(),
                    self.b1.clone(),
                    self.w2.clone(),
                    self.b2.clone(),
                );
                epochs_without_improvement = 0;
            } else {
                epochs_without_improvement += 1;
                if epochs_without_improvement >= self.config.patience {
                    break;
                }
            }
        }
        // Restore the best checkpoint (standard early-stopping behaviour).
        self.w1 = best_weights.0;
        self.b1 = best_weights.1;
        self.w2 = best_weights.2;
        self.b2 = best_weights.3;
        TrainReport {
            epochs_run,
            final_train_loss,
            best_val_loss: if best_val.is_finite() {
                best_val
            } else {
                final_train_loss
            },
            val_losses,
        }
    }

    /// One SGD step on a single pair; returns the pair's loss before update.
    fn sgd_step(&mut self, pair: &PairExample, rng: &mut StdRng, scratch: &mut Scratch) -> f64 {
        let Scratch {
            sides: [a, b],
            grad_out,
            grad_hidden,
        } = scratch;
        self.dropout(pair.a.as_slice(), rng, &mut a.x);
        self.dropout(pair.b.as_slice(), rng, &mut b.x);
        self.forward(&a.x, &mut a.hidden, a.out.as_mut_slice());
        self.forward(&b.x, &mut b.hidden, b.out.as_mut_slice());
        let cos = cosine_similarity(&a.out, &b.out);
        let loss = if pair.unionable {
            1.0 - cos
        } else {
            (cos - self.config.margin).max(0.0)
        };
        // dL/dcos. Positive pairs stop pulling once they are already very
        // close (a small satisfaction slack): without it the easiest way to
        // drive the positive loss to zero is to collapse every embedding
        // onto one direction, a well-known failure mode of contrastive
        // training that the negative-pair gradient cannot undo because it
        // vanishes as the embeddings coincide.
        let positive_slack = 0.05;
        let dcos = if pair.unionable {
            if cos < 1.0 - positive_slack {
                -1.0
            } else {
                0.0
            }
        } else if cos > self.config.margin {
            1.0
        } else {
            0.0
        };
        if dcos == 0.0 {
            return loss;
        }
        // Clip the per-sample output gradients: the cosine gradient scales
        // with 1/||e||, which is huge right after initialization (the head's
        // outputs start near zero) and would otherwise blow the weights into
        // tanh saturation on the very first steps.
        for (side, other) in [(&*a, &*b), (&*b, &*a)] {
            cosine_grad(
                side.out.as_slice(),
                other.out.as_slice(),
                cos,
                dcos,
                grad_out,
            );
            clip_norm(grad_out, 1.0);
            self.backprop(&side.x, &side.hidden, grad_out, grad_hidden);
        }
        loss
    }

    /// Backpropagate an output gradient through both linear layers and apply
    /// the SGD update in place.
    fn backprop(&mut self, x: &[f32], hidden: &[f32], grad_out: &[f32], grad_hidden: &mut [f32]) {
        let lr = self.config.learning_rate;
        // gradient wrt hidden activations, from the weights as they are
        // before this step
        input_gradient(&self.w2, grad_out, grad_hidden);
        descend(&mut self.w2, &mut self.b2, hidden, grad_out, lr);
        // through tanh
        for (g, h) in grad_hidden.iter_mut().zip(hidden) {
            *g *= 1.0 - h * h;
        }
        descend(&mut self.w1, &mut self.b1, x, grad_hidden, lr);
    }

    /// Training-time dropout: `dropped` is `x` with each component zeroed
    /// with probability `p` and the survivors scaled by `1 / (1 - p)`.
    fn dropout(&self, x: &[f32], rng: &mut StdRng, dropped: &mut [f32]) {
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        let p = self.config.dropout;
        if p <= 0.0 {
            dropped.copy_from_slice(x);
            return;
        }
        let kept = 1.0 / (1.0 - p);
        for (d, v) in dropped.iter_mut().zip(x) {
            *d = v * if rng.gen::<f32>() < p { 0.0 } else { kept };
        }
    }
}

/// Output units per register block of the layer kernels: 16 `f32` lanes
/// (four SSE registers of accumulators, one cache line of each weight row).
/// Any width gives the same bits, so this is purely a speed choice; the
/// sweep behind it is recorded in `crates/bench/benches/embedding.rs`.
const LANES: usize = 16;

/// One linear layer: `out[j] = b[j] + Σₖ w[k][j] · x[k]`, each unit summed
/// in ascending `k` from its bias, with `w` held `x.len() × out.len()`.
fn layer(w: &[f32], b: &[f32], x: &[f32], out: &mut [f32]) {
    assert!(b.len() == out.len() && w.len() == x.len() * out.len());
    for j in (0..out.len()).step_by(LANES) {
        if j + LANES <= out.len() {
            layer_block::<LANES>(w, b, x, out, j);
        } else {
            for unit in j..out.len() {
                layer_block::<1>(w, b, x, out, unit);
            }
        }
    }
}

/// Units `j..j + L` of [`layer`]. The `L` accumulators are independent, so
/// the compiler vectorizes them; the per-unit form (`L = 1`, which serves
/// the units past the last whole block of [`LANES`]) is one
/// add-latency-bound chain.
///
/// Never inlined, like `accumulate` in `store.rs`: compiled alone, the loop
/// is packed SIMD whatever the caller does around it.
#[inline(never)]
fn layer_block<const L: usize>(w: &[f32], b: &[f32], x: &[f32], out: &mut [f32], j: usize) {
    let width = out.len();
    let mut acc = [0.0f32; L];
    acc.copy_from_slice(&b[j..j + L]);
    for (row, &v) in w.chunks_exact(width).zip(x) {
        for (acc, w) in acc.iter_mut().zip(&row[j..j + L]) {
            *acc += w * v;
        }
    }
    out[j..j + L].copy_from_slice(&acc);
}

/// Gradient of a layer's output with respect to its input: `gx[k] = Σⱼ
/// w[k][j] · g[j]`, each summed in ascending `j` from `0.0` over the units
/// whose gradient is not exactly zero. This is the direction the layout
/// does not favour (a unit's weights are a stride apart): lanes here are
/// `LANES` inputs, each reading its own row.
fn input_gradient(w: &[f32], g: &[f32], gx: &mut [f32]) {
    assert_eq!(w.len(), gx.len() * g.len());
    for k in (0..gx.len()).step_by(LANES) {
        if k + LANES <= gx.len() {
            input_gradient_block::<LANES>(w, g, gx, k);
        } else {
            for input in k..gx.len() {
                input_gradient_block::<1>(w, g, gx, input);
            }
        }
    }
}

/// Inputs `k..k + L` of [`input_gradient`].
#[inline(never)]
fn input_gradient_block<const L: usize>(w: &[f32], g: &[f32], gx: &mut [f32], k: usize) {
    let width = g.len();
    let rows: [&[f32]; L] = array::from_fn(|l| &w[(k + l) * width..][..width]);
    let mut acc = [0.0f32; L];
    for (j, &g) in g.iter().enumerate() {
        if g == 0.0 {
            continue;
        }
        for l in 0..L {
            acc[l] += rows[l][j] * g;
        }
    }
    gx[k..k + L].copy_from_slice(&acc);
}

/// The SGD update of one layer: `w[k][j] -= (lr · g[j]) · x[k]` and `b[j] -=
/// lr · g[j]` for every unit `j` whose gradient `g[j]` is not exactly zero.
/// Such a unit is left untouched rather than updated by zero (`-0.0 - -0.0`
/// is `+0.0`: even a zero step can move a bit), so a block holding one goes
/// unit by unit.
fn descend(w: &mut [f32], b: &mut [f32], x: &[f32], g: &[f32], lr: f32) {
    assert!(b.len() == g.len() && w.len() == x.len() * g.len());
    for j in (0..g.len()).step_by(LANES) {
        let end = (j + LANES).min(g.len());
        if end - j == LANES && !g[j..end].contains(&0.0) {
            descend_block::<LANES>(w, b, x, g, lr, j);
        } else {
            for unit in (j..end).filter(|&unit| g[unit] != 0.0) {
                descend_block::<1>(w, b, x, g, lr, unit);
            }
        }
    }
}

/// Units `j..j + L` of [`descend`].
#[inline(never)]
fn descend_block<const L: usize>(
    w: &mut [f32],
    b: &mut [f32],
    x: &[f32],
    g: &[f32],
    lr: f32,
    j: usize,
) {
    let width = g.len();
    let step: [f32; L] = array::from_fn(|l| lr * g[j + l]);
    for (row, &v) in w.chunks_exact_mut(width).zip(x) {
        for (w, step) in row[j..j + L].iter_mut().zip(step) {
            *w -= step * v;
        }
    }
    for (b, step) in b[j..j + L].iter_mut().zip(step) {
        *b -= step;
    }
}

/// `m` (`rows × cols`, row-major) transposed.
fn transposed(m: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0; m.len()];
    for (r, row) in m.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            t[c * rows + r] = v;
        }
    }
    t
}

/// Scale a gradient vector down so its L2 norm does not exceed `max_norm`.
fn clip_norm(grad: &mut [f32], max_norm: f32) {
    let norm = grad.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grad {
            *g *= scale;
        }
    }
}

/// Gradient of `dL/d e_self` for the cosine similarity term.
fn cosine_grad(e_self: &[f32], e_other: &[f32], cos: f64, dcos: f64, grad: &mut [f32]) {
    let norm_self = (e_self.iter().map(|v| (*v as f64).powi(2)).sum::<f64>())
        .sqrt()
        .max(1e-9);
    let norm_other = (e_other.iter().map(|v| (*v as f64).powi(2)).sum::<f64>())
        .sqrt()
        .max(1e-9);
    for ((g, s), o) in grad.iter_mut().zip(e_self).zip(e_other) {
        let d =
            (*o as f64) / (norm_self * norm_other) - cos * (*s as f64) / (norm_self * norm_self);
        *g = (dcos * d) as f32;
    }
}

/// Fisher–Yates shuffle (kept local to avoid a `rand` trait import dance).
fn shuffle(order: &mut [usize], rng: &mut StdRng) {
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
}

/// The DUST tuple embedding model: a frozen base encoder plus a trained
/// projection head.
///
/// Training additionally estimates the mean of the base embeddings over the
/// training pairs and subtracts it before the head (centering). Pre-trained
/// transformer spaces are strongly anisotropic — every embedding shares a
/// large common component — and without centering the cosine-embedding loss
/// has a degenerate optimum where all embeddings collapse onto that common
/// direction; removing it makes fine-tuning stable.
#[derive(Debug, Clone)]
pub struct DustModel {
    base: TupleEncoder,
    head: ProjectionHead,
    /// Mean base embedding estimated from the training pairs.
    center: Option<Vector>,
}

impl DustModel {
    /// Create an untrained DUST model over the given backbone.
    pub fn new(backbone: PretrainedModel, config: FineTuneConfig) -> Self {
        let base = TupleEncoder::new(backbone);
        let head = ProjectionHead::new(base.dim(), config);
        DustModel {
            base,
            head,
            center: None,
        }
    }

    /// The backbone model.
    pub fn backbone(&self) -> PretrainedModel {
        self.base.model()
    }

    /// The trained projection head.
    pub fn head(&self) -> &ProjectionHead {
        &self.head
    }

    /// The training-time centering vector, if the model was trained.
    pub fn center(&self) -> Option<&Vector> {
        self.center.as_ref()
    }

    /// Reassemble a model from its parts — the inverse of
    /// [`Self::backbone`]/[`Self::head`]/[`Self::center`]. The base encoder
    /// is deterministic in the backbone, and head weights and centering
    /// round-trip verbatim, so every embedding of the restored model is
    /// bit-identical to the original's.
    pub fn from_parts(
        backbone: PretrainedModel,
        head: ProjectionHead,
        center: Option<Vector>,
    ) -> Self {
        let base = TupleEncoder::new(backbone);
        assert_eq!(
            head.input_dim(),
            base.dim(),
            "head input dim does not match the backbone"
        );
        DustModel { base, head, center }
    }

    /// Output embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.head.output_dim()
    }

    /// Base (pre-projection) embedding of a tuple.
    pub fn base_embedding(&self, tuple: &Tuple) -> Vector {
        self.base.embed_tuple(tuple)
    }

    /// Fine-tuned embedding of a tuple.
    pub fn embed_tuple(&self, tuple: &Tuple) -> Vector {
        self.embed_with(tuple, &mut vec![0.0; self.head.config.hidden_dim])
    }

    /// Embed many tuples.
    pub fn embed_tuples(&self, tuples: &[Tuple]) -> Vec<Vector> {
        let mut hidden = vec![0.0; self.head.config.hidden_dim];
        tuples
            .iter()
            .map(|t| self.embed_with(t, &mut hidden))
            .collect()
    }

    fn embed_with(&self, tuple: &Tuple, hidden: &mut [f32]) -> Vector {
        let mut base = self.base.embed_tuple(tuple);
        self.apply_center(&mut base);
        self.head.embed_with(base.as_slice(), hidden)
    }

    /// Apply the training-time centering in place (no-op before training).
    fn apply_center(&self, embedding: &mut Vector) {
        if let Some(center) = &self.center {
            embedding.sub_assign(center);
        }
    }

    fn center_pairs(&self, pairs: &mut [PairExample]) {
        for pair in pairs {
            self.apply_center(&mut pair.a);
            self.apply_center(&mut pair.b);
        }
    }

    /// Base embeddings of labelled tuple pairs, not yet centered.
    fn base_pairs(&self, pairs: &[(Tuple, Tuple, bool)]) -> Vec<PairExample> {
        pairs
            .iter()
            .map(|(a, b, label)| PairExample {
                a: self.base.embed_tuple(a),
                b: self.base.embed_tuple(b),
                unionable: *label,
            })
            .collect()
    }

    /// Convert labelled tuple pairs into head training examples (applying the
    /// current centering, if any).
    pub fn prepare_pairs(&self, pairs: &[(Tuple, Tuple, bool)]) -> Vec<PairExample> {
        let mut examples = self.base_pairs(pairs);
        self.center_pairs(&mut examples);
        examples
    }

    /// Fine-tune the projection head on labelled tuple pairs. The training
    /// pairs also define the centering applied to every future embedding.
    pub fn train(
        &mut self,
        train_pairs: &[(Tuple, Tuple, bool)],
        validation_pairs: &[(Tuple, Tuple, bool)],
    ) -> TrainReport {
        // Estimate the anisotropy direction from the training pairs (kept
        // as it was when there are none), then remove it from them.
        let mut train = self.base_pairs(train_pairs);
        if let Some(center) = Vector::mean(train.iter().flat_map(|p| [&p.a, &p.b])) {
            self.center = Some(center);
        }
        self.center_pairs(&mut train);
        let val = self.prepare_pairs(validation_pairs);
        self.head.train(&train, &val)
    }

    /// Accuracy of unionability classification at a cosine-distance
    /// threshold (Sec. 6.3: predicted unionable iff distance < threshold).
    pub fn classification_accuracy(&self, pairs: &[(Tuple, Tuple, bool)], threshold: f64) -> f64 {
        classification_accuracy(|t| self.embed_tuple(t), pairs, threshold)
    }
}

/// Accuracy of threshold-based unionability classification for an arbitrary
/// tuple embedder (used for the pre-trained baselines in Fig. 6).
pub fn classification_accuracy<F>(embed: F, pairs: &[(Tuple, Tuple, bool)], threshold: f64) -> f64
where
    F: Fn(&Tuple) -> Vector,
{
    if pairs.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (a, b, label) in pairs {
        let ea = embed(a);
        let eb = embed(b);
        let distance = 1.0 - cosine_similarity(&ea, &eb);
        let predicted = distance < threshold;
        if predicted == *label {
            correct += 1;
        }
    }
    correct as f64 / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_table::Value;

    fn tuple(topic: &str, entity: &str, place: &str) -> Tuple {
        Tuple::new(
            vec!["Name".into(), "Kind".into(), "Place".into()],
            vec![Value::text(entity), Value::text(topic), Value::text(place)],
            format!("{topic}_table"),
            0,
        )
    }

    fn toy_pairs() -> Vec<(Tuple, Tuple, bool)> {
        let parks = [
            tuple("park", "River Park", "Fresno"),
            tuple("park", "Hyde Park", "London"),
            tuple("park", "Chippewa Park", "Brandon"),
            tuple("park", "Lawler Park", "Chicago"),
        ];
        let paintings = [
            tuple("painting", "Northern Lake", "Canada"),
            tuple("painting", "Memory Landscape", "USA"),
            tuple("painting", "Starry Night", "France"),
            tuple("painting", "Water Lilies", "France"),
        ];
        let mut pairs = Vec::new();
        for i in 0..parks.len() {
            for j in (i + 1)..parks.len() {
                pairs.push((parks[i].clone(), parks[j].clone(), true));
                pairs.push((paintings[i].clone(), paintings[j].clone(), true));
            }
        }
        for p in &parks {
            for q in &paintings {
                pairs.push((p.clone(), q.clone(), false));
            }
        }
        pairs
    }

    fn small_config() -> FineTuneConfig {
        FineTuneConfig {
            hidden_dim: 32,
            output_dim: 16,
            dropout: 0.05,
            learning_rate: 0.4,
            max_epochs: 150,
            patience: 25,
            margin: 0.0,
            seed: 3,
        }
    }

    #[test]
    fn loss_definition_matches_paper() {
        let a = Vector::new(vec![1.0, 0.0]);
        let b = Vector::new(vec![1.0, 0.0]);
        let c = Vector::new(vec![0.0, 1.0]);
        assert!(cosine_embedding_loss(&a, &b, true, 0.0).abs() < 1e-9);
        assert!((cosine_embedding_loss(&a, &c, true, 0.0) - 1.0).abs() < 1e-9);
        assert!((cosine_embedding_loss(&a, &b, false, 0.0) - 1.0).abs() < 1e-9);
        assert!(cosine_embedding_loss(&a, &c, false, 0.0).abs() < 1e-9);
        // margin shifts the non-unionable hinge
        assert!(cosine_embedding_loss(&a, &b, false, 0.5) > 0.0);
    }

    #[test]
    fn head_forward_shapes() {
        let head = ProjectionHead::new(8, small_config());
        assert_eq!(head.input_dim(), 8);
        assert_eq!(head.output_dim(), 16);
        let out = head.embed(&Vector::zeros(8));
        assert_eq!(out.dim(), 16);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn head_rejects_wrong_input_dim() {
        let head = ProjectionHead::new(8, small_config());
        let _ = head.embed(&Vector::zeros(4));
    }

    #[test]
    fn training_reduces_loss_on_separable_pairs() {
        let model_cfg = small_config();
        let mut model = DustModel::new(PretrainedModel::Bert, model_cfg);
        let pairs = toy_pairs();
        let before = {
            let prepared = model.prepare_pairs(&pairs);
            model.head.evaluate_loss(&prepared)
        };
        let report = model.train(&pairs, &pairs);
        let after = {
            let prepared = model.prepare_pairs(&pairs);
            model.head.evaluate_loss(&prepared)
        };
        assert!(report.epochs_run > 0);
        assert!(
            after < before,
            "training should reduce loss (before {before}, after {after})"
        );
    }

    #[test]
    fn finetuned_model_beats_pretrained_baseline() {
        // The core claim of Fig. 6: pre-trained anisotropic encoders are near
        // chance at threshold-based unionability classification, while the
        // fine-tuned head separates the classes.
        let pairs = toy_pairs();
        let threshold = 0.7;
        let baseline = TupleEncoder::new(PretrainedModel::Bert);
        let baseline_acc = classification_accuracy(|t| baseline.embed_tuple(t), &pairs, threshold);
        let mut model = DustModel::new(PretrainedModel::Bert, small_config());
        model.train(&pairs, &pairs);
        let tuned_acc = model.classification_accuracy(&pairs, threshold);
        assert!(
            tuned_acc > baseline_acc,
            "fine-tuned accuracy {tuned_acc} should beat baseline {baseline_acc}"
        );
        assert!(
            tuned_acc > 0.8,
            "fine-tuned accuracy should be high, got {tuned_acc}"
        );
    }

    #[test]
    fn early_stopping_respects_patience() {
        let cfg = FineTuneConfig {
            max_epochs: 100,
            patience: 2,
            ..small_config()
        };
        let mut head = ProjectionHead::new(4, cfg);
        // A single degenerate pair: identical vectors labelled non-unionable
        // cannot be improved, so validation loss plateaus immediately.
        let v = Vector::new(vec![1.0, 0.0, 0.0, 0.0]);
        let pairs = vec![PairExample {
            a: v.clone(),
            b: v.clone(),
            unionable: false,
        }];
        let report = head.train(&pairs, &pairs);
        assert!(report.epochs_run < 100, "early stopping should trigger");
    }

    #[test]
    fn dropout_mask_scales_kept_components() {
        let cfg = FineTuneConfig {
            dropout: 0.5,
            ..small_config()
        };
        let head = ProjectionHead::new(100, cfg);
        let mut rng = StdRng::seed_from_u64(1);
        let mut dropped = vec![f32::NAN; 100];
        head.dropout(&[1.0; 100], &mut rng, &mut dropped);
        assert!(dropped.contains(&0.0));
        assert!(dropped.iter().any(|&d| (d - 2.0).abs() < 1e-6));
        assert!(dropped.iter().all(|&d| d == 0.0 || (d - 2.0).abs() < 1e-6));
    }

    #[test]
    fn classification_accuracy_handles_empty_input() {
        let enc = TupleEncoder::new(PretrainedModel::Bert);
        assert_eq!(
            classification_accuracy(|t| enc.embed_tuple(t), &[], 0.7),
            0.0
        );
    }

    #[test]
    fn embed_tuples_is_consistent_with_embed_tuple() {
        let model = DustModel::new(PretrainedModel::Roberta, small_config());
        let ts = vec![tuple("park", "River Park", "Fresno")];
        assert_eq!(model.embed_tuples(&ts)[0], model.embed_tuple(&ts[0]));
        assert_eq!(model.dim(), 16);
        assert_eq!(model.backbone(), PretrainedModel::Roberta);
    }
}
