//! Property tests: the projection head's lane-tiled kernels on the
//! input-major layout produce **the same bits** as the per-unit serial
//! loops on `output × input` rows they replaced — forward outputs, the loss,
//! and every weight after one SGD step — for input widths 1..40 and 768,
//! layer widths below, at and past the lane width, with and without
//! dropout, inputs holding zeros, `-0.0` and all-zero rows, and units whose
//! gradient is exactly zero (which must be left untouched, `-0.0` weights
//! included).
//!
//! [`SerialHead`] is that serial implementation, kept here as the oracle.

use dust_embed::{
    cosine_embedding_loss, cosine_similarity, FineTuneConfig, PairExample, ProjectionHead, Vector,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The head as it was before the lane-tiled kernels: `w1` is `hidden_dim ×
/// input_dim` and `w2` is `output_dim × hidden_dim`, both row-major (the
/// exported form), and every unit is one serial `acc += w * v` chain.
struct SerialHead {
    input_dim: usize,
    config: FineTuneConfig,
    w1: Vec<f32>,
    b1: Vec<f32>,
    w2: Vec<f32>,
    b2: Vec<f32>,
}

impl SerialHead {
    fn of(head: &ProjectionHead) -> Self {
        let (w1, b1, w2, b2) = head.raw_weights();
        SerialHead {
            input_dim: head.input_dim(),
            config: head.config().clone(),
            w1,
            b1,
            w2,
            b2,
        }
    }

    fn forward(&self, x: &[f32], dropout_mask: Option<&[f32]>) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let h_dim = self.config.hidden_dim;
        let dropped: Vec<f32> = match dropout_mask {
            Some(mask) => x.iter().zip(mask).map(|(v, m)| v * m).collect(),
            None => x.to_vec(),
        };
        let mut z1 = vec![0.0f32; h_dim];
        for (i, slot) in z1.iter_mut().enumerate() {
            let row = &self.w1[i * self.input_dim..(i + 1) * self.input_dim];
            let mut acc = self.b1[i];
            for (w, v) in row.iter().zip(&dropped) {
                acc += w * v;
            }
            *slot = acc;
        }
        let h: Vec<f32> = z1.iter().map(|v| v.tanh()).collect();
        let mut out = vec![0.0f32; self.config.output_dim];
        for (i, slot) in out.iter_mut().enumerate() {
            let row = &self.w2[i * h_dim..(i + 1) * h_dim];
            let mut acc = self.b2[i];
            for (w, v) in row.iter().zip(&h) {
                acc += w * v;
            }
            *slot = acc;
        }
        (dropped, h, out)
    }

    fn embed(&self, x: &Vector) -> Vector {
        Vector::new(self.forward(x.as_slice(), None).2)
    }

    fn dropout_mask(&self, rng: &mut StdRng) -> Vec<f32> {
        let p = self.config.dropout;
        if p <= 0.0 {
            return vec![1.0; self.input_dim];
        }
        let keep = 1.0 - p;
        (0..self.input_dim)
            .map(|_| {
                if rng.gen::<f32>() < p {
                    0.0
                } else {
                    1.0 / keep
                }
            })
            .collect()
    }

    fn sgd_step(&mut self, pair: &PairExample, rng: &mut StdRng) -> f64 {
        let mask_a = self.dropout_mask(rng);
        let mask_b = self.dropout_mask(rng);
        let (xa, ha, ea) = self.forward(pair.a.as_slice(), Some(&mask_a));
        let (xb, hb, eb) = self.forward(pair.b.as_slice(), Some(&mask_b));
        let cos = cosine_similarity(&Vector::new(ea.clone()), &Vector::new(eb.clone()));
        let loss = if pair.unionable {
            1.0 - cos
        } else {
            (cos - self.config.margin).max(0.0)
        };
        let dcos = if pair.unionable {
            if cos < 1.0 - 0.05 {
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
        let grad_ea = clip_norm(cosine_grad(&ea, &eb, cos, dcos), 1.0);
        let grad_eb = clip_norm(cosine_grad(&eb, &ea, cos, dcos), 1.0);
        self.backprop(&xa, &ha, &grad_ea);
        self.backprop(&xb, &hb, &grad_eb);
        loss
    }

    fn backprop(&mut self, x: &[f32], h: &[f32], grad_out: &[f32]) {
        let lr = self.config.learning_rate;
        let h_dim = self.config.hidden_dim;
        let mut grad_h = vec![0.0f32; h_dim];
        for (i, &g) in grad_out.iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            let row = &mut self.w2[i * h_dim..(i + 1) * h_dim];
            for (j, w) in row.iter_mut().enumerate() {
                grad_h[j] += *w * g;
                *w -= lr * g * h[j];
            }
            self.b2[i] -= lr * g;
        }
        for (j, g) in grad_h.iter_mut().enumerate() {
            *g *= 1.0 - h[j] * h[j];
        }
        for (j, g) in grad_h.iter().enumerate() {
            if *g == 0.0 {
                continue;
            }
            let row = &mut self.w1[j * self.input_dim..(j + 1) * self.input_dim];
            for (k, w) in row.iter_mut().enumerate() {
                *w -= lr * g * x[k];
            }
            self.b1[j] -= lr * g;
        }
    }
}

fn clip_norm(mut grad: Vec<f32>, max_norm: f32) -> Vec<f32> {
    let norm = grad.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in &mut grad {
            *g *= scale;
        }
    }
    grad
}

fn cosine_grad(e_self: &[f32], e_other: &[f32], cos: f64, dcos: f64) -> Vec<f32> {
    let norm_self = (e_self.iter().map(|v| (*v as f64).powi(2)).sum::<f64>())
        .sqrt()
        .max(1e-9);
    let norm_other = (e_other.iter().map(|v| (*v as f64).powi(2)).sum::<f64>())
        .sqrt()
        .max(1e-9);
    e_self
        .iter()
        .zip(e_other)
        .map(|(s, o)| {
            let d = (*o as f64) / (norm_self * norm_other)
                - cos * (*s as f64) / (norm_self * norm_self);
            (dcos * d) as f32
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Bitwise equality that names what differs instead of printing up to
/// 98 k values.
fn assert_same_bits(what: &str, got: &[f32], want: &[f32]) {
    let (got, want) = (bits(got), bits(want));
    let differing = got.iter().zip(&want).filter(|(g, w)| g != w).count();
    assert!(
        got.len() == want.len() && differing == 0,
        "{what}: {differing} of {} values differ from the serial loops",
        want.len()
    );
}

/// A head with random weights of `new`'s scale, salted with what the
/// kernels could get wrong: `-0.0` weights, hidden units saturated to
/// `tanh = ±1` (their gradient is exactly zero) and all-zero output units
/// (theirs too), so that zero-gradient units sit inside lane blocks.
fn salted_head(input_dim: usize, config: FineTuneConfig, rng: &mut StdRng) -> ProjectionHead {
    let (h_dim, o_dim) = (config.hidden_dim, config.output_dim);
    let head = ProjectionHead::new(input_dim, config.clone());
    let (mut w1, mut b1, mut w2, mut b2) = head.raw_weights();
    for w in w1.iter_mut().chain(&mut w2) {
        if rng.gen_range(0..8) == 0 {
            *w = -0.0;
        }
    }
    for b in b1.iter_mut().chain(&mut b2) {
        *b = rng.gen_range(-0.5f32..0.5);
    }
    for b in &mut b1 {
        if rng.gen_range(0..6) == 0 {
            *b = if rng.gen_range(0..2) == 0 {
                40.0
            } else {
                -40.0
            };
        }
    }
    for unit in 0..o_dim {
        if rng.gen_range(0..6) == 0 {
            b2[unit] = 0.0;
            for w in &mut w2[unit * h_dim..(unit + 1) * h_dim] {
                *w = if rng.gen_range(0..2) == 0 { 0.0 } else { -0.0 };
            }
        }
    }
    ProjectionHead::from_raw_weights(input_dim, config, w1, b1, w2, b2)
}

/// An input row: mostly random, with zeros and `-0.0` mixed in; one time in
/// five all zero.
fn input_row(dim: usize, rng: &mut StdRng) -> Vector {
    if rng.gen_range(0..5) == 0 {
        return Vector::zeros(dim);
    }
    Vector::new(
        (0..dim)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect(),
    )
}

/// Layer widths below, at and past the lane width (16), and the served 128.
fn layer_width() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(15usize),
        Just(16usize),
        Just(17usize),
        Just(33usize),
        Just(128usize)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn head_matches_the_serial_loops_bit_for_bit(
        input_dim in prop_oneof![1usize..40, 1usize..40, Just(768usize)],
        hidden_dim in layer_width(),
        output_dim in layer_width(),
        dropout in prop_oneof![Just(0.0f32), Just(0.1f32), Just(0.5f32)],
        unionable in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = FineTuneConfig {
            hidden_dim,
            output_dim,
            dropout,
            max_epochs: 1,
            seed,
            ..FineTuneConfig::default()
        };
        let mut head = salted_head(input_dim, config, &mut rng);
        let mut oracle = SerialHead::of(&head);
        let pair = PairExample {
            a: input_row(input_dim, &mut rng),
            b: input_row(input_dim, &mut rng),
            unionable: unionable == 1,
        };

        // evaluation: no dropout
        for x in [&pair.a, &pair.b] {
            assert_same_bits("embedding", head.embed(x).as_slice(), oracle.embed(x).as_slice());
        }
        let loss = cosine_embedding_loss(
            &oracle.embed(&pair.a),
            &oracle.embed(&pair.b),
            pair.unionable,
            0.0,
        );
        prop_assert_eq!(
            head.evaluate_loss(std::slice::from_ref(&pair)).to_bits(),
            loss.to_bits()
        );

        // training: one epoch over one pair is one SGD step, with the
        // dropout masks drawn from the run's own generator
        let report = head.train(std::slice::from_ref(&pair), &[]);
        let mut train_rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let step_loss = oracle.sgd_step(&pair, &mut train_rng);
        prop_assert_eq!(report.final_train_loss.to_bits(), step_loss.to_bits());
        let (w1, b1, w2, b2) = head.raw_weights();
        assert_same_bits("w1", &w1, &oracle.w1);
        assert_same_bits("b1", &b1, &oracle.b1);
        assert_same_bits("w2", &w2, &oracle.w2);
        assert_same_bits("b2", &b2, &oracle.b2);
    }
}

/// The property above is vacuous if steps never update anything: on the
/// served shape a unionable pair of distinct rows does move the weights,
/// and a saturated hidden unit's `-0.0` weights survive the step.
#[test]
fn a_step_updates_live_units_and_leaves_zero_gradient_units_alone() {
    let config = FineTuneConfig {
        max_epochs: 1,
        ..FineTuneConfig::default()
    };
    let (input_dim, h_dim) = (768, config.hidden_dim);
    let (mut w1, mut b1, w2, b2) = ProjectionHead::new(input_dim, config.clone()).raw_weights();
    // hidden unit 3 (inside the first lane block) saturates: tanh(40) = 1
    b1[3] = 40.0;
    w1[3 * input_dim..4 * input_dim].fill(-0.0);
    let before = (w1.clone(), w2.clone());
    let mut head = ProjectionHead::from_raw_weights(input_dim, config, w1, b1, w2, b2);
    let mut rng = StdRng::seed_from_u64(5);
    let pair = PairExample {
        a: Vector::new(
            (0..input_dim)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect(),
        ),
        b: Vector::new(
            (0..input_dim)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect(),
        ),
        unionable: true,
    };
    head.train(std::slice::from_ref(&pair), &[]);
    let (w1, b1, w2, _) = head.raw_weights();
    assert!(bits(&w2) != bits(&before.1), "layer 2 must move");
    for unit in 0..h_dim {
        let row = unit * input_dim..(unit + 1) * input_dim;
        if unit == 3 {
            assert_same_bits("saturated unit 3", &w1[row.clone()], &before.0[row]);
            assert_eq!(b1[3].to_bits(), 40.0f32.to_bits());
        } else {
            assert!(
                bits(&w1[row.clone()]) != bits(&before.0[row]),
                "unit {unit} idle"
            );
        }
    }
}

#[test]
#[should_panic(expected = "input dimension mismatch")]
fn evaluation_rejects_a_wrong_input_dimension() {
    let head = ProjectionHead::new(8, FineTuneConfig::default());
    let _ = head.embed(&Vector::zeros(4));
}

#[test]
#[should_panic(expected = "input dimension mismatch")]
fn training_rejects_a_wrong_input_dimension() {
    let mut head = ProjectionHead::new(8, FineTuneConfig::default());
    let pair = PairExample {
        a: Vector::zeros(8),
        b: Vector::zeros(4),
        unionable: true,
    };
    head.train(&[pair], &[]);
}
