//! Criterion microbenchmarks for the embedding substrate: tuple
//! serialization + encoding throughput, column encoding (both
//! serializations), fine-tuned inference — at the shape `serve --finetune`
//! runs (768 → 128 → 64), head alone and whole model, after checking every
//! embedding against the per-unit serial loops bit for bit (a failed guard
//! aborts the bench) — and one SGD training epoch.
//!
//! ## Why the head's register block is 1 row × 16 lanes (`LANES` in `dust-embed`)
//!
//! Layer 1 of the served head (768 inputs → 128 units, 98 k of the head's
//! 106 k multiply-adds), weights held input-major, 840 inputs per pass,
//! pinned to one core of a shared 2-vCPU Sapphire Rapids box, no
//! `target-cpu` flag so SSE2 only; three invocations of three runs of nine
//! passes each, best run's minimum – worst run's median, µs per input, every
//! variant bit-identical to the serial loop. "Rows" are inputs sharing one
//! pass over the weights, which needs a batch entry point; "lanes" are
//! adjacent units, each with its own accumulator:
//!
//! | rows × lanes | µs / input | |
//! |---|---|---|
//! | per-unit serial loop of the parent commit | 58.7–69.1 | one `acc += w * v` chain per unit: add-latency-bound |
//! | 1 × 4 | 23.8–32.4 | one SSE register: still latency-bound |
//! | 1 × 8 | 11.5–18.6 | |
//! | **1 × 16** | **7.9–12.2** | four accumulator registers; a block's slice of a weight row is one cache line |
//! | 1 × 32 | 7.1–10.2 | a layer narrower than 32 units would run entirely on the per-unit tail |
//! | 1 × 64 | 7.6–9.5 | |
//! | 2 × 8 | 7.2–10.9 | |
//! | 2 × 16 | 6.3–8.7 | |
//! | 3 × 16 | 6.0–8.3 | 12 accumulator registers: the most that fit SSE2's 16 |
//! | 4 × 8 | 6.7–9.5 | |
//! | 2 × 32 | 7.7–10.4 | spills |
//! | 4 × 16 | 6.6–9.1 | spills |
//!
//! All of the 7–8× is the lanes. Sharing a pass between two or three inputs
//! buys a further ~1.7 µs (the one-row loop issues five loads per eight
//! arithmetic instructions), which is a tenth of what is left of a served
//! tuple (`head_forward_served_200` / 200 ≈ 9–10 µs with `tanh` and layer
//! 2, beside ≈ 6 µs of base encoder) and would split the head into a
//! batched and a one-input path: the lake side of `LakeSession` embeds one
//! tuple at a time. The one-row form is what every caller — single, batch,
//! training — runs.
//!
//! Layer 2 (128 → 64) keeps the same input-major layout and forward kernel.
//! Its backward pass wants the other orientation (`∂L/∂hidden[j] = Σᵢ
//! w2[j][i] · g[i]` walks a row per hidden unit): done on the one layout
//! with 16 hidden units as 16 scalar accumulators it costs 1.9 µs per side;
//! on a second, transposed 32 KB copy it costs 0.6 µs plus 0.8 µs to apply
//! every update twice. Half a microsecond per side is ≈ 1.5 ms of a 40 ms
//! training run, so there is one copy and the slower direction.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dust_datagen::{generate_base_table, Domain};
use dust_embed::{
    ColumnEncoder, ColumnSerialization, DustModel, FineTuneConfig, PretrainedModel, ProjectionHead,
    TfIdfCorpus, TupleEncoder, Vector,
};

fn bench_tuple_encoding(c: &mut Criterion) {
    let domain = Domain::by_name("parks").unwrap();
    let table = generate_base_table(&domain, 200, 3);
    let tuples = table.tuples();
    let encoder = TupleEncoder::new(PretrainedModel::Roberta);
    c.bench_function("tuple_encode_200", |b| {
        b.iter(|| encoder.embed_tuples(black_box(&tuples)));
    });

    let model = DustModel::new(
        PretrainedModel::Roberta,
        FineTuneConfig {
            hidden_dim: 96,
            output_dim: 64,
            ..FineTuneConfig::default()
        },
    );
    c.bench_function("dust_model_encode_200", |b| {
        b.iter(|| model.embed_tuples(black_box(&tuples)));
    });

    // The shape `serve --finetune` runs: 768 → 128 → 64. Before timing, the
    // kernels must reproduce the per-unit serial loops bit for bit.
    let served = DustModel::new(PretrainedModel::Roberta, FineTuneConfig::default());
    let base: Vec<Vector> = tuples.iter().map(|t| served.base_embedding(t)).collect();
    let head = served.head();
    let serial = SerialForward::of(head);
    for (x, tuple) in base.iter().zip(&tuples) {
        let expected = serial.embed(x);
        let same = |got: Vector| {
            got.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .eq(expected.iter().copied())
        };
        assert!(same(head.embed(x)), "the head kernel left the serial loops");
        assert!(
            same(served.embed_tuple(tuple)),
            "the model left the serial loops"
        );
    }
    c.bench_function("head_forward_serial_served_200", |b| {
        b.iter(|| {
            black_box(&base)
                .iter()
                .map(|x| serial.embed(x))
                .collect::<Vec<_>>()
        });
    });
    c.bench_function("head_forward_served_200", |b| {
        b.iter(|| {
            black_box(&base)
                .iter()
                .map(|x| head.embed(x))
                .collect::<Vec<_>>()
        });
    });
    c.bench_function("dust_model_encode_served_200", |b| {
        b.iter(|| served.embed_tuples(black_box(&tuples)));
    });
}

/// The head's forward pass as it was before the lane-tiled kernels: one
/// serial `acc += w * v` chain per unit over the exported `output × input`
/// rows. Its bits are what every kernel must reproduce.
struct SerialForward {
    w1: Vec<f32>,
    b1: Vec<f32>,
    w2: Vec<f32>,
    b2: Vec<f32>,
}

impl SerialForward {
    fn of(head: &ProjectionHead) -> Self {
        let (w1, b1, w2, b2) = head.raw_weights();
        SerialForward { w1, b1, w2, b2 }
    }

    /// The embedding of `x`, as bit patterns.
    fn embed(&self, x: &Vector) -> Vec<u32> {
        let layer = |w: &[f32], b: &[f32], x: &[f32]| -> Vec<f32> {
            w.chunks_exact(x.len())
                .zip(b)
                .map(|(row, &b)| row.iter().zip(x).fold(b, |acc, (w, v)| acc + w * v))
                .collect()
        };
        let mut hidden = layer(&self.w1, &self.b1, x.as_slice());
        hidden.iter_mut().for_each(|z| *z = z.tanh());
        let out = layer(&self.w2, &self.b2, &hidden);
        out.into_iter().map(f32::to_bits).collect()
    }
}

fn bench_column_encoding(c: &mut Criterion) {
    let domain = Domain::by_name("movies").unwrap();
    let table = generate_base_table(&domain, 300, 5);
    let corpus = ColumnEncoder::build_corpus(table.columns());
    for serialization in [
        ColumnSerialization::CellLevel,
        ColumnSerialization::ColumnLevel,
    ] {
        let encoder = ColumnEncoder::new(PretrainedModel::Roberta, serialization);
        let name = format!("column_encode_{}", serialization.name());
        c.bench_function(&name, |b| {
            b.iter(|| {
                table
                    .columns()
                    .iter()
                    .map(|col| encoder.embed_column(black_box(col), &corpus))
                    .collect::<Vec<_>>()
            });
        });
    }
    let _ = TfIdfCorpus::new();
}

fn bench_training_epoch(c: &mut Criterion) {
    let domain = Domain::by_name("schools").unwrap();
    let table = generate_base_table(&domain, 60, 9);
    let other = generate_base_table(&Domain::by_name("movies").unwrap(), 60, 9);
    let a = table.tuples();
    let b = other.tuples();
    let mut pairs = Vec::new();
    for i in 0..40 {
        pairs.push((a[i].clone(), a[(i + 1) % a.len()].clone(), true));
        pairs.push((a[i].clone(), b[i].clone(), false));
    }
    c.bench_function("finetune_one_epoch_80pairs", |bench| {
        bench.iter(|| {
            let mut model = DustModel::new(
                PretrainedModel::Bert,
                FineTuneConfig {
                    hidden_dim: 32,
                    output_dim: 16,
                    max_epochs: 1,
                    patience: 1,
                    ..FineTuneConfig::default()
                },
            );
            model.train(black_box(&pairs), &[])
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_tuple_encoding, bench_column_encoding, bench_training_epoch
}
criterion_main!(benches);
