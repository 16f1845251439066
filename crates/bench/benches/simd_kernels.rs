//! SIMD fast paths vs their scalar references for the six hottest kernels:
//! FWHT butterflies, Gram–Schmidt inner loops (dot/axpy), the top-k
//! threshold scan, fused quantize+pack, the Dense layer forward, and the
//! binary16 encode/decode/sum of the FP16 baseline.
//!
//! Each `scalar`/`simd` pair computes bitwise-identical results on the
//! benchmark's (finite) inputs — pinned by the dispatch proptests in
//! `gcs_tensor::simd` — so the ratio is pure instruction-level speedup. On
//! hardware without AVX2 (or, for the binary16 rows, without F16C) the
//! `simd` rows dispatch to the scalar body and the pairs converge, which is
//! itself worth seeing in a report.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gcs_nn::Model;
use gcs_tensor::bitpack::PackedIntVec;
use gcs_tensor::hadamard::fwht;
use gcs_tensor::matrix::{dense_forward_into, DenseScratch};
use gcs_tensor::simd;
use rand::{Rng, SeedableRng};

fn data(d: usize, seed: u64) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bench_butterfly(c: &mut Criterion) {
    let mut g = c.benchmark_group("simd_kernels/butterfly");
    let half = 1 << 15;
    let lo0 = data(half, 1);
    let hi0 = data(half, 2);
    g.bench_function("scalar", |b| {
        let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
        b.iter(|| {
            simd::butterfly_scalar(black_box(&mut lo), black_box(&mut hi), 1.0);
            lo[0]
        })
    });
    g.bench_function("simd", |b| {
        let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
        b.iter(|| {
            simd::butterfly(black_box(&mut lo), black_box(&mut hi), 1.0);
            lo[0]
        })
    });
    // The kernel in situ: a full 2^16 FWHT (16 butterfly stages).
    g.bench_function("fwht_dispatch_65536", |b| {
        let v = data(1 << 16, 3);
        let mut x = v.clone();
        b.iter(|| {
            x.copy_from_slice(&v);
            fwht(black_box(&mut x));
            x[0]
        })
    });
    g.finish();
}

fn bench_gram_schmidt_inner(c: &mut Criterion) {
    let mut g = c.benchmark_group("simd_kernels/gs_inner");
    let rows = 4096;
    let x = data(rows, 4);
    let y0 = data(rows, 5);
    g.bench_function(BenchmarkId::new("dot", "scalar"), |b| {
        b.iter(|| simd::dot_folded_scalar(black_box(&x), black_box(&y0)))
    });
    g.bench_function(BenchmarkId::new("dot", "simd"), |b| {
        b.iter(|| simd::dot_folded(black_box(&x), black_box(&y0)))
    });
    g.bench_function(BenchmarkId::new("axpy", "scalar"), |b| {
        let mut y = y0.clone();
        b.iter(|| {
            simd::axpy_scalar(0.25, black_box(&x), black_box(&mut y));
            y[0]
        })
    });
    g.bench_function(BenchmarkId::new("axpy", "simd"), |b| {
        let mut y = y0.clone();
        b.iter(|| {
            simd::axpy(0.25, black_box(&x), black_box(&mut y));
            y[0]
        })
    });
    g.finish();
}

fn bench_topk_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("simd_kernels/topk_scan");
    let d = 1 << 16;
    let v = data(d, 6);
    // A threshold near the top-1% boundary, as the selection pass sees it.
    let mut keys = vec![0u32; d];
    simd::abs_keys_into(&v, &mut keys);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let t = sorted[d - d / 100];

    g.bench_function("scalar", |b| {
        let mut keys = vec![0u32; d];
        let mut out = Vec::with_capacity(d / 50);
        b.iter(|| {
            simd::abs_keys_scalar(black_box(&v), &mut keys);
            out.clear();
            simd::collect_indices_above_scalar(black_box(&keys), t, 0, &mut out);
            out.len()
        })
    });
    g.bench_function("simd", |b| {
        let mut keys = vec![0u32; d];
        let mut out = Vec::with_capacity(d / 50);
        b.iter(|| {
            simd::abs_keys_into(black_box(&v), &mut keys);
            out.clear();
            simd::collect_indices_above(black_box(&keys), t, 0, &mut out);
            out.len()
        })
    });
    g.finish();
}

fn bench_quantize_pack(c: &mut Criterion) {
    let mut g = c.benchmark_group("simd_kernels/quantize_pack");
    let len = 1 << 16;
    let v = data(len, 7);
    let q = 4u32;
    let qmax = (1i32 << (q - 1)) - 1;
    let quant = |x: f32| ((x * qmax as f32) as i32).clamp(-qmax, qmax);

    // Scalar reference: quantize into a lane vector, then pack it.
    g.bench_function("scalar", |b| {
        let mut lanes = vec![0i32; len];
        b.iter(|| {
            for (l, &x) in lanes.iter_mut().zip(black_box(&v)) {
                *l = quant(x);
            }
            PackedIntVec::from_signed(q, &lanes).len()
        })
    });
    // Fused streaming writer (SIMD lane blocks inside `pack_with`).
    g.bench_function("simd", |b| {
        let mut packed = PackedIntVec::zeros(q, len);
        b.iter(|| {
            packed.reset(q, len);
            packed.pack_with(|i| quant(black_box(&v)[i]));
            packed.len()
        })
    });
    g.finish();
}

fn bench_dense_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("simd_kernels/dense_forward");
    // BertMini's widest layer (512 -> 128) at the per-worker training batch
    // and at the evaluation batch.
    let (in_dim, out_dim) = (512, 128);
    let w = data(out_dim * in_dim, 8);
    let bias = data(out_dim, 9);
    for batch in [4usize, 512] {
        let x = data(batch * in_dim, 10);
        let mut out = vec![0.0f32; batch * out_dim];
        let label = format!("batch{batch}");
        g.bench_function(BenchmarkId::new(label.as_str(), "scalar"), |b| {
            b.iter(|| {
                simd::dense_forward_scalar(black_box(&x), batch, in_dim, &w, &bias, &mut out);
                out[0]
            })
        });
        g.bench_function(BenchmarkId::new(label.as_str(), "simd"), |b| {
            let mut panel = vec![0.0f32; simd::dense_panel_len(in_dim)];
            b.iter(|| {
                simd::dense_forward(
                    black_box(&x),
                    batch,
                    in_dim,
                    &w,
                    &bias,
                    &mut out,
                    &mut panel,
                );
                out[0]
            })
        });
        // The layer's entry point: SIMD plus the fan-out over sample panels
        // (GCS_THREADS workers above the work threshold).
        g.bench_function(BenchmarkId::new(label.as_str(), "simd_fanout"), |b| {
            let mut scratch = DenseScratch::new();
            b.iter(|| {
                dense_forward_into(
                    black_box(&x),
                    batch,
                    in_dim,
                    &w,
                    &bias,
                    &mut out,
                    &mut scratch,
                );
                out[0]
            })
        });
    }
    g.finish();
}

fn bench_f16(c: &mut Criterion) {
    let mut g = c.benchmark_group("simd_kernels/f16");
    // One BertMini gradient: what the FP16 baseline encodes, sums per ring
    // hop and decodes for every worker, every round.
    let d = gcs_nn::BertMini::new(0).param_count();
    let v = data(d, 11);
    let mut halves = vec![gcs_tensor::F16::ZERO; d];
    simd::f16_encode_scalar(&v, &mut halves);
    let mut partner = vec![gcs_tensor::F16::ZERO; d];
    simd::f16_encode_scalar(&data(d, 12), &mut partner);
    let mut out = vec![0.0f32; d];
    let label = format!("d{d}");
    g.bench_function(BenchmarkId::new("encode", format!("{label}/scalar")), |b| {
        let mut h = halves.clone();
        b.iter(|| {
            simd::f16_encode_scalar(black_box(&v), black_box(&mut h));
            h[0]
        })
    });
    g.bench_function(BenchmarkId::new("encode", format!("{label}/f16c")), |b| {
        let mut h = halves.clone();
        b.iter(|| {
            simd::f16_encode(black_box(&v), black_box(&mut h));
            h[0]
        })
    });
    g.bench_function(BenchmarkId::new("decode", format!("{label}/scalar")), |b| {
        b.iter(|| {
            simd::f16_decode_scalar(black_box(&halves), black_box(&mut out));
            out[0]
        })
    });
    g.bench_function(BenchmarkId::new("decode", format!("{label}/f16c")), |b| {
        b.iter(|| {
            simd::f16_decode(black_box(&halves), black_box(&mut out));
            out[0]
        })
    });
    // The accumulator is reset each iteration so the sums stay finite.
    g.bench_function(BenchmarkId::new("add", format!("{label}/scalar")), |b| {
        let mut acc = halves.clone();
        b.iter(|| {
            acc.copy_from_slice(&halves);
            simd::f16_add_scalar(black_box(&mut acc), black_box(&partner));
            acc[0]
        })
    });
    g.bench_function(BenchmarkId::new("add", format!("{label}/f16c")), |b| {
        let mut acc = halves.clone();
        b.iter(|| {
            acc.copy_from_slice(&halves);
            simd::f16_add(black_box(&mut acc), black_box(&partner));
            acc[0]
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_butterfly,
    bench_gram_schmidt_inner,
    bench_topk_scan,
    bench_quantize_pack,
    bench_dense_forward,
    bench_f16
);
criterion_main!(benches);
