//! Property-based tests for the tensor substrate's core invariants.

use gcs_tensor::bitpack::PackedIntVec;
use gcs_tensor::hadamard::{fwht, fwht_iterations, rht_forward, rht_inverse};
use gcs_tensor::half::{tf32_round, F16};
use gcs_tensor::matrix::{dense_forward_into, orthonormalize_columns, DenseScratch, Matrix};
use gcs_tensor::rng::{invert_permutation, shared_permutation, SharedSeed};
use gcs_tensor::vector::{dot, squared_norm, top_k_indices, vnmse};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    // Keep within the binary16 normal range for round-trip error bounds.
    prop_oneof![
        -60000.0f32..60000.0,
        -1.0f32..1.0,
        -1e-3f32..1e-3,
        Just(0.0f32),
    ]
}

proptest! {
    #[test]
    fn f16_round_trip_error_is_bounded(x in finite_f32()) {
        let rt = F16::from_f32(x).to_f32();
        if x == 0.0 {
            prop_assert_eq!(rt, 0.0);
        } else if x.abs() >= 6.2e-5 {
            // Normal binary16 range: relative error <= 2^-11.
            let rel = ((rt - x) / x).abs();
            prop_assert!(rel <= 2.0f32.powi(-11), "x={} rt={} rel={}", x, rt, rel);
        } else {
            // Subnormal range: absolute error <= half the subnormal spacing.
            prop_assert!((rt - x).abs() <= 2.0f32.powi(-25), "x={} rt={}", x, rt);
        }
    }

    #[test]
    fn f16_conversion_is_monotonic(a in finite_f32(), b in finite_f32()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(F16::from_f32(lo).to_f32() <= F16::from_f32(hi).to_f32());
    }

    #[test]
    fn tf32_is_idempotent_and_no_less_precise_than_f16(x in finite_f32()) {
        let t = tf32_round(x);
        prop_assert_eq!(tf32_round(t), t);
        if x != 0.0 {
            let tf_err = (t - x).abs();
            let f16_err = (F16::from_f32(x).to_f32() - x).abs();
            prop_assert!(tf_err <= f16_err + f32::EPSILON * x.abs());
        }
    }

    #[test]
    fn fwht_is_involution_and_isometry(
        data in prop::collection::vec(-10.0f32..10.0, 1..200),
    ) {
        let padded = data.len().next_power_of_two();
        let mut v = data.clone();
        v.resize(padded, 0.0);
        let orig = v.clone();
        let before = squared_norm(&v);
        fwht(&mut v);
        let mid = squared_norm(&v);
        prop_assert!((before - mid).abs() <= 1e-3 * before.max(1.0));
        fwht(&mut v);
        for (a, b) in v.iter().zip(&orig) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn rht_round_trips_for_any_iteration_count(
        data in prop::collection::vec(-5.0f32..5.0, 1..128),
        seed in any::<u64>(),
        iters_frac in 0.0f64..=1.0,
    ) {
        let padded = data.len().next_power_of_two();
        let l = padded.trailing_zeros() as usize;
        let iters = ((l as f64) * iters_frac).round() as usize;
        let mut v = data.clone();
        v.resize(padded, 0.0);
        let orig = v.clone();
        let seed = SharedSeed::new(seed);
        rht_forward(&mut v, iters, seed);
        rht_inverse(&mut v, iters, seed);
        for (a, b) in v.iter().zip(&orig) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn partial_fwht_only_mixes_within_blocks(
        block_log2 in 0usize..5,
        seed in any::<u64>(),
    ) {
        // Impulse response: a single 1 at position p only spreads within its
        // aligned 2^block_log2 block.
        let n = 64usize;
        let mut rng_val = seed as usize % n;
        let mut v = vec![0.0f32; n];
        v[rng_val] = 1.0;
        fwht_iterations(&mut v, block_log2);
        let block = 1usize << block_log2;
        let start = (rng_val / block) * block;
        for (i, &x) in v.iter().enumerate() {
            if i < start || i >= start + block {
                prop_assert_eq!(x, 0.0, "leaked to index {}", i);
            }
        }
        rng_val = rng_val.wrapping_add(1); // silence unused warnings
        let _ = rng_val;
    }

    #[test]
    fn packed_int_round_trip(
        q in 1u32..=16,
        values in prop::collection::vec(any::<i32>(), 0..100),
    ) {
        let hi = if q == 32 { i32::MAX } else { (1i32 << (q - 1)) - 1 };
        let lo = -hi - 1;
        let clamped: Vec<i32> = values.iter().map(|&v| v.clamp(lo, hi)).collect();
        let packed = PackedIntVec::from_signed(q, &clamped);
        prop_assert_eq!(packed.to_signed_vec(), clamped);
    }

    #[test]
    fn saturating_add_is_commutative_and_bounded(
        q in 2u32..=8,
        pairs in prop::collection::vec((any::<i16>(), any::<i16>()), 1..50),
    ) {
        let hi = (1i32 << (q - 1)) - 1;
        let a: Vec<i32> = pairs.iter().map(|p| (p.0 as i32).clamp(-hi, hi)).collect();
        let b: Vec<i32> = pairs.iter().map(|p| (p.1 as i32).clamp(-hi, hi)).collect();
        let pa = PackedIntVec::from_signed(q, &a);
        let pb = PackedIntVec::from_signed(q, &b);
        let mut ab = pa.clone();
        ab.add_saturating(&pb);
        let mut ba = pb.clone();
        ba.add_saturating(&pa);
        prop_assert_eq!(ab.to_signed_vec(), ba.to_signed_vec());
        for v in ab.to_signed_vec() {
            prop_assert!(v.abs() <= hi);
        }
    }

    #[test]
    fn widening_then_adding_never_saturates_for_two_workers(
        values in prop::collection::vec(-7i32..=7, 1..40),
    ) {
        // q=4 payloads widened to b=8 can absorb any 2-worker sum exactly.
        let p = PackedIntVec::from_signed(4, &values);
        let mut wide = p.widen(8);
        wide.add_saturating(&p.widen(8));
        let expect: Vec<i32> = values.iter().map(|v| v * 2).collect();
        prop_assert_eq!(wide.to_signed_vec(), expect);
    }

    #[test]
    fn top_k_returns_a_true_top_set(
        values in prop::collection::vec(-100.0f32..100.0, 1..60),
        k in 0usize..60,
    ) {
        let k = k.min(values.len());
        let idx = top_k_indices(&values, k);
        prop_assert_eq!(idx.len(), k);
        // Every selected magnitude >= every unselected magnitude.
        let selected: std::collections::HashSet<usize> = idx.iter().copied().collect();
        let min_sel = idx.iter().map(|&i| values[i].abs()).fold(f32::INFINITY, f32::min);
        for (i, v) in values.iter().enumerate() {
            if !selected.contains(&i) {
                prop_assert!(v.abs() <= min_sel + 1e-6);
            }
        }
    }

    #[test]
    fn gram_schmidt_orthonormal_for_random_tall_matrices(
        rows in 2usize..12,
        cols in 1usize..6,
        seed in any::<u64>(),
    ) {
        let cols = cols.min(rows);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut m = Matrix::from_vec(rows, cols, data);
        orthonormalize_columns(&mut m);
        for c1 in 0..cols {
            for c2 in 0..cols {
                let mut d = 0.0f32;
                for r in 0..rows {
                    d += m.get(r, c1) * m.get(r, c2);
                }
                let expect = if c1 == c2 { 1.0 } else { 0.0 };
                prop_assert!((d - expect).abs() < 1e-3, "col{} . col{} = {}", c1, c2, d);
            }
        }
    }

    #[test]
    fn permutations_invert(n in 1usize..200, seed in any::<u64>()) {
        let p = shared_permutation(n, SharedSeed::new(seed));
        let inv = invert_permutation(&p);
        for i in 0..n {
            prop_assert_eq!(p[inv[i]], i);
        }
    }

    #[test]
    fn vnmse_of_scaled_estimate((s, ) in ((0.0f32..2.0), )) {
        // vNMSE(s * truth, truth) = (s - 1)^2 exactly.
        let truth = vec![1.0f32, -2.0, 3.0, 0.5];
        let est: Vec<f32> = truth.iter().map(|t| t * s).collect();
        let expect = ((s - 1.0) as f64).powi(2);
        prop_assert!((vnmse(&est, &truth) - expect).abs() < 1e-5);
    }
}

/// Deterministic pseudo-random fill (splitmix64) for the large inputs the
/// parallel kernels need — per-element `proptest` generation at 10^5
/// elements per case would dominate the run time.
fn salted_vec(len: usize, salt: u64) -> Vec<f32> {
    let mut x = salt.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            (z >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

// Bitwise equivalence of the parallel kernels against their single-thread
// reference, across thread counts (including counts that do not divide the
// input evenly). Inputs sit above the per-kernel parallel thresholds so the
// multi-threaded path is actually exercised; `with_threads` forces the
// runtime, so these hold even on a single-core CI machine.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_fwht_is_bitwise_identical(salt in any::<u64>(), threads in 2usize..=8) {
        let d = 1usize << 16;
        let base = salted_vec(d, salt);
        let mut seq = base.clone();
        gcs_tensor::parallel::with_threads(1, || fwht(&mut seq));
        let mut par = base;
        gcs_tensor::parallel::with_threads(threads, || fwht(&mut par));
        for (a, b) in seq.iter().zip(&par) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn parallel_rht_is_bitwise_identical(
        salt in any::<u64>(),
        seed in any::<u64>(),
        threads in 2usize..=8,
    ) {
        let d = 1usize << 16;
        let base = salted_vec(d, salt);
        let s = SharedSeed::new(seed);
        let mut seq = base.clone();
        gcs_tensor::parallel::with_threads(1, || rht_forward(&mut seq, 4, s));
        let mut par = base;
        gcs_tensor::parallel::with_threads(threads, || rht_forward(&mut par, 4, s));
        for (a, b) in seq.iter().zip(&par) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn parallel_top_k_is_identical(salt in any::<u64>(), threads in 2usize..=8) {
        let d = (1usize << 16) + 4099; // uneven tail chunk
        let v = salted_vec(d, salt);
        let k = d / 100;
        let seq = gcs_tensor::parallel::with_threads(1, || top_k_indices(&v, k));
        let par = gcs_tensor::parallel::with_threads(threads, || top_k_indices(&v, k));
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn parallel_reductions_are_bitwise_identical(
        salt in any::<u64>(),
        threads in 2usize..=8,
    ) {
        let d = (1usize << 16) + 77;
        let a = salted_vec(d, salt);
        let b = salted_vec(d, salt ^ 0xdead);
        let seq = gcs_tensor::parallel::with_threads(1, || {
            (squared_norm(&a), dot(&a, &b), vnmse(&a, &b))
        });
        let par = gcs_tensor::parallel::with_threads(threads, || {
            (squared_norm(&a), dot(&a, &b), vnmse(&a, &b))
        });
        prop_assert_eq!(seq.0.to_bits(), par.0.to_bits());
        prop_assert_eq!(seq.1.to_bits(), par.1.to_bits());
        prop_assert_eq!(seq.2.to_bits(), par.2.to_bits());
    }

    #[test]
    fn parallel_bitpack_is_bitwise_identical(
        salt in any::<u64>(),
        q in 2u32..=12,
        threads in 2usize..=8,
    ) {
        let d = (1usize << 16) + 13;
        let hi = (1i32 << (q - 1)) - 1;
        let vals: Vec<i32> = salted_vec(d, salt)
            .iter()
            .map(|x| ((x * 2.0 * hi as f32) as i32).clamp(-hi - 1, hi))
            .collect();
        let other: Vec<i32> = salted_vec(d, salt ^ 0xbeef)
            .iter()
            .map(|x| ((x * 2.0 * hi as f32) as i32).clamp(-hi - 1, hi))
            .collect();
        let run = |threads: usize| {
            gcs_tensor::parallel::with_threads(threads, || {
                let mut p = PackedIntVec::from_signed(q, &vals);
                p.add_saturating(&PackedIntVec::from_signed(q, &other));
                (p.to_signed_vec(), p)
            })
        };
        let (seq_vals, seq_packed) = run(1);
        let (par_vals, par_packed) = run(threads);
        prop_assert_eq!(seq_vals, par_vals);
        prop_assert_eq!(seq_packed.words(), par_packed.words());
    }
}

/// Dense-kernel inputs: [`salted_vec`] values with signed zeros mixed in.
fn dense_probe(len: usize, salt: u64) -> Vec<f32> {
    let mut v = salted_vec(len, salt);
    for (i, x) in v.iter_mut().enumerate() {
        match (i as u64 ^ salt) % 11 {
            0 => *x = 0.0,
            1 => *x = -0.0,
            _ => {}
        }
    }
    v
}

/// Checks `dense_forward_into` against `dense_forward_scalar` bit for bit
/// at 1, 2 and 4 threads and under forced scalar dispatch, reusing one
/// scratch across runs (stale panels must not matter). Sample `zero_row`
/// is all `+0.0` against an all-negative weight row 0 with bias `-0.0`, so
/// output `[zero_row][0]` is `-0.0` only if every fold starts at `-0.0`.
fn check_dense_kernel(batch: usize, in_dim: usize, out_dim: usize, salt: u64, zero_row: usize) {
    let mut x = dense_probe(batch * in_dim, salt);
    let mut w = dense_probe(out_dim * in_dim, salt ^ 0x5eed);
    let mut b = dense_probe(out_dim, salt ^ 0xb1a5);
    let zero_row = zero_row % batch;
    x[zero_row * in_dim..(zero_row + 1) * in_dim].fill(0.0);
    for wi in &mut w[..in_dim] {
        *wi = -wi.abs() - 0.25;
    }
    b[0] = -0.0;
    let mut expect = vec![0.0f32; batch * out_dim];
    gcs_tensor::simd::dense_forward_scalar(&x, batch, in_dim, &w, &b, &mut expect);
    assert_eq!(expect[zero_row * out_dim].to_bits(), (-0.0f32).to_bits());
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let mut scratch = DenseScratch::new();
    let mut run = |threads: usize, scalar: bool| {
        let mut out = vec![f32::NAN; batch * out_dim];
        gcs_tensor::parallel::with_threads(threads, || {
            let mut call = || dense_forward_into(&x, batch, in_dim, &w, &b, &mut out, &mut scratch);
            if scalar {
                gcs_tensor::simd::with_scalar_dispatch(call);
            } else {
                call();
            }
        });
        out
    };
    for (threads, scalar) in [(1, false), (2, false), (4, false), (1, true), (4, true)] {
        let got = run(threads, scalar);
        assert_eq!(
            bits(&got),
            bits(&expect),
            "batch={batch} in={in_dim} out={out_dim} threads={threads} scalar={scalar}"
        );
    }
}

// The SIMD Dense kernel against its scalar reference: batch tails that are
// not multiples of the 8-sample panel, in/out dimensions off the 4-output
// register block and the 8-lane width (in_dim 0 included), signed zeros,
// and an all-zero row under a `-0.0` bias.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_kernel_matches_scalar_reference_bitwise(
        batch in 1usize..=37,
        in_dim in 0usize..=70,
        out_dim in 1usize..=19,
        salt in any::<u64>(),
        zero_row in 0usize..37,
    ) {
        check_dense_kernel(batch, in_dim, out_dim, salt, zero_row);
    }
}

// Same contract above the kernel's fan-out threshold (2^20 multiply-adds):
// 33-37 samples split over 2 or 4 threads at panel boundaries.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn dense_kernel_fan_out_matches_scalar_reference_bitwise(
        batch in 33usize..=37,
        in_dim in 250usize..=300,
        out_dim in 130usize..=140,
        salt in any::<u64>(),
        zero_row in 0usize..37,
    ) {
        check_dense_kernel(batch, in_dim, out_dim, salt, zero_row);
    }
}
