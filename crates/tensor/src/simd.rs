//! Explicit x86-64 SIMD fast paths for the six hottest kernels.
//!
//! The paper's end-to-end-utility argument (§3) is that compression only
//! pays when its *compute* overhead is small relative to the communication
//! it saves. Profiling the simulator puts six kernels on that critical
//! path: the FWHT/RHT butterflies, the fused quantize+pack bit-writer, the
//! top-k threshold scan, the Gram–Schmidt inner loops (the last at
//! 39.7–47.4% of PowerSGD training time, §3.3), the fully connected
//! layer's forward pass, which dominates the model's own compute (every
//! training step and every 512-sample evaluation), and the binary16
//! conversions and per-hop binary16 sum of the FP16 baseline (§2.2) and
//! TopKC's chunk all-reduce. This module supplies the vector primitives
//! those kernels dispatch to.
//!
//! **Bitwise contract.** Every primitive has a `_scalar` reference and an
//! AVX2 variant that computes the *same expression tree*:
//!
//! * element-wise ops ([`butterfly`], [`axpy`], [`scale`], [`abs_keys_into`])
//!   perform one independent IEEE-754 operation sequence per element, so
//!   vectorization cannot change a bit;
//! * the one reduction ([`dot_folded`]) fixes its shape in the *scalar*
//!   definition: 8 stride-8 partial accumulators (exactly the 8 lanes of a
//!   `__m256`), folded in a fixed tree, then a sequential tail. The AVX2
//!   path is the same computation with the partials held in one register;
//! * [`dense_forward`] keeps the plain sequential fold of its reference
//!   (`b[o] + Σ w·x`, summed from `-0.0` in index order) by vectorizing
//!   *across samples*: each lane owns one sample's whole fold, so no sum is
//!   ever split or reassociated;
//! * [`collect_indices_above`] is pure integer compare-and-append in
//!   ascending index order (the AVX2 path walks its compare movemask in
//!   bit order);
//! * the binary16 primitives ([`f16_encode`], [`f16_decode`], [`f16_add`])
//!   run on the F16C conversion instructions (dispatched on AVX2 *and*
//!   F16C, [`f16c_enabled`]). `VCVTPS2PH` with an explicit
//!   round-to-nearest-even immediate and `VCVTPH2PS` compute exactly the
//!   software conversions of [`crate::half`] on every non-NaN value —
//!   normals, subnormals, signed zeros, overflow to infinity — and the sum
//!   is one plain `f32` add, as in [`F16::add_f16`]. Decoding NaN agrees
//!   too (both quiet the NaN and keep its payload; the test sweeps all
//!   65,536 halves). Encoding NaN is the one difference: the hardware
//!   writes the quiet-NaN payload `0x7e00` where the software conversion
//!   writes `0x7e01`. Any 8-lane block whose `f32` value (encode input or
//!   sum) is NaN is therefore redone by the scalar reference, which makes
//!   these three primitives bit-exact on *all* inputs.
//!
//! No FMA is used anywhere: fused multiply-add skips the intermediate
//! rounding step and would break scalar/SIMD bitwise identity.
//!
//! **Finite-data caveat.** The bitwise contract for the float primitives
//! holds whenever no individual operation produces a NaN. When one does
//! (e.g. `inf × 0` or `inf − inf`), IEEE-754 fixes that the result is *a*
//! quiet NaN but not its sign/payload bits, and Rust/LLVM explicitly treat
//! those bits as unspecified — constant folding and instruction selection
//! are free to pick different NaNs on the scalar and packed paths (observed:
//! `0x7FC00000` vs `0xFFC00000` for the same `inf × -0`). Gradient data is
//! always finite, so this never affects the kernels; the integer primitives
//! ([`abs_keys_into`], [`collect_indices_above`]) and the binary16
//! primitives (through their NaN-block fallback) are exact on *all*
//! inputs, NaN included.
//!
//! Dispatch is by runtime feature detection ([`avx2_enabled`],
//! [`f16c_enabled`], both cached); the scalar path runs on non-x86-64
//! targets, wherever the features are absent, and inside
//! [`with_scalar_dispatch`] (which parallel workers inherit from the
//! thread that forked them). Tests pin `f(_) == f_scalar(_)` bit-for-bit on
//! every primitive, so the dispatch choice is unobservable in outputs.

use crate::half::F16;
use std::cell::Cell;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Number of `f32` lanes per SIMD register (AVX2 `__m256`). The scalar
/// reference paths use the same stride so both sides share one fold shape.
pub const LANES: usize = 8;

thread_local! {
    /// True while [`with_scalar_dispatch`] forces the scalar references.
    static SCALAR_ONLY: Cell<bool> = const { Cell::new(false) };
}

/// True when the running CPU supports AVX2 (cached after first query).
pub fn avx2_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static ENABLED: OnceLock<bool> = OnceLock::new();
        *ENABLED.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the primitives called on this thread take their AVX2 path:
/// the CPU has AVX2 and no [`with_scalar_dispatch`] is active.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn use_avx2() -> bool {
    avx2_enabled() && !scalar_dispatch_forced()
}

/// True when the running CPU supports AVX2 and F16C, the binary16
/// primitives' fast path (cached after first query).
pub fn f16c_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static ENABLED: OnceLock<bool> = OnceLock::new();
        *ENABLED.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("f16c")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the binary16 primitives called on this thread take their
/// F16C path: the CPU has AVX2 and F16C and no [`with_scalar_dispatch`] is
/// active.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn use_f16c() -> bool {
    f16c_enabled() && !scalar_dispatch_forced()
}

/// True while the current thread runs inside [`with_scalar_dispatch`].
pub fn scalar_dispatch_forced() -> bool {
    SCALAR_ONLY.with(Cell::get)
}

/// Sets this thread's forced-scalar flag; parallel workers call it on
/// entry so a forked kernel dispatches like the thread that forked it.
pub(crate) fn force_scalar_dispatch(on: bool) {
    SCALAR_ONLY.with(|c| c.set(on));
}

/// Runs `f` with every primitive forced onto its `_scalar` reference on
/// this thread (and on the parallel workers it forks), restoring the
/// previous choice on exit, including on panic. The test hook that runs
/// the scalar paths on AVX2 hardware.
pub fn with_scalar_dispatch<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            force_scalar_dispatch(self.0);
        }
    }
    let _restore = Restore(SCALAR_ONLY.with(|c| c.replace(true)));
    f()
}

// ---------------------------------------------------------------------------
// FWHT butterfly: lo[i], hi[i] = (lo[i]+hi[i])*c, (lo[i]-hi[i])*c
// ---------------------------------------------------------------------------

/// Scalar reference butterfly stage over two equal-length halves.
pub fn butterfly_scalar(lo: &mut [f32], hi: &mut [f32], c: f32) {
    for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
        let x = *a;
        let y = *b;
        *a = (x + y) * c;
        *b = (x - y) * c;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn butterfly_avx2(lo: &mut [f32], hi: &mut [f32], c: f32) {
    let n = lo.len().min(hi.len());
    let main = n - n % LANES;
    let vc = _mm256_set1_ps(c);
    let mut i = 0;
    while i < main {
        let a = _mm256_loadu_ps(lo.as_ptr().add(i));
        let b = _mm256_loadu_ps(hi.as_ptr().add(i));
        _mm256_storeu_ps(
            lo.as_mut_ptr().add(i),
            _mm256_mul_ps(_mm256_add_ps(a, b), vc),
        );
        _mm256_storeu_ps(
            hi.as_mut_ptr().add(i),
            _mm256_mul_ps(_mm256_sub_ps(a, b), vc),
        );
        i += LANES;
    }
    butterfly_scalar(&mut lo[main..], &mut hi[main..], c);
}

/// One butterfly stage: `lo[i], hi[i] = (lo[i]+hi[i])·c, (lo[i]−hi[i])·c`.
/// Element-wise, so the AVX2 path is bitwise-identical to the scalar one.
///
/// # Panics
/// Panics if the halves have different lengths.
pub fn butterfly(lo: &mut [f32], hi: &mut [f32], c: f32) {
    assert_eq!(lo.len(), hi.len(), "butterfly: half length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { butterfly_avx2(lo, hi, c) };
    }
    butterfly_scalar(lo, hi, c);
}

// ---------------------------------------------------------------------------
// Lane-folded dot product (Gram–Schmidt projections and norms)
// ---------------------------------------------------------------------------

/// Folds 8 stride-8 partial sums in a fixed tree, then adds the tail terms
/// sequentially. Shared verbatim by the scalar and AVX2 dot paths.
#[inline]
fn fold_partials(p: [f32; LANES], a: &[f32], b: &[f32], main: usize) -> f32 {
    let mut sum = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        sum += x * y;
    }
    sum
}

/// Scalar reference for [`dot_folded`]: 8 interleaved partial accumulators
/// (partial `j` sums elements with index ≡ j mod 8) folded in a fixed tree.
pub fn dot_folded_scalar(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let main = n - n % LANES;
    let mut p = [0.0f32; LANES];
    let mut i = 0;
    while i < main {
        for (j, pj) in p.iter_mut().enumerate() {
            *pj += a[i + j] * b[i + j];
        }
        i += LANES;
    }
    fold_partials(p, a, b, main)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_folded_avx2(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let main = n - n % LANES;
    // mul then add (no FMA): lane j replays the scalar partial j exactly.
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i < main {
        let va = _mm256_loadu_ps(a.as_ptr().add(i));
        let vb = _mm256_loadu_ps(b.as_ptr().add(i));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        i += LANES;
    }
    let mut p = [0.0f32; LANES];
    _mm256_storeu_ps(p.as_mut_ptr(), acc);
    fold_partials(p, a, b, main)
}

/// Dot product with a fixed lane-fold shape: 8 stride-8 partials, one fold
/// tree, sequential tail. Both paths compute identical bits — the price is
/// that this is *not* the same value as a plain sequential sum, which is
/// why Gram–Schmidt (whose reductions are private to one matrix) uses it
/// while the cross-worker reductions in `vector.rs` keep their chunked
/// sequential folds.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot_folded(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_folded: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { dot_folded_avx2(a, b) };
    }
    dot_folded_scalar(a, b)
}

// ---------------------------------------------------------------------------
// axpy / scale (Gram–Schmidt projection subtraction and normalization)
// ---------------------------------------------------------------------------

/// Scalar reference for [`axpy`]: `y[i] += alpha · x[i]`.
pub fn axpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = x.len().min(y.len());
    let main = n - n % LANES;
    let va = _mm256_set1_ps(alpha);
    let mut i = 0;
    while i < main {
        let vx = _mm256_loadu_ps(x.as_ptr().add(i));
        let vy = _mm256_loadu_ps(y.as_ptr().add(i));
        _mm256_storeu_ps(
            y.as_mut_ptr().add(i),
            _mm256_add_ps(vy, _mm256_mul_ps(va, vx)),
        );
        i += LANES;
    }
    axpy_scalar(alpha, &x[main..], &mut y[main..]);
}

/// `y += alpha · x`, element-wise (bitwise-identical across paths).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { axpy_avx2(alpha, x, y) };
    }
    axpy_scalar(alpha, x, y);
}

/// Scalar reference for [`scale`]: `v[i] *= alpha`.
pub fn scale_scalar(v: &mut [f32], alpha: f32) {
    for x in v.iter_mut() {
        *x *= alpha;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scale_avx2(v: &mut [f32], alpha: f32) {
    let n = v.len();
    let main = n - n % LANES;
    let va = _mm256_set1_ps(alpha);
    let mut i = 0;
    while i < main {
        let vx = _mm256_loadu_ps(v.as_ptr().add(i));
        _mm256_storeu_ps(v.as_mut_ptr().add(i), _mm256_mul_ps(vx, va));
        i += LANES;
    }
    scale_scalar(&mut v[main..], alpha);
}

/// `v *= alpha`, element-wise (bitwise-identical across paths).
pub fn scale(v: &mut [f32], alpha: f32) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { scale_avx2(v, alpha) };
    }
    scale_scalar(v, alpha);
}

// ---------------------------------------------------------------------------
// Top-k threshold scan primitives
// ---------------------------------------------------------------------------

/// Scalar reference for [`abs_keys_into`]: `out[i] = v[i].abs().to_bits()`.
pub fn abs_keys_scalar(v: &[f32], out: &mut [u32]) {
    for (o, x) in out.iter_mut().zip(v) {
        *o = x.to_bits() & 0x7fff_ffff;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn abs_keys_avx2(v: &[f32], out: &mut [u32]) {
    let n = v.len().min(out.len());
    let main = n - n % LANES;
    let mask = _mm256_set1_epi32(0x7fff_ffff);
    let mut i = 0;
    while i < main {
        let bits = _mm256_loadu_si256(v.as_ptr().add(i) as *const __m256i);
        _mm256_storeu_si256(
            out.as_mut_ptr().add(i) as *mut __m256i,
            _mm256_and_si256(bits, mask),
        );
        i += LANES;
    }
    abs_keys_scalar(&v[main..], &mut out[main..]);
}

/// Materializes magnitude sort keys: `out[i] = v[i].abs().to_bits()`.
///
/// For floats with the sign bit cleared, unsigned comparison of these keys
/// is exactly `f32::total_cmp` of the absolute values (NaNs order above
/// infinity on both sides) — the property the top-k threshold scan relies
/// on to stay bitwise-identical to comparator-based selection.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn abs_keys_into(v: &[f32], out: &mut [u32]) {
    assert_eq!(v.len(), out.len(), "abs_keys_into: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return unsafe { abs_keys_avx2(v, out) };
    }
    abs_keys_scalar(v, out);
}

/// Scalar reference for [`collect_indices_above`].
pub fn collect_indices_above_scalar(keys: &[u32], t: u32, base: usize, out: &mut Vec<usize>) {
    for (i, &k) in keys.iter().enumerate() {
        if k > t {
            out.push(base + i);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn collect_indices_above_avx2(keys: &[u32], t: u32, base: usize, out: &mut Vec<usize>) {
    let n = keys.len();
    let main = n - n % LANES;
    // Keys are abs-value bit patterns, always <= 0x7fffffff, so they are
    // non-negative as i32 and the signed compare is exact.
    let vt = _mm256_set1_epi32(t as i32);
    let mut i = 0;
    while i < main {
        let vk = _mm256_loadu_si256(keys.as_ptr().add(i) as *const __m256i);
        let gt = _mm256_cmpgt_epi32(vk, vt);
        let mut m = _mm256_movemask_ps(_mm256_castsi256_ps(gt)) as u32;
        // Walk set bits low-to-high: ascending index order, same as scalar.
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            out.push(base + i + j);
            m &= m - 1;
        }
        i += LANES;
    }
    collect_indices_above_scalar(&keys[main..], t, base + main, out);
}

/// Appends `base + i` for every `keys[i] > t`, in ascending index order —
/// the survivor scan of the top-k threshold pass. The AVX2 path compares 8
/// keys per step and decodes the movemask in bit order, so its output is
/// identical to the scalar loop. Thresholds with the top bit set fall back
/// to the scalar loop (the vector compare is signed, which is only exact
/// while both sides stay below `2^31` — always true for abs-value keys).
pub fn collect_indices_above(keys: &[u32], t: u32, base: usize, out: &mut Vec<usize>) {
    #[cfg(target_arch = "x86_64")]
    if t <= i32::MAX as u32 && use_avx2() {
        return unsafe { collect_indices_above_avx2(keys, t, base, out) };
    }
    collect_indices_above_scalar(keys, t, base, out);
}

// ---------------------------------------------------------------------------
// Dense layer forward: y[s][o] = b[o] + Σ_i w[o][i]·x[s][i]
// ---------------------------------------------------------------------------

/// Outputs per register block of the AVX2 Dense kernel: four accumulator
/// chains hide the add latency that bounds a single sequential fold.
#[cfg(target_arch = "x86_64")]
const DENSE_OUT_BLOCK: usize = 4;

/// Length of the packing buffer [`dense_forward`] needs for `in_dim`
/// inputs: one transposed panel of [`LANES`] samples.
pub fn dense_panel_len(in_dim: usize) -> usize {
    LANES * in_dim
}

/// Scalar reference for [`dense_forward`]: `out = x Wᵀ + b` over row-major
/// `x` (`batch × in_dim`), `w` (`out_dim × in_dim`, `out_dim = b.len()`)
/// and `out` (`batch × out_dim`). Each output is one strictly ordered fold
/// — `Sum for f32` starts at `-0.0` and adds the `w·x` products in index
/// order — then `b[o] + fold`.
pub fn dense_forward_scalar(
    x: &[f32],
    batch: usize,
    in_dim: usize,
    w: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let out_dim = b.len();
    for s in 0..batch {
        let xs = &x[s * in_dim..(s + 1) * in_dim];
        let y = &mut out[s * out_dim..(s + 1) * out_dim];
        for (o, yo) in y.iter_mut().enumerate() {
            let row = &w[o * in_dim..(o + 1) * in_dim];
            *yo = b[o] + row.iter().zip(xs).map(|(wi, xi)| wi * xi).sum::<f32>();
        }
    }
}

/// Packs up to [`LANES`] sample rows of `x` transposed into `panel`
/// (`panel[i·8 + k] = x[k][i]`), zero-filling the lanes past `rows`.
#[cfg(target_arch = "x86_64")]
fn pack_panel(x: &[f32], rows: usize, in_dim: usize, panel: &mut [f32]) {
    for (i, lanes) in panel.chunks_exact_mut(LANES).enumerate() {
        for (k, v) in lanes.iter_mut().enumerate() {
            *v = if k < rows { x[k * in_dim + i] } else { 0.0 };
        }
    }
}

/// Writes `bias + acc` lane `k` to `out[k·out_dim]` for the first `rows`
/// lanes (`out` starts at the output's column, rows are `out_dim` apart).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn store_lanes(bias: f32, acc: __m256, rows: usize, out: &mut [f32], out_dim: usize) {
    let mut lanes = [0.0f32; LANES];
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_add_ps(_mm256_set1_ps(bias), acc)) };
    for (k, &v) in lanes[..rows].iter().enumerate() {
        out[k * out_dim] = v;
    }
}

/// One packed panel through the AVX2 Dense kernel: lane `k` replays the
/// scalar fold of sample `k` exactly — `acc = -0.0`, then per input `i`
/// `acc = acc + w[o][i]·x[k][i]` (mul, then add; never FMA), then
/// `b[o] + acc`. Outputs are register-blocked by [`DENSE_OUT_BLOCK`], one
/// independent accumulator per output.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dense_panel_avx2(
    panel: &[f32],
    rows: usize,
    in_dim: usize,
    w: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let out_dim = b.len();
    let p = panel.as_ptr();
    let blocked = out_dim - out_dim % DENSE_OUT_BLOCK;
    let mut o = 0;
    while o < blocked {
        let w0 = w.as_ptr().add(o * in_dim);
        let w1 = w0.add(in_dim);
        let w2 = w1.add(in_dim);
        let w3 = w2.add(in_dim);
        let mut a0 = _mm256_set1_ps(-0.0);
        let mut a1 = a0;
        let mut a2 = a0;
        let mut a3 = a0;
        for i in 0..in_dim {
            let xv = _mm256_loadu_ps(p.add(i * LANES));
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(*w0.add(i)), xv));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_set1_ps(*w1.add(i)), xv));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(_mm256_set1_ps(*w2.add(i)), xv));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(_mm256_set1_ps(*w3.add(i)), xv));
        }
        store_lanes(b[o], a0, rows, &mut out[o..], out_dim);
        store_lanes(b[o + 1], a1, rows, &mut out[o + 1..], out_dim);
        store_lanes(b[o + 2], a2, rows, &mut out[o + 2..], out_dim);
        store_lanes(b[o + 3], a3, rows, &mut out[o + 3..], out_dim);
        o += DENSE_OUT_BLOCK;
    }
    for o in blocked..out_dim {
        let wr = w.as_ptr().add(o * in_dim);
        let mut a = _mm256_set1_ps(-0.0);
        for i in 0..in_dim {
            let xv = _mm256_loadu_ps(p.add(i * LANES));
            a = _mm256_add_ps(a, _mm256_mul_ps(_mm256_set1_ps(*wr.add(i)), xv));
        }
        store_lanes(b[o], a, rows, &mut out[o..], out_dim);
    }
}

/// Fully connected forward pass `out = x Wᵀ + b`, bitwise-identical to
/// [`dense_forward_scalar`]. The AVX2 path runs [`LANES`] samples per
/// register: each group of 8 rows of `x` is packed transposed into
/// `panel` (at least [`dense_panel_len`]`(in_dim)` values, caller-owned so
/// the kernel allocates nothing), and every lane performs its sample's
/// reference fold unchanged. The scalar path ignores `panel`.
///
/// # Panics
/// Panics if slice lengths disagree with the shapes or `panel` is short.
pub fn dense_forward(
    x: &[f32],
    batch: usize,
    in_dim: usize,
    w: &[f32],
    b: &[f32],
    out: &mut [f32],
    panel: &mut [f32],
) {
    let out_dim = b.len();
    assert_eq!(
        x.len(),
        batch * in_dim,
        "dense_forward: input size mismatch"
    );
    assert_eq!(
        w.len(),
        out_dim * in_dim,
        "dense_forward: weight size mismatch"
    );
    assert_eq!(
        out.len(),
        batch * out_dim,
        "dense_forward: out size mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        let panel = &mut panel[..dense_panel_len(in_dim)];
        for lo in (0..batch).step_by(LANES) {
            let rows = (batch - lo).min(LANES);
            pack_panel(&x[lo * in_dim..(lo + rows) * in_dim], rows, in_dim, panel);
            let ys = &mut out[lo * out_dim..(lo + rows) * out_dim];
            unsafe { dense_panel_avx2(panel, rows, in_dim, w, b, ys) };
        }
        return;
    }
    let _ = panel; // only the AVX2 path packs
    dense_forward_scalar(x, batch, in_dim, w, b, out);
}

// ---------------------------------------------------------------------------
// binary16: encode, decode and the per-hop FP16 sum
// ---------------------------------------------------------------------------

/// Scalar reference for [`f16_encode`]: `dst[i] = F16::from_f32(src[i])`.
pub fn f16_encode_scalar(src: &[f32], dst: &mut [F16]) {
    for (h, &v) in dst.iter_mut().zip(src) {
        *h = F16::from_f32(v);
    }
}

/// Scalar reference for [`f16_decode`]: `dst[i] = src[i].to_f32()`.
pub fn f16_decode_scalar(src: &[F16], dst: &mut [f32]) {
    for (v, h) in dst.iter_mut().zip(src) {
        *v = h.to_f32();
    }
}

/// Scalar reference for [`f16_add`]: `acc[i] = acc[i].add_f16(x[i])`, i.e.
/// `F16::from_f32(acc[i].to_f32() + x[i].to_f32())`.
pub fn f16_add_scalar(acc: &mut [F16], x: &[F16]) {
    for (a, b) in acc.iter_mut().zip(x) {
        *a = a.add_f16(*b);
    }
}

/// True when any lane of `v` is NaN.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn any_nan(v: __m256) -> bool {
    _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)) != 0
}

/// Loads 8 halves as the `u16` lanes of an `__m128i`.
///
/// # Safety
/// `p` must be valid for reading 8 consecutive `F16`s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn load_halves(p: *const F16) -> __m128i {
    // `F16` is `repr(transparent)` over `u16`, so 8 halves are 16 bytes.
    _mm_loadu_si128(p as *const __m128i)
}

/// Stores 8 `f32` lanes as halves with round-to-nearest-even.
///
/// # Safety
/// `p` must be valid for writing 8 consecutive `F16`s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
unsafe fn store_halves(p: *mut F16, v: __m256) {
    _mm_storeu_si128(
        p as *mut __m128i,
        _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v),
    );
}

/// # Safety
/// The CPU must support AVX2 and F16C, and `dst.len() >= src.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
unsafe fn f16_encode_f16c(src: &[f32], dst: &mut [F16]) {
    let n = src.len();
    let main = n - n % LANES;
    let mut i = 0;
    while i < main {
        let v = _mm256_loadu_ps(src.as_ptr().add(i));
        if any_nan(v) {
            f16_encode_scalar(&src[i..i + LANES], &mut dst[i..i + LANES]);
        } else {
            store_halves(dst.as_mut_ptr().add(i), v);
        }
        i += LANES;
    }
    f16_encode_scalar(&src[main..], &mut dst[main..]);
}

/// # Safety
/// The CPU must support AVX2 and F16C, and `dst.len() >= src.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
unsafe fn f16_decode_f16c(src: &[F16], dst: &mut [f32]) {
    let n = src.len();
    let main = n - n % LANES;
    let mut i = 0;
    while i < main {
        let v = _mm256_cvtph_ps(load_halves(src.as_ptr().add(i)));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), v);
        i += LANES;
    }
    f16_decode_scalar(&src[main..], &mut dst[main..]);
}

/// # Safety
/// The CPU must support AVX2 and F16C, and `x.len() >= acc.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
unsafe fn f16_add_f16c(acc: &mut [F16], x: &[F16]) {
    let n = acc.len();
    let main = n - n % LANES;
    let mut i = 0;
    while i < main {
        let a = _mm256_cvtph_ps(load_halves(acc.as_ptr().add(i)));
        let b = _mm256_cvtph_ps(load_halves(x.as_ptr().add(i)));
        let sum = _mm256_add_ps(a, b);
        if any_nan(sum) {
            f16_add_scalar(&mut acc[i..i + LANES], &x[i..i + LANES]);
        } else {
            store_halves(acc.as_mut_ptr().add(i), sum);
        }
        i += LANES;
    }
    f16_add_scalar(&mut acc[main..], &x[main..]);
}

/// Encodes `src` to binary16 with round-to-nearest-even, bitwise-identical
/// to [`f16_encode_scalar`] on every input (NaN blocks take the scalar
/// path, see the module docs).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn f16_encode(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "f16_encode: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_f16c() {
        // SAFETY: `use_f16c` checked AVX2 and F16C; lengths are equal.
        return unsafe { f16_encode_f16c(src, dst) };
    }
    f16_encode_scalar(src, dst);
}

/// Decodes binary16 to `f32` (exact), bitwise-identical to
/// [`f16_decode_scalar`] on every input: `VCVTPH2PS` quiets a NaN and
/// keeps its payload exactly as the software conversion does.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn f16_decode(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "f16_decode: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_f16c() {
        // SAFETY: `use_f16c` checked AVX2 and F16C; lengths are equal.
        return unsafe { f16_decode_f16c(src, dst) };
    }
    f16_decode_scalar(src, dst);
}

/// The binary16 sum NCCL applies per hop: `acc[i] =
/// F16::from_f32(acc[i].to_f32() + x[i].to_f32())`, bitwise-identical to
/// [`f16_add_scalar`] on every input.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn f16_add(acc: &mut [F16], x: &[F16]) {
    assert_eq!(acc.len(), x.len(), "f16_add: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if use_f16c() {
        // SAFETY: `use_f16c` checked AVX2 and F16C; lengths are equal.
        return unsafe { f16_add_f16c(acc, x) };
    }
    f16_add_scalar(acc, x);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probe with IEEE specials — for the integer-exact key primitives,
    /// which are bit-exact on every input including NaN/±inf.
    fn probe(n: usize, salt: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let bits = crate::rng::splitmix64(i as u64 ^ salt);
                // Mix magnitudes, signs, exact ties and specials.
                match bits % 23 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::INFINITY,
                    3 => f32::NEG_INFINITY,
                    4 => f32::NAN,
                    5 => 1.0,
                    6 => -1.0,
                    _ => (((bits >> 16) as f32 / (1u64 << 32) as f32) - 0.5) * 8.0,
                }
            })
            .collect()
    }

    /// Finite-only probe for the float primitives: the bitwise contract is
    /// scoped to inputs whose operations never produce a NaN (see module
    /// docs — NaN sign/payload is unspecified and differs between scalar
    /// and packed codegen). Signed zeros, exact ties and subnormals stay in.
    fn finite_probe(n: usize, salt: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let bits = crate::rng::splitmix64(i as u64 ^ salt);
                match bits % 23 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::MIN_POSITIVE / 2.0, // subnormal
                    3 => -1.5e-42,                // subnormal
                    4 => 3.0e37,                  // large but inf-safe in sums
                    5 => 1.0,
                    6 => -1.0,
                    _ => (((bits >> 16) as f32 / (1u64 << 32) as f32) - 0.5) * 8.0,
                }
            })
            .collect()
    }

    #[test]
    fn butterfly_dispatch_matches_scalar_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 64, 1000, 1 << 12] {
            let lo0 = finite_probe(n, 0x10);
            let hi0 = finite_probe(n, 0x20);
            let (mut lo_a, mut hi_a) = (lo0.clone(), hi0.clone());
            let (mut lo_b, mut hi_b) = (lo0.clone(), hi0.clone());
            let c = std::f32::consts::FRAC_1_SQRT_2;
            butterfly(&mut lo_a, &mut hi_a, c);
            butterfly_scalar(&mut lo_b, &mut hi_b, c);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&lo_a), bits(&lo_b), "n={n}");
            assert_eq!(bits(&hi_a), bits(&hi_b), "n={n}");
        }
    }

    #[test]
    fn dot_folded_dispatch_matches_scalar_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000, 4096] {
            let a = finite_probe(n, 0x30);
            let b = finite_probe(n, 0x40);
            assert_eq!(
                dot_folded(&a, &b).to_bits(),
                dot_folded_scalar(&a, &b).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn axpy_and_scale_dispatch_match_scalar_bitwise() {
        for n in [0usize, 1, 9, 64, 1000] {
            let x = finite_probe(n, 0x50);
            let y0 = finite_probe(n, 0x60);
            let mut ya = y0.clone();
            let mut yb = y0.clone();
            axpy(-0.73, &x, &mut ya);
            axpy_scalar(-0.73, &x, &mut yb);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ya), bits(&yb), "axpy n={n}");
            scale(&mut ya, 1.37);
            scale_scalar(&mut yb, 1.37);
            assert_eq!(bits(&ya), bits(&yb), "scale n={n}");
        }
    }

    #[test]
    fn dense_forward_dispatch_matches_scalar_bitwise() {
        for (batch, in_dim, out_dim) in
            [(1, 5, 3), (4, 512, 128), (8, 7, 4), (13, 16, 9), (3, 0, 2)]
        {
            let x = finite_probe(batch * in_dim, 0x90);
            let w = finite_probe(out_dim * in_dim, 0xa0);
            let b = finite_probe(out_dim, 0xb0);
            let mut panel = vec![0.0f32; dense_panel_len(in_dim)];
            let mut got = vec![0.0f32; batch * out_dim];
            let mut expect = vec![0.0f32; batch * out_dim];
            dense_forward(&x, batch, in_dim, &w, &b, &mut got, &mut panel);
            dense_forward_scalar(&x, batch, in_dim, &w, &b, &mut expect);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&expect), "{batch}x{in_dim}->{out_dim}");
        }
    }

    #[test]
    fn dense_fold_starts_from_negative_zero() {
        // `Sum for f32` folds from -0.0; an all -0.0 product row under a
        // -0.0 bias must stay -0.0 on every path (a +0.0 start gives +0.0).
        assert_eq!(
            std::iter::empty::<f32>().sum::<f32>().to_bits(),
            (-0.0f32).to_bits()
        );
        let (x, w, b) = ([0.0f32; 3], [-1.0f32, -2.0, -3.0], [-0.0f32]);
        let mut panel = vec![0.0f32; dense_panel_len(3)];
        for scalar in [false, true] {
            let mut y = [1.0f32];
            let mut run = || dense_forward(&x, 1, 3, &w, &b, &mut y, &mut panel);
            if scalar {
                with_scalar_dispatch(run);
            } else {
                run();
            }
            assert_eq!(y[0].to_bits(), (-0.0f32).to_bits(), "scalar={scalar}");
        }
    }

    #[test]
    fn scalar_dispatch_is_scoped_and_restored() {
        assert!(!scalar_dispatch_forced());
        with_scalar_dispatch(|| {
            assert!(scalar_dispatch_forced());
            assert!(!use_avx2());
        });
        assert!(!scalar_dispatch_forced());
        let caught = std::panic::catch_unwind(|| with_scalar_dispatch(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(!scalar_dispatch_forced());
    }

    #[test]
    fn abs_keys_match_total_cmp_order() {
        let v = probe(2000, 0x70);
        let mut keys = vec![0u32; v.len()];
        abs_keys_into(&v, &mut keys);
        let mut keys_ref = vec![0u32; v.len()];
        abs_keys_scalar(&v, &mut keys_ref);
        assert_eq!(keys, keys_ref);
        // Unsigned key order == total_cmp order of absolute values.
        for i in (0..v.len()).step_by(17) {
            for j in (1..v.len()).step_by(23) {
                assert_eq!(
                    keys[i].cmp(&keys[j]),
                    v[i].abs().total_cmp(&v[j].abs()),
                    "i={i} j={j}"
                );
            }
        }
    }

    #[test]
    fn collect_indices_above_matches_scalar() {
        let v = probe(3000, 0x80);
        let mut keys = vec![0u32; v.len()];
        abs_keys_into(&v, &mut keys);
        for t in [0u32, 1.0f32.to_bits(), 4.0f32.to_bits(), u32::MAX] {
            let mut got = Vec::new();
            let mut expect = Vec::new();
            collect_indices_above(&keys, t, 5, &mut got);
            collect_indices_above_scalar(&keys, t, 5, &mut expect);
            assert_eq!(got, expect, "t={t:#x}");
        }
    }

    fn half_bits(v: &[F16]) -> Vec<u16> {
        v.iter().map(|h| h.0).collect()
    }

    fn f32_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Checks the dispatched [`f16_encode`] against its scalar reference
    /// bit for bit.
    fn check_encode(src: &[f32]) {
        let mut got = vec![F16(0xdead); src.len()];
        let mut want = vec![F16(0xbeef); src.len()];
        f16_encode(src, &mut got);
        f16_encode_scalar(src, &mut want);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.0, w.0, "encode {:#010x}", src[i].to_bits());
        }
    }

    /// f32 inputs on the binary16 conversion's edges: signed zeros, f32
    /// subnormals, the 2^-25 tie to zero and the values around it, the
    /// smallest half subnormal 2^-24, the overflow boundary around 65520,
    /// infinities and quiet and signalling NaNs of both signs.
    fn encode_edges() -> Vec<f32> {
        let tie = 2.0f32.powi(-25);
        let mut v = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x807f_ffff),
            f32::MIN_POSITIVE,
            tie,
            -tie,
            f32::from_bits(tie.to_bits() + 1),
            f32::from_bits(tie.to_bits() - 1),
            3.0 * tie,
            2.0f32.powi(-24),
            2.0f32.powi(-14),
            2.0f32.powi(-14) - 2.0f32.powi(-24),
            65504.0,
            65519.0,
            65519.996,
            65520.0,
            -65520.0,
            1e6,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling
            f32::from_bits(0xff80_0001), // signalling, negative
            f32::from_bits(0x7fff_ffff),
            f32::from_bits(0xffbf_ffff),
        ];
        // Every edge once more inside an all-finite 8-lane block.
        let edges = v.clone();
        for e in edges {
            v.extend_from_slice(&[1.0, -2.5, e, 0.1, 3.0, 7.0, -0.0, 1e-5]);
        }
        v
    }

    #[test]
    fn f16_decode_matches_scalar_on_every_half() {
        let all: Vec<F16> = (0..=u16::MAX).map(F16).collect();
        let mut got = vec![0.0f32; all.len()];
        let mut want = vec![1.0f32; all.len()];
        f16_decode(&all, &mut got);
        f16_decode_scalar(&all, &mut want);
        assert_eq!(f32_bits(&got), f32_bits(&want));
    }

    #[test]
    fn f16_encode_matches_scalar_on_edges_and_a_bit_pattern_sweep() {
        let edges = encode_edges();
        check_encode(&edges);
        // Known answers on the boundaries, through the dispatched path.
        let mut h = [F16::ZERO; 4];
        f16_encode(
            &[2.0f32.powi(-25), 2.0f32.powi(-24), 65519.0, 65520.0],
            &mut h,
        );
        assert_eq!(half_bits(&h), [0x0000, 0x0001, 0x7bff, 0x7c00]);
        // Every 97th f32 bit pattern, streamed in blocks.
        let mut block = Vec::with_capacity(1 << 14);
        let mut bits = 0u64;
        while bits <= u32::MAX as u64 {
            block.push(f32::from_bits(bits as u32));
            if block.len() == block.capacity() {
                check_encode(&block);
                block.clear();
            }
            bits += 97;
        }
        check_encode(&block);
    }

    #[test]
    fn f16_add_matches_scalar_on_every_half_against_edge_partners() {
        let partners = [
            0x0000u16, // +0
            0x8000,    // -0
            0x7c00,    // +inf
            0xfc00,    // -inf
            0x7e00,    // quiet NaN
            0xfe01,    // negative quiet NaN, payload
            0x7c01,    // signalling NaN
            0x7bff,    // MAX (MAX + MAX -> inf)
            0xfbff,    // -MAX
            0x0001,    // smallest subnormal
            0x83ff,    // largest negative subnormal
            0x0400,    // smallest normal
            0x3c00,    // 1.0
            0xbc00,    // -1.0
            0x6800,    // 2048 (2048 + 1 rounds back to 2048)
        ];
        let all: Vec<F16> = (0..=u16::MAX).map(F16).collect();
        let mixed: Vec<F16> = (0..all.len())
            .map(|i| F16(partners[i % partners.len()]))
            .collect();
        let uniform = partners.iter().map(|&p| vec![F16(p); all.len()]);
        for x in uniform.chain(std::iter::once(mixed)) {
            let mut got = all.clone();
            let mut want = all.clone();
            f16_add(&mut got, &x);
            f16_add_scalar(&mut want, &x);
            assert_eq!(half_bits(&got), half_bits(&want), "partner {:#06x}", x[0].0);
        }
        let mut acc = [F16::MAX];
        f16_add(&mut acc, &[F16::MAX]);
        assert_eq!(acc[0], F16::INFINITY);
        let mut acc = [F16::NEG_INFINITY];
        f16_add(&mut acc, &[F16::INFINITY]);
        assert!(acc[0].is_nan());
    }

    #[test]
    fn f16_kernels_match_scalar_on_every_tail_length() {
        let src: Vec<f32> = encode_edges().into_iter().cycle().take(40).collect();
        let halves: Vec<F16> = (0..40u16).map(|i| F16(i.wrapping_mul(0x9e37))).collect();
        let partner: Vec<F16> = (0..40u16).map(|i| F16(i.wrapping_mul(0x79b9))).collect();
        for len in 0..=37usize {
            // Start one element in, so the vector loads are unaligned too.
            let (src, halves, partner) = (&src[1..=len], &halves[1..=len], &partner[1..=len]);
            let mut enc_want = vec![F16::ZERO; len];
            let mut dec_want = vec![0.0f32; len];
            let mut add_want = halves.to_vec();
            f16_encode_scalar(src, &mut enc_want);
            f16_decode_scalar(halves, &mut dec_want);
            f16_add_scalar(&mut add_want, partner);
            for threads in [1, 2, 4] {
                for scalar in [false, true] {
                    let mut enc = vec![F16(0xffff); len];
                    let mut dec = vec![f32::NAN; len];
                    let mut add = halves.to_vec();
                    crate::parallel::with_threads(threads, || {
                        let mut run = || {
                            f16_encode(src, &mut enc);
                            f16_decode(halves, &mut dec);
                            f16_add(&mut add, partner);
                        };
                        if scalar {
                            with_scalar_dispatch(run);
                        } else {
                            run();
                        }
                    });
                    let at = format!("len={len} threads={threads} scalar={scalar}");
                    assert_eq!(half_bits(&enc), half_bits(&enc_want), "encode {at}");
                    assert_eq!(f32_bits(&dec), f32_bits(&dec_want), "decode {at}");
                    assert_eq!(half_bits(&add), half_bits(&add_want), "add {at}");
                }
            }
        }
    }
}
