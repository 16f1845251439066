//! Reduction operators for collective aggregation.
//!
//! All-reduce compatibility (§2.1) boils down to one question: *what
//! operation do intermediate hops apply to partially aggregated payloads?*
//! This module makes that operation a first-class value. A compression
//! scheme is all-reduce-compatible exactly when its wire format admits a
//! [`ReduceOp`] — no decompress/recompress, no growing payloads.
//!
//! Operators provided:
//!
//! * [`F32Sum`] — exact float sum (the FP32 baseline).
//! * [`F16Sum`] — sum rounded to binary16 after every addition, NCCL's
//!   FP16 all-reduce semantics (the paper's stronger baseline, and TopKC's
//!   chunk aggregation).
//! * [`WideIntSum`] — plain integer sum for widened payloads (THC's
//!   "simple adaptation": communicate `b > q` bits so sums cannot
//!   overflow).
//! * [`SaturatingIntSum`] — the paper's `Sat(x,y)` operator (§3.2.2):
//!   clamp to `[−(2^{b−1}−1), 2^{b−1}−1]`, enabling `b = q`.
//! * [`WrappingIntSum`] — what naive q-bit summation would do; exists so
//!   tests/ablations can demonstrate the overflow corruption that motivates
//!   the other two.

use gcs_tensor::F16;

/// An associative-enough binary reduction over elements of type `T`.
///
/// "Enough": FP16 and saturating sums are *not* exactly associative; the
/// collectives apply them in a deterministic order, mirroring real NCCL
/// behaviour where reduction order is topology-determined.
pub trait ReduceOp<T>: Sync {
    /// Folds `x` into the accumulator.
    fn reduce(&self, acc: &mut T, x: &T);

    /// Reduces a pair of equal-length slices element-wise into `acc`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    fn reduce_slice(&self, acc: &mut [T], xs: &[T]) {
        assert_eq!(acc.len(), xs.len(), "reduce_slice: length mismatch");
        for (a, x) in acc.iter_mut().zip(xs) {
            self.reduce(a, x);
        }
    }
}

/// Disjoint `(dst, src)` lane access into a set of worker buffers — the
/// split-borrow that lets in-process collective simulations reduce one
/// worker's segment into another's without cloning either side.
fn lane_pair<T>(bufs: &mut [Vec<T>], dst: usize, src: usize) -> (&mut Vec<T>, &Vec<T>) {
    assert_ne!(dst, src, "lane_pair: dst and src must differ");
    if dst < src {
        let (lo, hi) = bufs.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = bufs.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    }
}

/// Reduces `bufs[src][lo..hi]` into `bufs[dst][lo..hi]` in place.
///
/// The in-process collective simulations (double tree, hierarchical ring)
/// previously staged every such segment through an `a.to_vec()` clone; this
/// operates directly on the two lanes via a split borrow, so the simulated
/// data path allocates nothing per hop — the property the `alloc_budget`
/// suite asserts (ISSUE 9 satellite).
///
/// # Panics
/// Panics if `dst == src` or the range is out of bounds for either lane.
pub fn reduce_lanes<T>(
    bufs: &mut [Vec<T>],
    op: &dyn ReduceOp<T>,
    dst: usize,
    src: usize,
    lo: usize,
    hi: usize,
) {
    let (d, s) = lane_pair(bufs, dst, src);
    op.reduce_slice(&mut d[lo..hi], &s[lo..hi]);
}

/// Copies `bufs[src][lo..hi]` over `bufs[dst][lo..hi]` in place — the
/// broadcast-down counterpart of [`reduce_lanes`], same split-borrow, same
/// zero-allocation guarantee.
///
/// # Panics
/// Panics if `dst == src` or the range is out of bounds for either lane.
pub fn copy_lanes<T: Clone>(bufs: &mut [Vec<T>], dst: usize, src: usize, lo: usize, hi: usize) {
    let (d, s) = lane_pair(bufs, dst, src);
    d[lo..hi].clone_from_slice(&s[lo..hi]);
}

/// Exact f32 addition.
#[derive(Clone, Copy, Debug, Default)]
pub struct F32Sum;

impl ReduceOp<f32> for F32Sum {
    fn reduce(&self, acc: &mut f32, x: &f32) {
        *acc += *x;
    }
}

/// Binary16 addition: the sum is rounded back to f16 after every step, as
/// NCCL's `ncclFloat16` reduction does on tensor-core hardware.
#[derive(Clone, Copy, Debug, Default)]
pub struct F16Sum;

impl ReduceOp<F16> for F16Sum {
    fn reduce(&self, acc: &mut F16, x: &F16) {
        *acc = acc.add_f16(*x);
    }

    /// The slice form runs on [`gcs_tensor::simd::f16_add`] (F16C where
    /// available), bitwise-identical to folding [`F16Sum::reduce`] over
    /// the pair. Every executor reduces through here, so ring, tree,
    /// reduce-scatter, parameter server and the per-worker transport
    /// bodies all take the fast path.
    fn reduce_slice(&self, acc: &mut [F16], xs: &[F16]) {
        gcs_tensor::simd::f16_add(acc, xs);
    }
}

/// Plain i32 addition (for widened integer payloads where overflow is
/// impossible by construction).
#[derive(Clone, Copy, Debug, Default)]
pub struct WideIntSum;

impl ReduceOp<i32> for WideIntSum {
    fn reduce(&self, acc: &mut i32, x: &i32) {
        *acc += *x;
    }
}

/// The paper's saturation operator over `b`-bit signed lanes:
/// `Sat(x, y) = min(2^{b−1}−1, max(−2^{b−1}+1, x+y))`.
#[derive(Clone, Copy, Debug)]
pub struct SaturatingIntSum {
    hi: i32,
}

impl SaturatingIntSum {
    /// Creates the operator for `b`-bit lanes (`2 <= b <= 31`).
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn new(b: u32) -> SaturatingIntSum {
        assert!(
            (2..=31).contains(&b),
            "SaturatingIntSum: b={b} out of range"
        );
        SaturatingIntSum {
            hi: (1i32 << (b - 1)) - 1,
        }
    }

    /// The symmetric clamp bound `2^{b−1}−1`.
    pub fn bound(&self) -> i32 {
        self.hi
    }
}

impl ReduceOp<i32> for SaturatingIntSum {
    fn reduce(&self, acc: &mut i32, x: &i32) {
        *acc = (*acc + *x).clamp(-self.hi, self.hi);
    }
}

/// Element-wise f32 maximum. Used to agree on quantization scales across
/// workers (a max-all-reduce of per-block ranges) without a parameter
/// server.
#[derive(Clone, Copy, Debug, Default)]
pub struct F32Max;

impl ReduceOp<f32> for F32Max {
    fn reduce(&self, acc: &mut f32, x: &f32) {
        if *x > *acc {
            *acc = *x;
        }
    }
}

/// Wrapping (mod `2^b`) addition over `b`-bit signed lanes — included only
/// to demonstrate overflow corruption.
#[derive(Clone, Copy, Debug)]
pub struct WrappingIntSum {
    b: u32,
}

impl WrappingIntSum {
    /// Creates the operator for `b`-bit lanes (`2 <= b <= 31`).
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn new(b: u32) -> WrappingIntSum {
        assert!((2..=31).contains(&b), "WrappingIntSum: b={b} out of range");
        WrappingIntSum { b }
    }
}

impl ReduceOp<i32> for WrappingIntSum {
    fn reduce(&self, acc: &mut i32, x: &i32) {
        let mask = (1i64 << self.b) - 1;
        let sum = ((*acc as i64) + (*x as i64)) & mask;
        // Sign-extend from b bits.
        let shift = 64 - self.b;
        *acc = ((sum << shift) >> shift) as i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_sum_is_exact() {
        let op = F32Sum;
        let mut acc = vec![1.0f32, 2.0];
        op.reduce_slice(&mut acc, &[0.5, -2.0]);
        assert_eq!(acc, vec![1.5, 0.0]);
    }

    #[test]
    fn f16_sum_rounds_each_step() {
        let op = F16Sum;
        // 2048 + 1 is not representable in f16: the addend vanishes.
        let mut acc = F16::from_f32(2048.0);
        op.reduce(&mut acc, &F16::from_f32(1.0));
        assert_eq!(acc.to_f32(), 2048.0);
    }

    #[test]
    fn f16_sum_reduce_slice_matches_per_element_reduce() {
        // Every half against a partner stream that cycles through signed
        // zeros, infinities, NaNs, MAX and subnormals, at a length that
        // leaves a tail past the 8-lane blocks.
        let partners = [
            0x0000u16, 0x8000, 0x7c00, 0xfc00, 0x7e00, 0x7bff, 0x0001, 0x3c00,
        ];
        let acc0: Vec<F16> = (0..=u16::MAX).map(F16).chain([F16(0x3555)]).collect();
        let xs: Vec<F16> = (0..acc0.len())
            .map(|i| F16(partners[(i / 3) % partners.len()]))
            .collect();
        let mut sliced = acc0.clone();
        F16Sum.reduce_slice(&mut sliced, &xs);
        let mut folded = acc0;
        for (a, x) in folded.iter_mut().zip(&xs) {
            F16Sum.reduce(a, x);
        }
        assert_eq!(sliced, folded);
    }

    #[test]
    fn saturating_sum_clamps() {
        let op = SaturatingIntSum::new(4); // lanes in [-7, 7]
        let mut acc = 6i32;
        op.reduce(&mut acc, &5);
        assert_eq!(acc, 7);
        let mut acc = -6i32;
        op.reduce(&mut acc, &-5);
        assert_eq!(acc, -7);
        let mut acc = 6i32;
        op.reduce(&mut acc, &-5);
        assert_eq!(acc, 1);
    }

    #[test]
    fn saturating_matches_packed_int_vec_semantics() {
        // The collectives' i32 lanes and the wire-format PackedIntVec must
        // agree on what Sat() means.
        use gcs_tensor::PackedIntVec;
        let q = 4u32;
        let a = [7i32, -7, 3, -3, 0];
        let b = [5i32, -5, 5, -5, 7];
        let mut lanes = a.to_vec();
        let op = SaturatingIntSum::new(q);
        op.reduce_slice(&mut lanes, &b);
        let mut packed = PackedIntVec::from_signed(q, &a);
        packed.add_saturating(&PackedIntVec::from_signed(q, &b));
        assert_eq!(lanes, packed.to_signed_vec());
    }

    #[test]
    fn wrapping_sum_wraps() {
        let op = WrappingIntSum::new(4);
        let mut acc = 7i32;
        op.reduce(&mut acc, &5);
        assert_eq!(acc, -4); // 12 wraps in 4-bit two's complement
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn saturating_rejects_bad_width() {
        SaturatingIntSum::new(1);
    }

    #[test]
    fn reduce_lanes_is_in_place_and_direction_agnostic() {
        let mut bufs = vec![vec![1.0f32, 2.0, 3.0], vec![10.0, 20.0, 30.0]];
        reduce_lanes(&mut bufs, &F32Sum, 0, 1, 1, 3); // dst < src
        assert_eq!(bufs[0], vec![1.0, 22.0, 33.0]);
        assert_eq!(bufs[1], vec![10.0, 20.0, 30.0], "src untouched");
        reduce_lanes(&mut bufs, &F32Sum, 1, 0, 0, 1); // dst > src
        assert_eq!(bufs[1], vec![11.0, 20.0, 30.0]);
    }

    #[test]
    fn copy_lanes_overwrites_only_the_range() {
        let mut bufs = vec![vec![1i32, 2, 3], vec![7, 8, 9]];
        copy_lanes(&mut bufs, 1, 0, 0, 2);
        assert_eq!(bufs[1], vec![1, 2, 9]);
    }

    #[test]
    #[should_panic(expected = "dst and src must differ")]
    fn lane_helpers_reject_aliased_lanes() {
        let mut bufs = vec![vec![0.0f32; 2]; 2];
        reduce_lanes(&mut bufs, &F32Sum, 1, 1, 0, 1);
    }
}
