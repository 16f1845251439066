//! Loss functions.

/// Softmax cross-entropy over `[batch × classes]` logits.
///
/// Returns `(mean loss, d(loss)/d(logits))`; the gradient is already divided
/// by the batch size, so downstream gradients are per-sample averages (the
/// convention DDP's mean-reduction expects).
///
/// # Panics
/// Panics if dimensions disagree or a target class is out of range.
pub fn softmax_cross_entropy(logits: &[f32], targets: &[usize], classes: usize) -> (f32, Vec<f32>) {
    let mut grad = vec![0.0f32; logits.len()];
    let loss = softmax_ce(logits, targets, classes, Some(&mut grad));
    (loss, grad)
}

/// The mean loss of [`softmax_cross_entropy`] alone (bitwise the same
/// value), without materializing the gradient — the evaluation path.
///
/// # Panics
/// Panics if dimensions disagree or a target class is out of range.
pub fn cross_entropy_loss(logits: &[f32], targets: &[usize], classes: usize) -> f32 {
    softmax_ce(logits, targets, classes, None)
}

/// Shared body: one reusable `exps` row for the whole batch; writes the
/// gradient when `grad` is given.
fn softmax_ce(
    logits: &[f32],
    targets: &[usize],
    classes: usize,
    mut grad: Option<&mut [f32]>,
) -> f32 {
    let batch = targets.len();
    assert_eq!(
        logits.len(),
        batch * classes,
        "softmax_cross_entropy: logits shape"
    );
    let mut exps = vec![0.0f32; classes];
    let mut loss = 0.0f64;
    for (s, &t) in targets.iter().enumerate() {
        assert!(
            t < classes,
            "softmax_cross_entropy: target {t} out of range"
        );
        let row = &logits[s * classes..(s + 1) * classes];
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        for (e, &x) in exps.iter_mut().zip(row) {
            *e = (x - max).exp();
        }
        let sum: f32 = exps.iter().sum();
        let log_sum = sum.ln() + max;
        loss += (log_sum - row[t]) as f64;
        if let Some(grad) = grad.as_deref_mut() {
            let grow = &mut grad[s * classes..(s + 1) * classes];
            for (c, g) in grow.iter_mut().enumerate() {
                let p = exps[c] / sum;
                *g = (p - f32::from(c == t)) / batch as f32;
            }
        }
    }
    (loss / batch as f64) as f32
}

/// Top-1 accuracy of `[batch × classes]` logits against targets.
pub fn top1_accuracy(logits: &[f32], targets: &[usize], classes: usize) -> f64 {
    let batch = targets.len();
    if batch == 0 {
        return 0.0;
    }
    let mut correct = 0usize;
    for (s, &t) in targets.iter().enumerate() {
        let row = &logits[s * classes..(s + 1) * classes];
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        correct += usize::from(argmax == t);
    }
    correct as f64 / batch as f64
}

/// Perplexity from a mean cross-entropy loss: `exp(loss)`.
pub fn perplexity(mean_ce_loss: f64) -> f64 {
    mean_ce_loss.exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let (loss, _) = softmax_cross_entropy(&[0.0, 0.0, 0.0, 0.0], &[2], 4);
        assert!((loss - (4f32).ln()).abs() < 1e-6);
        assert!((perplexity(loss as f64) - 4.0).abs() < 1e-4);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let (loss, _) = softmax_cross_entropy(&[10.0, -10.0], &[0], 2);
        assert!(loss < 1e-4);
    }

    #[test]
    fn gradient_sums_to_zero_per_sample() {
        let (_, grad) = softmax_cross_entropy(&[1.0, 2.0, 3.0], &[0], 3);
        let s: f32 = grad.iter().sum();
        assert!(s.abs() < 1e-6);
        // Gradient is negative at the target, positive elsewhere.
        assert!(grad[0] < 0.0 && grad[1] > 0.0 && grad[2] > 0.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = vec![0.3f32, -0.7, 1.2, 0.1, 0.9, -0.2];
        let targets = vec![2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &targets, 3);
        let eps = 1e-3f32;
        for i in 0..6 {
            let mut lp = logits.clone();
            lp[i] += eps;
            let (loss_p, _) = softmax_cross_entropy(&lp, &targets, 3);
            let mut lm = logits.clone();
            lm[i] -= eps;
            let (loss_m, _) = softmax_cross_entropy(&lm, &targets, 3);
            let numeric = (loss_p - loss_m) / (2.0 * eps);
            assert!(
                (grad[i] - numeric).abs() < 1e-3,
                "logit {i}: {} vs {numeric}",
                grad[i]
            );
        }
    }

    #[test]
    fn accuracy_counts_argmax() {
        let logits = vec![1.0, 2.0, /* -> 1 */ 5.0, 0.0 /* -> 0 */];
        assert_eq!(top1_accuracy(&logits, &[1, 0], 2), 1.0);
        assert_eq!(top1_accuracy(&logits, &[0, 0], 2), 0.5);
        assert_eq!(top1_accuracy(&[], &[], 2), 0.0);
    }

    #[test]
    fn numerical_stability_with_huge_logits() {
        let (loss, grad) = softmax_cross_entropy(&[1000.0, -1000.0], &[0], 2);
        assert!(loss.is_finite() && loss < 1e-4);
        assert!(grad.iter().all(|g| g.is_finite()));
    }
}
