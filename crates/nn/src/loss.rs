//! The CapsNet margin loss.

use redcane_tensor::Tensor;

/// Margin-loss hyperparameters (Sabour et al., Eq. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginLossConfig {
    /// Positive margin `m+` (capsule length target for the true class).
    pub m_plus: f32,
    /// Negative margin `m-` (length ceiling for absent classes).
    pub m_minus: f32,
    /// Down-weighting `λ` of absent-class loss.
    pub lambda: f32,
}

impl Default for MarginLossConfig {
    /// The paper's standard values: `m+ = 0.9`, `m- = 0.1`, `λ = 0.5`.
    fn default() -> Self {
        MarginLossConfig {
            m_plus: 0.9,
            m_minus: 0.1,
            lambda: 0.5,
        }
    }
}

/// CapsNet margin loss over class-capsule lengths.
///
/// `lengths` holds `‖v_k‖` per class; `target` is the true class index.
/// Returns `(loss, d_loss/d_lengths)`.
///
/// ```text
/// L = Σ_k T_k max(0, m+ − ‖v_k‖)² + λ (1 − T_k) max(0, ‖v_k‖ − m−)²
/// ```
///
/// # Panics
///
/// Panics if `target` is out of range or `lengths` is not rank 1.
pub fn margin_loss(lengths: &Tensor, target: usize, cfg: MarginLossConfig) -> (f32, Tensor) {
    assert_eq!(lengths.ndim(), 1, "margin loss expects a length vector");
    let k = lengths.len();
    assert!(target < k, "target {target} out of range for {k} classes");
    let mut loss = 0.0f32;
    let mut grad = vec![0.0f32; k];
    for (i, &len) in lengths.data().iter().enumerate() {
        if i == target {
            let short = (cfg.m_plus - len).max(0.0);
            loss += short * short;
            grad[i] = -2.0 * short;
        } else {
            let long = (len - cfg.m_minus).max(0.0);
            loss += cfg.lambda * long * long;
            grad[i] = 2.0 * cfg.lambda * long;
        }
    }
    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
    (loss, Tensor::from_vec(grad, &[k]).expect("sized"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margin_loss_zero_when_perfect() {
        // True class at length >= m+, others at length <= m-.
        let lengths = Tensor::from_slice(&[0.95, 0.05, 0.02]);
        let (loss, grad) = margin_loss(&lengths, 0, MarginLossConfig::default());
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn margin_loss_penalizes_short_true_class() {
        let lengths = Tensor::from_slice(&[0.5, 0.05]);
        let (loss, grad) = margin_loss(&lengths, 0, MarginLossConfig::default());
        assert!((loss - 0.16).abs() < 1e-6); // (0.9-0.5)^2
        assert!(grad.data()[0] < 0.0, "push true class longer");
        assert_eq!(grad.data()[1], 0.0);
    }

    #[test]
    fn margin_loss_penalizes_long_false_class() {
        let lengths = Tensor::from_slice(&[0.95, 0.6]);
        let (loss, grad) = margin_loss(&lengths, 0, MarginLossConfig::default());
        assert!((loss - 0.5 * 0.25).abs() < 1e-6); // λ (0.6-0.1)^2
        assert!(grad.data()[1] > 0.0, "push false class shorter");
    }

    #[test]
    fn margin_loss_gradient_matches_finite_difference() {
        let cfg = MarginLossConfig::default();
        let lengths = Tensor::from_slice(&[0.3, 0.7, 0.2, 0.55]);
        let (_, grad) = margin_loss(&lengths, 1, cfg);
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut lp = lengths.clone();
            lp.data_mut()[i] += eps;
            let mut lm = lengths.clone();
            lm.data_mut()[i] -= eps;
            let num = (margin_loss(&lp, 1, cfg).0 - margin_loss(&lm, 1, cfg).0) / (2.0 * eps);
            assert!((num - grad.data()[i]).abs() < 1e-3, "i={i}");
        }
    }

    #[test]
    #[should_panic]
    fn margin_loss_rejects_bad_target() {
        let lengths = Tensor::from_slice(&[0.5, 0.5]);
        let _ = margin_loss(&lengths, 2, MarginLossConfig::default());
    }
}
