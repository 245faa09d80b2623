//! Weight initialization schemes.

use redcane_tensor::{Tensor, TensorRng};

/// He/Kaiming normal initialization: `N(0, sqrt(2 / fan_in))`, suited to
/// ReLU activations.
pub fn he_normal(shape: &[usize], fan_in: usize, rng: &mut TensorRng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    rng.normal(shape, 0.0, std)
}

/// Fan-in/fan-out of a conv weight `[C_out, C_in, k, k]`.
pub fn conv_fans(c_out: usize, c_in: usize, kernel: usize) -> (usize, usize) {
    (c_in * kernel * kernel, c_out * kernel * kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn he_scale_tracks_fan_in() {
        let mut rng = TensorRng::from_seed(2);
        let narrow = he_normal(&[10_000], 10, &mut rng);
        let wide = he_normal(&[10_000], 1000, &mut rng);
        assert!(narrow.std() > wide.std() * 5.0);
    }

    #[test]
    fn conv_fans_formula() {
        assert_eq!(conv_fans(32, 16, 3), (144, 288));
    }
}
