//! SVHN-like renderer: a colored seven-segment digit over a cluttered,
//! colored background (house-number photographs are digits on noisy walls
//! with strong color variation and distractor structure).

use redcane_tensor::{Tensor, TensorRng};

use crate::canvas::{stack_rgb, Canvas};
use crate::digits;

/// Renders house-number class `0..=9` onto a `[3, h, w]` tensor.
///
/// # Panics
///
/// Panics if `class > 9`.
pub fn render(class: usize, h: usize, w: usize, rng: &mut TensorRng) -> Tensor {
    assert!(class <= 9, "svhn classes are 0..=9");
    // Background: a colored wall with brightness gradient and clutter bars.
    let wall = [
        rng.next_uniform(0.1, 0.6),
        rng.next_uniform(0.1, 0.6),
        rng.next_uniform(0.1, 0.6),
    ];
    let grad_dir = rng.next_uniform(-1.0, 1.0);
    let mut channels = [Canvas::new(h, w), Canvas::new(h, w), Canvas::new(h, w)];
    for (ci, canvas) in channels.iter_mut().enumerate() {
        for y in 0..h {
            for x in 0..w {
                let t = x as f32 / w as f32;
                let g = 1.0 + grad_dir * (t - 0.5) * 0.6;
                canvas.stamp(y as isize, x as isize, wall[ci] * g);
            }
        }
    }
    // Clutter: 1-2 random bars (sills/frames) in a different color.
    let bars = 1 + rng.next_index(2);
    for _ in 0..bars {
        let y0 = rng.next_uniform(0.0, h as f32 - 2.0);
        let x0 = rng.next_uniform(0.0, w as f32 - 2.0);
        let vertical = rng.next_bool(0.5);
        let (y1, x1) = if vertical {
            (y0 + rng.next_uniform(4.0, h as f32 / 2.0), x0 + 1.0)
        } else {
            (y0 + 1.0, x0 + rng.next_uniform(4.0, w as f32 / 2.0))
        };
        let shade = rng.next_uniform(0.0, 0.8);
        for canvas in channels.iter_mut() {
            canvas.fill_rect(y0, x0, y1, x1, shade * rng.next_uniform(0.6, 1.0));
        }
    }
    // The digit glyph, in a saturated foreground color, composited over
    // the background by max-blend per channel.
    let glyph = digits::render(class, h, w, rng); // [1, h, w]
    let fg = [
        rng.next_uniform(0.5, 1.0),
        rng.next_uniform(0.5, 1.0),
        rng.next_uniform(0.5, 1.0),
    ];
    for (ci, canvas) in channels.iter_mut().enumerate() {
        for y in 0..h {
            for x in 0..w {
                // lint: allow(panic) — indices iterate the tensor's own dims, so they are in bounds
                let g = glyph.get(&[0, y, x]).expect("in bounds");
                if g > 0.35 {
                    canvas.stamp(y as isize, x as isize, g * fg[ci]);
                }
            }
        }
    }
    for canvas in channels.iter_mut() {
        canvas.add_noise(0.05, rng);
    }
    stack_rgb(&channels[0], &channels[1], &channels[2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rgb_with_background() {
        let mut rng = TensorRng::from_seed(90);
        let t = render(3, 20, 20, &mut rng);
        assert_eq!(t.shape(), &[3, 20, 20]);
        // Background means substantial nonzero mass everywhere.
        assert!(t.sum() / t.len() as f32 > 0.05);
        assert!(t.max_value() <= 1.0 && t.min_value() >= 0.0);
    }

    #[test]
    fn digit_region_is_brighter_than_wall_on_some_channel() {
        let mut rng = TensorRng::from_seed(91);
        let t = render(8, 20, 20, &mut rng);
        // An 8 covers the glyph box center; compare against a corner.
        let center: f32 = (0..3).map(|c| t.get(&[c, 10, 10]).unwrap()).sum();
        let corner: f32 = (0..3).map(|c| t.get(&[c, 1, 18]).unwrap()).sum();
        // Not guaranteed for every sample, but seed-pinned here.
        assert!(center > corner * 0.8, "center {center} corner {corner}");
    }

    #[test]
    #[should_panic]
    fn rejects_bad_class() {
        let mut rng = TensorRng::from_seed(92);
        let _ = render(11, 20, 20, &mut rng);
    }
}
