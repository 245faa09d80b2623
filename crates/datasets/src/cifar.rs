//! CIFAR-10-like renderer: ten colored shape/texture classes with heavy
//! per-sample variation — the hardest of the four synthetic benchmarks,
//! mirroring CIFAR-10's position in the paper's evaluation.
//!
//! Classes: 0 disc, 1 ring, 2 triangle, 3 square, 4 cross,
//! 5 horizontal stripes, 6 vertical stripes, 7 checkerboard,
//! 8 diagonal gradient, 9 radial blob.

use redcane_tensor::{Tensor, TensorRng};

use crate::canvas::{stack_rgb, Canvas};

/// Renders texture/shape class `0..=9` onto a `[3, h, w]` tensor.
///
/// # Panics
///
/// Panics if `class > 9`.
pub fn render(class: usize, h: usize, w: usize, rng: &mut TensorRng) -> Tensor {
    assert!(class <= 9, "cifar-like classes are 0..=9");
    let hf = h as f32;
    let wf = w as f32;
    // Background color (dim) and foreground color (brighter), random hues.
    let bg = [
        rng.next_uniform(0.05, 0.35),
        rng.next_uniform(0.05, 0.35),
        rng.next_uniform(0.05, 0.35),
    ];
    let fg = [
        rng.next_uniform(0.45, 1.0),
        rng.next_uniform(0.45, 1.0),
        rng.next_uniform(0.45, 1.0),
    ];
    // A grayscale structure mask, colored later.
    let mut mask = Canvas::new(h, w);
    let cy = hf * 0.5 + rng.next_uniform(-1.5, 1.5);
    let cx = wf * 0.5 + rng.next_uniform(-1.5, 1.5);
    let r = hf * rng.next_uniform(0.24, 0.36);
    match class {
        0 => mask.fill_ellipse(cy, cx, r, r, 1.0),
        1 => mask.ellipse_outline(cy, cx, r, r, 1.8, 1.0),
        2 => {
            // Triangle via three thick edges + interior scanline fill.
            let (ay, ax) = (cy - r, cx);
            let (by, bx) = (cy + r * 0.8, cx - r);
            let (gy, gx) = (cy + r * 0.8, cx + r);
            let steps = (2.0 * r) as usize + 2;
            for i in 0..=steps {
                let t = i as f32 / steps as f32;
                let ly = ay + (by - ay) * t;
                let lx = ax + (bx - ax) * t;
                let ry2 = ay + (gy - ay) * t;
                let rx2 = ax + (gx - ax) * t;
                mask.line(ly, lx, ry2, rx2, 1.0, 1.0);
            }
        }
        3 => mask.fill_rect(cy - r, cx - r, cy + r, cx + r, 1.0),
        4 => {
            let arm = r * 0.45;
            mask.fill_rect(cy - r, cx - arm, cy + r, cx + arm, 1.0);
            mask.fill_rect(cy - arm, cx - r, cy + arm, cx + r, 1.0);
        }
        5 => {
            let period = rng.next_uniform(3.0, 4.5);
            let phase = rng.next_uniform(0.0, period);
            for y in 0..h {
                if (((y as f32 + phase) / period) as usize).is_multiple_of(2) {
                    mask.fill_rect(y as f32, 0.0, y as f32, wf - 1.0, 1.0);
                }
            }
        }
        6 => {
            let period = rng.next_uniform(3.0, 4.5);
            let phase = rng.next_uniform(0.0, period);
            for x in 0..w {
                if (((x as f32 + phase) / period) as usize).is_multiple_of(2) {
                    mask.fill_rect(0.0, x as f32, hf - 1.0, x as f32, 1.0);
                }
            }
        }
        7 => {
            let cell = rng.next_uniform(2.5, 4.0);
            for y in 0..h {
                for x in 0..w {
                    let cyi = (y as f32 / cell) as usize;
                    let cxi = (x as f32 / cell) as usize;
                    if (cyi + cxi).is_multiple_of(2) {
                        mask.stamp(y as isize, x as isize, 1.0);
                    }
                }
            }
        }
        8 => {
            let flip = rng.next_bool(0.5);
            for y in 0..h {
                for x in 0..w {
                    let t = (y + if flip { w - 1 - x } else { x }) as f32 / (h + w - 2) as f32;
                    mask.stamp(y as isize, x as isize, t);
                }
            }
        }
        9 => {
            for y in 0..h {
                for x in 0..w {
                    let dy = (y as f32 - cy) / r.max(1.0);
                    let dx = (x as f32 - cx) / r.max(1.0);
                    let d2 = dy * dy + dx * dx;
                    mask.stamp(y as isize, x as isize, (-d2).exp());
                }
            }
        }
        // lint: allow(panic) — unreachable: the class index was validated by the preceding check
        _ => unreachable!("class checked above"),
    }
    // Colorize: out = bg + mask * (fg - bg), per channel, plus noise.
    let mut channels = [Canvas::new(h, w), Canvas::new(h, w), Canvas::new(h, w)];
    for (ci, canvas) in channels.iter_mut().enumerate() {
        for y in 0..h {
            for x in 0..w {
                let m = mask.get(y as isize, x as isize);
                let v = bg[ci] + m * (fg[ci] - bg[ci]);
                canvas.stamp(y as isize, x as isize, v);
            }
        }
        canvas.add_noise(0.06, rng);
    }
    stack_rgb(&channels[0], &channels[1], &channels[2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_classes() {
        let mut rng = TensorRng::from_seed(100);
        for cl in 0..10 {
            let t = render(cl, 20, 20, &mut rng);
            assert_eq!(t.shape(), &[3, 20, 20]);
            assert!(t.all_finite());
            assert!(t.range() > 0.1, "class {cl} should have contrast");
        }
    }

    #[test]
    fn stripes_have_directional_structure() {
        let mut rng = TensorRng::from_seed(101);
        // Horizontal stripes: row variance across rows >> within rows.
        let t = render(5, 20, 20, &mut rng);
        let row_means: Vec<f32> = (0..20)
            .map(|y| (0..20).map(|x| t.get(&[0, y, x]).unwrap()).sum::<f32>() / 20.0)
            .collect();
        let col_means: Vec<f32> = (0..20)
            .map(|x| (0..20).map(|y| t.get(&[0, y, x]).unwrap()).sum::<f32>() / 20.0)
            .collect();
        let var = |v: &[f32]| {
            let m = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|x| (x - m).powi(2)).sum::<f32>() / v.len() as f32
        };
        assert!(
            var(&row_means) > var(&col_means) * 3.0,
            "horizontal stripes: row var {} col var {}",
            var(&row_means),
            var(&col_means)
        );
    }

    #[test]
    fn disc_and_ring_differ_in_center() {
        let mut rng = TensorRng::from_seed(102);
        // Use the green channel relative contrast at center vs edge ring.
        let disc = render(0, 20, 20, &mut rng);
        let ring = render(1, 20, 20, &mut rng);
        // For a disc, the center belongs to the shape; for a ring it does
        // not. Compare center intensity to the image mean.
        let mean = |t: &Tensor| t.sum() / t.len() as f32;
        let c_disc = disc.get(&[1, 10, 10]).unwrap() / mean(&disc).max(1e-3);
        let c_ring = ring.get(&[1, 10, 10]).unwrap() / mean(&ring).max(1e-3);
        assert!(c_disc > c_ring * 0.9);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_class() {
        let mut rng = TensorRng::from_seed(103);
        let _ = render(12, 20, 20, &mut rng);
    }
}
