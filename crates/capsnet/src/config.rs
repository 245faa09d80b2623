//! Model configurations, each with a `paper()` full-size variant (the
//! paper's architecture, its geometry pinned by the tests below) and a
//! `small()` CPU-trainable variant (used for every accuracy experiment).

use serde::{Deserialize, Serialize};

/// Configuration of the original CapsNet (Sabour et al., NIPS 2017):
/// conv stem → PrimaryCaps → ClassCaps with dynamic routing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapsNetConfig {
    /// Input image channels.
    pub input_channels: usize,
    /// Input image height/width (square).
    pub input_hw: usize,
    /// Stem conv output channels.
    pub conv1_filters: usize,
    /// Stem conv kernel size.
    pub conv1_kernel: usize,
    /// PrimaryCaps capsule types.
    pub primary_ctypes: usize,
    /// PrimaryCaps capsule dimension.
    pub primary_dim: usize,
    /// PrimaryCaps conv kernel size.
    pub primary_kernel: usize,
    /// PrimaryCaps conv stride.
    pub primary_stride: usize,
    /// Number of output (class) capsules.
    pub class_caps: usize,
    /// Class capsule dimension.
    pub class_dim: usize,
    /// Dynamic-routing iterations.
    pub routing_iters: usize,
}

impl CapsNetConfig {
    /// The paper's full-size CapsNet for 28×28 MNIST-class inputs:
    /// Conv 9×9×256 → PrimaryCaps 9×9, 32 types × 8D, stride 2 →
    /// DigitCaps 10×16D with 3 routing iterations.
    pub fn paper() -> Self {
        CapsNetConfig {
            input_channels: 1,
            input_hw: 28,
            conv1_filters: 256,
            conv1_kernel: 9,
            primary_ctypes: 32,
            primary_dim: 8,
            primary_kernel: 9,
            primary_stride: 2,
            class_caps: 10,
            class_dim: 16,
            routing_iters: 3,
        }
    }

    /// A CPU-trainable variant for `hw × hw` images with `channels`
    /// channels (16×16 synthetic benchmarks): Conv 7×7×24 →
    /// PrimaryCaps 5×5, 8 types × 4D, stride 2 → ClassCaps 10×8D.
    pub fn small(channels: usize, hw: usize) -> Self {
        CapsNetConfig {
            input_channels: channels,
            input_hw: hw,
            conv1_filters: 24,
            conv1_kernel: 7,
            primary_ctypes: 8,
            primary_dim: 4,
            primary_kernel: 5,
            primary_stride: 2,
            class_caps: 10,
            class_dim: 8,
            routing_iters: 3,
        }
    }

    /// Spatial size after the stem conv (valid padding, stride 1).
    pub fn conv1_out_hw(&self) -> usize {
        self.input_hw - self.conv1_kernel + 1
    }

    /// Spatial size after the PrimaryCaps conv.
    pub fn primary_out_hw(&self) -> usize {
        (self.conv1_out_hw() - self.primary_kernel) / self.primary_stride + 1
    }

    /// Number of primary capsules feeding ClassCaps.
    pub fn primary_caps_total(&self) -> usize {
        self.primary_ctypes * self.primary_out_hw() * self.primary_out_hw()
    }
}

/// Configuration of DeepCaps (Rajasegaran et al., CVPR 2019): a conv-caps
/// stem, four residual capsule cells (the last one routing in its 3-D
/// conv-caps unit), and a fully-connected ClassCaps layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeepCapsConfig {
    /// Input image channels.
    pub input_channels: usize,
    /// Input image height/width (square).
    pub input_hw: usize,
    /// Capsule types/dimension after the stem.
    pub stem: (usize, usize),
    /// `(types, dim)` per capsule cell, in order; the 4th cell hosts the
    /// routing 3-D conv-caps unit.
    pub cells: [(usize, usize); 4],
    /// Stride of each cell's lead convolution (1 keeps resolution,
    /// 2 halves it). DeepCaps keeps full resolution in its first cell.
    pub cell_strides: [usize; 4],
    /// Class capsule dimension.
    pub class_dim: usize,
    /// Number of output (class) capsules.
    pub class_caps: usize,
    /// Dynamic-routing iterations (3-D unit and ClassCaps).
    pub routing_iters: usize,
}

impl DeepCapsConfig {
    /// The paper's full-size DeepCaps for 32×32 CIFAR-class inputs
    /// (Fig. 2): 32-type capsule cells, 4D early / 8D late, ClassCaps
    /// 10×16D.
    pub fn paper() -> Self {
        DeepCapsConfig {
            input_channels: 3,
            input_hw: 32,
            stem: (32, 4),
            cells: [(32, 4), (32, 8), (32, 8), (32, 8)],
            cell_strides: [1, 2, 2, 2],
            class_dim: 16,
            class_caps: 10,
            routing_iters: 3,
        }
    }

    /// A CPU-trainable variant preserving the exact topology (16
    /// ConvCaps2D layers, one routing Caps3D, ClassCaps) at reduced width.
    pub fn small(channels: usize, hw: usize) -> Self {
        DeepCapsConfig {
            input_channels: channels,
            input_hw: hw,
            stem: (4, 4),
            cells: [(4, 4), (4, 4), (4, 8), (4, 8)],
            // All cells downsample: keeps CPU training fast at small sizes.
            cell_strides: [2, 2, 2, 2],
            class_dim: 8,
            class_caps: 10,
            routing_iters: 3,
        }
    }

    /// Spatial size of the final cell's output.
    pub fn final_hw(&self) -> usize {
        self.cell_strides
            .iter()
            .fold(self.input_hw, |hw, &s| hw.div_ceil(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capsnet_paper_geometry_matches_sabour() {
        let c = CapsNetConfig::paper();
        assert_eq!(c.conv1_out_hw(), 20);
        assert_eq!(c.primary_out_hw(), 6);
        assert_eq!(c.primary_caps_total(), 1152);
    }

    #[test]
    fn capsnet_small_geometry() {
        let c = CapsNetConfig::small(1, 16);
        assert_eq!(c.conv1_out_hw(), 10);
        assert_eq!(c.primary_out_hw(), 3);
        assert_eq!(c.primary_caps_total(), 72);
    }

    #[test]
    fn deepcaps_small_spatial_chain() {
        let c = DeepCapsConfig::small(3, 20);
        // 20 → 10 → 5 → 3 → 2: every cell halves (rounding up).
        assert_eq!(c.cell_strides, [2, 2, 2, 2]);
        assert_eq!(c.final_hw(), 2);
    }

    #[test]
    fn deepcaps_paper_spatial_chain() {
        let c = DeepCapsConfig::paper();
        // 32 → 32 → 16 → 8 → 4: the first cell keeps full resolution.
        assert_eq!(c.cell_strides, [1, 2, 2, 2]);
        assert_eq!(c.final_hw(), 4);
    }
}
