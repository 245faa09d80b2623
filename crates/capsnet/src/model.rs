//! The two evaluated architectures: CapsNet (Sabour et al.) and DeepCaps
//! (Rajasegaran et al.), behind the common [`CapsModel`] interface.

use redcane_nn::layers::{Conv2d, Relu};
use redcane_nn::{Layer, Param};
use redcane_tensor::{Tensor, TensorRng};

use crate::census::{conv_ops, fc_votes_ops, routing_ops, squash_ops, LayerCensus, OpCount};
use crate::config::{CapsNetConfig, DeepCapsConfig};
use crate::inject::{Injector, NoInjection, OpKind, OpSite};
use crate::layers::{ClassCaps, ConvCaps2d, ConvCaps3d};
use crate::squash::{caps_lengths, caps_lengths_backward, squash_caps, squash_caps_backward};

/// A trainable capsule classifier with injection hooks.
///
/// `forward` returns the class-capsule **lengths** (existence
/// probabilities) as a rank-1 tensor; `backward_from_lengths` propagates a
/// gradient on those lengths back through the whole network, accumulating
/// parameter gradients.
///
/// # Stages
///
/// The float forward is split into [`stages`](CapsModel::stages), and
/// `forward` is nothing but their fold. The stage contract:
///
/// - each stage takes one tensor in (the image for stage 0, the previous
///   stage's output otherwise) and gives one tensor out (the lengths for
///   the last stage);
/// - every injection site fires in exactly one stage, and the stages
///   visit the sites in the order a full `forward` does;
/// - a stage's output is a pure function of its input and the weights
///   (plus whatever the injector does at that stage's own sites).
///
/// So a noise sweep may run the clean prefix once, cache the stage
/// inputs, and start each noisy pass at the first stage it perturbs.
pub trait CapsModel {
    /// Architecture + config display name.
    fn name(&self) -> String;

    /// The concrete model behind the trait object.
    ///
    /// Downstream crates dispatch on this to lower a `&dyn CapsModel`
    /// onto alternative datapaths (e.g. `redcane-qdp`'s quantized
    /// lowering) without the capsnet crate depending on them.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Number of forward stages (at least one).
    fn stages(&self) -> usize;

    /// Runs forward stage `stage` on its input `x`; every classified
    /// operation of the stage calls `injector`.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= self.stages()` or `x` is not the stage's
    /// input shape.
    fn forward_stage(&mut self, stage: usize, x: &Tensor, injector: &mut dyn Injector) -> Tensor;

    /// The rest of a pass from stage `start` on: the fold of
    /// [`forward_stage`](CapsModel::forward_stage) over stages
    /// `start..stages()`, where `x` is stage `start`'s input.
    fn forward_from(&mut self, start: usize, x: &Tensor, injector: &mut dyn Injector) -> Tensor {
        let first = self.forward_stage(start, x, injector);
        (start + 1..self.stages()).fold(first, |t, stage| self.forward_stage(stage, &t, injector))
    }

    /// Full inference pass: every stage from the image on; every
    /// classified operation calls `injector`.
    fn forward(&mut self, x: &Tensor, injector: &mut dyn Injector) -> Tensor {
        self.forward_from(0, x, injector)
    }

    /// Backpropagates `d_lengths` (shape `[num_classes]`).
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    fn backward_from_lengths(&mut self, d_lengths: &Tensor);

    /// All trainable parameters, in a stable order.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Layer names in network order (the granularity of the paper's
    /// layer-wise analysis, Fig. 10).
    fn layer_names(&self) -> Vec<String>;

    /// Per-layer operation counts for one inference (Table I input).
    fn op_census(&self) -> Vec<LayerCensus>;

    /// Zeroes every parameter gradient.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total trainable scalars.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// Argmax class prediction under an injector.
    fn predict_with(&mut self, x: &Tensor, injector: &mut dyn Injector) -> usize {
        self.forward(x, injector)
            .argmax()
            // lint: allow(panic) — capsule count is structurally nonzero, so lengths are non-empty
            .expect("non-empty class lengths")
    }

    /// Argmax class prediction of the accurate network.
    fn predict(&mut self, x: &Tensor) -> usize {
        self.predict_with(x, &mut NoInjection)
    }
}

/// Reorders a `[C, D, H, W]` capsule tensor into `[C*H*W, D]` unit form
/// (one row per capsule) for fully-connected capsule layers.
///
/// Public because quantized/alternative datapaths must reproduce the
/// exact same capsule→unit ordering the float models use.
///
/// # Panics
///
/// Panics unless `t` is rank 4.
pub fn caps_to_units(t: &Tensor) -> Tensor {
    assert_eq!(t.ndim(), 4);
    let (c, d, h, w) = (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]);
    let src = t.data();
    let mut out = vec![0.0f32; c * d * h * w];
    for ci in 0..c {
        for di in 0..d {
            for y in 0..h {
                for x in 0..w {
                    let unit = (ci * h + y) * w + x;
                    out[unit * d + di] = src[((ci * d + di) * h + y) * w + x];
                }
            }
        }
    }
    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
    Tensor::from_vec(out, &[c * h * w, d]).expect("sized")
}

/// Class-capsule lengths `[classes]` of the class-capsule outputs `v`
/// (`[classes, dim]`).
fn class_lengths(v: &Tensor, classes: usize, dim: usize) -> Tensor {
    let v3 = v
        .reshape(&[classes, dim, 1])
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        .expect("caps form");
    caps_lengths(&v3)
        .into_reshaped(&[classes])
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        .expect("drop P")
}

/// Inverse of [`caps_to_units`] for gradients.
fn units_to_caps(g: &Tensor, c: usize, d: usize, h: usize, w: usize) -> Tensor {
    assert_eq!(g.shape(), [c * h * w, d]);
    let src = g.data();
    let mut out = vec![0.0f32; c * d * h * w];
    for ci in 0..c {
        for di in 0..d {
            for y in 0..h {
                for x in 0..w {
                    let unit = (ci * h + y) * w + x;
                    out[((ci * d + di) * h + y) * w + x] = src[unit * d + di];
                }
            }
        }
    }
    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
    Tensor::from_vec(out, &[c, d, h, w]).expect("sized")
}

// =====================================================================
// CapsNet (Sabour et al., NIPS 2017)
// =====================================================================

/// The original CapsNet: Conv stem → PrimaryCaps → ClassCaps (routing).
#[derive(Debug, Clone)]
pub struct CapsNet {
    cfg: CapsNetConfig,
    conv1: Conv2d,
    relu: Relu,
    primary: ConvCaps2d,
    class_caps: ClassCaps,
    primary_hw: usize,
    v_cache: Option<Tensor>,
}

impl CapsNet {
    /// Builds a CapsNet with freshly initialized weights.
    pub fn new(cfg: &CapsNetConfig, rng: &mut TensorRng) -> Self {
        let primary_hw = cfg.primary_out_hw();
        let conv1 = Conv2d::new(
            cfg.input_channels,
            cfg.conv1_filters,
            cfg.conv1_kernel,
            1,
            0,
            rng,
        );
        let primary = ConvCaps2d::new(
            1,
            "PrimaryCaps",
            cfg.conv1_filters,
            1,
            cfg.primary_ctypes,
            cfg.primary_dim,
            cfg.primary_kernel,
            cfg.primary_stride,
            0,
            true,
            rng,
        );
        let class_caps = ClassCaps::new(
            2,
            "ClassCaps",
            cfg.primary_caps_total(),
            cfg.class_caps,
            cfg.primary_dim,
            cfg.class_dim,
            cfg.routing_iters,
            rng,
        );
        CapsNet {
            cfg: cfg.clone(),
            conv1,
            relu: Relu::new(),
            primary,
            class_caps,
            primary_hw,
            v_cache: None,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &CapsNetConfig {
        &self.cfg
    }

    /// Direct access to the class-capsule layer (weight export).
    pub fn class_caps(&self) -> &ClassCaps {
        &self.class_caps
    }

    /// Direct access to the stem convolution (weight export, e.g. for
    /// building a quantized datapath from the trained weights).
    pub fn conv1(&self) -> &Conv2d {
        &self.conv1
    }

    /// Direct access to the primary conv-caps layer (weight export).
    pub fn primary(&self) -> &ConvCaps2d {
        &self.primary
    }
}

impl CapsModel for CapsNet {
    fn name(&self) -> String {
        format!(
            "CapsNet[{}x{}x{}]",
            self.cfg.input_channels, self.cfg.input_hw, self.cfg.input_hw
        )
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn num_classes(&self) -> usize {
        self.cfg.class_caps
    }

    fn stages(&self) -> usize {
        3
    }

    fn forward_stage(&mut self, stage: usize, x: &Tensor, injector: &mut dyn Injector) -> Tensor {
        match stage {
            // Conv1 + ReLU, folded into the one-dim capsules PrimaryCaps reads.
            0 => {
                assert_eq!(
                    x.shape(),
                    [
                        self.cfg.input_channels,
                        self.cfg.input_hw,
                        self.cfg.input_hw
                    ],
                    "CapsNet input"
                );
                if injector.observes_inputs() {
                    let mut copy = x.clone();
                    injector.inject(&OpSite::new(0, "Conv1", OpKind::MacInput), &mut copy);
                }
                let mut c = self.conv1.forward(x);
                injector.inject(&OpSite::new(0, "Conv1", OpKind::MacOutput), &mut c);
                let mut a = self.relu.forward(&c);
                injector.inject(&OpSite::new(0, "Conv1", OpKind::Activation), &mut a);
                let (h1, w1) = (a.shape()[1], a.shape()[2]);
                a.into_reshaped(&[self.cfg.conv1_filters, 1, h1, w1])
                    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                    .expect("stem to caps")
            }
            // PrimaryCaps → one unit row per capsule.
            1 => caps_to_units(&self.primary.forward(x, injector)),
            // ClassCaps → lengths.
            2 => {
                let v = self.class_caps.forward(x, injector);
                let lengths = class_lengths(&v, self.cfg.class_caps, self.cfg.class_dim);
                self.v_cache = Some(v);
                lengths
            }
            // lint: allow(panic) — API contract: callers stay below stages()
            _ => panic!("CapsNet has 3 stages, got stage {stage}"),
        }
    }

    fn backward_from_lengths(&mut self, d_lengths: &Tensor) {
        // lint: allow(panic) — API contract: backward() consumes the cache that forward() stores
        let v = self.v_cache.take().expect("backward before forward");
        let v3 = v
            .reshape(&[self.cfg.class_caps, self.cfg.class_dim, 1])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("caps form");
        let dl = d_lengths
            .reshape(&[self.cfg.class_caps, 1])
            // lint: allow(panic) — shape invariant: the gradient was built as [C, P] right here
            .expect("[C, P] gradient");
        let dv = caps_lengths_backward(&v3, &dl)
            .into_reshaped(&[self.cfg.class_caps, self.cfg.class_dim])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("drop P");
        let du = self.class_caps.backward(&dv);
        let hw = self.primary_hw;
        let dprim = units_to_caps(&du, self.cfg.primary_ctypes, self.cfg.primary_dim, hw, hw);
        let dstem = self.primary.backward(&dprim);
        let h1 = self.cfg.conv1_out_hw();
        let dstem = dstem
            .into_reshaped(&[self.cfg.conv1_filters, h1, h1])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("caps to stem");
        let dc = self.relu.backward(&dstem);
        let _ = self.conv1.backward(&dc);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.conv1.params_mut();
        out.extend(self.primary.params_mut());
        out.extend(self.class_caps.params_mut());
        out
    }

    fn layer_names(&self) -> Vec<String> {
        vec![
            "Conv1".to_string(),
            "PrimaryCaps".to_string(),
            "ClassCaps".to_string(),
        ]
    }

    fn op_census(&self) -> Vec<LayerCensus> {
        let cfg = &self.cfg;
        let h1 = cfg.conv1_out_hw();
        let hp = cfg.primary_out_hw();
        let mut out = Vec::new();
        out.push(LayerCensus {
            name: "Conv1".into(),
            ops: conv_ops(
                cfg.input_channels,
                cfg.conv1_filters,
                cfg.conv1_kernel,
                h1,
                h1,
            ),
        });
        let primary_conv = conv_ops(
            cfg.conv1_filters,
            cfg.primary_ctypes * cfg.primary_dim,
            cfg.primary_kernel,
            hp,
            hp,
        );
        let primary_squash = squash_ops(cfg.primary_ctypes, cfg.primary_dim, hp * hp);
        out.push(LayerCensus {
            name: "PrimaryCaps".into(),
            ops: primary_conv + primary_squash,
        });
        let i = cfg.primary_caps_total();
        let votes = fc_votes_ops(i, cfg.class_caps, cfg.class_dim, cfg.primary_dim);
        let routing = routing_ops(i, cfg.class_caps, cfg.class_dim, 1, cfg.routing_iters);
        out.push(LayerCensus {
            name: "ClassCaps".into(),
            ops: votes + routing,
        });
        out
    }
}

// =====================================================================
// DeepCaps (Rajasegaran et al., CVPR 2019)
// =====================================================================

/// One residual capsule cell: a stride-2 lead conv-caps, two more
/// conv-caps on the main path, a skip conv-caps, and a squash at the join.
#[derive(Debug, Clone)]
pub struct CapsCell {
    lead: ConvCaps2d,
    mid: ConvCaps2d,
    tail: ConvCaps2d,
    skip: ConvCaps2d,
    /// Pre-squash sum cached for backward.
    sum_cache: Option<Tensor>,
    out_shape: Option<[usize; 4]>,
}

impl CapsCell {
    /// The stride-`s` lead conv-caps entering the cell (squashing).
    pub fn lead(&self) -> &ConvCaps2d {
        &self.lead
    }

    /// The second main-path conv-caps (squashing).
    pub fn mid(&self) -> &ConvCaps2d {
        &self.mid
    }

    /// The third main-path conv-caps (pre-activation; the squash
    /// happens at the residual join).
    pub fn tail(&self) -> &ConvCaps2d {
        &self.tail
    }

    /// The skip-path conv-caps (pre-activation).
    pub fn skip(&self) -> &ConvCaps2d {
        &self.skip
    }

    fn forward(&mut self, x: &Tensor, injector: &mut dyn Injector) -> Tensor {
        let a = self.lead.forward(x, injector);
        let b = self.mid.forward(&a, injector);
        let t_pre = self.tail.forward(&b, injector);
        let s_pre = self.skip.forward(&a, injector);
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        let sum = t_pre.add(&s_pre).expect("residual shapes match");
        let shape = [
            sum.shape()[0],
            sum.shape()[1],
            sum.shape()[2],
            sum.shape()[3],
        ];
        let p = shape[2] * shape[3];
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        let sum3 = sum.reshape(&[shape[0], shape[1], p]).expect("caps fold");
        let mut v = squash_caps(&sum3);
        injector.inject(
            &OpSite::new(
                self.tail.layer_index(),
                self.tail.name().to_string(),
                OpKind::Activation,
            ),
            &mut v,
        );
        self.sum_cache = Some(sum3);
        self.out_shape = Some(shape);
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        v.into_reshaped(&shape).expect("spatial unfold")
    }

    fn backward(&mut self, d_out: &Tensor) -> Tensor {
        // lint: allow(panic) — API contract: backward() consumes the cache that forward() stores
        let sum3 = self.sum_cache.take().expect("cell backward before forward");
        // lint: allow(panic) — API contract: set together with sum_cache in forward()
        let shape = self.out_shape.expect("cached with sum");
        let p = shape[2] * shape[3];
        let dv = d_out
            .reshape(&[shape[0], shape[1], p])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("gradient fold");
        let dsum = squash_caps_backward(&sum3, &dv)
            .into_reshaped(&shape)
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("spatial unfold");
        let db = self.tail.backward(&dsum);
        let da_skip = self.skip.backward(&dsum);
        let da_main = self.mid.backward(&db);
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        let da = da_main.add(&da_skip).expect("shapes match");
        self.lead.backward(&da)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.lead.params_mut();
        out.extend(self.mid.params_mut());
        out.extend(self.tail.params_mut());
        out.extend(self.skip.params_mut());
        out
    }
}

/// DeepCaps: conv-caps stem, three residual capsule cells, a final cell
/// whose third unit is the routing `Caps3D`, and a ClassCaps head fed by
/// the concatenated Caps3D + skip capsules (Fig. 2 of the ReD-CaNe paper).
#[derive(Debug, Clone)]
pub struct DeepCaps {
    cfg: DeepCapsConfig,
    stem: ConvCaps2d,
    cells: Vec<CapsCell>,
    last_lead: ConvCaps2d,
    last_mid: ConvCaps2d,
    last_skip: ConvCaps2d,
    caps3d: ConvCaps3d,
    class_caps: ClassCaps,
    final_hw: usize,
    v_cache: Option<Tensor>,
    caps3d_units: usize,
}

impl DeepCaps {
    /// Builds a DeepCaps with freshly initialized weights.
    pub fn new(cfg: &DeepCapsConfig, rng: &mut TensorRng) -> Self {
        let (sc, sd) = cfg.stem;
        let stem = ConvCaps2d::new(
            0,
            "Conv2D",
            cfg.input_channels,
            1,
            sc,
            sd,
            3,
            1,
            1,
            true,
            rng,
        );
        let mut cells = Vec::new();
        let mut in_caps = (sc, sd);
        for cell_idx in 0..3 {
            let (c, d) = cfg.cells[cell_idx];
            let base = 1 + cell_idx * 4;
            let name = |off: usize| format!("Caps2D{}", base + off);
            let lead = ConvCaps2d::new(
                base,
                name(0),
                in_caps.0,
                in_caps.1,
                c,
                d,
                3,
                cfg.cell_strides[cell_idx],
                1,
                true,
                rng,
            );
            let mid = ConvCaps2d::new(base + 1, name(1), c, d, c, d, 3, 1, 1, true, rng);
            let tail = ConvCaps2d::new(base + 2, name(2), c, d, c, d, 3, 1, 1, false, rng);
            let skip = ConvCaps2d::new(base + 3, name(3), c, d, c, d, 3, 1, 1, false, rng);
            cells.push(CapsCell {
                lead,
                mid,
                tail,
                skip,
                sum_cache: None,
                out_shape: None,
            });
            in_caps = (c, d);
        }
        let (c4, d4) = cfg.cells[3];
        let last_lead = ConvCaps2d::new(
            13,
            "Caps2D13",
            in_caps.0,
            in_caps.1,
            c4,
            d4,
            3,
            cfg.cell_strides[3],
            1,
            true,
            rng,
        );
        let last_mid = ConvCaps2d::new(14, "Caps2D14", c4, d4, c4, d4, 3, 1, 1, true, rng);
        let last_skip = ConvCaps2d::new(15, "Caps2D15", c4, d4, c4, d4, 3, 1, 1, true, rng);
        let caps3d = ConvCaps3d::new(
            16,
            "Caps3D",
            c4,
            d4,
            c4,
            d4,
            3,
            1,
            1,
            cfg.routing_iters,
            rng,
        );
        let final_hw = cfg.final_hw();
        let caps3d_units = c4 * final_hw * final_hw;
        let total_units = 2 * caps3d_units; // Caps3D + skip capsules
        let class_caps = ClassCaps::new(
            17,
            "ClassCaps",
            total_units,
            cfg.class_caps,
            d4,
            cfg.class_dim,
            cfg.routing_iters,
            rng,
        );
        DeepCaps {
            cfg: cfg.clone(),
            stem,
            cells,
            last_lead,
            last_mid,
            last_skip,
            caps3d,
            class_caps,
            final_hw,
            v_cache: None,
            caps3d_units,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &DeepCapsConfig {
        &self.cfg
    }

    /// The stem conv-caps layer (weight export).
    pub fn stem(&self) -> &ConvCaps2d {
        &self.stem
    }

    /// The three residual capsule cells, in network order.
    pub fn cells(&self) -> &[CapsCell] {
        &self.cells
    }

    /// The final cell's lead conv-caps.
    pub fn last_lead(&self) -> &ConvCaps2d {
        &self.last_lead
    }

    /// The final cell's mid conv-caps.
    pub fn last_mid(&self) -> &ConvCaps2d {
        &self.last_mid
    }

    /// The final cell's skip conv-caps.
    pub fn last_skip(&self) -> &ConvCaps2d {
        &self.last_skip
    }

    /// The routing 3-D conv-caps unit.
    pub fn caps3d(&self) -> &ConvCaps3d {
        &self.caps3d
    }

    /// The class-capsule head (weight export).
    pub fn class_caps(&self) -> &ClassCaps {
        &self.class_caps
    }
}

impl CapsModel for DeepCaps {
    fn name(&self) -> String {
        format!(
            "DeepCaps[{}x{}x{}]",
            self.cfg.input_channels, self.cfg.input_hw, self.cfg.input_hw
        )
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn num_classes(&self) -> usize {
        self.cfg.class_caps
    }

    fn stages(&self) -> usize {
        self.cells.len() + 3
    }

    fn forward_stage(&mut self, stage: usize, x: &Tensor, injector: &mut dyn Injector) -> Tensor {
        let cells = self.cells.len();
        match stage {
            // The conv-caps stem on the image.
            0 => {
                assert_eq!(
                    x.shape(),
                    [
                        self.cfg.input_channels,
                        self.cfg.input_hw,
                        self.cfg.input_hw
                    ],
                    "DeepCaps input"
                );
                let (h, w) = (x.shape()[1], x.shape()[2]);
                let caps_in = x
                    .reshape(&[self.cfg.input_channels, 1, h, w])
                    // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                    .expect("image to caps");
                self.stem.forward(&caps_in, injector)
            }
            // The residual cells.
            s if s <= cells => self.cells[s - 1].forward(x, injector),
            // The last cell → Caps3D and skip capsules as concatenated units.
            s if s == cells + 1 => {
                let a = self.last_lead.forward(x, injector);
                let b = self.last_mid.forward(&a, injector);
                let c3 = self.caps3d.forward(&b, injector);
                let d = self.last_skip.forward(&a, injector);
                let u3 = caps_to_units(&c3);
                let us = caps_to_units(&d);
                // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                Tensor::concat(&[&u3, &us], 0).expect("unit concat")
            }
            // ClassCaps → lengths.
            s if s == cells + 2 => {
                let v = self.class_caps.forward(x, injector);
                let lengths = class_lengths(&v, self.cfg.class_caps, self.cfg.class_dim);
                self.v_cache = Some(v);
                lengths
            }
            // lint: allow(panic) — API contract: callers stay below stages()
            _ => panic!("DeepCaps has {} stages, got stage {stage}", cells + 3),
        }
    }

    fn backward_from_lengths(&mut self, d_lengths: &Tensor) {
        // lint: allow(panic) — API contract: backward() consumes the cache that forward() stores
        let v = self.v_cache.take().expect("backward before forward");
        let v3 = v
            .reshape(&[self.cfg.class_caps, self.cfg.class_dim, 1])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("caps form");
        let dl = d_lengths
            .reshape(&[self.cfg.class_caps, 1])
            // lint: allow(panic) — shape invariant: the gradient was built as [C, P] right here
            .expect("[C, P] gradient");
        let dv = caps_lengths_backward(&v3, &dl)
            .into_reshaped(&[self.cfg.class_caps, self.cfg.class_dim])
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("drop P");
        let du = self.class_caps.backward(&dv);
        let (c4, d4) = self.cfg.cells[3];
        let hw = self.final_hw;
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        let du3 = du.slice_axis(0, 0, self.caps3d_units).expect("caps3d part");
        let dus = du
            .slice_axis(0, self.caps3d_units, 2 * self.caps3d_units)
            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
            .expect("skip part");
        let dc3 = units_to_caps(&du3, c4, d4, hw, hw);
        let dd = units_to_caps(&dus, c4, d4, hw, hw);
        let db = self.caps3d.backward(&dc3);
        let da_skip = self.last_skip.backward(&dd);
        let da_main = self.last_mid.backward(&db);
        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
        let da = da_main.add(&da_skip).expect("shapes match");
        let mut dt = self.last_lead.backward(&da);
        for cell in self.cells.iter_mut().rev() {
            dt = cell.backward(&dt);
        }
        let _ = self.stem.backward(&dt);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.stem.params_mut();
        for cell in &mut self.cells {
            out.extend(cell.params_mut());
        }
        out.extend(self.last_lead.params_mut());
        out.extend(self.last_mid.params_mut());
        out.extend(self.last_skip.params_mut());
        out.extend(self.caps3d.params_mut());
        out.extend(self.class_caps.params_mut());
        out
    }

    fn layer_names(&self) -> Vec<String> {
        let mut names = vec!["Conv2D".to_string()];
        for i in 1..=15 {
            names.push(format!("Caps2D{i}"));
        }
        names.push("Caps3D".to_string());
        names.push("ClassCaps".to_string());
        names
    }

    fn op_census(&self) -> Vec<LayerCensus> {
        let cfg = &self.cfg;
        let mut out = Vec::new();
        let (sc, sd) = cfg.stem;
        let hw0 = cfg.input_hw;
        out.push(LayerCensus {
            name: "Conv2D".into(),
            ops: conv_ops(cfg.input_channels, sc * sd, 3, hw0, hw0) + squash_ops(sc, sd, hw0 * hw0),
        });
        let cell_hw = cfg.cell_input_hw();
        let mut in_ch = sc * sd;
        // The index addresses three parallel per-cell arrays
        // (`cells`, `cell_strides`, `cell_hw`), so a range loop is
        // clearer than zipping them.
        #[allow(clippy::needless_range_loop)]
        for cell_idx in 0..3 {
            let (c, d) = cfg.cells[cell_idx];
            let ch = c * d;
            let hw_out = cell_hw[cell_idx].div_ceil(cfg.cell_strides[cell_idx]);
            let base = 1 + cell_idx * 4;
            // lead (stride 2, squash)
            out.push(LayerCensus {
                name: format!("Caps2D{base}"),
                ops: conv_ops(in_ch, ch, 3, hw_out, hw_out) + squash_ops(c, d, hw_out * hw_out),
            });
            // mid (squash)
            out.push(LayerCensus {
                name: format!("Caps2D{}", base + 1),
                ops: conv_ops(ch, ch, 3, hw_out, hw_out) + squash_ops(c, d, hw_out * hw_out),
            });
            // tail (pre-activation; squash happens at the join, counted here)
            out.push(LayerCensus {
                name: format!("Caps2D{}", base + 2),
                ops: conv_ops(ch, ch, 3, hw_out, hw_out)
                    + squash_ops(c, d, hw_out * hw_out)
                    + OpCount {
                        add: (ch * hw_out * hw_out) as u64, // residual join
                        ..Default::default()
                    },
            });
            // skip
            out.push(LayerCensus {
                name: format!("Caps2D{}", base + 3),
                ops: conv_ops(ch, ch, 3, hw_out, hw_out),
            });
            in_ch = ch;
        }
        let (c4, d4) = cfg.cells[3];
        let ch4 = c4 * d4;
        let hw4 = cfg.final_hw();
        out.push(LayerCensus {
            name: "Caps2D13".into(),
            ops: conv_ops(in_ch, ch4, 3, hw4, hw4) + squash_ops(c4, d4, hw4 * hw4),
        });
        out.push(LayerCensus {
            name: "Caps2D14".into(),
            ops: conv_ops(ch4, ch4, 3, hw4, hw4) + squash_ops(c4, d4, hw4 * hw4),
        });
        out.push(LayerCensus {
            name: "Caps2D15".into(),
            ops: conv_ops(ch4, ch4, 3, hw4, hw4) + squash_ops(c4, d4, hw4 * hw4),
        });
        // Caps3D: per-type vote convs + routing over [I=c4, J=c4, D=d4, P].
        let p4 = hw4 * hw4;
        let caps3d_votes: OpCount = (0..c4).map(|_| conv_ops(d4, c4 * d4, 3, hw4, hw4)).sum();
        out.push(LayerCensus {
            name: "Caps3D".into(),
            ops: caps3d_votes + routing_ops(c4, c4, d4, p4, cfg.routing_iters),
        });
        let i_units = 2 * c4 * p4;
        out.push(LayerCensus {
            name: "ClassCaps".into(),
            ops: fc_votes_ops(i_units, cfg.class_caps, cfg.class_dim, d4)
                + routing_ops(i_units, cfg.class_caps, cfg.class_dim, 1, cfg.routing_iters),
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::RecordingInjector;

    #[test]
    fn capsnet_forward_shape_and_determinism() {
        let mut rng = TensorRng::from_seed(160);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let x = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        let l1 = model.forward(&x, &mut NoInjection);
        let l2 = model.forward(&x, &mut NoInjection);
        assert_eq!(l1.shape(), &[10]);
        assert_eq!(l1, l2, "inference must be deterministic");
        assert!(l1.data().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn capsnet_sites_cover_all_groups_and_layers() {
        let mut rng = TensorRng::from_seed(161);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let x = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        let mut rec = RecordingInjector::sites_only();
        let _ = model.forward(&x, &mut rec);
        let sites = rec.distinct_sites();
        for kind in [
            OpKind::MacOutput,
            OpKind::Activation,
            OpKind::Softmax,
            OpKind::LogitsUpdate,
        ] {
            assert!(sites.iter().any(|s| s.kind == kind), "missing {kind}");
        }
        for name in model.layer_names() {
            assert!(
                sites.iter().any(|s| s.layer_name == name),
                "no sites for layer {name}"
            );
        }
        // Softmax/logits-update only in the routing layer.
        assert!(sites
            .iter()
            .filter(|s| s.kind == OpKind::Softmax || s.kind == OpKind::LogitsUpdate)
            .all(|s| s.layer_name == "ClassCaps"));
    }

    /// The stage contract: `forward` equals a manual fold of
    /// `forward_stage` (and `forward_from` resumes mid-way to the same
    /// lengths), and the stages' visits, concatenated, are a full
    /// forward's visits — every site in exactly one stage, in order.
    fn assert_stage_contract(model: &mut dyn CapsModel, x: &Tensor, stages: usize) {
        assert_eq!(model.stages(), stages);
        let mut full_rec = RecordingInjector::sites_only();
        let full = model.forward(x, &mut full_rec);
        let mut inputs = vec![x.clone()];
        let mut staged_visits = Vec::new();
        let mut per_stage = Vec::new();
        for stage in 0..stages {
            let mut rec = RecordingInjector::sites_only();
            let out = model.forward_stage(stage, &inputs[stage], &mut rec);
            assert!(!rec.visits.is_empty(), "stage {stage} visits no site");
            per_stage.push(rec.distinct_sites());
            staged_visits.extend(rec.visits);
            inputs.push(out);
        }
        assert_eq!(staged_visits, full_rec.visits);
        assert_eq!(inputs[stages], full);
        for (stage, input) in inputs[..stages].iter().enumerate() {
            assert_eq!(model.forward_from(stage, input, &mut NoInjection), full);
        }
        for (i, a) in per_stage.iter().enumerate() {
            for b in &per_stage[i + 1..] {
                assert!(a.iter().all(|site| !b.contains(site)), "site in two stages");
            }
        }
    }

    #[test]
    fn capsnet_forward_is_the_fold_of_its_stages() {
        let mut rng = TensorRng::from_seed(169);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let x = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        assert_stage_contract(&mut model, &x, 3);
    }

    #[test]
    fn deepcaps_forward_is_the_fold_of_its_stages() {
        let mut rng = TensorRng::from_seed(170);
        let mut model = DeepCaps::new(&DeepCapsConfig::small(3, 20), &mut rng);
        let x = rng.uniform(&[3, 20, 20], 0.0, 1.0);
        assert_stage_contract(&mut model, &x, 6);
    }

    #[test]
    #[should_panic(expected = "3 stages")]
    fn stage_past_the_last_panics() {
        let mut rng = TensorRng::from_seed(171);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let x = rng.uniform(&[10, 8], 0.0, 1.0);
        let _ = model.forward_stage(3, &x, &mut NoInjection);
    }

    #[test]
    fn capsnet_backward_accumulates_all_grads() {
        let mut rng = TensorRng::from_seed(162);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let x = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        model.zero_grad();
        let lengths = model.forward(&x, &mut NoInjection);
        let dl = Tensor::ones(lengths.shape());
        model.backward_from_lengths(&dl);
        for (i, p) in model.params_mut().into_iter().enumerate() {
            assert!(p.grad.sq_norm() > 0.0, "param {i} received no gradient");
        }
    }

    #[test]
    fn deepcaps_forward_shape_and_site_coverage() {
        let mut rng = TensorRng::from_seed(163);
        let mut model = DeepCaps::new(&DeepCapsConfig::small(3, 20), &mut rng);
        let x = rng.uniform(&[3, 20, 20], 0.0, 1.0);
        let mut rec = RecordingInjector::sites_only();
        let lengths = model.forward(&x, &mut rec);
        assert_eq!(lengths.shape(), &[10]);
        let sites = rec.distinct_sites();
        // 18 layer names, all visited.
        let names = model.layer_names();
        assert_eq!(names.len(), 18);
        for name in &names {
            assert!(
                sites.iter().any(|s| &s.layer_name == name),
                "no sites for {name}"
            );
        }
        // Two routing layers: Caps3D and ClassCaps.
        let routing_layers: std::collections::HashSet<_> = sites
            .iter()
            .filter(|s| s.kind == OpKind::Softmax)
            .map(|s| s.layer_name.clone())
            .collect();
        assert_eq!(routing_layers.len(), 2);
        assert!(routing_layers.contains("Caps3D"));
        assert!(routing_layers.contains("ClassCaps"));
    }

    #[test]
    fn deepcaps_backward_reaches_stem() {
        let mut rng = TensorRng::from_seed(164);
        let mut model = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);
        let x = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        model.zero_grad();
        let lengths = model.forward(&x, &mut NoInjection);
        model.backward_from_lengths(&Tensor::ones(lengths.shape()));
        let nonzero = model
            .params_mut()
            .into_iter()
            .filter(|p| p.grad.sq_norm() > 0.0)
            .count();
        let total = model.params_mut().len();
        assert!(
            nonzero == total,
            "{nonzero}/{total} params received gradient"
        );
    }

    #[test]
    fn deepcaps_census_is_mul_dominated_and_conv_heavy() {
        let mut rng = TensorRng::from_seed(165);
        let model = DeepCaps::new(&DeepCapsConfig::paper(), &mut rng);
        let census = model.op_census();
        assert_eq!(census.len(), 18);
        let total: OpCount = census.iter().map(|l| l.ops).sum();
        // Table I shape: ~10^9 muls/adds, 10^6-ish divs, muls >> others.
        assert!(total.mul > 1_000_000_000, "mul {}", total.mul);
        assert!(total.mul >= total.add / 2);
        assert!(total.div < total.mul / 100);
        assert!(total.exp < total.mul / 100);
        assert!(total.sqrt < total.mul / 100);
    }

    #[test]
    fn capsnet_paper_census_magnitudes() {
        let mut rng = TensorRng::from_seed(166);
        let model = CapsNet::new(&CapsNetConfig::paper(), &mut rng);
        let total: OpCount = model.op_census().iter().map(|l| l.ops).sum();
        // Sabour CapsNet is ~100M-1G MACs.
        assert!(total.mul > 50_000_000);
        assert!(total.div > 0 && total.sqrt > 0 && total.exp > 0);
    }

    #[test]
    fn caps_units_round_trip() {
        let mut rng = TensorRng::from_seed(167);
        let t = rng.uniform(&[3, 4, 2, 5], -1.0, 1.0);
        let u = caps_to_units(&t);
        assert_eq!(u.shape(), &[30, 4]);
        let back = units_to_caps(&u, 3, 4, 2, 5);
        assert_eq!(back, t);
    }

    #[test]
    fn predict_returns_argmax() {
        let mut rng = TensorRng::from_seed(168);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let x = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        let lengths = model.forward(&x, &mut NoInjection);
        assert_eq!(model.predict(&x), lengths.argmax().unwrap());
    }
}
