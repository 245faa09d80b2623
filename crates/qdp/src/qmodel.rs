//! [`QModel`]: end-to-end quantized inference for **any** capsule
//! architecture, assembled from the generic lowering pipeline and
//! executed under a heterogeneous per-site multiplier assignment.
//!
//! A `QModel` is a small dataflow program over the quantized layer
//! primitives of [`crate::qlayers`] plus the float glue an accelerator
//! computes exactly (ReLU, residual join + squash, capsule→unit
//! reordering, concatenation, capsule lengths). Lowering walks a
//! trained float model's layer graph, lowers every layer in one step
//! with the calibrated [`QuantRanges`] ([`QConvCaps2d::lower`] and its
//! siblings; `Conv1` through [`QConv2d::from_conv`]), and emits steps
//! that remember their **site** — the same `(layer, op kind,
//! in-routing)` keys the ranges are stored under. Execution first
//! resolves, once per assignment (and optional fault plan), which
//! multiplier serves each site's MACs from a [`DatapathAssignment`] and
//! a [`LutCache`] (one shared 64 KiB table per distinct component) —
//! [`PreparedModel`] holds that resolution, [`evaluate_quantized`]
//! scores a dataset with it — so a single lowered model runs anything
//! from the uniform exact baseline to the methodology's full
//! heterogeneous Step-6 design.
//!
//! Both of the paper's architectures lower onto the same step set:
//! CapsNet is 4 steps, the 17-layer DeepCaps (Caps3D routing included)
//! is 24 — no per-architecture execution code.

use std::borrow::Cow;
use std::sync::Arc;

use redcane::datapath::{BackendError, DatapathAssignment, SiteKey};
use redcane::faults::{FaultModel, FaultPlan, FaultTarget};
use redcane_axmul::{LutCache, MulLut};
use redcane_capsnet::inject::OpKind;
use redcane_capsnet::model::caps_to_units;
use redcane_capsnet::squash::{caps_lengths, squash_caps};
use redcane_capsnet::{CapsModel, CapsNet, DeepCaps};
use redcane_datasets::Dataset;
use redcane_tensor::{par, Tensor};
use redcane_trace as trace;

use crate::faults::{faulted_site_lut, AccFault, MacView};
use crate::lower::{quant_err, LowerError, QuantRanges};
use crate::qlayers::{QClassCaps, QConv2d, QConvCaps2d, QConvCaps3d};

/// Samples fused per wide GEMM when evaluating a dataset
/// ([`evaluate_quantized`]); bounds the fused-column scratch while
/// keeping the batch wide enough to amortize tile setup.
const EVAL_BATCH: usize = 16;

/// One step of a quantized dataflow program. `src`/`a`/`b` index the
/// value produced by that step of the program (step 0's input is the
/// network input, value 0; step `i` produces value `i + 1`). MAC steps
/// carry `site`, the layer name their multiplier sites resolve under.
#[derive(Debug, Clone)]
pub enum QStep {
    /// Plain convolution (+ optional ReLU) on the quantized GEMM.
    Conv {
        /// Site (layer) name of the convolution's MACs.
        site: String,
        /// The quantized convolution.
        conv: QConv2d,
        /// Apply a float ReLU to the output (SFU).
        relu: bool,
        /// Input value index.
        src: usize,
    },
    /// 2-D conv-caps (conv on codes, optional float squash).
    CapsConv {
        /// Site (layer) name of the convolution's MACs.
        site: String,
        /// The quantized conv-caps layer.
        layer: QConvCaps2d,
        /// Input value index.
        src: usize,
    },
    /// Routing 3-D conv-caps (votes + routing MACs on codes).
    Caps3d {
        /// Site (layer) name of the vote and routing MACs.
        site: String,
        /// The quantized routing conv-caps layer.
        layer: QConvCaps3d,
        /// Input value index.
        src: usize,
    },
    /// Residual join: elementwise add then per-capsule squash (float).
    AddSquash {
        /// Left operand value index.
        a: usize,
        /// Right operand value index.
        b: usize,
    },
    /// `[C, D, H, W]` capsules → `[C·H·W, D]` units (pure reorder).
    ToUnits {
        /// Input value index.
        src: usize,
    },
    /// Concatenate two unit tensors along the capsule axis.
    ConcatUnits {
        /// First operand value index.
        a: usize,
        /// Second operand value index.
        b: usize,
    },
    /// Fully-connected class capsules (votes + routing MACs on codes).
    ClassCaps {
        /// Site (layer) name of the vote and routing MACs.
        site: String,
        /// The quantized class-capsule layer.
        layer: QClassCaps,
        /// Input value index.
        src: usize,
    },
}

impl QStep {
    /// The site (layer) name of the step's MACs; `None` for float glue.
    fn site(&self) -> Option<&str> {
        match self {
            QStep::Conv { site, .. }
            | QStep::CapsConv { site, .. }
            | QStep::Caps3d { site, .. }
            | QStep::ClassCaps { site, .. } => Some(site),
            QStep::AddSquash { .. } | QStep::ToUnits { .. } | QStep::ConcatUnits { .. } => None,
        }
    }

    /// Span label for the profiler: the MAC site name where the step
    /// has one, the glue-step kind otherwise.
    fn span_name(&self) -> &str {
        match self {
            QStep::Conv { site, .. }
            | QStep::CapsConv { site, .. }
            | QStep::Caps3d { site, .. }
            | QStep::ClassCaps { site, .. } => site,
            QStep::AddSquash { .. } => "add_squash",
            QStep::ToUnits { .. } => "to_units",
            QStep::ConcatUnits { .. } => "concat_units",
        }
    }
}

/// One MAC site's resolved execution state: the table serving its
/// multiplies (base, or a faulted view of it) plus an optional
/// accumulator fault. Owned (`Arc` for the shared base tables) because
/// faulted views are derived per resolution, not held by the cache.
#[derive(Clone)]
pub(crate) struct MacExec {
    lut: Arc<MulLut>,
    acc: Option<AccFault>,
}

impl MacExec {
    fn view(&self) -> MacView<'_> {
        MacView {
            lut: &self.lut,
            acc: self.acc.as_ref(),
        }
    }
}

/// A step's multiplier sites, resolved from an assignment (and,
/// optionally, a fault plan).
#[derive(Clone)]
pub(crate) enum StepExec {
    /// No MACs in this step (pure float glue).
    None,
    /// One MAC site: the convolution / vote GEMM.
    Mac(MacExec),
    /// A routing step's three sites: vote GEMM, weighted sum,
    /// agreement dot.
    Routing {
        mac: MacExec,
        sum: MacExec,
        agree: MacExec,
    },
}

/// A fully resolved program: per-step execution state plus the sites
/// the fail-soft policy downgraded to the exact multiplier because the
/// fault plan left them dead.
pub(crate) struct Resolution {
    pub(crate) execs: Vec<StepExec>,
    pub(crate) downgraded: Vec<SiteKey>,
}

/// Per-site resolution policy shared by every step: assignment lookup,
/// fault application, and dead-site handling.
struct Resolver<'a> {
    assignment: &'a DatapathAssignment,
    luts: &'a LutCache,
    plan: Option<&'a FaultPlan>,
    fail_soft: bool,
    downgraded: Vec<SiteKey>,
}

impl Resolver<'_> {
    fn exec_for(
        &mut self,
        site: &str,
        kind: OpKind,
        in_routing: bool,
    ) -> Result<MacExec, BackendError> {
        let component = self
            .assignment
            .component_for(site, kind, in_routing)
            .ok_or(BackendError::UnassignedSite {
                layer: site.to_string(),
                kind,
                in_routing,
            })?;
        let base = self
            .luts
            .get_arc(component)
            .ok_or_else(|| BackendError::UnknownComponent {
                component: component.to_string(),
            })?;
        let Some((plan, fault)) = self
            .plan
            .and_then(|p| Some((p, p.active_fault_for(site, kind, in_routing)?)))
        else {
            return Ok(MacExec {
                lut: base,
                acc: None,
            });
        };
        if trace::enabled() {
            trace::add(trace::Counter::FaultSitesApplied, 1);
        }
        let seed = plan.site_seed(site, kind, in_routing);
        // Weight-code and (non-dead) accumulator faults don't touch the
        // table: the former is applied to the stored codes by
        // [`QModel::with_fault_plan`], the latter rides along as an
        // [`AccFault`].
        if !matches!(fault.model, FaultModel::DeadOutput) {
            match fault.target {
                FaultTarget::WeightCodes => {
                    return Ok(MacExec {
                        lut: base,
                        acc: None,
                    });
                }
                FaultTarget::Accumulator => {
                    return Ok(MacExec {
                        lut: base,
                        acc: Some(AccFault::new(fault.model, seed)),
                    });
                }
                FaultTarget::Multiplier | FaultTarget::ActivationCodes => {}
            }
        }
        let faulted = faulted_site_lut(&base, fault, seed);
        if !faulted.is_dead() {
            return Ok(MacExec {
                lut: Arc::new(faulted),
                acc: None,
            });
        }
        // The site cannot produce signal. Fail-soft swaps in the exact
        // multiplier (the accelerator's fallback array) and reports the
        // downgrade; strict mode refuses to run.
        if self.fail_soft {
            self.downgraded.push((site.to_string(), kind, in_routing));
            Ok(MacExec {
                lut: Arc::new(MulLut::exact()),
                acc: None,
            })
        } else {
            Err(BackendError::DeadSite {
                layer: site.to_string(),
                kind,
                in_routing,
            })
        }
    }
}

/// A trained capsule model lowered onto the quantized datapath: same
/// weights, but every MAC runs on 8-bit codes through per-site
/// pluggable multiplier models. Architecture-generic — built from any
/// [`CapsModel`] with a registered lowering plus calibrated
/// [`QuantRanges`].
#[derive(Debug, Clone)]
pub struct QModel {
    arch: String,
    input_shape: [usize; 3],
    num_classes: usize,
    steps: Vec<QStep>,
}

impl QModel {
    /// Lowers a trained model onto the quantized datapath with
    /// pre-computed calibration ranges.
    ///
    /// Dispatches on the concrete architecture behind the trait object
    /// ([`CapsModel::as_any`]); each registered architecture only
    /// contributes a step-graph builder — the per-layer lowering and
    /// the execution are shared.
    ///
    /// # Errors
    ///
    /// [`LowerError::MissingRange`] when a layer's site was never
    /// calibrated, [`LowerError::Quantization`] on non-finite weights,
    /// or [`LowerError::UnsupportedArchitecture`] for a model without
    /// a registered lowering.
    pub fn lower(model: &dyn CapsModel, ranges: &QuantRanges) -> Result<Self, LowerError> {
        if let Some(m) = model.as_any().downcast_ref::<CapsNet>() {
            Self::lower_capsnet(m, ranges)
        } else if let Some(m) = model.as_any().downcast_ref::<DeepCaps>() {
            Self::lower_deepcaps(m, ranges)
        } else {
            Err(LowerError::UnsupportedArchitecture {
                model: model.name(),
            })
        }
    }

    fn lower_capsnet(model: &CapsNet, ranges: &QuantRanges) -> Result<Self, LowerError> {
        let cfg = model.config();
        let steps = vec![
            QStep::Conv {
                site: "Conv1".to_string(),
                conv: QConv2d::from_conv(model.conv1(), ranges.require("Conv1", OpKind::MacInput)?)
                    .map_err(quant_err("Conv1"))?,
                relu: true,
                src: 0,
            },
            QStep::CapsConv {
                site: model.primary().name().to_string(),
                layer: QConvCaps2d::lower(model.primary(), ranges)?,
                src: 1,
            },
            QStep::ToUnits { src: 2 },
            QStep::ClassCaps {
                site: model.class_caps().name().to_string(),
                layer: QClassCaps::lower(model.class_caps(), ranges)?,
                src: 3,
            },
        ];
        Ok(QModel {
            arch: model.name(),
            input_shape: [cfg.input_channels, cfg.input_hw, cfg.input_hw],
            num_classes: cfg.class_caps,
            steps,
        })
    }

    fn lower_deepcaps(model: &DeepCaps, ranges: &QuantRanges) -> Result<Self, LowerError> {
        let cfg = model.config();
        let mut steps = Vec::new();
        // Step i produces value i + 1; value 0 is the network input.
        let push = |steps: &mut Vec<QStep>, step: QStep| -> usize {
            steps.push(step);
            steps.len()
        };
        let caps_conv = |layer: &redcane_capsnet::layers::ConvCaps2d,
                         src: usize|
         -> Result<QStep, LowerError> {
            Ok(QStep::CapsConv {
                site: layer.name().to_string(),
                layer: QConvCaps2d::lower(layer, ranges)?,
                src,
            })
        };
        let mut t = push(&mut steps, caps_conv(model.stem(), 0)?);
        for cell in model.cells() {
            let a = push(&mut steps, caps_conv(cell.lead(), t)?);
            let b = push(&mut steps, caps_conv(cell.mid(), a)?);
            let main = push(&mut steps, caps_conv(cell.tail(), b)?);
            let skip = push(&mut steps, caps_conv(cell.skip(), a)?);
            t = push(&mut steps, QStep::AddSquash { a: main, b: skip });
        }
        let a = push(&mut steps, caps_conv(model.last_lead(), t)?);
        let b = push(&mut steps, caps_conv(model.last_mid(), a)?);
        let c3 = push(
            &mut steps,
            QStep::Caps3d {
                site: model.caps3d().name().to_string(),
                layer: QConvCaps3d::lower(model.caps3d(), ranges)?,
                src: b,
            },
        );
        let skip = push(&mut steps, caps_conv(model.last_skip(), a)?);
        let u3 = push(&mut steps, QStep::ToUnits { src: c3 });
        let us = push(&mut steps, QStep::ToUnits { src: skip });
        let u = push(&mut steps, QStep::ConcatUnits { a: u3, b: us });
        push(
            &mut steps,
            QStep::ClassCaps {
                site: model.class_caps().name().to_string(),
                layer: QClassCaps::lower(model.class_caps(), ranges)?,
                src: u,
            },
        );
        Ok(QModel {
            arch: model.name(),
            input_shape: [cfg.input_channels, cfg.input_hw, cfg.input_hw],
            num_classes: cfg.class_caps,
            steps,
        })
    }

    /// The lowered model's display name.
    pub fn arch(&self) -> &str {
        &self.arch
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The dataflow program (introspection / cost accounting).
    pub fn steps(&self) -> &[QStep] {
        &self.steps
    }

    /// Every multiplier site the program executes, in program order:
    /// `(layer, op kind, in-routing)` — the keys a
    /// [`DatapathAssignment`] must cover.
    pub fn multiply_sites(&self) -> Vec<(String, OpKind, bool)> {
        let mut out = Vec::new();
        for step in &self.steps {
            match step {
                QStep::Conv { site, .. } | QStep::CapsConv { site, .. } => {
                    out.push((site.clone(), OpKind::MacOutput, false));
                }
                QStep::Caps3d { site, .. } | QStep::ClassCaps { site, .. } => {
                    out.push((site.clone(), OpKind::MacOutput, false));
                    out.push((site.clone(), OpKind::MacOutput, true));
                    out.push((site.clone(), OpKind::LogitsUpdate, true));
                }
                QStep::AddSquash { .. } | QStep::ToUnits { .. } | QStep::ConcatUnits { .. } => {}
            }
        }
        out
    }

    /// Resolves each step's execution state from the assignment, with
    /// an optional fault plan layered over it. With `fail_soft`, sites
    /// the plan leaves dead (see [`MulLut::is_dead`]) fall back to the
    /// exact multiplier and are reported in
    /// [`Resolution::downgraded`]; otherwise they fail with
    /// [`BackendError::DeadSite`]. The plan's weight-code faults are
    /// not realized here but in [`QModel::with_fault_plan`].
    pub(crate) fn resolve(
        &self,
        assignment: &DatapathAssignment,
        luts: &LutCache,
        plan: Option<&FaultPlan>,
        fail_soft: bool,
    ) -> Result<Resolution, BackendError> {
        let mut r = Resolver {
            assignment,
            luts,
            plan,
            fail_soft,
            downgraded: Vec::new(),
        };
        let execs = self
            .steps
            .iter()
            .map(|step| match step {
                QStep::Conv { site, .. } | QStep::CapsConv { site, .. } => {
                    Ok(StepExec::Mac(r.exec_for(site, OpKind::MacOutput, false)?))
                }
                QStep::Caps3d { site, .. } | QStep::ClassCaps { site, .. } => {
                    Ok(StepExec::Routing {
                        mac: r.exec_for(site, OpKind::MacOutput, false)?,
                        sum: r.exec_for(site, OpKind::MacOutput, true)?,
                        agree: r.exec_for(site, OpKind::LogitsUpdate, true)?,
                    })
                }
                QStep::AddSquash { .. } | QStep::ToUnits { .. } | QStep::ConcatUnits { .. } => {
                    Ok(StepExec::None)
                }
            })
            .collect::<Result<Vec<_>, BackendError>>()?;
        Ok(Resolution {
            execs,
            downgraded: r.downgraded,
        })
    }

    /// The model with `plan`'s **weight-code** faults burned into the
    /// stored 8-bit codes (zero-point-correction row sums recomputed —
    /// the correction adders read the same weight memory). All other
    /// fault targets are realized at resolution time; weight faults
    /// live in storage, so they need their own faulted copy. With no
    /// active weight fault this borrows `self` and copies nothing.
    pub fn with_fault_plan(&self, plan: &FaultPlan) -> Cow<'_, QModel> {
        // Weight memory backs the (non-routing) MAC-output site;
        // routing sites hold no stored codes.
        let weight_fault = |step: &QStep| {
            let site = step.site()?;
            plan.active_fault_for(site, OpKind::MacOutput, false)
                .filter(|f| {
                    f.target == FaultTarget::WeightCodes
                        && !matches!(f.model, FaultModel::DeadOutput)
                })
                .map(|f| (f.model, plan.site_seed(site, OpKind::MacOutput, false)))
        };
        if !self.steps.iter().any(|step| weight_fault(step).is_some()) {
            return Cow::Borrowed(self);
        }
        let mut faulted = self.clone();
        for step in &mut faulted.steps {
            let Some((model, seed)) = weight_fault(step) else {
                continue;
            };
            match step {
                QStep::Conv { conv, .. } => {
                    conv.fault_weight_codes(&model, seed, 0);
                }
                QStep::CapsConv { layer, .. } => {
                    layer.fault_weight_codes(&model, seed, 0);
                }
                QStep::Caps3d { layer, .. } => {
                    layer.fault_weight_codes(&model, seed, 0);
                }
                QStep::ClassCaps { layer, .. } => {
                    layer.fault_weight_codes(&model, seed, 0);
                }
                // Glue steps have no site, so no weight fault.
                QStep::AddSquash { .. } | QStep::ToUnits { .. } | QStep::ConcatUnits { .. } => {}
            }
        }
        Cow::Owned(faulted)
    }

    /// A deterministic sample of at most `max_len` quantized weight
    /// codes across every lowered layer, in program order — the
    /// empirical **weight-operand pool** for component
    /// characterization.
    pub fn weight_code_sample(&self, max_len: usize) -> Vec<u8> {
        let mut all: Vec<u8> = Vec::new();
        for step in &self.steps {
            match step {
                QStep::Conv { conv, .. } => all.extend_from_slice(conv.weight_codes()),
                QStep::CapsConv { layer, .. } => {
                    all.extend_from_slice(layer.conv().weight_codes());
                }
                QStep::Caps3d { layer, .. } => {
                    for conv in layer.convs() {
                        all.extend_from_slice(conv.weight_codes());
                    }
                }
                QStep::ClassCaps { layer, .. } => {
                    all.extend_from_slice(layer.votes().weight_codes());
                }
                QStep::AddSquash { .. } | QStep::ToUnits { .. } | QStep::ConcatUnits { .. } => {}
            }
        }
        if max_len == 0 {
            return Vec::new();
        }
        if all.len() <= max_len {
            return all;
        }
        let stride = all.len().div_ceil(max_len);
        all.into_iter().step_by(stride).collect()
    }

    /// The executor behind [`PreparedModel`], [`evaluate_quantized`]
    /// and the measured backends: values are per-sample columns of the
    /// dataflow program; MAC steps run fused across the batch, float
    /// glue runs per sample.
    pub(crate) fn forward_batch_resolved(
        &self,
        xs: &[&Tensor],
        resolved: &[StepExec],
    ) -> Vec<Tensor> {
        if xs.is_empty() {
            return Vec::new();
        }
        for x in xs {
            assert_eq!(x.shape(), self.input_shape, "QModel input");
        }
        let bsz = xs.len();
        let mut vals: Vec<Vec<Tensor>> = Vec::with_capacity(self.steps.len() + 1);
        vals.push(xs.iter().map(|x| (*x).clone()).collect());
        let _fwd = trace::span("qforward");
        for (step, exec) in self.steps.iter().zip(resolved) {
            let _step = trace::span(step.span_name());
            let ys: Vec<Tensor> = match (step, exec) {
                (
                    QStep::Conv {
                        conv, relu, src, ..
                    },
                    StepExec::Mac(m),
                ) => {
                    let inputs: Vec<&[f32]> = vals[*src].iter().map(|v| v.data()).collect();
                    let (h, w) = (vals[*src][0].shape()[1], vals[*src][0].shape()[2]);
                    conv.forward_batch(&inputs, h, w, m.view())
                        .into_iter()
                        .map(|mut y| {
                            if *relu {
                                for v in y.data_mut() {
                                    *v = v.max(0.0);
                                }
                            }
                            y
                        })
                        .collect()
                }
                (QStep::CapsConv { layer, src, .. }, StepExec::Mac(m)) => {
                    let inputs: Vec<&Tensor> = vals[*src].iter().collect();
                    layer.forward_batch(&inputs, m.view())
                }
                (QStep::Caps3d { layer, src, .. }, StepExec::Routing { mac, sum, agree }) => {
                    let inputs: Vec<&Tensor> = vals[*src].iter().collect();
                    layer.forward_batch(&inputs, mac.view(), sum.view(), agree.view())
                }
                (QStep::ClassCaps { layer, src, .. }, StepExec::Routing { mac, sum, agree }) => {
                    let inputs: Vec<&Tensor> = vals[*src].iter().collect();
                    layer.forward_batch(&inputs, mac.view(), sum.view(), agree.view())
                }
                (QStep::AddSquash { a, b }, _) => (0..bsz)
                    .map(|bi| {
                        let sum = vals[*a][bi]
                            .add(&vals[*b][bi])
                            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                            .expect("residual shapes match");
                        let (c, d, h, w) = (
                            sum.shape()[0],
                            sum.shape()[1],
                            sum.shape()[2],
                            sum.shape()[3],
                        );
                        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                        let s3 = sum.into_reshaped(&[c, d, h * w]).expect("caps fold");
                        squash_caps(&s3)
                            .into_reshaped(&[c, d, h, w])
                            // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                            .expect("spatial unfold")
                    })
                    .collect(),
                (QStep::ToUnits { src }, _) => vals[*src].iter().map(caps_to_units).collect(),
                (QStep::ConcatUnits { a, b }, _) => (0..bsz)
                    .map(|bi| {
                        // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                        Tensor::concat(&[&vals[*a][bi], &vals[*b][bi]], 0).expect("unit concat")
                    })
                    .collect(),
                // lint: allow(panic) — unreachable: resolve() pairs every MAC step with its luts
                _ => unreachable!("resolve() pairs every MAC step with its luts"),
            };
            vals.push(ys);
        }
        // The last step produces the class capsules [J, D]; their
        // lengths are the network output, computed exactly as the
        // float models compute them.
        // lint: allow(panic) — resolve() rejects empty programs, so at least one step ran
        let last = vals.last().expect("at least one step");
        last.iter()
            .map(|v| {
                let (j, d) = (v.shape()[0], v.shape()[1]);
                // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                let v3 = v.reshape(&[j, d, 1]).expect("caps form");
                // lint: allow(panic) — shape invariant: the buffer and dims are constructed to match right here
                caps_lengths(&v3).into_reshaped(&[j]).expect("drop P")
            })
            .collect()
    }
}

/// A [`QModel`] pre-resolved against one [`DatapathAssignment`] — the
/// way to run a lowered program on inputs. The per-step multiplier
/// tables are looked up **once** at construction, so every subsequent
/// forward pays zero assignment-resolution cost; it is also the handle
/// a serving worker owns per (architecture × assignment) pair.
///
/// `Clone` duplicates the lowered program (worker-owned weights) while
/// the resolved `MulLut` tables stay `Arc`-shared, so cloning one
/// prepared template per worker touches neither the [`LutCache`] nor
/// its hit counters. `Send + Sync`: all state is plain data plus
/// `Arc`s, asserted by a compile-time test.
#[derive(Clone)]
pub struct PreparedModel {
    model: QModel,
    execs: Vec<StepExec>,
}

impl PreparedModel {
    /// Resolves `assignment` over `model`'s multiplier sites against
    /// `luts` and captures the result.
    ///
    /// # Errors
    ///
    /// [`BackendError::UnassignedSite`] naming the first site (in
    /// program order) the assignment leaves uncovered, or
    /// [`BackendError::UnknownComponent`] for a component without a
    /// table in `luts`.
    pub fn new(
        model: QModel,
        assignment: &DatapathAssignment,
        luts: &LutCache,
    ) -> Result<Self, BackendError> {
        let resolution = model.resolve(assignment, luts, None, false)?;
        Ok(PreparedModel {
            model,
            execs: resolution.execs,
        })
    }

    /// The underlying lowered program.
    pub fn model(&self) -> &QModel {
        &self.model
    }

    /// The lowered model's display name.
    pub fn arch(&self) -> &str {
        self.model.arch()
    }

    /// Batched quantized inference with the captured resolution: one
    /// program execution for the whole batch, every convolution / vote
    /// step fusing its per-sample columns into a single wide quantized
    /// GEMM (mirroring the float trainer's batch fusion); convolutions
    /// quantize each input once and unroll the 8-bit codes straight
    /// into the fused matrix. Returns one class-capsule length tensor
    /// (`[num_classes]`) per input, bit-identical for any partition of
    /// the inputs into batches.
    ///
    /// # Panics
    ///
    /// Panics on an input shape mismatch.
    pub fn forward_batch(&self, xs: &[&Tensor]) -> Vec<Tensor> {
        self.model.forward_batch_resolved(xs, &self.execs)
    }

    /// Argmax class predictions for a batch, fused like
    /// [`PreparedModel::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics on an input shape mismatch.
    pub fn predict_batch(&self, xs: &[&Tensor]) -> Vec<usize> {
        self.forward_batch(xs)
            .iter()
            // lint: allow(panic) — capsule count is structurally nonzero, so lengths are non-empty
            .map(|l| l.argmax().expect("non-empty lengths"))
            .collect()
    }
}

/// Classification accuracy of the quantized datapath over a dataset
/// under a heterogeneous multiplier assignment. Deterministic; samples
/// run through the batched executor in `EVAL_BATCH`-wide (16) fused GEMMs,
/// one chunk per [`par::map_with`] item (inline when called from a
/// parallel worker). The hit count is an integer sum, so the result
/// does not depend on the thread count.
///
/// # Errors
///
/// [`BackendError`] when the assignment leaves a multiplier site
/// uncovered or names a component absent from `luts` — checked once
/// up front, before any inference runs.
pub fn evaluate_quantized(
    model: &QModel,
    data: &Dataset,
    assignment: &DatapathAssignment,
    luts: &LutCache,
) -> Result<f64, BackendError> {
    let resolved = model.resolve(assignment, luts, None, false)?;
    Ok(evaluate_resolved(model, data, &resolved.execs))
}

/// Accuracy over `data` for an already-resolved program — the shared
/// evaluation loop behind [`evaluate_quantized`] and the measured
/// backend.
pub(crate) fn evaluate_resolved(model: &QModel, data: &Dataset, resolved: &[StepExec]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let chunks: Vec<_> = data.samples.chunks(EVAL_BATCH).collect();
    let correct: usize = par::map_with(
        chunks.len(),
        || (),
        |(), c| {
            let images: Vec<&Tensor> = chunks[c].iter().map(|s| &s.image).collect();
            let lengths = model.forward_batch_resolved(&images, resolved);
            chunks[c]
                .iter()
                .zip(&lengths)
                // lint: allow(panic) — capsule count is structurally nonzero, so lengths are non-empty
                .filter(|(sample, l)| l.argmax().expect("non-empty lengths") == sample.label)
                .count()
        },
    )
    .into_iter()
    .sum();
    correct as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::calibrate_ranges;
    use redcane_capsnet::{CapsNetConfig, DeepCapsConfig, NoInjection};
    use redcane_datasets::Sample;
    use redcane_tensor::TensorRng;

    /// An exact-only cache + uniform assignment: the baseline datapath.
    fn exact_setup() -> (DatapathAssignment, LutCache) {
        let mut luts = LutCache::new();
        luts.insert("exact", MulLut::exact());
        (DatapathAssignment::uniform("exact"), luts)
    }

    /// One sample through a one-sample batch.
    fn forward_one(prepared: &PreparedModel, x: &Tensor) -> Tensor {
        prepared.forward_batch(&[x]).pop().unwrap()
    }

    /// The error `PreparedModel::new` rejects `assignment` with.
    fn rejection(q: &QModel, assignment: &DatapathAssignment, luts: &LutCache) -> BackendError {
        match PreparedModel::new(q.clone(), assignment, luts) {
            Ok(_) => panic!("assignment unexpectedly resolved"),
            Err(err) => err,
        }
    }

    #[test]
    fn qmodel_capsnet_with_exact_assignment_tracks_float_lengths() {
        let mut rng = TensorRng::from_seed(504);
        let cfg = CapsNetConfig::small(1, 16);
        let mut model = CapsNet::new(&cfg, &mut rng);
        let images: Vec<Tensor> = (0..4)
            .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
            .collect();
        let ranges = calibrate_ranges(&mut model, images.iter()).unwrap();
        let q = QModel::lower(&model, &ranges).unwrap();
        assert_eq!(q.num_classes(), 10);
        assert_eq!(q.steps().len(), 4);
        assert!(q.arch().starts_with("CapsNet"));
        let (assignment, luts) = exact_setup();
        let prepared = PreparedModel::new(q, &assignment, &luts).unwrap();
        for image in &images {
            let want = model.forward(image, &mut NoInjection);
            let got = forward_one(&prepared, image);
            assert_eq!(got.shape(), want.shape());
            for (a, b) in want.data().iter().zip(got.data()) {
                assert!((a - b).abs() < 0.15, "length {a} vs quantized {b}");
            }
        }
    }

    #[test]
    fn qmodel_deepcaps_with_exact_assignment_tracks_float_lengths() {
        let mut rng = TensorRng::from_seed(511);
        let cfg = DeepCapsConfig::small(1, 16);
        let mut model = DeepCaps::new(&cfg, &mut rng);
        let images: Vec<Tensor> = (0..4)
            .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
            .collect();
        let ranges = calibrate_ranges(&mut model, images.iter()).unwrap();
        let q = QModel::lower(&model, &ranges).unwrap();
        assert_eq!(q.num_classes(), 10);
        assert!(q.arch().starts_with("DeepCaps"));
        // Stem + 3 cells × 5 + lead/mid/caps3d/skip + 2 units + concat
        // + class caps = 24 steps covering all 17 quantized layers.
        assert_eq!(q.steps().len(), 24);
        let (assignment, luts) = exact_setup();
        let prepared = PreparedModel::new(q, &assignment, &luts).unwrap();
        for image in &images {
            let want = model.forward(image, &mut NoInjection);
            let got = forward_one(&prepared, image);
            assert_eq!(got.shape(), want.shape());
            for (a, b) in want.data().iter().zip(got.data()) {
                assert!((a - b).abs() < 0.2, "length {a} vs quantized {b}");
            }
        }
    }

    #[test]
    fn quantized_forward_is_deterministic_and_batch_matches_single() {
        let mut rng = TensorRng::from_seed(505);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let images: Vec<Tensor> = (0..3)
            .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
            .collect();
        let ranges = calibrate_ranges(&mut model, images.iter()).unwrap();
        let q = QModel::lower(&model, &ranges).unwrap();
        let (assignment, luts) = exact_setup();
        let prepared = PreparedModel::new(q, &assignment, &luts).unwrap();
        let single: Vec<Tensor> = images.iter().map(|x| forward_one(&prepared, x)).collect();
        let refs: Vec<&Tensor> = images.iter().collect();
        let batched = prepared.forward_batch(&refs);
        assert_eq!(single, batched, "batch fusion must be bit-identical");
        assert_eq!(
            forward_one(&prepared, &images[0]),
            single[0].clone(),
            "re-running reproduces the output exactly"
        );
    }

    #[test]
    fn prepared_model_matches_forward_and_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedModel>();

        let mut rng = TensorRng::from_seed(517);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let images: Vec<Tensor> = (0..3)
            .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
            .collect();
        let ranges = calibrate_ranges(&mut model, images.iter()).unwrap();
        let q = QModel::lower(&model, &ranges).unwrap();
        let (assignment, luts) = exact_setup();
        let prepared = PreparedModel::new(q.clone(), &assignment, &luts).unwrap();
        let refs: Vec<&Tensor> = images.iter().collect();
        // The captured resolution reproduces a fresh resolution bit for
        // bit, and a worker-owned clone reproduces the template bit for
        // bit.
        let fresh = q.resolve(&assignment, &luts, None, false).unwrap();
        assert_eq!(
            prepared.forward_batch(&refs),
            q.forward_batch_resolved(&refs, &fresh.execs)
        );
        let clone = prepared.clone();
        assert_eq!(clone.forward_batch(&refs), prepared.forward_batch(&refs));
        let preds = prepared.predict_batch(&refs);
        for (x, pred) in images.iter().zip(preds) {
            assert_eq!(Some(pred), forward_one(&prepared, x).argmax());
        }
        // Construction fails loudly on an uncovered assignment.
        assert!(PreparedModel::new(q, &DatapathAssignment::uniform("mul8u_ghost"), &luts).is_err());
    }

    #[test]
    fn multiply_sites_cover_the_program_and_unassigned_sites_error() {
        let mut rng = TensorRng::from_seed(516);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let image = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        let ranges = calibrate_ranges(&mut model, [&image]).unwrap();
        let q = QModel::lower(&model, &ranges).unwrap();
        let sites = q.multiply_sites();
        // Conv1 + PrimaryCaps GEMMs, ClassCaps votes + 2 routing sites.
        assert_eq!(sites.len(), 5);
        assert!(sites.contains(&("Conv1".to_string(), OpKind::MacOutput, false)));
        assert!(sites.contains(&("ClassCaps".to_string(), OpKind::LogitsUpdate, true)));

        let mut luts = LutCache::new();
        luts.insert("exact", MulLut::exact());
        // A per-site assignment missing the routing sites fails loudly.
        let mut partial = DatapathAssignment::per_site();
        for (layer, kind, in_routing) in &sites[..sites.len() - 1] {
            partial.assign(layer.clone(), *kind, *in_routing, "exact");
        }
        let err = rejection(&q, &partial, &luts);
        assert_eq!(
            err,
            BackendError::UnassignedSite {
                layer: "ClassCaps".to_string(),
                kind: OpKind::LogitsUpdate,
                in_routing: true,
            }
        );
        // An assignment naming an untabulated component also fails.
        let ghost = DatapathAssignment::uniform("mul8u_ghost");
        assert!(matches!(
            rejection(&q, &ghost, &luts),
            BackendError::UnknownComponent { ref component } if component == "mul8u_ghost"
        ));
        // And evaluation surfaces the same error before running anything.
        let data = Dataset {
            name: "one".to_string(),
            channels: 1,
            height: 16,
            width: 16,
            num_classes: 10,
            samples: vec![Sample { image, label: 0 }],
        };
        assert_eq!(evaluate_quantized(&q, &data, &partial, &luts), Err(err));
    }

    /// `evaluate_quantized` fans its `EVAL_BATCH` chunks out over
    /// workers; on a ragged dataset (two full chunks plus 5) it must
    /// equal the per-sample forward at 1 and 4 threads, on the exact
    /// table and on an approximate gather table.
    #[test]
    fn evaluate_quantized_matches_per_sample_forward_at_any_thread_count() {
        let mut rng = TensorRng::from_seed(518);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let images: Vec<Tensor> = (0..2 * EVAL_BATCH + 5)
            .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
            .collect();
        let ranges = calibrate_ranges(&mut model, images.iter().take(4)).unwrap();
        let q = QModel::lower(&model, &ranges).unwrap();
        let (_, mut luts) = exact_setup();
        let approx = redcane_axmul::library::MultiplierLibrary::evo_approx_like()
            .iter()
            .map(|entry| MulLut::tabulate(entry.model()))
            .find(|lut| lut.factors().is_empty())
            .expect("the library has a gather-only table");
        luts.insert("approx", approx);
        let exact =
            PreparedModel::new(q.clone(), &DatapathAssignment::uniform("exact"), &luts).unwrap();
        // Labels alternate between the exact prediction and its
        // neighbour, so the score is neither 0 nor 1.
        let samples: Vec<Sample> = images
            .into_iter()
            .enumerate()
            .map(|(i, image)| {
                let pred = exact.predict_batch(&[&image])[0];
                let label = if i % 2 == 0 { pred } else { (pred + 1) % 10 };
                Sample { image, label }
            })
            .collect();
        let data = Dataset {
            name: "ragged".to_string(),
            channels: 1,
            height: 16,
            width: 16,
            num_classes: 10,
            samples,
        };
        for component in ["exact", "approx"] {
            let assignment = DatapathAssignment::uniform(component);
            let prepared = PreparedModel::new(q.clone(), &assignment, &luts).unwrap();
            let hits = data
                .samples
                .iter()
                .filter(|s| forward_one(&prepared, &s.image).argmax() == Some(s.label))
                .count();
            let want = hits as f64 / data.len() as f64;
            for threads in [1, 4] {
                par::set_threads(threads);
                let got = evaluate_quantized(&q, &data, &assignment, &luts);
                par::set_threads(0);
                assert_eq!(got, Ok(want), "{component}, {threads} threads");
            }
        }
    }

    #[test]
    fn calibration_needs_at_least_one_image() {
        let mut rng = TensorRng::from_seed(506);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let err = calibrate_ranges(&mut model, std::iter::empty()).unwrap_err();
        assert_eq!(err, LowerError::EmptyCalibration);
    }

    #[test]
    fn lowering_without_ranges_names_the_missing_site() {
        let mut rng = TensorRng::from_seed(512);
        let model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let err = QModel::lower(&model, &QuantRanges::new()).unwrap_err();
        assert!(
            matches!(err, LowerError::MissingRange { ref layer, .. } if layer == "Conv1"),
            "{err}"
        );
        let mut rng = TensorRng::from_seed(513);
        let deep = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);
        let err = QModel::lower(&deep, &QuantRanges::new()).unwrap_err();
        assert!(
            matches!(err, LowerError::MissingRange { ref layer, .. } if layer == "Conv2D"),
            "{err}"
        );
    }

    #[test]
    fn weight_code_sample_is_bounded_and_deterministic() {
        let mut rng = TensorRng::from_seed(514);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let image = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        let ranges = calibrate_ranges(&mut model, [&image]).unwrap();
        let q = QModel::lower(&model, &ranges).unwrap();
        let full = q.weight_code_sample(usize::MAX);
        assert!(!full.is_empty());
        let sample = q.weight_code_sample(100);
        assert!(sample.len() <= 100 && !sample.is_empty());
        assert_eq!(sample, q.weight_code_sample(100));
        assert!(q.weight_code_sample(0).is_empty());
    }
}
