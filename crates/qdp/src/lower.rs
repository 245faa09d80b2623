//! The architecture-generic lowering pipeline: calibrated quantization
//! ranges keyed by site, and a trait each float layer implements to
//! lower itself onto the quantized datapath.
//!
//! [`QuantRanges`] replaces per-architecture range structs: it is a map
//! from `(layer name, operation kind, in-routing?)` — the same key the
//! [`CalibrationObserver`](crate::CalibrationObserver) tracks — to the
//! [`QuantParams`] fixed at calibration time. Any model driven through
//! the injection tap points produces one, so lowering a new
//! architecture needs **no** new calibration code.
//!
//! [`LowerToQuant`] is the per-layer half: `Conv2d`, `ConvCaps2d`,
//! `ConvCaps3d` and `ClassCaps` each lower themselves to
//! their `Q*` counterpart, pulling the ranges they need from the map
//! and failing with a clear [`LowerError::MissingRange`] when a site
//! was never calibrated.

use std::collections::BTreeMap;

use redcane_capsnet::inject::OpKind;
use redcane_capsnet::layers::{ClassCaps, ConvCaps2d, ConvCaps3d};
use redcane_capsnet::CapsModel;
use redcane_fxp::{FxpError, QuantParams};
use redcane_nn::layers::Conv2d;
use redcane_tensor::Tensor;

use crate::calib::CalibrationObserver;
use crate::qlayers::{QClassCaps, QConv2d, QConvCaps2d, QConvCaps3d};

/// Why lowering a model (or a layer) onto the quantized datapath
/// failed.
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// A requantization range needed by a layer was never calibrated —
    /// the calibration sweep did not visit this site.
    MissingRange {
        /// Layer whose site is missing.
        layer: String,
        /// Operation kind of the missing site.
        kind: OpKind,
        /// Whether the site lies inside dynamic routing.
        in_routing: bool,
    },
    /// A layer's weights could not be quantized (non-finite values) or
    /// an observed range was invalid.
    Quantization {
        /// Layer being lowered when the error occurred.
        layer: String,
        /// The underlying fixed-point error.
        source: FxpError,
    },
    /// The calibration sweep observed no sites at all (no images, or a
    /// model without tap points).
    EmptyCalibration,
    /// The concrete model type has no registered lowering (see
    /// [`QModel::lower`](crate::QModel::lower)).
    UnsupportedArchitecture {
        /// The model's display name.
        model: String,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::MissingRange {
                layer,
                kind,
                in_routing,
            } => write!(
                f,
                "no calibrated quantization range for site ({layer}, {kind}{}): \
                 sweep calibration inputs through the model before lowering",
                if *in_routing { ", in routing" } else { "" }
            ),
            LowerError::Quantization { layer, source } => {
                write!(f, "cannot quantize layer {layer}: {source}")
            }
            LowerError::EmptyCalibration => {
                write!(f, "calibration observed no sites (no images swept?)")
            }
            LowerError::UnsupportedArchitecture { model } => write!(
                f,
                "no quantized lowering registered for architecture {model}"
            ),
        }
    }
}

impl std::error::Error for LowerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LowerError::Quantization { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Calibrated activation-quantization ranges for **any** model, keyed
/// generically by `(layer name, operation kind, in-routing?)` — one
/// entry per requantization point the calibration sweep observed.
///
/// Produced by [`CalibrationObserver::ranges`] (or assembled manually
/// with [`QuantRanges::insert`] for tests and synthetic datapaths).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantRanges {
    // A BTreeMap so iteration never depends on hasher state (lint rule
    // R1): these ranges reach the byte-compared artifact JSON.
    sites: BTreeMap<(String, OpKind, bool), QuantParams>,
}

impl QuantRanges {
    /// An empty range map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) the range for one site.
    pub fn insert(&mut self, layer: &str, kind: OpKind, in_routing: bool, params: QuantParams) {
        self.sites
            .insert((layer.to_string(), kind, in_routing), params);
    }

    /// The range for a non-routing site, if calibrated.
    pub fn get(&self, layer: &str, kind: OpKind) -> Option<QuantParams> {
        self.sites.get(&(layer.to_string(), kind, false)).copied()
    }

    /// The range for a site inside dynamic routing (merged across
    /// iterations), if calibrated.
    pub fn get_routing(&self, layer: &str, kind: OpKind) -> Option<QuantParams> {
        self.sites.get(&(layer.to_string(), kind, true)).copied()
    }

    /// The range for a non-routing site, or a clear
    /// [`LowerError::MissingRange`].
    ///
    /// # Errors
    ///
    /// Returns [`LowerError::MissingRange`] naming the site when it was
    /// never calibrated.
    pub fn require(&self, layer: &str, kind: OpKind) -> Result<QuantParams, LowerError> {
        self.get(layer, kind)
            .ok_or_else(|| LowerError::MissingRange {
                layer: layer.to_string(),
                kind,
                in_routing: false,
            })
    }

    /// The range for an in-routing site, or a clear
    /// [`LowerError::MissingRange`].
    ///
    /// # Errors
    ///
    /// As [`QuantRanges::require`].
    pub fn require_routing(&self, layer: &str, kind: OpKind) -> Result<QuantParams, LowerError> {
        self.get_routing(layer, kind)
            .ok_or_else(|| LowerError::MissingRange {
                layer: layer.to_string(),
                kind,
                in_routing: true,
            })
    }

    /// Number of calibrated sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` when no site has been calibrated.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// All calibrated sites in a deterministic order (sorted by layer
    /// name, kind label, then routing flag).
    pub fn sites_sorted(&self) -> Vec<(&str, OpKind, bool, QuantParams)> {
        let mut out: Vec<_> = self
            .sites
            .iter()
            .map(|((layer, kind, routing), p)| (layer.as_str(), *kind, *routing, *p))
            .collect();
        out.sort_by(|a, b| (a.0, a.1.label(), a.2).cmp(&(b.0, b.1.label(), b.2)));
        out
    }

    /// Converts to the artifact store's portable rows, in the
    /// deterministic [`QuantRanges::sites_sorted`] order.
    pub fn to_entries(&self) -> Vec<redcane_artifacts::RangeEntry> {
        self.sites_sorted()
            .into_iter()
            .map(
                |(layer, kind, in_routing, params)| redcane_artifacts::RangeEntry {
                    layer: layer.to_string(),
                    kind,
                    in_routing,
                    params,
                },
            )
            .collect()
    }

    /// Rebuilds a range map from artifact-store rows. Exact inverse of
    /// [`QuantRanges::to_entries`]: `QuantParams` round-trips through
    /// its `(min, max, bits)` triple bit for bit.
    pub fn from_entries(entries: &[redcane_artifacts::RangeEntry]) -> Self {
        let mut out = QuantRanges::new();
        for e in entries {
            out.insert(&e.layer, e.kind, e.in_routing, e.params);
        }
        out
    }
}

/// Sweeps `images` through `model` with a [`CalibrationObserver`]
/// riding the injection tap points and returns every observed site's
/// quantization range — the generic replacement for per-architecture
/// calibration functions.
///
/// # Errors
///
/// Returns [`LowerError::EmptyCalibration`] if no site was observed
/// (empty `images`), or [`LowerError::Quantization`] if a tapped
/// tensor contained only non-finite values.
pub fn calibrate_ranges<'a>(
    model: &mut dyn CapsModel,
    images: impl IntoIterator<Item = &'a Tensor>,
) -> Result<QuantRanges, LowerError> {
    let mut obs = CalibrationObserver::new();
    for image in images {
        let _ = model.forward(image, &mut obs);
    }
    obs.ranges(8)
}

/// A float layer that can lower itself onto the quantized datapath.
///
/// `layer` is the site name the model's injector taps use for this
/// layer (self-naming layers pass their own `name()`); implementations
/// pull every range they need from `ranges` and fail with a
/// [`LowerError::MissingRange`] naming the first absent site.
pub trait LowerToQuant {
    /// The quantized counterpart this layer lowers to.
    type Quantized;

    /// Lowers the trained float layer onto the quantized datapath.
    ///
    /// # Errors
    ///
    /// [`LowerError::MissingRange`] when a needed site was never
    /// calibrated; [`LowerError::Quantization`] when the weights
    /// contain non-finite values.
    fn lower_to_quant(
        &self,
        layer: &str,
        ranges: &QuantRanges,
    ) -> Result<Self::Quantized, LowerError>;
}

fn quant_err(layer: &str) -> impl FnOnce(FxpError) -> LowerError + '_ {
    move |source| LowerError::Quantization {
        layer: layer.to_string(),
        source,
    }
}

impl LowerToQuant for Conv2d {
    type Quantized = QConv2d;

    fn lower_to_quant(
        &self,
        layer: &str,
        ranges: &QuantRanges,
    ) -> Result<Self::Quantized, LowerError> {
        let in_params = ranges.require(layer, OpKind::MacInput)?;
        QConv2d::from_conv(self, in_params).map_err(quant_err(layer))
    }
}

impl LowerToQuant for ConvCaps2d {
    type Quantized = QConvCaps2d;

    fn lower_to_quant(
        &self,
        layer: &str,
        ranges: &QuantRanges,
    ) -> Result<Self::Quantized, LowerError> {
        let in_params = ranges.require(layer, OpKind::MacInput)?;
        QConvCaps2d::from_conv_caps(self, in_params).map_err(quant_err(layer))
    }
}

impl LowerToQuant for ConvCaps3d {
    type Quantized = QConvCaps3d;

    fn lower_to_quant(
        &self,
        layer: &str,
        ranges: &QuantRanges,
    ) -> Result<Self::Quantized, LowerError> {
        let in_params = ranges.require(layer, OpKind::MacInput)?;
        // The non-routing MacOutput tap is the vote tensor itself; the
        // in-routing MacOutput taps (the weighted sums, up to I× wider)
        // must not dilate the vote codes.
        let vote_params = ranges.require(layer, OpKind::MacOutput)?;
        let coupling_params = ranges.require_routing(layer, OpKind::Softmax)?;
        let act_params = ranges.require_routing(layer, OpKind::Activation)?;
        QConvCaps3d::from_conv_caps(self, in_params, vote_params, coupling_params, act_params)
            .map_err(quant_err(layer))
    }
}

impl LowerToQuant for ClassCaps {
    type Quantized = QClassCaps;

    fn lower_to_quant(
        &self,
        layer: &str,
        ranges: &QuantRanges,
    ) -> Result<Self::Quantized, LowerError> {
        let in_params = ranges.require(layer, OpKind::MacInput)?;
        let vote_params = ranges.require(layer, OpKind::MacOutput)?;
        let coupling_params = ranges.require_routing(layer, OpKind::Softmax)?;
        let act_params = ranges.require_routing(layer, OpKind::Activation)?;
        QClassCaps::from_class_caps(self, in_params, vote_params, coupling_params, act_params)
            .map_err(quant_err(layer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcane_tensor::TensorRng;

    fn p(min: f32, max: f32) -> QuantParams {
        QuantParams::from_range(min, max, 8).unwrap()
    }

    #[test]
    fn ranges_round_trip_through_artifact_entries() {
        let mut r = QuantRanges::new();
        r.insert("Conv1", OpKind::MacOutput, false, p(-1.5, 2.5));
        r.insert("ClassCaps", OpKind::Softmax, true, p(0.0, 1.0));
        r.insert("ClassCaps", OpKind::LogitsUpdate, true, p(-8.0, 8.0));
        let entries = r.to_entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(QuantRanges::from_entries(&entries), r);
    }

    #[test]
    fn ranges_round_trip_and_distinguish_routing() {
        let mut r = QuantRanges::new();
        r.insert("L", OpKind::MacOutput, false, p(-1.0, 1.0));
        r.insert("L", OpKind::MacOutput, true, p(-40.0, 40.0));
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("L", OpKind::MacOutput).unwrap().max(), 1.0);
        assert_eq!(r.get_routing("L", OpKind::MacOutput).unwrap().max(), 40.0);
        assert!(r.get("M", OpKind::MacOutput).is_none());
    }

    #[test]
    fn missing_range_error_names_the_site() {
        let r = QuantRanges::new();
        let err = r.require("Conv1", OpKind::MacInput).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("Conv1"), "{msg}");
        assert!(msg.contains("MAC inputs"), "{msg}");
        let err = r.require_routing("ClassCaps", OpKind::Softmax).unwrap_err();
        assert!(err.to_string().contains("in routing"));
    }

    #[test]
    fn conv_lowering_fails_without_calibration() {
        let mut rng = TensorRng::from_seed(600);
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let err = conv
            .lower_to_quant("Conv1", &QuantRanges::new())
            .unwrap_err();
        assert!(matches!(err, LowerError::MissingRange { ref layer, .. } if layer == "Conv1"));
    }

    #[test]
    fn conv_lowering_succeeds_with_its_site() {
        let mut rng = TensorRng::from_seed(601);
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let mut r = QuantRanges::new();
        r.insert("Conv1", OpKind::MacInput, false, p(-1.0, 1.0));
        assert!(conv.lower_to_quant("Conv1", &r).is_ok());
    }

    #[test]
    fn class_caps_lowering_reports_first_missing_routing_site() {
        let mut rng = TensorRng::from_seed(602);
        let layer = ClassCaps::new(0, "CC", 4, 3, 3, 3, 2, &mut rng);
        let mut r = QuantRanges::new();
        r.insert("CC", OpKind::MacInput, false, p(-1.0, 1.0));
        r.insert("CC", OpKind::MacOutput, false, p(-1.0, 1.0));
        let err = layer.lower_to_quant("CC", &r).unwrap_err();
        assert_eq!(
            err,
            LowerError::MissingRange {
                layer: "CC".into(),
                kind: OpKind::Softmax,
                in_routing: true,
            }
        );
    }

    #[test]
    fn sites_sorted_is_deterministic() {
        let mut r = QuantRanges::new();
        r.insert("B", OpKind::MacInput, false, p(0.0, 1.0));
        r.insert("A", OpKind::Softmax, true, p(0.0, 1.0));
        r.insert("A", OpKind::MacInput, false, p(0.0, 1.0));
        let order: Vec<_> = r
            .sites_sorted()
            .iter()
            .map(|s| (s.0.to_string(), s.2))
            .collect();
        assert_eq!(order[0].0, "A");
        assert_eq!(order.last().unwrap().0, "B");
    }
}
