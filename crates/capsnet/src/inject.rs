//! The injection interface: tap points at every classified operation.
//!
//! The ReD-CaNe methodology perturbs the output tensors of specific
//! operations during inference. Rather than hard-coding noise into the
//! layers, every tagged operation calls [`Injector::inject`] with an
//! [`OpSite`] describing *where* in the network the tensor was produced.
//! Implementations decide whether and how to perturb it.

use redcane_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// The operation taxonomy of the paper's Table III, plus `MacInput`
/// (observed but never noise-injected: it feeds Fig. 11's input
/// distributions and the "real input" component characterization).
///
/// `Ord` follows declaration order; it exists so `(layer, kind,
/// in-routing)` site keys — the currency of calibration ranges and
/// per-site datapath assignments — can key ordered maps and iterate
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Outputs of matrix multiplications / convolutions / vote
    /// accumulations (group #1).
    MacOutput,
    /// Outputs of activation functions — ReLU or squash (group #2).
    Activation,
    /// The routing softmax producing coupling coefficients `k` (group #3).
    Softmax,
    /// The routing logits `b` after their update (group #4).
    LogitsUpdate,
    /// Values *entering* a MAC operation (observation-only tap).
    MacInput,
}

impl OpKind {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::MacOutput => "MAC outputs",
            OpKind::Activation => "activations",
            OpKind::Softmax => "softmax",
            OpKind::LogitsUpdate => "logits update",
            OpKind::MacInput => "MAC inputs",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Identifies one tagged operation instance in a model.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpSite {
    /// Index of the producing layer in the model's layer order.
    pub layer_index: usize,
    /// Human-readable layer name (`"Conv2D"`, `"Caps2D7"`, `"ClassCaps"`…).
    pub layer_name: String,
    /// Which classified operation produced the tensor.
    pub kind: OpKind,
    /// Dynamic-routing iteration (0-based) for in-routing operations.
    pub routing_iter: Option<u8>,
}

impl OpSite {
    /// Creates a site outside dynamic routing.
    pub fn new(layer_index: usize, layer_name: impl Into<String>, kind: OpKind) -> Self {
        OpSite {
            layer_index,
            layer_name: layer_name.into(),
            kind,
            routing_iter: None,
        }
    }

    /// Creates a site inside a dynamic-routing iteration.
    pub fn routing(
        layer_index: usize,
        layer_name: impl Into<String>,
        kind: OpKind,
        iter: u8,
    ) -> Self {
        OpSite {
            layer_index,
            layer_name: layer_name.into(),
            kind,
            routing_iter: Some(iter),
        }
    }
}

impl std::fmt::Display for OpSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{} {}", self.layer_name, self.layer_index, self.kind)?;
        if let Some(it) = self.routing_iter {
            write!(f, " (routing iter {it})")?;
        }
        Ok(())
    }
}

/// Receives every tagged tensor during a forward pass and may mutate it.
pub trait Injector {
    /// Called immediately after the operation at `site` produced `tensor`.
    fn inject(&mut self, site: &OpSite, tensor: &mut Tensor);

    /// Whether this injector wants [`OpKind::MacInput`] observation taps.
    ///
    /// Input taps require copying the tensor entering each MAC operation,
    /// so layers skip them unless the injector opts in (recorders do;
    /// noise injectors never perturb inputs and keep the default `false`).
    fn observes_inputs(&self) -> bool {
        false
    }
}

/// The accurate network: a no-op injector.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoInjection;

impl Injector for NoInjection {
    fn inject(&mut self, _site: &OpSite, _tensor: &mut Tensor) {}
}

/// Records every visited site, [`OpKind::MacInput`] taps included,
/// without perturbing anything. Drives Step 1 of the methodology (group
/// extraction).
#[derive(Debug, Clone, Default)]
pub struct RecordingInjector {
    /// Sites in visit order (one entry per call).
    pub visits: Vec<OpSite>,
}

impl RecordingInjector {
    /// An empty recorder.
    pub fn sites_only() -> Self {
        RecordingInjector::default()
    }

    /// Distinct sites in first-visit order.
    pub fn distinct_sites(&self) -> Vec<OpSite> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for s in &self.visits {
            if seen.insert(s.clone()) {
                out.push(s.clone());
            }
        }
        out
    }
}

impl Injector for RecordingInjector {
    fn observes_inputs(&self) -> bool {
        true
    }

    fn inject(&mut self, site: &OpSite, _tensor: &mut Tensor) {
        self.visits.push(site.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_labels() {
        assert_eq!(OpKind::MacOutput.to_string(), "MAC outputs");
    }

    #[test]
    fn site_display_includes_routing_iter() {
        let s = OpSite::routing(3, "ClassCaps", OpKind::Softmax, 2);
        let txt = s.to_string();
        assert!(txt.contains("ClassCaps"));
        assert!(txt.contains("iter 2"));
    }

    #[test]
    fn no_injection_leaves_tensor_untouched() {
        let mut t = Tensor::from_slice(&[1.0, 2.0]);
        let before = t.clone();
        NoInjection.inject(&OpSite::new(0, "x", OpKind::MacOutput), &mut t);
        assert_eq!(t, before);
    }

    #[test]
    fn recorder_collects_distinct_sites_in_order() {
        let mut rec = RecordingInjector::sites_only();
        let a = OpSite::new(0, "a", OpKind::MacOutput);
        let b = OpSite::new(1, "b", OpKind::Activation);
        let mut t = Tensor::zeros(&[2]);
        rec.inject(&a, &mut t);
        rec.inject(&b, &mut t);
        rec.inject(&a, &mut t);
        assert_eq!(rec.visits.len(), 3);
        let distinct = rec.distinct_sites();
        assert_eq!(distinct.len(), 2);
        assert_eq!(distinct[0], a);
        assert_eq!(distinct[1], b);
    }
}
