//! Calibration: fixing per-site quantization ranges from the real
//! input distribution.
//!
//! The paper quantizes each array with ranges observed on **real**
//! inputs flowing through the trained network (Table IV's "Real"
//! column), not per-sample min/max. [`CalibrationObserver`] is an
//! [`Injector`] that rides the existing tap points — the same hooks
//! the noise models use — and feeds every tensor it sees into a
//! [`RangeTracker`] keyed by `(layer, operation kind)`. After a sweep
//! over clean calibration inputs, [`CalibrationObserver::params`]
//! turns a site's observed range into fixed [`QuantParams`] for the
//! quantized datapath.

use std::collections::BTreeMap;

use redcane_capsnet::inject::{Injector, OpKind, OpSite};
use redcane_fxp::{FxpError, QuantParams, RangeTracker};
use redcane_tensor::Tensor;

use crate::lower::{LowerError, QuantRanges};

/// Records running min/max per `(layer name, op kind)` site across any
/// number of clean forward passes.
///
/// Sites **inside** dynamic routing are tracked separately from sites
/// outside it: the routing weighted sum `s_j = Σᵢ k·û` shares the
/// `(ClassCaps, MacOutput)` naming with the vote transform but spans a
/// range up to `I×` wider, and merging the two would coarsen the vote
/// codes for nothing.
///
/// With [`CalibrationObserver::with_samples`], the observer also
/// retains up to N representative values per **MAC-input** site — the
/// arrays the datapath feeds to the multipliers — which
/// [`CalibrationObserver::sampled_input_codes`] turns into empirical
/// operand pools for component characterization (the paper's "Real"
/// input distribution, Table IV). Each site keeps a deterministic
/// **reservoir** over every calibration pass, so the pool represents
/// the whole sweep rather than whichever image came first.
#[derive(Debug, Clone, Default)]
pub struct CalibrationObserver {
    // BTreeMaps, not HashMaps: `ranges()` iterates these and its error
    // attribution (and any future ordered consumer) must not depend on
    // hasher state. Enforced by `redcane-lint` rule R1.
    trackers: BTreeMap<(String, OpKind, bool), RangeTracker>,
    /// Values retained per MAC-input site (0 = sampling off).
    max_samples_per_site: usize,
    samples: BTreeMap<(String, bool), Reservoir>,
}

/// A deterministic reservoir sample: every offered value has an equal
/// chance of surviving, regardless of which forward pass produced it.
/// Replacement indices come from a fixed-seed LCG, so equal observation
/// sequences give equal pools.
#[derive(Debug, Clone)]
struct Reservoir {
    values: Vec<f32>,
    seen: u64,
    rng_state: u64,
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir {
            values: Vec::new(),
            seen: 0,
            // Arbitrary non-zero seed (π digits); fixed so pools are
            // reproducible.
            rng_state: 0x243F_6A88_85A3_08D3,
        }
    }
}

impl Reservoir {
    fn offer(&mut self, v: f32, cap: usize) {
        self.seen += 1;
        if self.values.len() < cap {
            self.values.push(v);
            return;
        }
        self.rng_state = self
            .rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (self.rng_state >> 33) % self.seen;
        if (j as usize) < cap {
            self.values[j as usize] = v;
        }
    }
}

impl CalibrationObserver {
    /// Creates an empty observer (range tracking only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an observer that additionally retains up to
    /// `max_samples_per_site` representative values per MAC-input site
    /// for empirical operand pools.
    pub fn with_samples(max_samples_per_site: usize) -> Self {
        CalibrationObserver {
            max_samples_per_site,
            ..Self::default()
        }
    }

    /// The tracker for a non-routing site, if it was visited.
    pub fn tracker(&self, layer: &str, kind: OpKind) -> Option<&RangeTracker> {
        self.trackers.get(&(layer.to_string(), kind, false))
    }

    /// The tracker for a site inside dynamic routing (merged across
    /// iterations), if it was visited.
    pub fn routing_tracker(&self, layer: &str, kind: OpKind) -> Option<&RangeTracker> {
        self.trackers.get(&(layer.to_string(), kind, true))
    }

    /// Quantization parameters covering a non-routing site's observed
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`FxpError::InvalidRange`] if the site was never visited
    /// (reported with an empty range), or any error from
    /// [`RangeTracker::to_params`].
    pub fn params(&self, layer: &str, kind: OpKind, bits: u8) -> Result<QuantParams, FxpError> {
        match self.tracker(layer, kind) {
            Some(t) => t.to_params(bits),
            None => Err(FxpError::InvalidRange {
                min: f32::INFINITY,
                max: f32::NEG_INFINITY,
            }),
        }
    }

    /// Converts every observed site's range into fixed [`QuantParams`],
    /// producing the architecture-generic [`QuantRanges`] map the
    /// lowering pipeline consumes.
    ///
    /// # Errors
    ///
    /// [`LowerError::EmptyCalibration`] when no site was observed;
    /// [`LowerError::Quantization`] if a site's observed range cannot
    /// form valid parameters (only non-finite values seen).
    pub fn ranges(&self, bits: u8) -> Result<QuantRanges, LowerError> {
        if self.trackers.is_empty() {
            return Err(LowerError::EmptyCalibration);
        }
        let mut out = QuantRanges::new();
        for ((layer, kind, in_routing), tracker) in &self.trackers {
            let params = tracker
                .to_params(bits)
                .map_err(|source| LowerError::Quantization {
                    layer: layer.clone(),
                    source,
                })?;
            out.insert(layer, *kind, *in_routing, params);
        }
        Ok(out)
    }

    /// Quantizes the retained MAC-input samples with each site's
    /// calibrated range, concatenated in a deterministic site order —
    /// the empirical **activation-operand pool** for component
    /// characterization. Sites without a range in `ranges` are skipped.
    ///
    /// Empty unless the observer was created with
    /// [`CalibrationObserver::with_samples`].
    pub fn sampled_input_codes(&self, ranges: &QuantRanges) -> Vec<u8> {
        let mut out = Vec::new();
        for (key, bucket) in &self.samples {
            let params = if key.1 {
                ranges.get_routing(&key.0, OpKind::MacInput)
            } else {
                ranges.get(&key.0, OpKind::MacInput)
            };
            if let Some(params) = params {
                out.extend(bucket.values.iter().map(|&v| params.quantize(v) as u8));
            }
        }
        out
    }
}

impl Injector for CalibrationObserver {
    /// Requests [`OpKind::MacInput`] taps too: MAC inputs are exactly
    /// the arrays the quantized datapath feeds to the multipliers.
    fn observes_inputs(&self) -> bool {
        true
    }

    fn inject(&mut self, site: &OpSite, tensor: &mut Tensor) {
        self.trackers
            .entry((
                site.layer_name.clone(),
                site.kind,
                site.routing_iter.is_some(),
            ))
            .or_default()
            .observe(tensor);
        if self.max_samples_per_site > 0
            && site.kind == OpKind::MacInput
            && !tensor.data().is_empty()
        {
            let cap = self.max_samples_per_site;
            let bucket = self
                .samples
                .entry((site.layer_name.clone(), site.routing_iter.is_some()))
                .or_default();
            // Stride so long tensors offer spread-out values; the
            // reservoir then keeps every pass's offers equally likely,
            // so the pool spans the whole calibration sweep.
            let stride = (tensor.len() / cap).max(1);
            for &v in tensor.data().iter().step_by(stride).take(cap) {
                bucket.offer(v, cap);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_ranges_per_site_and_merges_visits() {
        let mut obs = CalibrationObserver::new();
        let site = OpSite::new(0, "Conv1", OpKind::MacOutput);
        obs.inject(&site, &mut Tensor::from_slice(&[0.0, 2.0]));
        obs.inject(&site, &mut Tensor::from_slice(&[-1.0, 1.0]));
        let t = obs.tracker("Conv1", OpKind::MacOutput).unwrap();
        assert_eq!(t.min(), -1.0);
        assert_eq!(t.max(), 2.0);
        let p = obs.params("Conv1", OpKind::MacOutput, 8).unwrap();
        assert_eq!(p.quantize(-1.0), 0);
        assert_eq!(p.quantize(2.0), 255);
    }

    #[test]
    fn distinct_sites_get_distinct_trackers() {
        let mut obs = CalibrationObserver::new();
        obs.inject(
            &OpSite::new(0, "Conv1", OpKind::MacOutput),
            &mut Tensor::from_slice(&[5.0]),
        );
        obs.inject(
            &OpSite::new(1, "ClassCaps", OpKind::Softmax),
            &mut Tensor::from_slice(&[0.25]),
        );
        assert_eq!(obs.ranges(8).unwrap().len(), 2);
        assert!(obs.tracker("Conv1", OpKind::Softmax).is_none());
    }

    #[test]
    fn routing_sites_are_tracked_apart_from_layer_sites() {
        let mut obs = CalibrationObserver::new();
        // The vote tensor (outside routing) and the weighted sum
        // (inside routing) share (layer, kind) but not scale.
        obs.inject(
            &OpSite::new(2, "ClassCaps", OpKind::MacOutput),
            &mut Tensor::from_slice(&[-1.0, 1.0]),
        );
        obs.inject(
            &OpSite::routing(2, "ClassCaps", OpKind::MacOutput, 0),
            &mut Tensor::from_slice(&[-40.0, 40.0]),
        );
        let votes = obs.tracker("ClassCaps", OpKind::MacOutput).unwrap();
        assert_eq!((votes.min(), votes.max()), (-1.0, 1.0));
        let s = obs.routing_tracker("ClassCaps", OpKind::MacOutput).unwrap();
        assert_eq!((s.min(), s.max()), (-40.0, 40.0));
        let ranges = obs.ranges(8).unwrap();
        assert!(ranges.get_routing("ClassCaps", OpKind::MacOutput).is_some());
    }

    #[test]
    fn unvisited_site_errors() {
        let obs = CalibrationObserver::new();
        assert!(obs.params("Nope", OpKind::MacOutput, 8).is_err());
    }

    #[test]
    fn observes_inputs_opt_in() {
        assert!(CalibrationObserver::new().observes_inputs());
    }

    #[test]
    fn ranges_convert_every_observed_site() {
        let mut obs = CalibrationObserver::new();
        obs.inject(
            &OpSite::new(0, "Conv1", OpKind::MacInput),
            &mut Tensor::from_slice(&[-1.0, 1.0]),
        );
        obs.inject(
            &OpSite::routing(2, "ClassCaps", OpKind::Softmax, 0),
            &mut Tensor::from_slice(&[0.0, 1.0]),
        );
        let ranges = obs.ranges(8).unwrap();
        assert_eq!(ranges.len(), 2);
        assert!(ranges.get("Conv1", OpKind::MacInput).is_some());
        assert!(ranges.get_routing("ClassCaps", OpKind::Softmax).is_some());
        assert_eq!(
            CalibrationObserver::new().ranges(8).unwrap_err(),
            crate::lower::LowerError::EmptyCalibration
        );
    }

    /// The empirical pool must represent the whole calibration sweep,
    /// not just the first image: later passes displace reservoir slots.
    #[test]
    fn sampled_codes_span_multiple_calibration_passes() {
        let mut obs = CalibrationObserver::with_samples(16);
        let site = OpSite::new(0, "Conv1", OpKind::MacInput);
        // First pass saturates the bucket with 0.0-valued samples…
        obs.inject(&site, &mut Tensor::zeros(&[64]));
        // …then many later passes offer 1.0-valued samples.
        for _ in 0..8 {
            obs.inject(&site, &mut Tensor::from_fn(&[64], |_| 1.0));
        }
        let mut ranges = QuantRanges::new();
        ranges.insert(
            "Conv1",
            OpKind::MacInput,
            false,
            QuantParams::from_range(0.0, 1.0, 8).unwrap(),
        );
        let codes = obs.sampled_input_codes(&ranges);
        assert_eq!(codes.len(), 16);
        assert!(
            codes.contains(&255),
            "later passes never reached the pool: {codes:?}"
        );
        // Deterministic: an identical observation sequence gives an
        // identical pool.
        let mut obs2 = CalibrationObserver::with_samples(16);
        obs2.inject(&site, &mut Tensor::zeros(&[64]));
        for _ in 0..8 {
            obs2.inject(&site, &mut Tensor::from_fn(&[64], |_| 1.0));
        }
        assert_eq!(codes, obs2.sampled_input_codes(&ranges));
    }
}
