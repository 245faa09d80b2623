//! Pins the index space of weight-code faults: a `BitFlip` on a MAC
//! site's weight memory flips exactly the codes one
//! [`fault_codes`] call would flip over the site's clean codes laid back
//! to back, from index 0, under the plan's site seed — for every
//! non-routing MAC site of both architectures (`Conv`, `CapsConv`,
//! DeepCaps' `Caps3d` across its per-type vote convolutions, and
//! `ClassCaps`' vote transform).

use redcane::faults::{FaultModel, FaultPlan, FaultTarget, SiteFault};
use redcane_capsnet::inject::OpKind;
use redcane_capsnet::{CapsModel, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig};
use redcane_qdp::{calibrate_ranges, fault_codes, QModel};
use redcane_tensor::TensorRng;

fn lowered(model: &mut dyn CapsModel, rng: &mut TensorRng) -> QModel {
    let images: Vec<_> = (0..3)
        .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
        .collect();
    let ranges = calibrate_ranges(model, images.iter()).expect("finite activations");
    QModel::lower(model, &ranges).expect("every site calibrated")
}

/// Every weight code of `q` (in program order) with `model` applied to
/// the weight memory of `layer`'s MAC site.
fn codes_under(q: &QModel, layer: &str, model: FaultModel) -> Vec<u8> {
    let plan = FaultPlan::identity(41).with(
        layer,
        OpKind::MacOutput,
        false,
        SiteFault::new(FaultTarget::WeightCodes, model),
    );
    q.with_fault_plan(&plan).weight_code_sample(usize::MAX)
}

fn stuck(value: bool) -> FaultModel {
    FaultModel::StuckAt { lanes: 0xff, value }
}

/// Checks every non-routing MAC site of `q`, and that their weight
/// memories tile the program's codes in program order; returns how
/// many sites it checked.
fn assert_weight_faults_follow_one_index_space(q: &QModel) -> usize {
    let clean = q.weight_code_sample(usize::MAX);
    let flips = FaultModel::BitFlip { ber: 0.05 };
    let (mut next, mut sites) = (0, 0);
    for (layer, kind, in_routing) in q.multiply_sites() {
        if (kind, in_routing) != (OpKind::MacOutput, false) {
            continue;
        }
        // The site's weight memory is where an all-ones and an
        // all-zeros stuck-at fault disagree.
        let (ones, zeros) = (
            codes_under(q, &layer, stuck(true)),
            codes_under(q, &layer, stuck(false)),
        );
        let span: Vec<usize> = (0..clean.len()).filter(|&i| ones[i] != zeros[i]).collect();
        let (start, end) = (span[0], span[span.len() - 1] + 1);
        assert_eq!(
            (start, span.len()),
            (next, end - start),
            "{layer}: one contiguous memory"
        );
        next = end;

        let plan = FaultPlan::identity(41);
        let mut want = clean.clone();
        let seed = plan.site_seed(&layer, OpKind::MacOutput, false);
        assert_eq!(
            fault_codes(&mut want[start..end], &flips, seed, 0),
            (end - start) as u64
        );
        let got = codes_under(q, &layer, flips);
        assert_ne!(got, clean, "{layer}: the fault flips some code");
        assert_eq!(
            got, want,
            "{layer}: one fault_codes call over the site's codes"
        );
        sites += 1;
    }
    assert_eq!(
        next,
        clean.len(),
        "the sites' memories cover every weight code"
    );
    sites
}

#[test]
fn capsnet_weight_faults_follow_one_index_space() {
    let mut rng = TensorRng::from_seed(611);
    let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
    let q = lowered(&mut model, &mut rng);
    // Conv1, PrimaryCaps and ClassCaps.
    assert_eq!(assert_weight_faults_follow_one_index_space(&q), 3);
}

#[test]
fn deepcaps_weight_faults_follow_one_index_space() {
    let mut rng = TensorRng::from_seed(612);
    let mut model = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);
    let q = lowered(&mut model, &mut rng);
    // The stem, four convolutions per cell, the last cell's lead,
    // mid, Caps3D and skip, and ClassCaps.
    assert_eq!(assert_weight_faults_follow_one_index_space(&q), 18);
}
