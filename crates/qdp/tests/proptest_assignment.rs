//! Property tests for the heterogeneous-datapath evaluation API:
//!
//! 1. A `PreparedModel` under the **exact** uniform assignment equals the
//!    plain float predictions — on both architectures, for any seed:
//!    every prediction matches unless the float network itself was
//!    nearly tied between the two classes (quantization can only flip
//!    ties, never change the model).
//! 2. A **mixed** two-multiplier assignment is a genuinely different
//!    datapath: its outputs differ from *either* uniform run.
//! 3. `DatapathAssignment::from_design` covers every multiplier site a
//!    lowered program executes, and removing a layer's assignment makes
//!    resolution fail loudly with the missing site.

use proptest::prelude::*;
use redcane::datapath::{BackendError, DatapathAssignment};
use redcane::{extract_groups, ApproxDesign, Assignment, Group};
use redcane_axmul::{LutCache, MultiplierLibrary};
use redcane_capsnet::inject::OpKind;
use redcane_capsnet::{CapsModel, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig, NoInjection};
use redcane_qdp::{calibrate_ranges, PreparedModel, QModel};
use redcane_tensor::{Tensor, TensorRng};

/// The components these tests exercise, tabulated once across every
/// proptest case (tabulating 64 KiB tables per case dominates
/// otherwise).
fn shared_luts() -> &'static LutCache {
    static LUTS: std::sync::OnceLock<LutCache> = std::sync::OnceLock::new();
    LUTS.get_or_init(|| {
        LutCache::for_components(
            &MultiplierLibrary::evo_approx_like(),
            ["mul8u_1JFF", "mul8u_QKX", "mul8u_NGR"],
        )
        .expect("library components")
    })
}

/// Lowers a freshly initialized model, calibrated on its own images.
fn lowered(model: &mut dyn CapsModel, images: &[Tensor]) -> QModel {
    let ranges = calibrate_ranges(model, images.iter()).expect("finite activations");
    QModel::lower(model, &ranges).expect("every site calibrated")
}

fn images(rng: &mut TensorRng, count: usize) -> Vec<Tensor> {
    (0..count)
        .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
        .collect()
}

/// Resolves `assignment` over `q`, panicking on a gap.
fn prepared(q: &QModel, assignment: &DatapathAssignment) -> PreparedModel {
    match PreparedModel::new(q.clone(), assignment, shared_luts()) {
        Ok(p) => p,
        Err(err) => panic!("assignment does not resolve: {err}"),
    }
}

/// The error `PreparedModel::new` rejects `assignment` with.
fn rejection(q: &QModel, assignment: &DatapathAssignment) -> BackendError {
    match PreparedModel::new(q.clone(), assignment, shared_luts()) {
        Ok(_) => panic!("assignment unexpectedly resolved"),
        Err(err) => err,
    }
}

/// The two float lengths competing at an argmax disagreement.
fn float_margin(lengths: &Tensor, a: usize, b: usize) -> f32 {
    (lengths.data()[a] - lengths.data()[b]).abs()
}

proptest! {
    /// Uniform-exact measured predictions equal the float predictions
    /// on every sample whose float decision was not a near-tie.
    #[test]
    fn uniform_exact_equals_float_predictions_on_both_archs(seed in 0u64..200) {
        let mut rng = TensorRng::from_seed(seed.wrapping_mul(0x9e37) + 3);
        let exact = DatapathAssignment::uniform("mul8u_1JFF");

        let mut capsnet = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let mut deepcaps = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);
        let imgs = images(&mut rng, 2);
        let models: [&mut dyn CapsModel; 2] = [&mut capsnet, &mut deepcaps];
        for model in models {
            let q = prepared(&lowered(model, &imgs), &exact);
            for image in &imgs {
                let float_lengths = model.forward(image, &mut NoInjection);
                let f = float_lengths.argmax().unwrap();
                let m = q.predict_batch(&[image])[0];
                prop_assert!(
                    m == f || float_margin(&float_lengths, f, m) < 0.1,
                    "{}: quantized-exact flipped a decisive float prediction \
                     ({f} -> {m}, margin {})",
                    model.name(),
                    float_margin(&float_lengths, f, m),
                );
            }
        }
    }

    /// A mixed assignment — an aggressive multiplier on the stem, the
    /// exact one everywhere else — differs from both uniform runs.
    #[test]
    fn mixed_assignment_differs_from_either_uniform(seed in 0u64..200) {
        let mut rng = TensorRng::from_seed(seed.wrapping_mul(0x51ed) + 7);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let imgs = images(&mut rng, 2);
        let q = lowered(&mut model, &imgs);

        // Mixed: every site exact except the stem convolution, which
        // runs the crudest DRUM component.
        let mut mixed = DatapathAssignment::per_site();
        for (layer, kind, in_routing) in q.multiply_sites() {
            let component = if layer == "Conv1" { "mul8u_QKX" } else { "mul8u_1JFF" };
            mixed.assign(layer, kind, in_routing, component);
        }
        let mixed = prepared(&q, &mixed);
        let uniform_exact = prepared(&q, &DatapathAssignment::uniform("mul8u_1JFF"));
        let uniform_qkx = prepared(&q, &DatapathAssignment::uniform("mul8u_QKX"));

        let mut diff_exact = false;
        let mut diff_qkx = false;
        for image in &imgs {
            let m = mixed.forward_batch(&[image]);
            diff_exact |= m != uniform_exact.forward_batch(&[image]);
            diff_qkx |= m != uniform_qkx.forward_batch(&[image]);
        }
        prop_assert!(diff_exact, "mixed run reproduced the uniform-exact datapath");
        prop_assert!(diff_qkx, "mixed run reproduced the uniform-QKX datapath");
    }
}

/// `from_design` must cover exactly the multiplier sites the lowered
/// program executes, and an incomplete design must fail with the
/// missing site named.
#[test]
fn from_design_covers_every_multiply_site_and_errors_on_gaps() {
    let mut rng = TensorRng::from_seed(777);
    let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
    let imgs = images(&mut rng, 2);
    let q = lowered(&mut model, &imgs);

    // A design shaped like Step 6's output: one assignment per
    // (layer, group) pair of the real inventory.
    let inventory = extract_groups(&mut model, &imgs[0]);
    let assignments: Vec<Assignment> = Group::all()
        .into_iter()
        .flat_map(|group| {
            inventory
                .group_layers(group)
                .into_iter()
                .map(move |layer| Assignment {
                    layer,
                    group,
                    tolerable_nm: 0.01,
                    component: "mul8u_NGR".to_string(),
                    component_noise: (0.0, 0.001),
                    power_uw: 276.0,
                    area_um2: 512.0,
                })
        })
        .collect();
    let design = ApproxDesign {
        model_name: model.name(),
        assignments,
        mean_power_saving: 0.1,
        baseline_accuracy: 0.5,
        predicted_accuracy: 0.5,
        measured_accuracy: None,
    };
    let full = DatapathAssignment::from_design(&design);
    // A full design covers every multiply site.
    prepared(&q, &full);
    // Every program site resolves to the design's component.
    for (layer, kind, in_routing) in q.multiply_sites() {
        assert_eq!(
            full.component_for(&layer, kind, in_routing),
            Some("mul8u_NGR"),
            "site ({layer}, {kind}, routing={in_routing}) unresolved"
        );
    }

    // Dropping one layer's MAC-outputs row leaves its GEMM site
    // unassigned — evaluation must name it, not fall back silently.
    let mut partial = design.clone();
    partial
        .assignments
        .retain(|a| !(a.layer == "PrimaryCaps" && a.group == Group::MacOutputs));
    let gap = DatapathAssignment::from_design(&partial);
    let err = rejection(&q, &gap);
    assert_eq!(
        err,
        BackendError::UnassignedSite {
            layer: "PrimaryCaps".to_string(),
            kind: OpKind::MacOutput,
            in_routing: false,
        }
    );
}
