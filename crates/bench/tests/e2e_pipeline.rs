//! Workspace-level integration test: the tiny end-to-end ReD-CaNe
//! pipeline, run deterministically from a fixed seed through the same
//! code path as the `pipeline` binary.

use redcane::report::json;
use redcane::Group;
use redcane_bench::cli::{stable_lines, Bench};
use redcane_bench::pipeline::{outcome_to_json, run_pipeline, spec, PipelineOutcome};
use redcane_bench::session::{BenchSpec, NM_GRID};

/// The one CapsNet outcome of a pipeline run at `cfg`.
fn run_capsnet(cfg: &BenchSpec) -> PipelineOutcome {
    let mut outcomes = run_pipeline(cfg);
    assert_eq!(outcomes.len(), 1, "one outcome per architecture");
    outcomes.remove(0)
}

fn tiny_config() -> BenchSpec {
    BenchSpec {
        train: 120,
        test: 40,
        seed: 77,
        epochs: 3,
        eval_samples: 25,
        characterization_samples: 2000,
        calib_samples: 16,
        ..spec()
    }
}

#[test]
fn pipeline_runs_end_to_end_and_is_deterministic() {
    let cfg = tiny_config();
    let outcome = run_capsnet(&cfg);

    // The model trained above chance (10 classes).
    assert!(
        outcome.test_accuracy > 0.2,
        "test accuracy {}",
        outcome.test_accuracy
    );

    // Step 1 found all four operation groups of Table III.
    assert_eq!(outcome.report.inventory.sites.len(), 4);
    for group in Group::all() {
        assert!(
            !outcome.report.inventory.group_layers(group).is_empty(),
            "group {group} has no layers"
        );
    }

    // Step 2 swept every group over the requested grid.
    assert_eq!(outcome.report.group_sweep.curves.len(), 4);
    for curve in &outcome.report.group_sweep.curves {
        assert_eq!(curve.points.len(), NM_GRID.len());
    }

    // Steps 4/5 covered exactly the non-resilient groups.
    assert_eq!(
        outcome.report.layer_sweeps.len(),
        outcome.report.group_marking.non_resilient().len()
    );

    // Step 6 assigned a component everywhere and validated it.
    assert!(!outcome.report.design.assignments.is_empty());
    assert!(outcome.report.design.baseline_accuracy > 0.0);

    // Same seed, same everything.
    let replay = run_capsnet(&cfg);
    assert_eq!(outcome.report, replay.report);
    assert_eq!(outcome.test_accuracy, replay.test_accuracy);
}

/// `REDCANE_THREADS=1` and `REDCANE_THREADS=4` must produce the same
/// pipeline JSON bit for bit. The test drives the same knob through
/// `par::set_threads` (the runtime override the env var feeds), which —
/// unlike mutating the process environment — is race-free under the
/// multi-threaded test harness.
#[test]
fn pipeline_json_is_bitwise_identical_across_worker_counts() {
    let cfg = BenchSpec {
        train: 60,
        test: 20,
        epochs: 1,
        characterization_samples: 500,
        eval_samples: 10,
        ..tiny_config()
    };
    let stable = |cfg: &BenchSpec| stable_lines::<BenchSpec>(&BenchSpec::lines(&cfg.run()));
    redcane_tensor::par::set_threads(1);
    let one = stable(&cfg);
    redcane_tensor::par::set_threads(4);
    let four = stable(&cfg);
    redcane_tensor::par::set_threads(0);
    assert_eq!(one, four, "worker count must not perturb a single bit");
}

#[test]
fn pipeline_json_line_round_trips_and_carries_the_paper_quantities() {
    let outcome = run_capsnet(&tiny_config());
    let line = outcome_to_json(&outcome).dump();
    assert!(!line.contains('\n'));
    let parsed = json::parse(&line).expect("pipeline emits valid JSON");

    // Accuracy drop per group…
    let groups = parsed.get("groups").unwrap().as_arr().unwrap();
    assert_eq!(groups.len(), 4);
    let slugs: Vec<&str> = groups
        .iter()
        .map(|g| g.get("group").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(
        slugs,
        ["mac_outputs", "activations", "softmax", "logits_update"]
    );
    for g in groups {
        let drops = g.get("drop_pp").unwrap().as_arr().unwrap();
        assert_eq!(drops.len(), NM_GRID.len());
        assert!(drops.iter().all(|d| d.as_f64().is_some()));
    }

    // …and selected components.
    let components = parsed.get("components").unwrap().as_arr().unwrap();
    assert_eq!(components.len(), outcome.report.design.assignments.len());
    for c in components {
        assert!(c
            .get("component")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("mul8u_"));
        assert!(c.get("power_uw").unwrap().as_f64().unwrap() > 0.0);
    }

    // The Step-3 marking rides along, one entry per group.
    let marking = parsed.get("marking").unwrap().as_arr().unwrap();
    assert_eq!(marking.len(), outcome.report.group_marking.entries.len());
}
