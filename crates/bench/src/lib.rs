//! # redcane-bench
//!
//! The workspace's benchmark harness, behind the crate's binaries:
//!
//! - **`pipeline`** ([`pipeline`]) — runs the complete ReD-CaNe
//!   methodology end to end (dataset generation → tiny CapsNet training
//!   → group extraction → noise sweep → component selection →
//!   heterogeneous-design re-score on the measured quantized datapath)
//!   from a fixed seed and emits one machine-readable JSON line;
//! - **`qdp`**, **`faults`** and **`serve`** ([`qdp`], [`faults`],
//!   [`serve`]) — measured vs noise-predicted accuracy per multiplier,
//!   per-site fault criticality, and serving the Step-6 design;
//! - **`perf`** ([`perf`]) — kernel probes and the regression tripwire;
//! - **`lint`** — the workspace invariant checker.
//!
//! Every bench that runs a trained model opens one shared
//! [`session`], so they train, restore, calibrate and lower their
//! models through the same code. The library exposes each bench's run
//! function so integration tests drive the exact code path of the
//! binary and parse the exact same JSON.
#![forbid(unsafe_code)]

pub mod cli;
pub mod faults;
pub mod perf;
pub mod pipeline;
pub mod profile;
pub mod qdp;
pub mod serve;
pub mod session;

/// The `pipeline` bench's tests.
#[cfg(test)]
mod tests {
    use crate::pipeline::{
        outcome_to_json, outcome_to_json_stable, run_pipeline, spec, PipelineOutcome,
    };
    use crate::session::{Arch, BenchSpec, NM_GRID};
    use redcane::report::json;
    use redcane_artifacts::Provenance;
    use redcane_tensor::par;

    fn tiny() -> BenchSpec {
        crate::session::tiny(vec![Arch::CapsNet])
    }

    #[test]
    fn smoke_config_is_fast_shaped() {
        let spec = spec();
        assert!(spec.train <= 1000);
        assert_eq!(spec.archs.len(), 1);
        assert!(spec.eval_samples < spec.test);
        assert!(NM_GRID.len() <= 4);
    }

    #[test]
    fn pipeline_json_schema_is_stable() {
        // A tiny but real run; keeps the schema test honest without
        // needing minutes of training.
        let outcome = run_pipeline(&tiny());
        let line = outcome_to_json(&outcome).dump();
        assert!(!line.contains('\n'), "must be a single line");
        let parsed = json::parse(&line).unwrap();
        for key in [
            "bench",
            "schema_version",
            "benchmark",
            "seed",
            "timings_s",
            "test_accuracy",
            "baseline_accuracy",
            "groups",
            "components",
            "predicted_accuracy",
            "predicted_drop_pp",
            "measured_accuracy",
            "measured_drop_pp",
        ] {
            assert!(parsed.get(key).is_some(), "missing key {key}");
        }
        // The heterogeneous design was re-scored on the measured
        // datapath: both drops are real numbers.
        assert!(parsed.get("measured_accuracy").unwrap().as_f64().is_some());
        assert!(parsed.get("measured_drop_pp").unwrap().as_f64().is_some());
        let groups = parsed.get("groups").unwrap().as_arr().unwrap();
        assert_eq!(groups.len(), 4, "accuracy drop per group");
        for g in groups {
            assert!(g.get("critical_nm").unwrap().as_f64().is_some());
            assert_eq!(
                g.get("drop_pp").unwrap().as_arr().unwrap().len(),
                NM_GRID.len()
            );
        }
        assert!(!parsed
            .get("components")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn equal_seeds_give_equal_json() {
        static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = THREADS_LOCK.lock().unwrap();
        let dump = |threads: usize| {
            par::set_threads(threads);
            let json = outcome_to_json_stable(&run_pipeline(&tiny()));
            par::set_threads(0);
            json
        };
        // Timings differ run to run; the stable form strips them. And
        // determinism must not depend on parallelism.
        assert_eq!(dump(2), dump(1));
    }

    /// The artifact-store acceptance bar: a cold (train) run and a warm
    /// (restore) run emit byte-identical stable JSON, and both match a
    /// storeless run. The warm run must not train at all.
    #[test]
    fn cold_and_warm_runs_give_identical_json() {
        let dir = std::env::temp_dir().join(format!(
            "redcane-bench-pipeline-store-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = BenchSpec {
            artifacts: Some(dir.clone()),
            ..tiny()
        };
        let cold = run_pipeline(&spec);
        assert_eq!(cold.provenance, Provenance::Trained);
        let warm = run_pipeline(&spec);
        assert_eq!(warm.provenance, Provenance::Restored);
        let uncached = run_pipeline(&BenchSpec {
            artifacts: None,
            ..spec.clone()
        });
        assert_eq!(uncached.provenance, Provenance::Trained);
        let dump = |o: &PipelineOutcome| outcome_to_json_stable(o).dump();
        assert_eq!(dump(&cold), dump(&warm));
        assert_eq!(dump(&cold), dump(&uncached));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
