//! `--profile` support shared by the bench binaries: turns the
//! `redcane-trace` planes into a schema-versioned `BENCH_profile.json`
//! (plus an optional stable-counter file and a folded-stack file).
//!
//! The profile document has five sections:
//!
//! - `bench` / `schema_version` — which binary wrote it, and v1;
//! - `meta` — run metadata that is *expected* to vary between
//!   otherwise-identical runs: worker-thread count, artifact-store
//!   provenance. Self-describing CI artifacts, never byte-compared;
//! - `counters` — the **stable** [`Region::Run`] work counters
//!   ([`Counter::stable`]): bit-identical at every `REDCANE_THREADS`
//!   setting and between cold and warm artifact stores;
//! - `store` — artifact-store traffic (hits/misses/heals) and the
//!   structured events captured from it; cache-state-dependent by
//!   nature;
//! - `train_counters` — work done inside artifact `produce` closures
//!   (only non-zero on cold runs);
//! - `timings` — the hierarchical wall-clock span table. Never
//!   deterministic; stripped through the same [`Value::without_keys`]
//!   redaction the session benches' stable `--out` lines use.
//!
//! The `--profile-counters` file is exactly the profile with the
//! volatile sections redacted, so CI can `cmp` it across thread counts
//! and store states.
//!
//! [`Region::Run`]: trace::Region::Run
//! [`Counter::stable`]: trace::Counter::stable

use std::path::PathBuf;

use redcane::report::json::Value;
use redcane_artifacts::Provenance;
use redcane_trace as trace;

use crate::cli::next_value;
use crate::session::Arch;

/// Profile schema version.
pub const PROFILE_SCHEMA_VERSION: usize = 1;

/// The top-level profile sections that may legitimately differ between
/// runs of identical work — redacted to obtain the byte-comparable
/// counter document.
pub const VOLATILE_SECTIONS: [&str; 4] = ["meta", "store", "train_counters", "timings"];

/// Where a bench run's profile outputs go; all optional.
#[derive(Debug, Clone, Default)]
pub struct ProfileArgs {
    /// Full profile JSON (`--profile PATH`).
    pub profile: Option<PathBuf>,
    /// Stable counter section only (`--profile-counters PATH`).
    pub counters: Option<PathBuf>,
    /// Folded-stack span lines for flamegraph tooling
    /// (`--profile-folded PATH`).
    pub folded: Option<PathBuf>,
}

impl ProfileArgs {
    /// Consumes `flag` (and its value) if it is one of the profile
    /// flags. `None` means "not a profile flag"; the caller falls
    /// through to its own error handling.
    pub fn match_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Option<Result<(), String>> {
        match flag {
            "--profile" => {
                Some(next_value(args, "--profile").map(|v| self.profile = Some(PathBuf::from(v))))
            }
            "--profile-counters" => Some(
                next_value(args, "--profile-counters")
                    .map(|v| self.counters = Some(PathBuf::from(v))),
            ),
            "--profile-folded" => Some(
                next_value(args, "--profile-folded").map(|v| self.folded = Some(PathBuf::from(v))),
            ),
            _ => None,
        }
    }

    /// Whether any profile output was requested.
    pub fn requested(&self) -> bool {
        self.profile.is_some() || self.counters.is_some() || self.folded.is_some()
    }

    /// Arms the trace layer for this run when any output was requested
    /// (a fresh [`trace::reset`] so the profile covers exactly this
    /// run). Leaves tracing disabled — the zero-overhead default —
    /// otherwise.
    pub fn enable_if_requested(&self) {
        if self.requested() {
            trace::reset();
            trace::set_enabled(true);
        }
    }

    /// Snapshots the trace state and writes every requested output.
    /// `meta` carries bench-specific metadata (artifact provenance,
    /// …) into the profile's `meta` section next to `num_threads`.
    ///
    /// # Errors
    ///
    /// A user-facing message naming the file that could not be written.
    pub fn write(&self, bench: &str, meta: Vec<(String, Value)>) -> Result<(), String> {
        if !self.requested() {
            return Ok(());
        }
        let full = profile_to_json(bench, meta, trace::snapshot());
        let write = |path: &PathBuf, body: String| {
            std::fs::write(path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        if let Some(path) = &self.profile {
            write(path, format!("{}\n", full.dump()))?;
        }
        if let Some(path) = &self.counters {
            write(path, format!("{}\n", stable_counters(&full).dump()))?;
        }
        if let Some(path) = &self.folded {
            write(path, trace::folded())?;
        }
        Ok(())
    }
}

/// The session benches' `meta`: each architecture's artifact-store
/// provenance (`trained` or `restored`), keyed by its label.
pub fn provenance_meta(
    archs: impl IntoIterator<Item = (Arch, Provenance)>,
) -> Vec<(String, Value)> {
    let per_arch = archs
        .into_iter()
        .map(|(arch, provenance)| (arch.label().to_string(), Value::from(provenance.label())))
        .collect();
    vec![("provenance".to_string(), Value::Obj(per_arch))]
}

/// The byte-comparable subset of a profile document: everything except
/// the [`VOLATILE_SECTIONS`]. Shares the stable `--out` lines'
/// redaction primitive ([`crate::cli::stable_lines`]), so there is
/// exactly one stripping mechanism.
pub fn stable_counters(profile: &Value) -> Value {
    profile.without_keys(&VOLATILE_SECTIONS)
}

/// Assembles the full profile document from a trace snapshot plus the
/// current span and event tables.
pub fn profile_to_json(bench: &str, meta: Vec<(String, Value)>, snap: trace::Snapshot) -> Value {
    let mut meta_fields = vec![(
        "num_threads".into(),
        Value::from(redcane_tensor::par::num_threads()),
    )];
    meta_fields.extend(meta);

    let counters: Vec<(String, Value)> = trace::Counter::ALL
        .iter()
        .filter(|c| c.stable())
        .map(|&c| (c.name().into(), Value::from(snap.run(c) as f64)))
        .collect();
    let train_counters: Vec<(String, Value)> = trace::Counter::ALL
        .iter()
        .filter(|&&c| snap.train(c) != 0)
        .map(|&c| (c.name().into(), Value::from(snap.train(c) as f64)))
        .collect();

    let events: Vec<Value> = trace::events()
        .into_iter()
        .map(|e| {
            Value::Obj(vec![
                ("kind".into(), Value::from(e.kind)),
                ("detail".into(), Value::from(e.detail)),
            ])
        })
        .collect();
    let store = Value::Obj(vec![
        (
            "artifact_hits".into(),
            Value::from(snap.run(trace::Counter::ArtifactHits) as f64),
        ),
        (
            "artifact_misses".into(),
            Value::from(snap.run(trace::Counter::ArtifactMisses) as f64),
        ),
        (
            "artifact_heals".into(),
            Value::from(snap.run(trace::Counter::ArtifactHeals) as f64),
        ),
        ("events".into(), Value::Arr(events)),
    ]);

    let timings: Vec<Value> = trace::span_stats()
        .into_iter()
        .map(|(path, stat)| {
            Value::Obj(vec![
                ("path".into(), Value::from(path)),
                ("ns".into(), Value::from(stat.ns as f64)),
                ("count".into(), Value::from(stat.count as f64)),
            ])
        })
        .collect();

    Value::Obj(vec![
        ("bench".into(), Value::from(bench)),
        ("schema_version".into(), Value::from(PROFILE_SCHEMA_VERSION)),
        ("meta".into(), Value::Obj(meta_fields)),
        ("counters".into(), Value::Obj(counters)),
        ("store".into(), store),
        ("train_counters".into(), Value::Obj(train_counters)),
        ("timings".into(), Value::Arr(timings)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> impl Iterator<Item = String> {
        items
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn match_flag_consumes_profile_flags_only() {
        let mut p = ProfileArgs::default();
        assert!(!p.requested());
        let mut it = args(&["a.json", "b.json", "c.txt"]);
        assert_eq!(p.match_flag("--profile", &mut it), Some(Ok(())));
        assert_eq!(p.match_flag("--profile-counters", &mut it), Some(Ok(())));
        assert_eq!(p.match_flag("--profile-folded", &mut it), Some(Ok(())));
        assert!(p.match_flag("--seed", &mut it).is_none());
        assert!(p.requested());
        assert_eq!(p.profile.as_deref(), Some(std::path::Path::new("a.json")));
        // Exhausted stream: the flag reports its own missing value.
        assert!(p.match_flag("--profile", &mut it).unwrap().is_err());
    }

    #[test]
    fn profile_document_sections_and_stable_redaction() {
        let snap = trace::snapshot();
        let doc = profile_to_json(
            "pipeline",
            vec![("provenance".into(), Value::from("trained"))],
            snap,
        );
        for key in [
            "bench",
            "schema_version",
            "meta",
            "counters",
            "store",
            "train_counters",
            "timings",
        ] {
            assert!(doc.get(key).is_some(), "missing section {key}");
        }
        assert!(doc.get("meta").unwrap().get("num_threads").is_some());
        assert!(doc.get("meta").unwrap().get("provenance").is_some());
        // Stable counters exclude the store traffic…
        let counters = doc.get("counters").unwrap();
        assert!(counters.get("qgemm_macs").is_some());
        assert!(counters.get("artifact_hits").is_none());
        // …which lives in the store section instead.
        assert!(doc.get("store").unwrap().get("artifact_hits").is_some());
        // The byte-comparable form drops every volatile section.
        let stable = stable_counters(&doc);
        for key in VOLATILE_SECTIONS {
            assert!(stable.get(key).is_none(), "{key} must be redacted");
        }
        assert!(stable.get("counters").is_some());
        assert!(!stable.dump().contains('\n'));
    }
}
