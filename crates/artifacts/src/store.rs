//! The store itself: a directory of artifact files plus the
//! `load_or_train` entry point every consumer goes through.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use redcane_capsnet::io::{weights_from_bytes, weights_to_bytes};
use redcane_capsnet::CapsModel;
use redcane_trace as trace;

use crate::format::{decode_artifact, encode_artifact, is_not_found};
use crate::{ArtifactError, ArtifactKey, ArtifactPayload};

/// Default store directory, relative to the working directory.
pub const DEFAULT_STORE_DIR: &str = ".redcane-artifacts";

/// Environment variable overriding the store directory. An empty value
/// is treated as unset.
pub const STORE_ENV_VAR: &str = "REDCANE_ARTIFACTS";

/// Whether an artifact came out of a fresh training run or was
/// restored from the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// The producer ran (training, calibration, characterization).
    Trained,
    /// The artifact was loaded from the store; zero training epochs ran.
    Restored,
}

impl Provenance {
    /// Lowercase label for logs and JSON (`trained` / `restored`).
    pub fn label(self) -> &'static str {
        match self {
            Provenance::Trained => "trained",
            Provenance::Restored => "restored",
        }
    }
}

/// A directory of artifact files addressed by [`ArtifactKey`].
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Opens (without touching the filesystem) a store rooted at `dir`.
    /// The directory is created lazily on first save.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ArtifactStore { dir: dir.into() }
    }

    /// Resolves the store directory from an explicit `--artifacts` flag,
    /// the [`STORE_ENV_VAR`] environment variable, or
    /// [`DEFAULT_STORE_DIR`], in that precedence order. `no_cache`
    /// disables the store entirely (`None` → always train, never save).
    pub fn resolve_dir(flag: Option<&str>, no_cache: bool) -> Option<PathBuf> {
        if no_cache {
            return None;
        }
        if let Some(dir) = flag {
            return Some(PathBuf::from(dir));
        }
        match std::env::var(STORE_ENV_VAR) {
            Ok(dir) if !dir.is_empty() => Some(PathBuf::from(dir)),
            _ => Some(PathBuf::from(DEFAULT_STORE_DIR)),
        }
    }

    /// Store directory shared by in-repo tests: [`STORE_ENV_VAR`] when
    /// set, otherwise a fixed subdirectory of the system temp dir, so
    /// repeated test runs on one machine reuse each other's training.
    pub fn for_tests() -> Self {
        let dir = match std::env::var(STORE_ENV_VAR) {
            Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => std::env::temp_dir().join("redcane-artifacts"),
        };
        ArtifactStore::new(dir)
    }

    /// Root directory of this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Absolute-or-relative path the given key lives at.
    pub fn path_for(&self, key: &ArtifactKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Loads the artifact for `key`, applying its weights into `model`.
    /// Fails loudly ([`ArtifactError`]) on missing, truncated, corrupt,
    /// wrong-schema or wrong-key entries — and on weights whose tensor
    /// shapes the model rejects.
    pub fn load(
        &self,
        key: &ArtifactKey,
        model: &mut dyn CapsModel,
    ) -> Result<ArtifactPayload, ArtifactError> {
        let data = fs::read(self.path_for(key))?;
        let (weights, payload) = decode_artifact(key, &data)?;
        weights_from_bytes(model, &weights).map_err(|e| ArtifactError::Corrupt {
            what: format!("weight codec rejected WGHT section: {e}"),
        })?;
        Ok(payload)
    }

    /// Serializes `model`'s weights plus `payload` under `key`,
    /// creating the store directory if needed. The write goes through a
    /// temp file and an atomic rename so a crash never leaves a torn
    /// entry under the final name.
    pub fn save(
        &self,
        key: &ArtifactKey,
        model: &mut dyn CapsModel,
        payload: &ArtifactPayload,
    ) -> Result<PathBuf, ArtifactError> {
        fs::create_dir_all(&self.dir)?;
        let weights = weights_to_bytes(model);
        let encoded = encode_artifact(key, &weights, payload);
        let path = self.path_for(key);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        fs::write(&tmp, &encoded)?;
        fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// The single entry point consumers use: restore the artifact for
/// `key` into `model` if the store holds a valid one, otherwise run
/// `produce` (train/calibrate/characterize) and persist its result.
///
/// A rejected entry (corrupt, truncated, stale schema, wrong key,
/// shape-mismatched weights) is reported with its named error — as a
/// structured `artifact_heal` trace event when the profiler is on,
/// falling back to stderr otherwise, and **once per healed entry per
/// process** either way, so a multi-model sweep tripping repeatedly
/// over the same bad file names it exactly once — then retrained and
/// overwritten. With `store == None` (`--no-cache`), `produce` always
/// runs and nothing is written — bit-for-bit the same model and
/// payload as a cache miss.
///
/// Store traffic lands in the `Artifact*` work counters, and `produce`
/// runs under the profiler's `Train` region in every arm, so the
/// run-region counter totals of a profiled benchmark are identical
/// whether the store was cold, warm or disabled.
pub fn load_or_train<M, F>(
    store: Option<&ArtifactStore>,
    key: &ArtifactKey,
    model: &mut M,
    produce: F,
) -> (ArtifactPayload, Provenance)
where
    M: CapsModel,
    F: FnOnce(&mut M) -> ArtifactPayload,
{
    let Some(store) = store else {
        let _train = trace::region(trace::Region::Train);
        return (produce(model), Provenance::Trained);
    };
    match store.load(key, model) {
        Ok(payload) => {
            if trace::enabled() {
                trace::add(trace::Counter::ArtifactHits, 1);
                trace::emit(
                    "artifact_restore",
                    store.path_for(key).display().to_string(),
                );
            }
            (payload, Provenance::Restored)
        }
        Err(err) => {
            if is_not_found(&err) {
                if trace::enabled() {
                    trace::add(trace::Counter::ArtifactMisses, 1);
                }
            } else {
                let path = store.path_for(key);
                if trace::enabled() {
                    trace::add(trace::Counter::ArtifactHeals, 1);
                }
                if first_heal_report(&path) {
                    let detail = format!(
                        "healing {}: rejected with `{err}`; retraining and overwriting",
                        path.display()
                    );
                    if !trace::emit("artifact_heal", detail.clone()) {
                        eprintln!("artifact store: {detail}");
                    }
                }
            }
            let payload = {
                let _train = trace::region(trace::Region::Train);
                produce(model)
            };
            if let Err(err) = store.save(key, model, &payload) {
                let detail = format!(
                    "failed to save {} ({err}); continuing untrained-cache",
                    store.path_for(key).display()
                );
                if !trace::emit("artifact_save_error", detail.clone()) {
                    eprintln!("artifact store: {detail}");
                }
            }
            (payload, Provenance::Trained)
        }
    }
}

/// Records that `path`'s rejection is about to be reported; `true` on
/// the first call per path in this process, `false` after. Keeps heal
/// reports to one line per entry however many consumers trip over the
/// same bad file.
fn first_heal_report(path: &Path) -> bool {
    static REPORTED: OnceLock<Mutex<BTreeSet<PathBuf>>> = OnceLock::new();
    REPORTED
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        // lint: allow(panic) — lock poisoning means another thread already panicked mid-run; propagating the abort is the only recovery
        .expect("heal-report set poisoned")
        .insert(path.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heal_reports_fire_once_per_path() {
        let a = Path::new("/tmp/rcas-test/one.v2.rca");
        let b = Path::new("/tmp/rcas-test/two.v2.rca");
        assert!(first_heal_report(a), "first rejection of a path reports");
        assert!(!first_heal_report(a), "repeat rejections stay silent");
        assert!(first_heal_report(b), "a different path reports again");
        assert!(!first_heal_report(b));
    }
}
