//! The bench session every bench that runs a trained model shares
//! (`pipeline`, `qdp`, `faults` and `serve`): one spec, one
//! train-or-restore-and-lower path.
//!
//! All four benches run on the same trained, calibrated CapsNet /
//! DeepCaps pair. [`BenchSpec`] holds every knob that decides which
//! model that is (dataset, seed, training, calibration,
//! characterization, eval subset, artifact store), and `Session`
//! turns it into one `Trained` model per architecture:
//!
//! 1. dataset generation, the multiplier library, its LUT cache and the
//!    artifact store, once per run;
//! 2. per architecture, the model at its init seed, trained or restored
//!    under the shared artifact key, the eval subset and the lowered
//!    program behind a [`QuantMeasured`] backend.
//!
//! The artifact key, the init seed and the methodology config
//! (`Session::methodology`, with the Step-6 settings in
//! `Trained::step6_design`) are derived here and nowhere else, so an
//! artifact any bench trains restores under the others whenever their
//! specs match, and `serve` serves exactly the design `qdp` re-scores.

use std::path::PathBuf;
use std::time::Instant;

use redcane::{ApproxDesign, MethodologyConfig, RedCaNe, SelectionConfig, SweepConfig};
use redcane_artifacts::{
    fingerprint, ArtifactKey, ArtifactPayload, ArtifactStore, ComponentNoise, Provenance,
};
use redcane_axmul::{InputDistribution, LutCache, MultiplierLibrary};
use redcane_capsnet::{
    train, CapsModel, CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig, TrainConfig,
};
use redcane_datasets::{generate, Benchmark, Dataset, DatasetPair, GenerateConfig};
use redcane_qdp::{CalibrationObserver, QModel, QuantMeasured, QuantRanges};
use redcane_tensor::{par, TensorRng};
use redcane_trace as trace;

/// Values retained per MAC-input site for the empirical operand pools.
const CALIB_SAMPLES_PER_SITE: usize = 512;
/// Cap on the quantized-weight operand pool.
pub(crate) const WEIGHT_POOL_CODES: usize = 4096;
/// The noise magnitudes every methodology run sweeps.
pub const NM_GRID: [f64; 3] = [0.5, 0.05, 0.005];

/// Which of the paper's architectures a bench runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// The original CapsNet (Sabour et al.), small config.
    CapsNet,
    /// The 17-layer DeepCaps (Rajasegaran et al.), small config.
    DeepCaps,
}

impl Arch {
    /// Stable lower-case label used in the JSON schemas and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            Arch::CapsNet => "capsnet",
            Arch::DeepCaps => "deepcaps",
        }
    }

    /// Stable seed offset tied to the architecture's *identity* (not
    /// its position in [`BenchSpec::archs`]), so `--arch deepcaps`
    /// reproduces exactly the deepcaps rows of an `--arch both` run at
    /// the same seed.
    pub(crate) fn seed_tag(&self) -> u64 {
        match self {
            Arch::CapsNet => 0,
            Arch::DeepCaps => 1,
        }
    }
}

/// Which trained, calibrated model a bench runs on, and the subset it
/// is evaluated on; fully determined by its fields, so equal specs give
/// equal models.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// Which benchmark family to synthesize.
    pub benchmark: Benchmark,
    /// Master seed (dataset, init, training, characterization, and each
    /// bench's own noise, fault and request streams).
    pub seed: u64,
    /// Architectures to run, in output order.
    pub archs: Vec<Arch>,
    /// Training samples to generate.
    pub train: usize,
    /// Test samples to generate.
    pub test: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Clean training inputs swept through the float network to
    /// calibrate the quantization ranges.
    pub calib_samples: usize,
    /// Samples per component `(NA, NM)` and fault-model
    /// characterization.
    pub characterization_samples: usize,
    /// Test-subset size every evaluation runs on (the `serve` bench's
    /// request pool).
    pub eval_samples: usize,
    /// Trained-artifact store directory: restore trained weights,
    /// calibrated ranges, the `(NA, NM)` table and the calibration
    /// operand pool when a valid entry exists; train and
    /// persist otherwise. `None` disables the store.
    pub artifacts: Option<PathBuf>,
}

impl BenchSpec {
    /// The full seeded run: both architectures, models trained well
    /// above chance.
    pub fn smoke() -> Self {
        BenchSpec {
            benchmark: Benchmark::MnistLike,
            seed: 1,
            archs: vec![Arch::CapsNet, Arch::DeepCaps],
            train: 600,
            test: 150,
            epochs: 6,
            batch_size: 16,
            lr: 2e-3,
            calib_samples: 64,
            characterization_samples: 4000,
            eval_samples: 40,
            artifacts: None,
        }
    }

    /// CI-sized: scaled-down training and evaluation.
    pub fn quick() -> Self {
        BenchSpec {
            train: 200,
            test: 60,
            epochs: 3,
            calib_samples: 32,
            characterization_samples: 2000,
            eval_samples: 30,
            ..BenchSpec::smoke()
        }
    }

    /// The artifact key. The fingerprint pins every knob the trained
    /// content depends on; component subsets, fault grids, load shapes
    /// and the eval subset deliberately don't invalidate it.
    pub(crate) fn key(&self, arch: Arch) -> ArtifactKey {
        ArtifactKey::new(
            arch.label(),
            self.benchmark.name(),
            self.seed,
            self.epochs,
            fingerprint(&format!(
                "qdp-v1;train={};test={};batch={};lr={:08x};calib={}",
                self.train,
                self.test,
                self.batch_size,
                self.lr.to_bits(),
                self.calib_samples
            )),
        )
    }
}

/// What every architecture of one bench run shares: the spec, the
/// dataset, the multiplier library with its LUT cache, and the store.
pub(crate) struct Session {
    /// The spec the session was opened with.
    pub spec: BenchSpec,
    /// The generated train/test split.
    pub pair: DatasetPair,
    /// The approximate-multiplier library.
    pub library: MultiplierLibrary,
    /// One 64 KiB table per library component, shared by every
    /// architecture's backend (cloning only copies `Arc` handles).
    pub luts: LutCache,
    store: Option<ArtifactStore>,
}

/// A bench's per-architecture work, generic over the concrete model
/// (the benches' evaluations need `Clone + Send + Sync` models, so the
/// model type stays static).
pub(crate) trait PerArch {
    /// One architecture's outcome.
    type Out;

    /// Runs on one trained, lowered architecture.
    fn run<M: CapsModel + Clone + Send + Sync + 'static>(
        &self,
        trained: Trained<'_, M>,
    ) -> Self::Out;
}

/// One architecture, trained (or restored) and lowered once.
pub(crate) struct Trained<'s, M> {
    /// The session it was trained in.
    pub session: &'s Session,
    /// Which architecture.
    pub arch: Arch,
    /// The trained float network.
    pub model: M,
    /// The eval subset (the first `eval_samples` test samples).
    pub eval: Dataset,
    /// The lowered 8-bit program over the session's LUT cache.
    pub measured: QuantMeasured,
    /// The trained artifact: ranges, characterization tables and the
    /// activation-code pool.
    pub payload: ArtifactPayload,
    /// Trained this run or restored from the store.
    pub provenance: Provenance,
    /// Wall-clock seconds spent training or restoring.
    pub train_s: f64,
    /// Wall-clock seconds spent lowering onto the 8-bit datapath.
    pub lower_s: f64,
}

impl Session {
    /// Generates the dataset and tabulates the library for `spec`.
    ///
    /// # Panics
    ///
    /// Panics (naming `bench`) on empty train/test/eval/calibration/arch
    /// settings.
    pub(crate) fn open(spec: &BenchSpec, bench: &str) -> Self {
        assert!(spec.train > 0, "{bench} needs training samples");
        assert!(
            spec.test > 0 && spec.eval_samples > 0,
            "{bench} needs test samples"
        );
        assert!(spec.calib_samples > 0, "{bench} needs calibration samples");
        assert!(
            !spec.archs.is_empty(),
            "{bench} needs at least one architecture"
        );
        let pair = generate(
            spec.benchmark,
            &GenerateConfig {
                train: spec.train,
                test: spec.test,
                seed: spec.seed,
            },
        );
        let library = MultiplierLibrary::evo_approx_like();
        let luts = LutCache::tabulate_all(&library);
        Session {
            spec: spec.clone(),
            pair,
            library,
            luts,
            store: spec.artifacts.as_ref().map(ArtifactStore::new),
        }
    }

    /// Trains (or restores) and lowers every configured architecture in
    /// spec order, handing each to `bench`.
    pub(crate) fn run<B: PerArch>(&self, bench: &B) -> Vec<B::Out> {
        let (channels, height, _) = self.spec.benchmark.geometry();
        self.spec
            .archs
            .iter()
            .map(|&arch| {
                let _arch_span = trace::span(arch.label());
                let init_seed = self.spec.seed.wrapping_mul(0x9e37_79b9);
                let mut rng = TensorRng::from_seed(init_seed.wrapping_add(7 + arch.seed_tag()));
                match arch {
                    Arch::CapsNet => bench.run(self.train_or_restore(
                        arch,
                        CapsNet::new(&CapsNetConfig::small(channels, height), &mut rng),
                    )),
                    Arch::DeepCaps => bench.run(self.train_or_restore(
                        arch,
                        DeepCaps::new(&DeepCapsConfig::small(channels, height), &mut rng),
                    )),
                }
            })
            .collect()
    }

    /// Restores `model` from the store or trains it, then lowers it.
    fn train_or_restore<M: CapsModel + Clone + Send + Sync>(
        &self,
        arch: Arch,
        mut model: M,
    ) -> Trained<'_, M> {
        let clock = Instant::now();
        let (payload, provenance) = {
            let _s = trace::span("train");
            let key = self.spec.key(arch);
            redcane_artifacts::load_or_train(self.store.as_ref(), &key, &mut model, |m| {
                self.produce(m)
            })
        };
        let train_s = clock.elapsed().as_secs_f64();
        let clock = Instant::now();
        let qmodel = {
            let _s = trace::span("lower");
            let ranges = QuantRanges::from_entries(&payload.ranges);
            QModel::lower(&model, &ranges).expect("every site calibrated")
        };
        let lower_s = clock.elapsed().as_secs_f64();
        Trained {
            session: self,
            arch,
            eval: self.pair.test.take(self.spec.eval_samples),
            model,
            measured: QuantMeasured::new(qmodel, self.luts.clone()),
            payload,
            provenance,
            train_s,
            lower_s,
        }
    }

    /// The six-step methodology over the session's library, sweeping
    /// [`NM_GRID`] with `sweep_seed` (on at most `max_test_samples` of
    /// the data it is run on) and characterizing components over
    /// `input_distribution` (uniform when `None`).
    pub(crate) fn methodology(
        &self,
        sweep_seed: u64,
        max_test_samples: Option<usize>,
        input_distribution: Option<InputDistribution>,
    ) -> RedCaNe {
        RedCaNe::with_library(
            MethodologyConfig {
                sweep: SweepConfig {
                    nm_values: NM_GRID.to_vec(),
                    na: 0.0,
                    seed: sweep_seed,
                    max_test_samples,
                    threads: par::num_threads(),
                },
                selection: SelectionConfig {
                    characterization_samples: self.spec.characterization_samples,
                    seed: self.spec.seed ^ 0xc0de,
                    ..Default::default()
                },
                input_distribution,
            },
            self.library.clone(),
        )
    }

    /// What the store falls back to on a miss:
    /// train, calibrate, then characterize the WHOLE multiplier library
    /// (so later runs with any `--components` subset restore their
    /// `(NA, NM)` rows from the same table) over this run's empirical
    /// operand pools.
    fn produce<M: CapsModel + Clone + Send + Sync>(&self, m: &mut M) -> ArtifactPayload {
        let spec = &self.spec;
        let report = train(
            m,
            &self.pair.train,
            &TrainConfig {
                epochs: spec.epochs,
                batch_size: spec.batch_size,
                lr: spec.lr,
                seed: spec.seed ^ 0x71a1,
                verbose: false,
            },
        );
        // Calibrate through the generic pipeline, retaining MAC-input
        // samples for the empirical operand pools.
        let mut obs = CalibrationObserver::with_samples(CALIB_SAMPLES_PER_SITE);
        for sample in self.pair.train.samples.iter().take(spec.calib_samples) {
            let _ = m.forward(&sample.image, &mut obs);
        }
        let ranges = obs
            .ranges(8)
            .expect("calibration succeeds on trained activations");
        let activations = obs.sampled_input_codes(&ranges);
        let qmodel = QModel::lower(m, &ranges).expect("every site calibrated");
        let dist = operand_distribution(activations.clone(), &qmodel);
        let noise_table = self
            .library
            .iter()
            .map(|entry| {
                let np =
                    entry.characterize(&dist, spec.characterization_samples, spec.seed ^ 0xc0de);
                ComponentNoise {
                    component: entry.name().to_string(),
                    samples: spec.characterization_samples as u64,
                    na: np.na,
                    nm: np.nm,
                }
            })
            .collect();
        ArtifactPayload {
            epoch_losses: report.epoch_losses,
            train_accuracy: report.train_accuracy,
            ranges: ranges.to_entries(),
            noise_table,
            activation_codes: activations,
        }
    }
}

impl<M: CapsModel + Clone + Send + Sync> Trained<'_, M> {
    /// The paper's "Real ΔX" operand distribution, rebuilt from the
    /// stored activation pool and the lowered program's weight codes.
    pub(crate) fn operand_distribution(&self) -> InputDistribution {
        operand_distribution(
            self.payload.activation_codes.clone(),
            self.measured.qmodel(),
        )
    }

    /// Runs the six-step methodology on the eval subset, characterizing
    /// components over the empirical operand distribution, and
    /// re-scores its winning heterogeneous (Step-6) design on the
    /// measured backend. Every bench that needs the design derives it
    /// here, with the same seeds.
    pub(crate) fn step6_design(&self) -> ApproxDesign {
        let _s = trace::span("methodology");
        let seed = self.session.spec.seed ^ 0x6e01 ^ (self.arch.seed_tag() << 16);
        self.session
            .methodology(seed, None, Some(self.operand_distribution()))
            .run_with_measured(&self.model, &self.eval, &self.measured)
            .design
    }
}

/// The empirical operand distribution for component characterization:
/// quantized activation codes retained during calibration against the
/// lowered program's quantized weight codes; uniform when either pool
/// is empty.
fn operand_distribution(activations: Vec<u8>, qmodel: &QModel) -> InputDistribution {
    let weights = qmodel.weight_code_sample(WEIGHT_POOL_CODES);
    if activations.is_empty() || weights.is_empty() {
        InputDistribution::Uniform
    } else {
        InputDistribution::Empirical {
            activations,
            weights,
        }
    }
}

/// The spec the bench unit tests share: one epoch on a few dozen
/// samples, so every bench's tests (and the cross-bench store test)
/// train the same cheap models.
#[cfg(test)]
pub(crate) fn tiny(archs: Vec<Arch>) -> BenchSpec {
    BenchSpec {
        archs,
        train: 60,
        test: 24,
        epochs: 1,
        calib_samples: 8,
        characterization_samples: 500,
        eval_samples: 12,
        ..BenchSpec::smoke()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultsConfig;
    use crate::qdp::QdpConfig;
    use crate::serve::ServeBenchConfig;

    /// One store, one spec: whichever bench trains first, the others
    /// (`faults`, `serve` and `pipeline`) restore the same artifact —
    /// and restoring changes no byte of their stable lines against a
    /// storeless run.
    #[test]
    fn one_trained_artifact_serves_all_three_benches() {
        crate::cli::tests::assert_one_artifact_serves_every_bench(
            QdpConfig {
                heterogeneous: true,
                ..QdpConfig::tiny(vec![Arch::CapsNet])
            },
            FaultsConfig::tiny(vec![Arch::CapsNet]),
            ServeBenchConfig {
                workers: None,
                ..ServeBenchConfig::tiny(vec![Arch::CapsNet])
            },
            tiny(vec![Arch::CapsNet]),
        );
    }
}
