//! Training and evaluation loops for capsule models.
//!
//! # Parallelism and determinism
//!
//! Both the trainer and the accurate-network evaluator fan samples out
//! over scoped worker threads (see [`redcane_tensor::par`]): each worker
//! owns a clone of the model, and per-sample results are reduced **in
//! sample order** on the calling thread. A sample's forward/backward
//! depends only on the weights — never on gradient state — so every
//! per-sample gradient is identical to what the serial loop computes,
//! and the ordered reduction reproduces the serial accumulation bit for
//! bit at any `REDCANE_THREADS` setting (the pipeline determinism test
//! asserts this end to end).
//!
//! Injector-driven (noisy) evaluation stays serial: a stateful injector
//! draws its noise stream in visit order, so parallelizing across
//! samples would change which noise hits which sample. Step 6 of the
//! methodology overlaps that serial pass with the design's measured
//! score instead (`redcane_tensor::par::join`), so the other core is
//! not idle while it runs.

use redcane_datasets::Dataset;
use redcane_nn::{margin_loss, Adam, MarginLossConfig};
use redcane_tensor::{par, Tensor, TensorRng};
use redcane_trace as trace;

use crate::inject::{Injector, NoInjection};
use crate::model::CapsModel;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Samples per optimizer step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Print a line per epoch to stderr.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 16,
            lr: 2e-3,
            seed: 7,
            verbose: false,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean margin loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training-set accuracy after the final epoch.
    pub train_accuracy: f64,
}

/// One sample's contribution: margin loss plus a gradient snapshot per
/// parameter (in `params_mut` order).
type SampleGrad = (f32, Vec<Tensor>);

/// Runs forward/backward for one sample on `model` (whose gradients must
/// be zeroed) and snapshots the accumulated gradients, re-zeroing them.
fn sample_gradient<M: CapsModel>(
    model: &mut M,
    image: &Tensor,
    label: usize,
    loss_cfg: MarginLossConfig,
) -> SampleGrad {
    let lengths = model.forward(image, &mut NoInjection);
    let (loss, dl) = margin_loss(&lengths, label, loss_cfg);
    model.backward_from_lengths(&dl);
    let grads = model
        .params_mut()
        .into_iter()
        .map(|p| {
            let shape = p.grad.shape().to_vec();
            std::mem::replace(&mut p.grad, Tensor::zeros(&shape))
        })
        .collect();
    (loss, grads)
}

/// Processes one minibatch, accumulating gradients into `model` and
/// per-sample losses into `total_loss` exactly as the serial per-sample
/// loop would (the running loss sum spans batches, so it is threaded
/// through rather than subtotaled — subtotaling would reorder the adds).
fn run_batch<M: CapsModel + Clone + Send + Sync>(
    model: &mut M,
    data: &Dataset,
    chunk: &[usize],
    loss_cfg: MarginLossConfig,
    total_loss: &mut f32,
) {
    let workers = par::num_threads().min(chunk.len());
    if workers <= 1 {
        // Serial fast path: accumulate straight into the model.
        for &idx in chunk {
            let sample = &data.samples[idx];
            let lengths = model.forward(&sample.image, &mut NoInjection);
            let (loss, dl) = margin_loss(&lengths, sample.label, loss_cfg);
            *total_loss += loss;
            model.backward_from_lengths(&dl);
        }
        return;
    }
    // Parallel path: per-sample gradients on worker clones, reduced in
    // sample order so the sum matches the serial accumulation bitwise.
    let model_ref = &*model;
    let per_sample: Vec<SampleGrad> = par::map_with(
        chunk.len(),
        || {
            let mut local = model_ref.clone();
            local.zero_grad();
            local
        },
        |local, ci| {
            let sample = &data.samples[chunk[ci]];
            sample_gradient(local, &sample.image, sample.label, loss_cfg)
        },
    );
    for (loss, grads) in per_sample {
        *total_loss += loss;
        for (p, g) in model.params_mut().into_iter().zip(&grads) {
            p.accumulate(g);
        }
    }
}

/// Trains `model` on `data` with Adam and the CapsNet margin loss.
///
/// Deterministic given the model's initial weights and `cfg.seed`,
/// independent of the worker-thread count.
pub fn train<M: CapsModel + Clone + Send + Sync>(
    model: &mut M,
    data: &Dataset,
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    // Degenerate scaled-down configs must not panic: a zero batch size
    // behaves like per-sample training.
    let batch_size = cfg.batch_size.max(1);
    let mut opt = Adam::new(cfg.lr);
    let mut rng = TensorRng::from_seed(cfg.seed);
    let loss_cfg = MarginLossConfig::default();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let _epoch = trace::span("epoch");
        if trace::enabled() {
            trace::add(trace::Counter::TrainEpochs, 1);
        }
        let order = rng.permutation(data.len());
        let mut total_loss = 0.0f32;
        for chunk in order.chunks(batch_size) {
            model.zero_grad();
            run_batch(model, data, chunk, loss_cfg, &mut total_loss);
            let mut params = model.params_mut();
            opt.step(&mut params, 1.0 / chunk.len() as f32);
        }
        let mean_loss = total_loss / data.len() as f32;
        epoch_losses.push(mean_loss);
        if cfg.verbose {
            eprintln!(
                "[train {}] epoch {}/{}: loss {:.4}",
                model.name(),
                epoch + 1,
                cfg.epochs,
                mean_loss
            );
        }
    }
    let train_accuracy = evaluate_clean(model, data);
    TrainReport {
        epoch_losses,
        train_accuracy,
    }
}

/// Classification accuracy of `model` on `data` under `injector`
/// (pass [`NoInjection`] for the accurate network).
///
/// Runs serially: a stateful injector's noise stream depends on visit
/// order. Use [`evaluate_clean`] for the parallel accurate-network path.
pub fn evaluate(model: &mut dyn CapsModel, data: &Dataset, injector: &mut dyn Injector) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let correct = data
        .samples
        .iter()
        .filter(|s| model.predict_with(&s.image, injector) == s.label)
        .count();
    correct as f64 / data.len() as f64
}

/// Accurate-network (no-injection) accuracy, fanned out over worker
/// threads. Bitwise identical to `evaluate(.., NoInjection)` at every
/// thread count: predictions depend only on the weights, and a count of
/// correct labels has no reduction order to disturb.
pub fn evaluate_clean<M: CapsModel + Clone + Send + Sync>(model: &M, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let correct = par::map_with(
        data.len(),
        || model.clone(),
        |local, i| {
            let sample = &data.samples[i];
            local.predict_with(&sample.image, &mut NoInjection) == sample.label
        },
    )
    .into_iter()
    .filter(|&hit| hit)
    .count();
    correct as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CapsNetConfig;
    use crate::model::CapsNet;
    use redcane_datasets::{generate, Benchmark, GenerateConfig};

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let pair = generate(
            Benchmark::MnistLike,
            &GenerateConfig {
                train: 120,
                test: 40,
                seed: 11,
            },
        );
        let mut rng = TensorRng::from_seed(170);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let report = train(
            &mut model,
            &pair.train,
            &TrainConfig {
                epochs: 4,
                batch_size: 16,
                lr: 2e-3,
                seed: 3,
                verbose: false,
            },
        );
        assert!(
            report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap(),
            "loss should fall: {:?}",
            report.epoch_losses
        );
        // Way above the 10 % chance level even with a tiny budget.
        assert!(
            report.train_accuracy > 0.3,
            "train accuracy {}",
            report.train_accuracy
        );
        let test_acc = evaluate(&mut model, &pair.test, &mut NoInjection);
        assert!(test_acc > 0.2, "test accuracy {test_acc}");
    }

    /// Serializes the tests that mutate the process-wide thread-count
    /// override — without it, one test's `set_threads(0)` could land
    /// mid-way through another's 1-thread leg and make the determinism
    /// comparison vacuous.
    static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// The whole point of the ordered per-sample reduction: training is
    /// bitwise identical at 1 and 4 worker threads.
    #[test]
    fn training_is_bitwise_identical_across_thread_counts() {
        let _guard = THREADS_LOCK.lock().unwrap();
        let pair = generate(
            Benchmark::MnistLike,
            &GenerateConfig {
                train: 48,
                test: 8,
                seed: 21,
            },
        );
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            lr: 2e-3,
            seed: 5,
            verbose: false,
        };
        let run = |threads: usize| {
            par::set_threads(threads);
            let mut rng = TensorRng::from_seed(172);
            let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
            let report = train(&mut model, &pair.train, &cfg);
            par::set_threads(0);
            let weights: Vec<f32> = model
                .params_mut()
                .into_iter()
                .flat_map(|p| p.value.data().to_vec())
                .collect();
            (report, weights)
        };
        let (rep1, w1) = run(1);
        let (rep4, w4) = run(4);
        assert_eq!(rep1.epoch_losses, rep4.epoch_losses);
        assert_eq!(rep1.train_accuracy, rep4.train_accuracy);
        assert_eq!(w1, w4, "weights must match bit for bit");
    }

    #[test]
    fn evaluate_clean_matches_serial_evaluate() {
        let _guard = THREADS_LOCK.lock().unwrap();
        let pair = generate(
            Benchmark::MnistLike,
            &GenerateConfig {
                train: 20,
                test: 30,
                seed: 9,
            },
        );
        let mut rng = TensorRng::from_seed(173);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let serial = evaluate(&mut model, &pair.test, &mut NoInjection);
        par::set_threads(4);
        let parallel = evaluate_clean(&model, &pair.test);
        par::set_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn evaluate_empty_dataset_is_zero() {
        let pair = generate(
            Benchmark::MnistLike,
            &GenerateConfig {
                train: 1,
                test: 0,
                seed: 1,
            },
        );
        let mut rng = TensorRng::from_seed(171);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        assert_eq!(evaluate(&mut model, &pair.test, &mut NoInjection), 0.0);
        assert_eq!(evaluate_clean(&model, &pair.test), 0.0);
    }
}
