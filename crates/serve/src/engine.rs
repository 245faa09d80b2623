//! The serving engine: prepared-model templates, the scoped worker
//! pool, and the client-facing [`Submitter`].
//!
//! [`Engine::new`] resolves every served (model × assignment) pair
//! **once** into a [`PreparedModel`] template against one shared
//! [`LutCache`]. Workers clone templates instead of re-resolving —
//! each worker owns its model data (cache-friendly, no sharing in the
//! hot loop) while the 64 KiB multiplier tables stay behind shared
//! `Arc`s, and crucially the LUT-cache hit counters see the same
//! traffic no matter how many workers run. Re-resolving per worker
//! would make the profile document worker-count-dependent.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

use redcane_qdp::{BackendError, DatapathAssignment, LutCache, PreparedModel, QModel};
use redcane_tensor::Tensor;
use redcane_trace as trace;

use crate::queue::{RequestQueue, Response};

/// Knobs for one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing batches. Zero falls back to 1.
    pub workers: usize,
    /// Batch-size ceiling per cut.
    pub max_batch: usize,
    /// Adaptive deadline: `Some(d)` cuts a partial batch once its
    /// oldest request has waited `d`; `None` selects fill-only
    /// batching (deterministic composition — see the queue docs).
    pub max_wait: Option<Duration>,
}

/// One (model × assignment) pair the engine serves, resolved into an
/// executable template at construction.
struct ServedModel {
    label: String,
    template: PreparedModel,
}

/// Per-model work statistics, aggregated across workers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Batches executed for this model.
    pub batches: u64,
    /// Requests served for this model.
    pub items: u64,
    /// Largest batch executed for this model.
    pub max_batch: u64,
}

/// What a serving run did, per served model (indexed like the specs
/// passed to [`Engine::new`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Per-model batch/item counts.
    pub per_model: Vec<ModelStats>,
}

impl ServeStats {
    /// Total batches across models.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.per_model.iter().map(|m| m.batches).sum()
    }

    /// Total requests served across models.
    #[must_use]
    pub fn items(&self) -> u64 {
        self.per_model.iter().map(|m| m.items).sum()
    }

    /// Largest batch executed by any model.
    #[must_use]
    pub fn max_batch(&self) -> u64 {
        self.per_model
            .iter()
            .map(|m| m.max_batch)
            .max()
            .unwrap_or(0)
    }
}

/// The client handle passed to the drive closure of
/// [`Engine::serve`]: submits requests into the queue.
pub struct Submitter<'a> {
    queue: &'a RequestQueue,
    models: usize,
}

impl Submitter<'_> {
    /// Served-model count (valid indices are `0..models()`).
    #[must_use]
    pub fn models(&self) -> usize {
        self.models
    }

    /// Submits one request and returns the receiver its [`Response`]
    /// will arrive on.
    ///
    /// # Panics
    ///
    /// Panics when `model` is out of range.
    #[must_use]
    pub fn submit(&self, model: usize, input: Tensor) -> Receiver<Response> {
        let (tx, rx) = channel();
        let _ = self.submit_with(model, input, tx);
        rx
    }

    /// Submits one request replying on a caller-supplied channel
    /// (lets a client fan many requests into one receiver). Returns
    /// the request's sequence number and the queue depth right after
    /// the push — the open-loop bench's queue-depth sample.
    ///
    /// # Panics
    ///
    /// Panics when `model` is out of range.
    #[must_use]
    pub fn submit_with(
        &self,
        model: usize,
        input: Tensor,
        reply: Sender<Response>,
    ) -> (u64, usize) {
        assert!(model < self.models, "model index out of range");
        self.queue.enqueue(model, input, reply)
    }
}

/// The serving engine.
pub struct Engine {
    models: Vec<ServedModel>,
}

impl Engine {
    /// Resolves each `(label, model, assignment)` spec against `luts`
    /// once, building the worker templates.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when an assignment names a component missing
    /// from the multiplier library behind `luts`, or leaves a
    /// multiply site uncovered.
    pub fn new(
        specs: Vec<(String, QModel, DatapathAssignment)>,
        luts: &LutCache,
    ) -> Result<Self, BackendError> {
        let models = specs
            .into_iter()
            .map(|(label, model, assignment)| {
                PreparedModel::new(model, &assignment, luts)
                    .map(|template| ServedModel { label, template })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Engine { models })
    }

    /// Served-model labels, in spec order.
    #[must_use]
    pub fn labels(&self) -> Vec<&str> {
        self.models.iter().map(|m| m.label.as_str()).collect()
    }

    /// Served-model count.
    #[must_use]
    pub fn models(&self) -> usize {
        self.models.len()
    }

    /// Single-request reference prediction on served model `index`,
    /// outside any queue or batch — the determinism oracle batched
    /// responses are compared against.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    #[must_use]
    pub fn predict_one(&self, index: usize, input: &Tensor) -> usize {
        self.models[index].template.predict_batch(&[input])[0]
    }

    /// Runs a serving session: spawns the worker pool, hands the
    /// drive closure a [`Submitter`], closes the queue when the
    /// closure returns, joins the workers once the queue drains, and
    /// returns the closure's result plus per-model work statistics.
    ///
    /// Responses are bit-identical to [`predict_one`](Self::predict_one)
    /// for every request, regardless of `config` — batching and
    /// worker count only change scheduling, never arithmetic.
    ///
    /// In fill-only mode (`max_wait: None`) partial tail batches are
    /// flushed only when the queue closes, i.e. *after* the drive
    /// closure returns — a closure that blocks on its last responses
    /// would deadlock. Return the response receivers instead and
    /// drain them after `serve` returns: by then the workers have
    /// joined and every response is already in its channel.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (poisoning the shared stats
    /// lock) or a submitted request names an out-of-range model.
    pub fn serve<R>(
        &self,
        config: &ServeConfig,
        drive: impl FnOnce(&Submitter<'_>) -> R,
    ) -> (R, ServeStats) {
        let workers = config.workers.max(1);
        let queue = RequestQueue::new(self.models.len(), config.max_batch, config.max_wait);
        let stats = Mutex::new(ServeStats {
            per_model: vec![ModelStats::default(); self.models.len()],
        });
        let result = std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // Deep-copies the quantized model data; LUT Arcs
                    // are shared handles (no cache traffic).
                    let owned: Vec<PreparedModel> =
                        self.models.iter().map(|m| m.template.clone()).collect();
                    while let Some((model, batch)) = queue.next_batch() {
                        let _span = trace::span("serve_batch");
                        let inputs: Vec<&Tensor> = batch.iter().map(|r| &r.input).collect();
                        let predictions = owned[model].predict_batch(&inputs);
                        {
                            // lint: allow(panic) — lock poisoning means another thread already panicked mid-run; propagating the abort is the only recovery
                            let mut stats = stats.lock().expect("stats poisoned");
                            let m = &mut stats.per_model[model];
                            m.batches += 1;
                            m.items += batch.len() as u64;
                            m.max_batch = m.max_batch.max(batch.len() as u64);
                        }
                        for (request, prediction) in batch.into_iter().zip(predictions) {
                            // A client that dropped its receiver just
                            // loses the response; the engine keeps
                            // draining.
                            let _ = request.reply.send(Response {
                                seq: request.seq,
                                model: request.model,
                                prediction,
                                latency: request.enqueued.elapsed(),
                            });
                        }
                    }
                    // Push buffered counts out before the scope
                    // unblocks — the TLS destructor would race a
                    // snapshot taken right after `serve` returns.
                    trace::flush();
                });
            }
            let submitter = Submitter {
                queue: &queue,
                models: self.models.len(),
            };
            let result = drive(&submitter);
            queue.close();
            result
        });
        // lint: allow(panic) — lock poisoning means another thread already panicked mid-run; propagating the abort is the only recovery
        (result, stats.into_inner().expect("stats poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcane_axmul::mult::TruncatedMultiplier;
    use redcane_capsnet::{CapsNet, CapsNetConfig};
    use redcane_qdp::{calibrate_ranges, MulLut};
    use redcane_tensor::TensorRng;

    /// A tiny calibrated `CapsNet` plus an exact/degraded two-entry
    /// library — enough to serve two distinct assignments.
    fn setup() -> (QModel, LutCache) {
        let mut rng = TensorRng::from_seed(611);
        let cfg = CapsNetConfig::small(1, 16);
        let mut model = CapsNet::new(&cfg, &mut rng);
        let images: Vec<Tensor> = (0..3)
            .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
            .collect();
        let ranges = calibrate_ranges(&mut model, images.iter()).unwrap();
        let q = QModel::lower(&model, &ranges).unwrap();
        let mut luts = LutCache::new();
        luts.insert("exact", MulLut::exact());
        luts.insert("trunc4", MulLut::tabulate(&TruncatedMultiplier::new(4)));
        (q, luts)
    }

    fn images(rng: &mut TensorRng, n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|_| rng.uniform(&[1, 16, 16], 0.0, 1.0))
            .collect()
    }

    #[test]
    fn serve_matches_single_request_predictions_under_load() {
        let (q, luts) = setup();
        let engine = Engine::new(
            vec![
                (
                    "exact".to_string(),
                    q.clone(),
                    DatapathAssignment::uniform("exact"),
                ),
                (
                    "trunc4".to_string(),
                    q,
                    DatapathAssignment::uniform("trunc4"),
                ),
            ],
            &luts,
        )
        .unwrap();
        assert_eq!(engine.labels(), vec!["exact", "trunc4"]);
        let mut rng = TensorRng::from_seed(612);
        let inputs = images(&mut rng, 10);
        let config = ServeConfig {
            workers: 3,
            max_batch: 4,
            max_wait: None,
        };
        let (receivers, stats) = engine.serve(&config, |submitter| {
            inputs
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    let model = i % submitter.models();
                    (i, model, submitter.submit(model, x.clone()))
                })
                .collect::<Vec<(usize, usize, Receiver<Response>)>>()
        });
        // Workers have joined: every response is already buffered.
        let responses: Vec<(usize, usize, Response)> = receivers
            .into_iter()
            .map(|(i, model, rx)| (i, model, rx.recv().expect("response")))
            .collect();
        assert_eq!(responses.len(), 10);
        for (i, model, response) in &responses {
            assert_eq!(response.model, *model);
            assert_eq!(
                response.prediction,
                engine.predict_one(*model, &inputs[*i]),
                "request {i} on model {model} must match single-request predict"
            );
        }
        assert_eq!(stats.items(), 10);
        assert_eq!(stats.per_model.len(), 2);
        assert_eq!(stats.per_model[0].items, 5);
        assert_eq!(stats.per_model[1].items, 5);
        // Fill-only with max_batch 4 and 5 items per model: one full
        // batch of 4 plus a flushed tail of 1, each model.
        assert_eq!(stats.per_model[0].batches, 2);
        assert_eq!(stats.max_batch(), 4);
    }

    #[test]
    fn work_stats_are_scheduling_invariant_across_worker_counts() {
        let (q, luts) = setup();
        let engine = Engine::new(
            vec![("exact".to_string(), q, DatapathAssignment::uniform("exact"))],
            &luts,
        )
        .unwrap();
        let mut rng = TensorRng::from_seed(613);
        let inputs = images(&mut rng, 7);
        let run = |workers: usize| {
            let config = ServeConfig {
                workers,
                max_batch: 3,
                max_wait: None,
            };
            let (rxs, stats) = engine.serve(&config, |submitter| {
                inputs
                    .iter()
                    .map(|x| submitter.submit(0, x.clone()))
                    .collect::<Vec<_>>()
            });
            for rx in rxs {
                rx.recv().expect("response");
            }
            stats
        };
        let stats1 = run(1);
        let stats4 = run(4);
        assert_eq!(stats1, stats4, "fill-only batch cuts ignore worker count");
        // 7 requests at max_batch 3: batches 3/3/1.
        assert_eq!(stats1.batches(), 3);
        assert_eq!(stats1.items(), 7);
        assert_eq!(stats1.max_batch(), 3);
    }

    #[test]
    fn unknown_component_is_rejected_at_engine_construction() {
        let (q, luts) = setup();
        let err = Engine::new(
            vec![(
                "ghost".to_string(),
                q,
                DatapathAssignment::uniform("mul8u_ghost"),
            )],
            &luts,
        )
        .err()
        .expect("resolution must fail");
        assert!(matches!(err, BackendError::UnknownComponent { .. }));
    }
}
