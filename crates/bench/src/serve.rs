//! The `serve` bench mode: open-loop serving load against
//! `redcane-serve`'s dynamic batcher, for both of the paper's
//! architectures under several datapath assignments.
//!
//! Each architecture comes from the shared [`crate::session`] — trained,
//! or restored from the artifact the `qdp`/`faults` benches store under
//! the same key — lowered once, and served under up to three
//! assignments:
//!
//! - **exact** — the exact multiplier at every site (baseline);
//! - **cheapest** — the lowest-power library component other than the
//!   exact one, uniformly;
//! - **step6** — the ReD-CaNe methodology's winning heterogeneous
//!   per-layer design, from the same `Trained::step6_design` the `qdp`
//!   bench re-scores, then served.
//!
//! A seeded open-loop client load drives the engine: the request
//! stream (per-request model, eval-pool sample and arrival offset) is
//! a pure function of the seed and the architecture identity, fanned
//! out over concurrent client threads that sleep until each request's
//! arrival time. Responses report per-request latency; the bench
//! aggregates p50/p99/max latency, throughput, batch statistics and
//! queue depth per (arch × assignment).
//!
//! **Stable vs volatile fields.** Batching and worker count never
//! change arithmetic, so request counts, correctness, accuracy and
//! the per-assignment prediction checksum are byte-identical at every
//! `REDCANE_THREADS` setting and batcher timing; latency, throughput,
//! batch composition and queue depth are measurements of this
//! particular run. The stable lines `--out` writes strip the volatile
//! fields (the bench's [`Bench::VOLATILE_KEYS`]) so CI can `cmp` the
//! rest.

use std::sync::mpsc::{channel, Receiver};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use redcane::datapath::DatapathAssignment;
use redcane::faults::mix64;
use redcane::report::json::Value;
use redcane_artifacts::Provenance;
use redcane_capsnet::CapsModel;
use redcane_serve::{Engine, Response, ServeConfig};
use redcane_tensor::par;
use redcane_trace as trace;

use crate::cli::{next_parsed, require_nonzero, Args, Bench};
use crate::session::{Arch, BenchSpec, PerArch, Session, Trained};

/// The exact multiplier: the baseline assignment, and what "cheapest"
/// is defined against.
const EXACT_COMPONENT: &str = "mul8u_1JFF";

/// Configuration of a `serve` bench run: the shared [`BenchSpec`] plus
/// the load and batcher shape; the request stream and every stable
/// output field are fully determined by these fields.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// The trained model and the eval pool requests draw their inputs
    /// (and ground-truth labels) from.
    pub spec: BenchSpec,
    /// Requests per architecture's serving session.
    pub requests: usize,
    /// Concurrent client threads feeding the queue.
    pub clients: usize,
    /// Worker threads executing batches (`None` = the
    /// `redcane_tensor::par` thread count).
    pub workers: Option<usize>,
    /// Batch-size ceiling per cut.
    pub max_batch: usize,
    /// Adaptive batching deadline in microseconds; `None` selects
    /// fill-only batching (deterministic batch composition — what the
    /// CI counter comparison relies on).
    pub max_wait_us: Option<u64>,
    /// Mean open-loop arrival rate, requests per second (arrival gaps
    /// are seeded uniform draws with this mean).
    pub arrival_rate_rps: f64,
    /// Also serve the Step-6 heterogeneous design (runs the full
    /// methodology per architecture — the expensive assignment).
    pub step6: bool,
    /// `--budget-s`: fail the run when the serving sessions (training
    /// excluded) exceed this many seconds — the latency-regression
    /// tripwire.
    pub budget_s: Option<f64>,
}

impl ServeBenchConfig {
    /// The full seeded run: both architectures under all three
    /// assignments, models trained well above chance.
    pub fn smoke() -> Self {
        ServeBenchConfig {
            spec: BenchSpec::smoke(),
            requests: 96,
            clients: 4,
            workers: None,
            max_batch: 8,
            max_wait_us: None,
            arrival_rate_rps: 2000.0,
            step6: true,
            budget_s: None,
        }
    }

    /// CI-sized: the quick spec, exact and cheapest assignments only
    /// (the methodology run is the one expensive, already-qdp-covered
    /// stage).
    pub fn quick() -> Self {
        ServeBenchConfig {
            spec: BenchSpec::quick(),
            requests: 48,
            clients: 2,
            max_batch: 4,
            step6: false,
            ..ServeBenchConfig::smoke()
        }
    }

    /// The unit-test load: a short burst of back-to-back requests (gaps
    /// of 0–2 µs) on the tiny session spec, fill-only batching.
    #[cfg(test)]
    pub(crate) fn tiny(archs: Vec<Arch>) -> Self {
        ServeBenchConfig {
            spec: crate::session::tiny(archs),
            requests: 14,
            clients: 2,
            workers: Some(2),
            max_batch: 3,
            max_wait_us: None,
            arrival_rate_rps: 1e6,
            step6: false,
            budget_s: None,
        }
    }
}

impl Bench for ServeBenchConfig {
    type Outcome = ServeOutcome;

    const NAME: &'static str = "serve";

    const USAGE: &'static str = "serve: open-loop dynamic-batching serving benchmark over the \
quantized datapath
flags: --quick, --benchmark mnist|fashion|svhn|cifar, --seed N, \
--arch capsnet|deepcaps|both, --requests N, --clients N, \
--workers N, --max-batch N, --max-wait-us N, --rate RPS, \
--step6, --no-step6, --out PATH, \
--budget-s S, --threads N, --artifacts DIR, --no-cache, \
--profile PATH, --profile-counters PATH, --profile-folded PATH";

    /// Latency, throughput, batch composition, queue depth, worker
    /// count and wall clock: the measurements of this particular run.
    const VOLATILE_KEYS: &'static [&'static str] = &[
        "workers",
        "p50_ms",
        "p99_ms",
        "max_ms",
        "mean_ms",
        "throughput_rps",
        "batches",
        "mean_batch",
        "max_batch_observed",
        "queue_depth_mean",
        "queue_depth_max",
        "serve_s",
    ];

    fn spec_mut(&mut self) -> &mut BenchSpec {
        &mut self.spec
    }

    /// Keeps `--budget-s` but none of the load or batcher flags:
    /// `--quick` resets them.
    fn quick_keeping(self) -> Self {
        ServeBenchConfig {
            spec: self.spec.quick_keeping(),
            budget_s: self.budget_s,
            ..ServeBenchConfig::quick()
        }
    }

    fn match_flag(&mut self, flag: &str, args: &mut Args) -> Option<Result<(), String>> {
        let count =
            |args: &mut Args| next_parsed(args, flag).and_then(|v: usize| require_nonzero(v, flag));
        Some(match flag {
            "--requests" => count(args).map(|v| self.requests = v),
            "--clients" => count(args).map(|v| self.clients = v),
            "--workers" => count(args).map(|v| self.workers = Some(v)),
            "--max-batch" => count(args).map(|v| self.max_batch = v),
            "--max-wait-us" => next_parsed(args, flag).map(|v: u64| self.max_wait_us = Some(v)),
            "--rate" => next_parsed(args, flag)
                .and_then(|v: f64| require_positive(v, flag))
                .map(|v| self.arrival_rate_rps = v),
            "--budget-s" => next_parsed(args, flag).map(|v: f64| self.budget_s = Some(v)),
            "--step6" => {
                self.step6 = true;
                Ok(())
            }
            "--no-step6" => {
                self.step6 = false;
                Ok(())
            }
            _ => return None,
        })
    }

    fn run(&self) -> ServeOutcome {
        run_serve(self)
    }

    fn lines(outcome: &ServeOutcome) -> Vec<Value> {
        serve_to_json_lines(outcome)
    }

    fn provenance(outcome: &ServeOutcome) -> Vec<(Arch, Provenance)> {
        outcome
            .archs
            .iter()
            .map(|a| (a.arch, a.provenance))
            .collect()
    }

    fn summary(outcome: &ServeOutcome) -> Vec<String> {
        let archs = outcome.archs.iter().map(|arch| {
            format!(
                "{}: {} ({} assignment(s), {} request(s), {:.2}s serving)",
                arch.arch.label(),
                arch.provenance.label(),
                arch.assignments.len(),
                arch.assignments.iter().map(|a| a.requests).sum::<usize>(),
                arch.serve_s
            )
        });
        archs
            .chain([format!(
                "total {:.2}s ({:.2}s serving)",
                outcome.total_s, outcome.serve_s
            )])
            .collect()
    }

    /// The `--budget-s` tripwire: serving time only, so cold (train)
    /// and warm (restore) runs trip identically.
    fn check(&self, outcome: &ServeOutcome) -> Result<(), String> {
        match self.budget_s {
            Some(budget) if outcome.serve_s > budget => Err(format!(
                "serving sessions took {:.2}s, over the --budget-s {budget:.2}s tripwire",
                outcome.serve_s
            )),
            _ => Ok(()),
        }
    }
}

/// Rejects an arrival rate that is not a positive, finite number of
/// requests per second.
fn require_positive(rate: f64, flag: &str) -> Result<f64, String> {
    if rate.is_finite() && rate > 0.0 {
        Ok(rate)
    } else {
        Err(format!("{flag} must be a positive, finite rate"))
    }
}

/// Latency summary over one assignment's responses, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median latency.
    pub p50_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// Worst latency.
    pub max_ms: f64,
    /// Mean latency.
    pub mean_ms: f64,
}

impl LatencySummary {
    /// Nearest-rank percentiles over the (unsorted) latencies.
    fn over(latencies: &[Duration]) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        let mut ms: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let pct = |q: f64| ms[((ms.len() - 1) as f64 * q).round() as usize];
        LatencySummary {
            p50_ms: pct(0.50),
            p99_ms: pct(0.99),
            max_ms: *ms.last().expect("non-empty"),
            mean_ms: ms.iter().sum::<f64>() / ms.len() as f64,
        }
    }
}

/// One served (architecture × assignment)'s results.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentServed {
    /// Assignment label: `exact`, `cheapest` or `step6`.
    pub label: String,
    /// The component served uniformly, or `heterogeneous` for the
    /// Step-6 per-layer design.
    pub component: String,
    /// Requests routed to this assignment by the seeded stream.
    pub requests: usize,
    /// Responses matching the eval pool's ground-truth label.
    pub correct: usize,
    /// FNV-1a over `(request index, prediction)` in stream order —
    /// the bit-for-bit determinism witness CI compares across thread
    /// counts.
    pub prediction_checksum: u64,
    /// Latency summary (volatile).
    pub latency: LatencySummary,
    /// Requests per second over the serving session (volatile).
    pub throughput_rps: f64,
    /// Batches the workers executed for this assignment (volatile
    /// under adaptive batching).
    pub batches: u64,
    /// Mean batch size (volatile under adaptive batching).
    pub mean_batch: f64,
    /// Largest batch executed (volatile under adaptive batching).
    pub max_batch_observed: u64,
}

impl AssignmentServed {
    /// Fraction of this assignment's responses that were correct.
    pub fn accuracy(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.correct as f64 / self.requests as f64
        }
    }
}

/// One architecture's serving session.
#[derive(Debug, Clone)]
pub struct ServeArchOutcome {
    /// The architecture served.
    pub arch: Arch,
    /// Model display name.
    pub model_name: String,
    /// Per-assignment results, in assignment order.
    pub assignments: Vec<AssignmentServed>,
    /// Worker threads the session ran with.
    pub workers: usize,
    /// Mean queue depth sampled at every enqueue.
    pub queue_depth_mean: f64,
    /// Peak queue depth sampled at any enqueue.
    pub queue_depth_max: usize,
    /// Serving-session wall-clock seconds (submit through drain).
    pub serve_s: f64,
    /// Trained this run or restored from the artifact store. Not part
    /// of the JSON schema: cold and warm runs must emit byte-identical
    /// stable fields.
    pub provenance: Provenance,
}

/// The result of one full `serve` bench run.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The configuration that produced it.
    pub config: ServeBenchConfig,
    /// One session per configured architecture, in
    /// `config.spec.archs` order.
    pub archs: Vec<ServeArchOutcome>,
    /// Serving seconds summed over sessions — the `--budget-s`
    /// tripwire metric (training/restore time excluded, so cold and
    /// warm CI runs trip identically).
    pub serve_s: f64,
    /// Total wall-clock seconds including training/restore.
    pub total_s: f64,
}

/// One request of the seeded open-loop stream.
struct RequestSpec {
    /// Served-model index.
    model: usize,
    /// Eval-pool sample index (input and ground truth).
    sample: usize,
    /// Open-loop arrival offset from session start, microseconds.
    arrival_us: u64,
}

/// The seeded stream: model routing, eval-pool sample and arrival
/// offset per request — a pure function of `(seed, arch, request)`,
/// never of timing, so the stable fields survive any scheduling.
fn request_stream(
    cfg: &ServeBenchConfig,
    arch: Arch,
    models: usize,
    pool: usize,
) -> Vec<RequestSpec> {
    let seed = cfg.spec.seed;
    let mean_gap_us = (1e6 / cfg.arrival_rate_rps) as u64;
    let mut arrival_us = 0u64;
    (0..cfg.requests as u64)
        .map(|r| {
            let tag = arch.seed_tag();
            arrival_us += mix64(seed ^ 0x5e12_4a11, tag, r) % (2 * mean_gap_us + 1);
            RequestSpec {
                model: (mix64(seed ^ 0x5e12_0001, tag, r) % models as u64) as usize,
                sample: (mix64(seed ^ 0x5e12_0002, tag, r) % pool as u64) as usize,
                arrival_us,
            }
        })
        .collect()
}

/// FNV-1a fold of one `(request, prediction)` pair.
fn fnv_fold(hash: u64, request: u64, prediction: u64) -> u64 {
    let mut h = hash;
    for b in request
        .to_le_bytes()
        .into_iter()
        .chain(prediction.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs the shared session (dataset generation → training or restore
/// → lowering), then engine construction and one open-loop serving
/// session per architecture. Every stable field derives only from the
/// seed and the architecture identity — never from worker count, client
/// interleaving or batcher timing.
///
/// # Panics
///
/// Panics on empty train/test/eval/request/client/arch settings, a
/// zero `max_batch` or an arrival rate that is not positive and finite.
pub fn run_serve(cfg: &ServeBenchConfig) -> ServeOutcome {
    assert!(
        cfg.arrival_rate_rps.is_finite() && cfg.arrival_rate_rps > 0.0,
        "serve needs a positive, finite arrival rate"
    );
    assert!(cfg.requests > 0, "serve needs requests");
    assert!(cfg.clients > 0, "serve needs client threads");
    assert!(cfg.max_batch > 0, "serve needs a batch ceiling");
    let t0 = Instant::now();
    let archs: Vec<ServeArchOutcome> = Session::open(&cfg.spec, "serve").run(cfg);
    ServeOutcome {
        config: cfg.clone(),
        serve_s: archs.iter().map(|a| a.serve_s).sum(),
        archs,
        total_s: t0.elapsed().as_secs_f64(),
    }
}

/// The assignments one architecture serves: `(label, component,
/// assignment)` — exact, cheapest, and (optionally) the Step-6 design.
fn build_assignments<M: CapsModel + Clone + Send + Sync>(
    cfg: &ServeBenchConfig,
    t: &Trained<'_, M>,
) -> Vec<(String, String, DatapathAssignment)> {
    let cheapest = t
        .session
        .library
        .iter()
        .filter(|e| e.name() != EXACT_COMPONENT)
        .min_by(|a, b| a.cost().power_uw.total_cmp(&b.cost().power_uw))
        .expect("library has more than one component")
        .name()
        .to_string();
    let mut out = vec![
        (
            "exact".to_string(),
            EXACT_COMPONENT.to_string(),
            DatapathAssignment::uniform(EXACT_COMPONENT),
        ),
        (
            "cheapest".to_string(),
            cheapest.clone(),
            DatapathAssignment::uniform(&cheapest),
        ),
    ];
    if cfg.step6 {
        // The serving engine runs what the methodology selected.
        let design = t.step6_design();
        out.push((
            "step6".to_string(),
            "heterogeneous".to_string(),
            DatapathAssignment::from_design(&design),
        ));
    }
    out
}

/// One architecture's open-loop serving session: builds the engine
/// over the assignments, then drives it with the seeded stream.
impl PerArch for ServeBenchConfig {
    type Out = ServeArchOutcome;

    fn run<M: CapsModel + Clone + Send + Sync + 'static>(
        &self,
        t: Trained<'_, M>,
    ) -> ServeArchOutcome {
        let (arch, eval) = (t.arch, &t.eval);
        let assignments = build_assignments(self, &t);
        let specs = assignments
            .iter()
            .map(|(label, _, assignment)| {
                (
                    label.clone(),
                    t.measured.qmodel().clone(),
                    assignment.clone(),
                )
            })
            .collect();
        let engine = Engine::new(specs, t.measured.luts()).expect("library components resolve");
        let workers = self.workers.unwrap_or_else(par::num_threads).max(1);
        eprintln!(
            "[serve] {} {} — serving {} assignment(s) × {} request(s), {} client(s), {} worker(s)",
            t.provenance.label(),
            t.model.name(),
            engine.models(),
            self.requests,
            self.clients,
            workers
        );

        let stream = request_stream(self, arch, engine.models(), eval.len());
        let serve_config = ServeConfig {
            workers,
            max_batch: self.max_batch,
            max_wait: self.max_wait_us.map(Duration::from_micros),
        };
        // Per-request reply channels, collected with their stream index so
        // the drain below reassociates responses with what was asked —
        // independently of the (timing-dependent) enqueue order.
        let replies: Mutex<Vec<(usize, Receiver<Response>)>> = Mutex::new(Vec::new());
        let depths: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let t_serve = Instant::now();
        let ((), stats) = engine.serve(&serve_config, |submitter| {
            let _session_span = trace::span("serve_session");
            let start = Instant::now();
            std::thread::scope(|scope| {
                for client in 0..self.clients {
                    let (replies, depths, stream) = (&replies, &depths, &stream);
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        let mut seen_depths = Vec::new();
                        for (r, spec) in stream
                            .iter()
                            .enumerate()
                            .filter(|(r, _)| r % self.clients == client)
                        {
                            // Open loop: submit at the request's arrival
                            // time no matter how the queue is doing.
                            let due = Duration::from_micros(spec.arrival_us);
                            if let Some(wait) = due.checked_sub(start.elapsed()) {
                                if !wait.is_zero() {
                                    std::thread::sleep(wait);
                                }
                            }
                            let (tx, rx) = channel();
                            let (_seq, depth) = submitter.submit_with(
                                spec.model,
                                eval.samples[spec.sample].image.clone(),
                                tx,
                            );
                            mine.push((r, rx));
                            seen_depths.push(depth);
                        }
                        replies.lock().expect("replies poisoned").extend(mine);
                        depths.lock().expect("depths poisoned").extend(seen_depths);
                        // Clients count ServeRequests; push the buffered
                        // counts out before the scope unblocks.
                        trace::flush();
                    });
                }
            });
        });
        // Workers have joined: every response is buffered in its channel.
        let mut responses: Vec<(usize, Response)> = replies
            .into_inner()
            .expect("replies poisoned")
            .into_iter()
            .map(|(r, rx)| (r, rx.recv().expect("response for every request")))
            .collect();
        let serve_s = t_serve.elapsed().as_secs_f64();
        responses.sort_by_key(|(r, _)| *r);

        let mut per_model: Vec<(usize, usize, u64, Vec<Duration>)> =
            vec![(0, 0, 0xcbf2_9ce4_8422_2325u64, Vec::new()); engine.models()];
        for (r, response) in &responses {
            let spec = &stream[*r];
            assert_eq!(response.model, spec.model, "response routed to wrong model");
            let slot = &mut per_model[spec.model];
            slot.0 += 1;
            if response.prediction == eval.samples[spec.sample].label {
                slot.1 += 1;
            }
            slot.2 = fnv_fold(slot.2, *r as u64, response.prediction as u64);
            slot.3.push(response.latency);
        }

        let served: Vec<AssignmentServed> = assignments
            .iter()
            .enumerate()
            .map(|(m, (label, component, _))| {
                let (requests, correct, checksum, latencies) = &per_model[m];
                let model_stats = &stats.per_model[m];
                AssignmentServed {
                    label: label.clone(),
                    component: component.clone(),
                    requests: *requests,
                    correct: *correct,
                    prediction_checksum: *checksum,
                    latency: LatencySummary::over(latencies),
                    throughput_rps: *requests as f64 / serve_s.max(1e-9),
                    batches: model_stats.batches,
                    mean_batch: if model_stats.batches == 0 {
                        0.0
                    } else {
                        model_stats.items as f64 / model_stats.batches as f64
                    },
                    max_batch_observed: model_stats.max_batch,
                }
            })
            .collect();
        for row in &served {
            eprintln!(
                "[serve] {} {:<8} {} req  acc {:.3}  p50 {:.3} ms  p99 {:.3} ms  {:.0} rps  mean batch {:.2}",
                arch.label(),
                row.label,
                row.requests,
                row.accuracy(),
                row.latency.p50_ms,
                row.latency.p99_ms,
                row.throughput_rps,
                row.mean_batch
            );
        }

        let depths = depths.into_inner().expect("depths poisoned");
        ServeArchOutcome {
            arch,
            model_name: t.model.name(),
            assignments: served,
            workers,
            queue_depth_mean: if depths.is_empty() {
                0.0
            } else {
                depths.iter().sum::<usize>() as f64 / depths.len() as f64
            },
            queue_depth_max: depths.iter().copied().max().unwrap_or(0),
            serve_s,
            provenance: t.provenance,
        }
    }
}

/// Serializes one (architecture × assignment) as a self-contained JSON
/// line.
pub fn serve_row_to_json(
    cfg: &ServeBenchConfig,
    arch: &ServeArchOutcome,
    row: &AssignmentServed,
) -> Value {
    Value::Obj(vec![
        ("bench".into(), Value::from("serve")),
        ("schema_version".into(), Value::from(1usize)),
        ("row".into(), Value::from("assignment")),
        ("benchmark".into(), Value::from(cfg.spec.benchmark.name())),
        // String: u64 seeds above 2^53 would round through a JSON number.
        ("seed".into(), Value::from(cfg.spec.seed.to_string())),
        ("arch".into(), Value::from(arch.arch.label())),
        ("model".into(), Value::from(arch.model_name.clone())),
        ("assignment".into(), Value::from(row.label.clone())),
        ("component".into(), Value::from(row.component.clone())),
        ("max_batch".into(), Value::from(cfg.max_batch)),
        ("adaptive".into(), Value::Bool(cfg.max_wait_us.is_some())),
        ("arrival_rate_rps".into(), Value::from(cfg.arrival_rate_rps)),
        ("clients".into(), Value::from(cfg.clients)),
        ("requests".into(), Value::from(row.requests)),
        ("correct".into(), Value::from(row.correct)),
        ("accuracy".into(), Value::from(row.accuracy())),
        (
            "prediction_checksum".into(),
            Value::from(row.prediction_checksum.to_string()),
        ),
        ("workers".into(), Value::from(arch.workers)),
        ("p50_ms".into(), Value::from(row.latency.p50_ms)),
        ("p99_ms".into(), Value::from(row.latency.p99_ms)),
        ("max_ms".into(), Value::from(row.latency.max_ms)),
        ("mean_ms".into(), Value::from(row.latency.mean_ms)),
        ("throughput_rps".into(), Value::from(row.throughput_rps)),
        ("batches".into(), Value::from(row.batches as usize)),
        ("mean_batch".into(), Value::from(row.mean_batch)),
        (
            "max_batch_observed".into(),
            Value::from(row.max_batch_observed as usize),
        ),
        (
            "queue_depth_mean".into(),
            Value::from(arch.queue_depth_mean),
        ),
        ("queue_depth_max".into(), Value::from(arch.queue_depth_max)),
        ("serve_s".into(), Value::from(arch.serve_s)),
    ])
}

/// All rows of an outcome as JSON lines: architectures in config
/// order, assignments in engine order within each.
pub fn serve_to_json_lines(outcome: &ServeOutcome) -> Vec<Value> {
    outcome
        .archs
        .iter()
        .flat_map(|arch| {
            arch.assignments
                .iter()
                .map(|row| serve_row_to_json(&outcome.config, arch, row))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcane::report::json;

    #[test]
    fn serve_emits_one_row_per_arch_and_assignment() {
        let outcome = run_serve(&ServeBenchConfig::tiny(vec![Arch::CapsNet, Arch::DeepCaps]));
        assert_eq!(outcome.archs.len(), 2);
        let lines = serve_to_json_lines(&outcome);
        assert_eq!(lines.len(), 4, "2 archs × (exact, cheapest)");
        for line in &lines {
            let dumped = line.dump();
            assert!(!dumped.contains('\n'), "one line per row");
            let parsed = json::parse(&dumped).unwrap();
            for key in [
                "bench",
                "schema_version",
                "arch",
                "assignment",
                "component",
                "requests",
                "correct",
                "accuracy",
                "prediction_checksum",
                "p50_ms",
                "p99_ms",
                "max_ms",
                "throughput_rps",
                "mean_batch",
                "queue_depth_max",
            ] {
                assert!(parsed.get(key).is_some(), "missing key {key}");
            }
            assert_eq!(parsed.get("bench").unwrap().as_str().unwrap(), "serve");
            assert_eq!(parsed.get("schema_version").unwrap().as_f64().unwrap(), 1.0);
            let accuracy = parsed.get("accuracy").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&accuracy));
        }
        for arch in &outcome.archs {
            // Every request was answered and attributed.
            let total: usize = arch.assignments.iter().map(|a| a.requests).sum();
            assert_eq!(total, outcome.config.requests);
            assert_eq!(arch.assignments[0].label, "exact");
            assert_eq!(arch.assignments[0].component, EXACT_COMPONENT);
            assert_eq!(arch.assignments[1].label, "cheapest");
            assert_ne!(arch.assignments[1].component, EXACT_COMPONENT);
            assert!(arch.serve_s > 0.0);
        }
    }

    #[test]
    fn step6_adds_the_heterogeneous_design_row() {
        let cfg = ServeBenchConfig {
            step6: true,
            ..ServeBenchConfig::tiny(vec![Arch::CapsNet])
        };
        let outcome = run_serve(&cfg);
        let rows = &outcome.archs[0].assignments;
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].label, "step6");
        assert_eq!(rows[2].component, "heterogeneous");
        let lines = serve_to_json_lines(&outcome);
        assert_eq!(lines.len(), 3);
    }

    /// The acceptance bar for the CI `cmp`: the stable lines are
    /// byte-identical at every thread count (which also changes the
    /// default worker count) — only the volatile keys may move.
    #[test]
    fn stable_lines_are_byte_identical_across_thread_counts() {
        crate::cli::tests::thread_invariant_lines(&ServeBenchConfig {
            workers: None,
            ..ServeBenchConfig::tiny(vec![Arch::CapsNet])
        });
    }

    /// The artifact-store acceptance bar: a cold (train) run and a
    /// warm (restore) run write the storeless run's stable lines.
    #[test]
    fn cold_and_warm_runs_give_identical_stable_json() {
        crate::cli::tests::assert_cold_and_warm_match_storeless(ServeBenchConfig::tiny(vec![
            Arch::CapsNet,
        ]));
    }
}
