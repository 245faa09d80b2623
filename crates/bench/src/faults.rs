//! The `faults` bench mode: per-site criticality of discrete hardware
//! faults across the quantized datapath, for both of the paper's
//! architectures.
//!
//! Where the `qdp` bench validates the paper's *Gaussian* error model
//! against measured accuracy, this bench exercises the second error
//! model family (`redcane::faults`): transient bit flips, permanently
//! stuck bit lanes and dead multiplier arrays, injected one site at a
//! time into an otherwise **exact** quantized datapath. Every trial
//! builds a single-site [`FaultPlan`], layers it over the shared
//! measured backend ([`QuantMeasured::over`]) and measures what the
//! faulted hardware actually scores, resolving the trial once:
//!
//! - **weight-code stuck-at-1 per bit index** — the classic
//!   critical-bit analysis: which stored-weight bit, when stuck,
//!   costs the most accuracy (the MSB-adjacent bits should dominate);
//! - **multiplier bit flips** at a grid of bit error rates;
//! - **accumulator stuck lanes** at high bit indices (32-bit datapath);
//! - **activation-register bit flips**;
//! - **a dead multiplier array** — with `fail_soft`, the site
//!   downgrades to the exact multiplier and the row reports the
//!   downgrade; without it, the row records the refusal
//!   ([`BackendError::DeadSite`](redcane::BackendError::DeadSite))
//!   instead of an accuracy.
//!
//! Each fault model is additionally *characterized* — mean and RMS
//! product error over the run's empirical operand pools, normalized by
//! the full-scale product — mirroring the `(NA, NM)` characterization
//! of approximate components. It is computed live on every run: a few
//! thousand single-MAC draws per distinct fault spec.
//!
//! Beyond the single-site trials, each architecture runs one
//! **correlated multi-site plan**: a single [`FaultPlan`] carrying a
//! deterministically-chosen fault at every swept site simultaneously
//! (`combined_plan` row) — the compound-failure scenario per-site
//! rows cannot show.
//!
//! One JSON line per trial plus one `site_criticality` summary line
//! per site (max/mean drop, critical weight bit) plus one
//! `combined_plan` line per architecture. Trials fan out over
//! [`par::map_with`] workers; every quantity derives only from the
//! seed, the architecture tag, the site index and the trial index, so
//! the output is byte-identical at every `REDCANE_THREADS` setting.

use std::collections::BTreeMap;
use std::time::Instant;

use redcane::datapath::{AccuracyBackend, DatapathAssignment, SiteKey};
use redcane::faults::{mix64, FaultModel, FaultPlan, FaultTarget, SiteFault};
use redcane::report::json::Value;
use redcane_artifacts::{fingerprint, Provenance};
use redcane_capsnet::{CapsModel, OpKind};
use redcane_qdp::QuantMeasured;
use redcane_tensor::par;

use crate::cli::{next_parsed, Args, Bench};
use crate::session::{Arch, BenchSpec, PerArch, Session, Trained, WEIGHT_POOL_CODES};

/// The exact multiplier every non-faulted site runs: fault trials
/// measure the fault's own effect, not an approximate component's.
const EXACT_COMPONENT: &str = "mul8u_1JFF";

/// Full-scale 8×8-bit product, the characterization normalizer.
const FULL_SCALE: f64 = 65025.0;

/// Configuration of a `faults` resilience sweep: the shared
/// [`BenchSpec`] plus the fault grid; fully determined by its fields, so
/// equal configs give equal outcomes.
#[derive(Debug, Clone)]
pub struct FaultsConfig {
    /// The trained model and eval subset.
    pub spec: BenchSpec,
    /// Weight-code stuck-at-1 bit indices (the critical-bit grid);
    /// only sites backed by weight memory get these trials.
    pub stuck_bits: Vec<u32>,
    /// Multiplier bit-flip error rates.
    pub bers: Vec<f64>,
    /// Accumulator stuck-at-1 bit indices (32-bit datapath).
    pub acc_bits: Vec<u32>,
    /// Activation-register bit-flip error rates.
    pub act_bers: Vec<f64>,
    /// Include one dead-multiplier trial per site.
    pub dead: bool,
    /// Cap on sites swept per architecture (`None` = every site); the
    /// skipped count is logged and reported per architecture.
    pub max_sites: Option<usize>,
    /// Downgrade dead sites to the exact multiplier (and report the
    /// downgrade) instead of refusing to evaluate.
    pub fail_soft: bool,
}

impl FaultsConfig {
    /// The full seeded sweep: every datapath site of both
    /// architectures under the whole fault grid.
    pub fn smoke() -> Self {
        FaultsConfig {
            spec: BenchSpec::smoke(),
            stuck_bits: (0..8).collect(),
            bers: vec![1e-3, 1e-2, 5e-2],
            acc_bits: vec![8, 16, 24, 30],
            act_bers: vec![1e-2],
            dead: true,
            max_sites: None,
            fail_soft: false,
        }
    }

    /// CI-sized: the quick spec, a thinned fault grid, and the first
    /// few sites per architecture.
    pub fn quick() -> Self {
        FaultsConfig {
            spec: BenchSpec::quick(),
            stuck_bits: vec![0, 3, 7],
            bers: vec![1e-2],
            acc_bits: vec![24],
            act_bers: vec![1e-2],
            max_sites: Some(3),
            ..FaultsConfig::smoke()
        }
    }

    /// The unit-test sweep: a thin grid over the first two sites of the
    /// tiny session spec, fail-soft.
    #[cfg(test)]
    pub(crate) fn tiny(archs: Vec<Arch>) -> Self {
        FaultsConfig {
            spec: crate::session::tiny(archs),
            stuck_bits: vec![3, 7],
            bers: vec![5e-2],
            acc_bits: vec![30],
            act_bers: vec![],
            dead: true,
            max_sites: Some(2),
            fail_soft: true,
        }
    }
}

impl Bench for FaultsConfig {
    type Outcome = FaultsOutcome;

    const NAME: &'static str = "faults";

    const USAGE: &'static str = "faults: per-site bit-flip / stuck-at / dead-output resilience \
analysis across the quantized datapath
flags: --quick, --benchmark mnist|fashion|svhn|cifar, --seed N, \
--arch capsnet|deepcaps|both, --fail-soft, --max-sites N, \
--out PATH, --threads N, --artifacts DIR, --no-cache, \
--profile PATH, --profile-counters PATH, \
--profile-folded PATH";

    fn spec_mut(&mut self) -> &mut BenchSpec {
        &mut self.spec
    }

    /// Keeps `--fail-soft` and `--max-sites`.
    fn quick_keeping(self) -> Self {
        let quick = FaultsConfig::quick();
        FaultsConfig {
            spec: self.spec.quick_keeping(),
            fail_soft: self.fail_soft,
            max_sites: self.max_sites.or(quick.max_sites),
            ..quick
        }
    }

    fn match_flag(&mut self, flag: &str, args: &mut Args) -> Option<Result<(), String>> {
        match flag {
            "--fail-soft" => {
                self.fail_soft = true;
                Some(Ok(()))
            }
            "--max-sites" => Some(next_parsed(args, flag).map(|v: usize| self.max_sites = Some(v))),
            _ => None,
        }
    }

    fn run(&self) -> FaultsOutcome {
        run_faults(self)
    }

    fn lines(outcome: &FaultsOutcome) -> Vec<Value> {
        faults_to_json_lines(outcome)
    }

    fn provenance(outcome: &FaultsOutcome) -> Vec<(Arch, Provenance)> {
        outcome
            .archs
            .iter()
            .map(|a| (a.arch, a.provenance))
            .collect()
    }

    fn summary(outcome: &FaultsOutcome) -> Vec<String> {
        let archs = outcome.archs.iter().map(|arch| {
            format!(
                "{}: {} ({} trial(s) over {} site(s), baseline {:.3})",
                arch.arch.label(),
                arch.provenance.label(),
                arch.trials.len(),
                arch.sites.len(),
                arch.baseline_accuracy
            )
        });
        archs
            .chain([format!("total {:.2}s", outcome.total_s)])
            .collect()
    }
}

/// The per-site trial list: one [`SiteFault`] per grid point.
/// `weight_memory` gates the weight-code trials — routing MACs stream
/// both operands, so there is no stored code for a stuck cell to
/// corrupt.
fn trial_faults(cfg: &FaultsConfig, weight_memory: bool) -> Vec<SiteFault> {
    let mut out = Vec::new();
    if weight_memory {
        for &bit in &cfg.stuck_bits {
            out.push(SiteFault::new(
                FaultTarget::WeightCodes,
                FaultModel::StuckAt {
                    lanes: 1 << bit,
                    value: true,
                },
            ));
        }
    }
    for &ber in &cfg.bers {
        out.push(SiteFault::new(
            FaultTarget::Multiplier,
            FaultModel::BitFlip { ber },
        ));
    }
    for &bit in &cfg.acc_bits {
        out.push(SiteFault::new(
            FaultTarget::Accumulator,
            FaultModel::StuckAt {
                lanes: 1 << bit,
                value: true,
            },
        ));
    }
    for &ber in &cfg.act_bers {
        out.push(SiteFault::new(
            FaultTarget::ActivationCodes,
            FaultModel::BitFlip { ber },
        ));
    }
    if cfg.dead {
        out.push(SiteFault::new(
            FaultTarget::Multiplier,
            FaultModel::DeadOutput,
        ));
    }
    out
}

/// Draws one operand code from a pool (uniform byte when empty).
fn draw(pool: &[u8], word: u64) -> u32 {
    if pool.is_empty() {
        (word & 0xff) as u32
    } else {
        u32::from(pool[(word % pool.len() as u64) as usize])
    }
}

/// One fault specification's characterized product-error statistics
/// over the run's empirical operand pools — the discrete-fault
/// analogue of a component's `(NA, NM)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultChar {
    /// Compact fault spec (`target:model`, e.g.
    /// `multiplier:stuck1(0x08)`), as [`SiteFault::spec`] prints it.
    pub spec: String,
    /// Characterization sample count the statistics were measured with.
    pub samples: u64,
    /// Mean product error, normalized by the full 16-bit product range.
    pub mean_err: f64,
    /// RMS product error, normalized the same way.
    pub rms_err: f64,
}

/// Characterizes one fault model over the empirical operand pools:
/// mean and RMS error of the faulted single-MAC product against the
/// exact product, normalized by the full-scale product — the discrete
/// family's analogue of an approximate component's `(NA, NM)`.
///
/// The realization seed derives from the fault's spec string, never
/// from a site: the characterization is a property of the fault model
/// alone.
pub fn characterize_fault(
    fault: &SiteFault,
    activations: &[u8],
    weights: &[u8],
    samples: usize,
    seed: u64,
) -> FaultChar {
    let spec = fault.spec();
    let rseed = mix64(seed, fingerprint(&spec), 0);
    let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
    for i in 0..samples {
        let i = i as u64;
        let a = draw(activations, mix64(seed, i, 1));
        let b = draw(weights, mix64(seed, i, 2));
        let exact = a * b;
        let faulted = match fault.target {
            FaultTarget::WeightCodes => a * fault.model.apply(b, 8, rseed, i),
            FaultTarget::ActivationCodes => fault.model.apply(a, 8, rseed, i) * b,
            FaultTarget::Multiplier => fault.model.apply(exact, 16, rseed, i),
            FaultTarget::Accumulator => fault.model.apply(exact, 32, rseed, i),
        };
        let err = (i64::from(faulted) - i64::from(exact)) as f64 / FULL_SCALE;
        sum += err;
        sum_sq += err * err;
    }
    let n = samples.max(1) as f64;
    FaultChar {
        spec,
        samples: samples as u64,
        mean_err: sum / n,
        rms_err: (sum_sq / n).sqrt(),
    }
}

/// One fault trial: a single-site plan, its characterization, and what
/// the faulted datapath scored.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTrial {
    /// The injected site.
    pub site: SiteKey,
    /// The injected fault.
    pub fault: SiteFault,
    /// The trial's plan seed (fault realizations derive from it).
    pub plan_seed: u64,
    /// The fault model's operand-pool characterization.
    pub characterization: FaultChar,
    /// Accuracy of the faulted datapath on the eval subset; `None`
    /// when the backend refused (strict mode, dead site).
    pub accuracy: Option<f64>,
    /// Sites downgraded to the exact multiplier (fail-soft only).
    pub downgraded: Vec<SiteKey>,
    /// The refusal, verbatim, when `accuracy` is `None`.
    pub error: Option<String>,
}

/// The correlated multi-site trial: one [`FaultPlan`] carrying a
/// fault at **every** swept site simultaneously — the "many things
/// break at once" scenario single-site trials cannot show — evaluated
/// in a single pass.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedPlanTrial {
    /// The injected `(site, fault)` pairs, in site (program) order.
    pub faults: Vec<(SiteKey, SiteFault)>,
    /// The plan seed shared by every site's fault realization.
    pub plan_seed: u64,
    /// Accuracy of the multi-faulted datapath; `None` when the
    /// backend refused (strict mode, dead site in the plan).
    pub accuracy: Option<f64>,
    /// Sites downgraded to the exact multiplier (fail-soft only).
    pub downgraded: Vec<SiteKey>,
    /// The refusal, verbatim, when `accuracy` is `None`.
    pub error: Option<String>,
}

/// One site's criticality summary over its trials.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteCriticality {
    /// The summarized site.
    pub site: SiteKey,
    /// Trials run at this site.
    pub trials: usize,
    /// The weight bit whose stuck-at-1 fault cost the most accuracy
    /// (`None` for sites without weight memory).
    pub critical_bit: Option<u32>,
    /// That bit's accuracy drop in percentage points.
    pub critical_bit_drop_pp: Option<f64>,
    /// Worst accuracy drop over all scored trials, in pp.
    pub max_drop_pp: f64,
    /// Mean accuracy drop over all scored trials, in pp.
    pub mean_drop_pp: f64,
}

/// One architecture's full resilience sweep.
#[derive(Debug, Clone)]
pub struct FaultsArchOutcome {
    /// The architecture swept.
    pub arch: Arch,
    /// Model display name.
    pub model_name: String,
    /// Fault-free accuracy of the exact quantized datapath on the eval
    /// subset — the baseline every drop is measured against.
    pub baseline_accuracy: f64,
    /// All trials: sites in program order, grid order within a site.
    pub trials: Vec<FaultTrial>,
    /// Per-site summaries, in program order.
    pub sites: Vec<SiteCriticality>,
    /// The correlated multi-site plan's trial (one per architecture).
    pub combined: CombinedPlanTrial,
    /// Sites beyond `max_sites` that were NOT swept.
    pub skipped_sites: usize,
    /// Trained this run or restored from the artifact store. Not part
    /// of the JSON schema: cold and warm runs must emit byte-identical
    /// artifacts.
    pub provenance: Provenance,
}

/// The result of one full `faults` run.
#[derive(Debug, Clone)]
pub struct FaultsOutcome {
    /// The configuration that produced it.
    pub config: FaultsConfig,
    /// One sweep per configured architecture, in `config.spec.archs`
    /// order.
    pub archs: Vec<FaultsArchOutcome>,
    /// Total wall-clock seconds.
    pub total_s: f64,
}

/// Runs the shared session (dataset generation → training or restore
/// → lowering) and then the per-site fault-injection sweep for every
/// configured architecture, deterministically from the seed (and
/// independent of the worker-thread count).
///
/// # Panics
///
/// Panics on empty train/test/eval/arch settings or an empty fault
/// grid.
pub fn run_faults(cfg: &FaultsConfig) -> FaultsOutcome {
    assert!(
        !trial_faults(cfg, true).is_empty(),
        "faults needs a non-empty fault grid"
    );
    let t0 = Instant::now();
    let archs = Session::open(&cfg.spec, "faults").run(cfg);
    FaultsOutcome {
        config: cfg.clone(),
        archs,
        total_s: t0.elapsed().as_secs_f64(),
    }
}

/// One architecture's fault sweep.
impl PerArch for FaultsConfig {
    type Out = FaultsArchOutcome;

    fn run<M: CapsModel + Clone + Send + Sync + 'static>(
        &self,
        t: Trained<'_, M>,
    ) -> FaultsArchOutcome {
        let (seed, char_samples) = (self.spec.seed, self.spec.characterization_samples);
        let (arch, model, eval, measured) = (t.arch, &t.model, &t.eval, &t.measured);
        let all_sites = measured.qmodel().multiply_sites();
        let (sites, skipped_sites) = match self.max_sites {
            Some(n) if all_sites.len() > n => (all_sites[..n].to_vec(), all_sites.len() - n),
            _ => (all_sites, 0),
        };
        let weights_pool = measured.qmodel().weight_code_sample(WEIGHT_POOL_CODES);
        let baseline_accuracy = measured
            .evaluate(model, eval, &DatapathAssignment::uniform(EXACT_COMPONENT))
            .expect("uniform exact assignment covers every site");
        eprintln!(
            "[faults] {} {} — exact-datapath baseline {:.3} on {} samples, {} site(s){}",
            t.provenance.label(),
            model.name(),
            baseline_accuracy,
            eval.len(),
            sites.len(),
            if skipped_sites > 0 {
                format!(" ({skipped_sites} skipped by --max-sites)")
            } else {
                String::new()
            }
        );

        // Weight-code faults only make sense where a stored code backs the
        // MAC: the non-routing MacOutput sites.
        let trial_lists: Vec<Vec<SiteFault>> = sites
            .iter()
            .map(|(_, kind, in_routing)| {
                trial_faults(self, *kind == OpKind::MacOutput && !in_routing)
            })
            .collect();

        // Characterize each distinct fault spec once.
        let mut chars: BTreeMap<String, FaultChar> = BTreeMap::new();
        for fault in trial_lists.iter().flatten() {
            chars.entry(fault.spec()).or_insert_with(|| {
                characterize_fault(
                    fault,
                    &t.payload.activation_codes,
                    &weights_pool,
                    char_samples,
                    seed ^ 0xfa17,
                )
            });
        }

        // Flatten (site, trial) and fan out. Every per-trial quantity
        // derives only from (seed, arch identity, site index, trial
        // index) — never from the worker that computed it.
        let flat: Vec<(usize, usize)> = trial_lists
            .iter()
            .enumerate()
            .flat_map(|(si, list)| (0..list.len()).map(move |ti| (si, ti)))
            .collect();
        let trials: Vec<FaultTrial> = par::map_with(
            flat.len(),
            || (),
            |(), k| {
                let (si, ti) = flat[k];
                let (layer, kind, in_routing) = &sites[si];
                let fault = &trial_lists[si][ti];
                let plan_seed = mix64(
                    seed ^ 0xfa17_5eed,
                    (arch.seed_tag() << 32) | si as u64,
                    ti as u64,
                );
                let plan = FaultPlan::identity(plan_seed).with(
                    layer.clone(),
                    *kind,
                    *in_routing,
                    fault.clone(),
                );
                let (accuracy, downgraded, error) = score(&t, plan, self.fail_soft);
                FaultTrial {
                    site: sites[si].clone(),
                    fault: fault.clone(),
                    plan_seed,
                    characterization: chars[&fault.spec()].clone(),
                    accuracy,
                    downgraded,
                    error,
                }
            },
        );

        // The correlated scenario: one fault per swept site, all in ONE
        // plan, chosen deterministically from each site's own trial list.
        // Dead-output faults only join the plan under fail-soft — in
        // strict mode a single dead site would turn the whole combined
        // row into a refusal.
        let combined = {
            let plan_seed = mix64(seed ^ 0xfa17_5eed, arch.seed_tag(), 0xc0b1);
            let mut plan = FaultPlan::identity(plan_seed);
            let mut faults = Vec::with_capacity(sites.len());
            for (si, list) in trial_lists.iter().enumerate() {
                let candidates: Vec<&SiteFault> = list
                    .iter()
                    .filter(|f| self.fail_soft || f.model != FaultModel::DeadOutput)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let pick = mix64(seed ^ 0xc0b1_4ed5, (arch.seed_tag() << 32) | si as u64, 0)
                    % candidates.len() as u64;
                let fault = candidates[pick as usize].clone();
                let (layer, kind, in_routing) = &sites[si];
                plan = plan.with(layer.clone(), *kind, *in_routing, fault.clone());
                faults.push((sites[si].clone(), fault));
            }
            let (accuracy, downgraded, error) = score(&t, plan, self.fail_soft);
            CombinedPlanTrial {
                faults,
                plan_seed,
                accuracy,
                downgraded,
                error,
            }
        };
        eprintln!(
            "[faults] {} combined plan over {} site(s): {}",
            arch.label(),
            combined.faults.len(),
            match (combined.accuracy, &combined.error) {
                (Some(acc), _) => format!(
                    "accuracy {:.3} (drop {:+.1} pp)",
                    acc,
                    (baseline_accuracy - acc) * 100.0
                ),
                (None, Some(e)) => format!("refused: {e}"),
                (None, None) => "no faults injected".to_string(),
            }
        );

        let sites = summarize_sites(&sites, &trial_lists, &trials, baseline_accuracy);
        for s in &sites {
            eprintln!(
                "[faults] {} {:<12} {:>12}{}  max drop {:+.1} pp  mean {:+.1} pp{}",
                arch.label(),
                s.site.0,
                op_slug(s.site.1),
                if s.site.2 { "@routing" } else { "" },
                s.max_drop_pp,
                s.mean_drop_pp,
                match s.critical_bit {
                    Some(bit) => format!("  critical weight bit {bit}"),
                    None => String::new(),
                }
            );
        }

        FaultsArchOutcome {
            arch,
            model_name: model.name(),
            baseline_accuracy,
            trials,
            sites,
            combined,
            skipped_sites,
            provenance: t.provenance,
        }
    }
}

/// Scores one fault plan on the exact datapath: its accuracy and the
/// sites fail-soft downgraded, or the backend's refusal.
fn score<M: CapsModel + Clone + Send + Sync>(
    t: &Trained<'_, M>,
    plan: FaultPlan,
    fail_soft: bool,
) -> (Option<f64>, Vec<SiteKey>, Option<String>) {
    let assignment = DatapathAssignment::uniform(EXACT_COMPONENT);
    let backend = QuantMeasured::over(&t.measured, plan, fail_soft);
    match backend.evaluate_with_downgrades(&t.model, &t.eval, &assignment) {
        Ok((acc, downgraded)) => (Some(acc), downgraded, None),
        Err(e) => (None, Vec::new(), Some(e.to_string())),
    }
}

/// Folds an architecture's trials into per-site criticality summaries.
fn summarize_sites(
    sites: &[SiteKey],
    trial_lists: &[Vec<SiteFault>],
    trials: &[FaultTrial],
    baseline: f64,
) -> Vec<SiteCriticality> {
    let mut out = Vec::with_capacity(sites.len());
    let mut cursor = 0;
    for (si, site) in sites.iter().enumerate() {
        let n = trial_lists[si].len();
        let slice = &trials[cursor..cursor + n];
        cursor += n;
        let drops: Vec<f64> = slice
            .iter()
            .filter_map(|t| t.accuracy.map(|a| (baseline - a) * 100.0))
            .collect();
        let (mut critical_bit, mut critical_drop) = (None, f64::NEG_INFINITY);
        for t in slice {
            if let (FaultTarget::WeightCodes, FaultModel::StuckAt { lanes, .. }, Some(acc)) =
                (t.fault.target, t.fault.model, t.accuracy)
            {
                let drop = (baseline - acc) * 100.0;
                if drop > critical_drop {
                    critical_drop = drop;
                    critical_bit = Some(lanes.trailing_zeros());
                }
            }
        }
        out.push(SiteCriticality {
            site: site.clone(),
            trials: n,
            critical_bit,
            critical_bit_drop_pp: critical_bit.map(|_| critical_drop),
            max_drop_pp: drops.iter().copied().fold(0.0, f64::max),
            mean_drop_pp: if drops.is_empty() {
                0.0
            } else {
                drops.iter().sum::<f64>() / drops.len() as f64
            },
        });
    }
    out
}

/// Stable slug per [`OpKind`], matching the core fault-plan schema.
fn op_slug(kind: OpKind) -> &'static str {
    match kind {
        OpKind::MacOutput => "mac_output",
        OpKind::Activation => "activation",
        OpKind::Softmax => "softmax",
        OpKind::LogitsUpdate => "logits_update",
        OpKind::MacInput => "mac_input",
    }
}

/// A site key's JSON fields.
fn site_fields(site: &SiteKey) -> [(String, Value); 3] {
    [
        ("layer".into(), Value::from(site.0.clone())),
        ("op".into(), Value::from(op_slug(site.1))),
        ("in_routing".into(), Value::Bool(site.2)),
    ]
}

/// A fault's JSON fields.
fn fault_fields(fault: &SiteFault) -> [(String, Value); 3] {
    [
        ("target".into(), Value::from(fault.target.label())),
        ("fault".into(), Value::from(fault.model.label())),
        ("spec".into(), Value::from(fault.spec())),
    ]
}

/// `value` as JSON, `null` when absent.
fn or_null<T: Into<Value>>(value: Option<T>) -> Value {
    value.map_or(Value::Null, Into::into)
}

/// The fields every `faults` JSON line leads with.
fn row_head(cfg: &FaultsConfig, arch: &FaultsArchOutcome, row: &str) -> Vec<(String, Value)> {
    vec![
        ("bench".into(), Value::from("faults")),
        // v2: one `combined_plan` row per architecture (a correlated
        // multi-site plan) after the per-site rows.
        ("schema_version".into(), Value::from(2usize)),
        ("row".into(), Value::from(row)),
        ("benchmark".into(), Value::from(cfg.spec.benchmark.name())),
        // String: u64 seeds above 2^53 would round through a JSON number.
        ("seed".into(), Value::from(cfg.spec.seed.to_string())),
        ("arch".into(), Value::from(arch.arch.label())),
        ("model".into(), Value::from(arch.model_name.clone())),
        ("fail_soft".into(), Value::Bool(cfg.fail_soft)),
        ("eval_samples".into(), Value::from(cfg.spec.eval_samples)),
        (
            "baseline_accuracy".into(),
            Value::from(arch.baseline_accuracy),
        ),
    ]
}

/// The fields a scored plan's JSON line ends with: accuracy, drop
/// against the baseline, fail-soft downgrades and the refusal.
fn score_fields(
    arch: &FaultsArchOutcome,
    accuracy: Option<f64>,
    downgraded: &[SiteKey],
    error: &Option<String>,
) -> [(String, Value); 4] {
    let downgraded = downgraded
        .iter()
        .map(|site| Value::Obj(site_fields(site).to_vec()))
        .collect();
    [
        ("accuracy".into(), or_null(accuracy)),
        (
            "drop_pp".into(),
            or_null(accuracy.map(|a| (arch.baseline_accuracy - a) * 100.0)),
        ),
        ("downgraded".into(), Value::Arr(downgraded)),
        ("error".into(), or_null(error.clone())),
    ]
}

/// Serializes one trial as a self-contained JSON line.
pub fn fault_trial_to_json(cfg: &FaultsConfig, arch: &FaultsArchOutcome, t: &FaultTrial) -> Value {
    let mut fields = row_head(cfg, arch, "trial");
    fields.extend(site_fields(&t.site));
    fields.extend(fault_fields(&t.fault));
    fields.extend([
        ("plan_seed".into(), Value::from(t.plan_seed.to_string())),
        (
            "char_samples".into(),
            Value::from(t.characterization.samples as usize),
        ),
        (
            "char_mean_err".into(),
            Value::from(t.characterization.mean_err),
        ),
        (
            "char_rms_err".into(),
            Value::from(t.characterization.rms_err),
        ),
    ]);
    fields.extend(score_fields(arch, t.accuracy, &t.downgraded, &t.error));
    Value::Obj(fields)
}

/// Serializes one site's criticality summary as a JSON line.
pub fn site_criticality_to_json(
    cfg: &FaultsConfig,
    arch: &FaultsArchOutcome,
    s: &SiteCriticality,
) -> Value {
    let mut fields = row_head(cfg, arch, "site_criticality");
    fields.extend(site_fields(&s.site));
    fields.extend([
        ("trials".into(), Value::from(s.trials)),
        (
            "critical_bit".into(),
            or_null(s.critical_bit.map(|b| b as usize)),
        ),
        (
            "critical_bit_drop_pp".into(),
            or_null(s.critical_bit_drop_pp),
        ),
        ("max_drop_pp".into(), Value::from(s.max_drop_pp)),
        ("mean_drop_pp".into(), Value::from(s.mean_drop_pp)),
        ("skipped_sites".into(), Value::from(arch.skipped_sites)),
    ]);
    Value::Obj(fields)
}

/// Serializes the correlated multi-site plan's trial as a JSON line.
pub fn combined_plan_to_json(
    cfg: &FaultsConfig,
    arch: &FaultsArchOutcome,
    t: &CombinedPlanTrial,
) -> Value {
    let faults: Vec<Value> = t
        .faults
        .iter()
        .map(|(site, fault)| {
            let mut entry = site_fields(site).to_vec();
            entry.extend(fault_fields(fault));
            Value::Obj(entry)
        })
        .collect();
    let mut fields = row_head(cfg, arch, "combined_plan");
    fields.extend([
        ("faulted_sites".into(), Value::from(t.faults.len())),
        ("faults".into(), Value::Arr(faults)),
        ("plan_seed".into(), Value::from(t.plan_seed.to_string())),
    ]);
    fields.extend(score_fields(arch, t.accuracy, &t.downgraded, &t.error));
    Value::Obj(fields)
}

/// All rows of an outcome as JSON lines: architectures in config
/// order; within each, every site's trial rows (grid order) followed
/// by its `site_criticality` summary row, then the architecture's
/// `combined_plan` row.
pub fn faults_to_json_lines(outcome: &FaultsOutcome) -> Vec<Value> {
    let mut lines = Vec::new();
    for arch in &outcome.archs {
        let mut cursor = 0;
        for s in &arch.sites {
            for t in &arch.trials[cursor..cursor + s.trials] {
                lines.push(fault_trial_to_json(&outcome.config, arch, t));
            }
            cursor += s.trials;
            lines.push(site_criticality_to_json(&outcome.config, arch, s));
        }
        lines.push(combined_plan_to_json(&outcome.config, arch, &arch.combined));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcane::report::json;

    #[test]
    fn characterization_orders_fault_severity_sensibly() {
        let acts: Vec<u8> = (0..=255).collect();
        let weights: Vec<u8> = (0..=255).rev().collect();
        let char_of = |fault: &SiteFault| characterize_fault(fault, &acts, &weights, 2000, 9);
        let identity = char_of(&SiteFault::new(
            FaultTarget::Multiplier,
            FaultModel::BitFlip { ber: 0.0 },
        ));
        assert_eq!((identity.mean_err, identity.rms_err), (0.0, 0.0));
        let dead = char_of(&SiteFault::new(
            FaultTarget::Multiplier,
            FaultModel::DeadOutput,
        ));
        assert!(dead.mean_err < 0.0, "dead outputs only lose magnitude");
        let low_bit = char_of(&SiteFault::new(
            FaultTarget::WeightCodes,
            FaultModel::StuckAt {
                lanes: 1 << 0,
                value: true,
            },
        ));
        let high_bit = char_of(&SiteFault::new(
            FaultTarget::WeightCodes,
            FaultModel::StuckAt {
                lanes: 1 << 7,
                value: true,
            },
        ));
        assert!(
            high_bit.rms_err > low_bit.rms_err,
            "MSB stuck-at must out-err LSB: {} vs {}",
            high_bit.rms_err,
            low_bit.rms_err
        );
        // Determinism: same inputs, same numbers.
        assert_eq!(
            char_of(&SiteFault::new(
                FaultTarget::Multiplier,
                FaultModel::BitFlip { ber: 0.01 }
            )),
            char_of(&SiteFault::new(
                FaultTarget::Multiplier,
                FaultModel::BitFlip { ber: 0.01 }
            )),
        );
    }

    #[test]
    fn faults_emits_trial_and_site_rows_with_failsoft_downgrades() {
        let outcome = run_faults(&FaultsConfig::tiny(vec![Arch::CapsNet]));
        let arch = &outcome.archs[0];
        assert_eq!(arch.sites.len(), 2, "max_sites caps the sweep");
        assert!(arch.skipped_sites > 0, "CapsNet has more than two sites");
        // Both swept sites are weight-memory MAC sites: full grid.
        assert_eq!(arch.trials.len(), 2 * 5, "2 sites x (2+1+1+1) trials");

        let lines = faults_to_json_lines(&outcome);
        assert_eq!(
            lines.len(),
            10 + 2 + 1,
            "trial rows + site summary rows + the combined-plan row"
        );
        for line in &lines {
            let dumped = line.dump();
            assert!(!dumped.contains('\n'), "one line per row");
            let parsed = json::parse(&dumped).unwrap();
            for key in [
                "bench",
                "schema_version",
                "row",
                "arch",
                "fail_soft",
                "baseline_accuracy",
            ] {
                assert!(parsed.get(key).is_some(), "missing key {key}");
            }
            assert_eq!(parsed.get("bench").unwrap().as_str().unwrap(), "faults");
            assert_eq!(parsed.get("schema_version").unwrap().as_f64().unwrap(), 2.0);
            let row = parsed.get("row").unwrap().as_str().unwrap().to_string();
            if row == "combined_plan" {
                for key in ["faulted_sites", "faults", "plan_seed", "accuracy"] {
                    assert!(parsed.get(key).is_some(), "missing key {key}");
                }
            } else {
                for key in ["layer", "op", "in_routing"] {
                    assert!(parsed.get(key).is_some(), "missing key {key}");
                }
            }
        }

        // The combined plan faulted both swept sites in one pass and
        // (fail-soft) still produced an accuracy.
        assert_eq!(arch.combined.faults.len(), 2);
        assert!(arch.combined.accuracy.is_some());
        assert!(arch.combined.error.is_none());

        // The dead-multiplier trial downgraded (fail-soft) to the exact
        // component — which IS the assignment, so the accuracy must be
        // bit-identical to the baseline.
        let dead: Vec<&FaultTrial> = arch
            .trials
            .iter()
            .filter(|t| t.fault.model == FaultModel::DeadOutput)
            .collect();
        assert_eq!(dead.len(), 2, "one dead trial per site");
        for t in dead {
            assert_eq!(t.accuracy, Some(arch.baseline_accuracy));
            assert_eq!(t.downgraded, vec![t.site.clone()]);
            assert!(t.error.is_none());
        }

        // Site summaries carry the critical-bit analysis, and the
        // high bit dominates the low bit.
        for s in &arch.sites {
            assert!(s.critical_bit.is_some(), "weight-memory site");
            assert!(s.trials == 5);
        }
    }

    #[test]
    fn strict_mode_reports_dead_sites_as_errors() {
        let cfg = FaultsConfig {
            fail_soft: false,
            ..FaultsConfig::tiny(vec![Arch::CapsNet])
        };
        let outcome = run_faults(&cfg);
        let arch = &outcome.archs[0];
        for t in &arch.trials {
            if t.fault.model == FaultModel::DeadOutput {
                assert_eq!(t.accuracy, None);
                let err = t.error.as_deref().expect("strict refusal recorded");
                assert!(err.contains("dead"), "{err}");
            } else {
                assert!(t.accuracy.is_some(), "{:?}", t.fault);
                assert!(t.error.is_none());
            }
        }
        // The refusal lands in the JSON row, not a crash.
        let lines = faults_to_json_lines(&outcome);
        let dead_line = lines
            .iter()
            .map(|l| json::parse(&l.dump()).unwrap())
            .find(|p| {
                p.get("fault")
                    .and_then(Value::as_str)
                    .is_some_and(|f| f == "dead")
            })
            .expect("dead trial serialized");
        assert!(dead_line.get("accuracy").unwrap().as_f64().is_none());
        assert!(dead_line.get("error").unwrap().as_str().is_some());

        // Strict mode keeps dead faults out of the combined plan, so
        // the correlated row still scores instead of refusing.
        let combined = &arch.combined;
        assert!(combined.accuracy.is_some());
        assert!(combined
            .faults
            .iter()
            .all(|(_, f)| f.model != FaultModel::DeadOutput));
    }

    /// Per-arch seeds key on the architecture's identity, so a
    /// deepcaps-only run reproduces exactly the deepcaps rows of a
    /// both-arch run at the same seed.
    #[test]
    fn single_arch_run_reproduces_the_both_arch_rows() {
        let both = run_faults(&FaultsConfig::tiny(vec![Arch::CapsNet, Arch::DeepCaps]));
        let solo = run_faults(&FaultsConfig::tiny(vec![Arch::DeepCaps]));
        assert_eq!(
            solo.archs[0].baseline_accuracy,
            both.archs[1].baseline_accuracy
        );
        assert_eq!(solo.archs[0].trials, both.archs[1].trials);
        assert_eq!(solo.archs[0].sites, both.archs[1].sites);
        assert_eq!(solo.archs[0].combined, both.archs[1].combined);
    }

    /// The artifact-store acceptance bar: a cold (train) run and a warm
    /// (restore) run write the storeless run's stable lines —
    /// fault-characterization caching included.
    #[test]
    fn cold_and_warm_runs_give_identical_json() {
        crate::cli::tests::assert_cold_and_warm_match_storeless(FaultsConfig::tiny(vec![
            Arch::CapsNet,
        ]));
    }

    /// The parallel trial sweep must not change a single byte of the
    /// output: equal seeds give equal JSON at every thread count.
    #[test]
    fn json_is_byte_identical_across_thread_counts() {
        crate::cli::tests::thread_invariant_lines(&FaultsConfig::tiny(vec![Arch::CapsNet]));
    }
}
