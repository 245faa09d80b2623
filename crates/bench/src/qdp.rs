//! The `qdp` bench mode: measured vs noise-predicted accuracy drop,
//! per approximate multiplier **and for the heterogeneous Step-6
//! design**, for both of the paper's architectures.
//!
//! Every architecture comes from the shared [`crate::session`]:
//! trained (or restored), calibrated and lowered once. For every
//! selected library component this scores the same uniform
//! [`DatapathAssignment`] on the two [`AccuracyBackend`]s:
//!
//! 1. **Measured** ([`QuantMeasured`](redcane_qdp::QuantMeasured)) —
//!    end-to-end inference through `redcane-qdp`'s 8-bit datapath with
//!    the component's behavioral model serving every MAC multiply
//!    (ground truth);
//! 2. **Predicted** ([`NoisePredicted`]) — the float network with the
//!    paper's Gaussian noise model (Eq. 3) at the MAC-output group,
//!    parameterized by the component's `(NA, NM)` characterized over
//!    the **empirical** operand distribution observed during
//!    calibration (the paper's "Real ΔX" column).
//!
//! With `heterogeneous` enabled (the default), each architecture
//! additionally runs the full ReD-CaNe methodology and re-scores the
//! winning per-layer design on the measured backend
//! (`Trained::step6_design`), emitting one extra JSON line whose
//! `predicted_drop_pp` / `measured_drop_pp` close the paper's
//! validation loop for the *heterogeneous* output — not just
//! single-component sweeps.
//!
//! One JSON line per `(architecture, component-or-design)`; schema v3.
//! The per-component evaluations fan out over `redcane_tensor::par`
//! workers sharing one lowered program and one LUT cache (64 KiB per
//! distinct multiplier); every quantity derives only from the seed,
//! the architecture tag and the component index, so the JSON output is
//! byte-identical at every `REDCANE_THREADS` setting.

use std::time::Instant;

use redcane::datapath::{AccuracyBackend, DatapathAssignment, NoisePredicted};
use redcane::report::group_slug;
use redcane::report::json::Value;
use redcane::ApproxDesign;
use redcane_artifacts::Provenance;
use redcane_axmul::library::ComponentEntry;
use redcane_axmul::{MultiplierLibrary, NoiseParams};
use redcane_capsnet::{evaluate_clean, CapsModel};
use redcane_tensor::par;
use redcane_trace as trace;

use crate::cli::{next_value, Args, Bench};
use crate::session::{Arch, BenchSpec, PerArch, Session, Trained};

/// Configuration of a `qdp` comparison run: the shared [`BenchSpec`]
/// plus the component subset and the heterogeneous re-score; fully
/// determined by its fields, so equal configs give equal outcomes.
#[derive(Debug, Clone)]
pub struct QdpConfig {
    /// The trained model and eval subset.
    pub spec: BenchSpec,
    /// Restrict the sweep to these component names (`None` = the whole
    /// 35-entry library).
    pub components: Option<Vec<String>>,
    /// Also run the six-step methodology per architecture and re-score
    /// its heterogeneous Step-6 design on the measured backend (one
    /// extra JSON line per architecture).
    pub heterogeneous: bool,
}

impl QdpConfig {
    /// The full seeded sweep: every library component on both
    /// architectures, models trained well above chance.
    pub fn smoke() -> Self {
        QdpConfig {
            spec: BenchSpec::smoke(),
            components: None,
            heterogeneous: true,
        }
    }

    /// CI-sized: the exact component plus one approximate component on
    /// both architectures, scaled-down training.
    pub fn quick() -> Self {
        QdpConfig {
            spec: BenchSpec::quick(),
            components: Some(vec!["mul8u_1JFF".to_string(), "mul8u_NGR".to_string()]),
            ..QdpConfig::smoke()
        }
    }

    /// The unit-test sweep: the exact and one approximate component on
    /// the tiny session spec, without the design re-score.
    #[cfg(test)]
    pub(crate) fn tiny(archs: Vec<Arch>) -> Self {
        QdpConfig {
            spec: crate::session::tiny(archs),
            components: Some(vec!["mul8u_1JFF".to_string(), "mul8u_QKX".to_string()]),
            heterogeneous: false,
        }
    }
}

impl Bench for QdpConfig {
    type Outcome = QdpOutcome;

    const NAME: &'static str = "qdp";

    const USAGE: &'static str = "qdp: measured vs noise-predicted accuracy drop per multiplier \
and for the heterogeneous Step-6 design
flags: --quick, --benchmark mnist|fashion|svhn|cifar, --seed N, \
--arch capsnet|deepcaps|both, --components a,b,..., \
--heterogeneous, --no-heterogeneous, --out PATH, --threads N, \
--artifacts DIR, --no-cache, --profile PATH, \
--profile-counters PATH, --profile-folded PATH";

    fn spec_mut(&mut self) -> &mut BenchSpec {
        &mut self.spec
    }

    /// Keeps `--components` and `--[no-]heterogeneous`.
    fn quick_keeping(self) -> Self {
        QdpConfig {
            spec: self.spec.quick_keeping(),
            components: self.components.or(QdpConfig::quick().components),
            heterogeneous: self.heterogeneous,
        }
    }

    fn match_flag(&mut self, flag: &str, args: &mut Args) -> Option<Result<(), String>> {
        match flag {
            "--components" => Some(next_value(args, flag).and_then(|v| {
                let names: Vec<String> = v.split(',').map(|s| s.trim().to_string()).collect();
                let library = MultiplierLibrary::evo_approx_like();
                if let Some(bad) = names.iter().find(|n| library.find(n).is_none()) {
                    return Err(format!("{flag}: unknown component '{bad}'"));
                }
                self.components = Some(names);
                Ok(())
            })),
            "--heterogeneous" => {
                self.heterogeneous = true;
                Some(Ok(()))
            }
            "--no-heterogeneous" => {
                self.heterogeneous = false;
                Some(Ok(()))
            }
            _ => None,
        }
    }

    fn run(&self) -> QdpOutcome {
        run_qdp(self)
    }

    fn lines(outcome: &QdpOutcome) -> Vec<Value> {
        qdp_to_json_lines(outcome)
    }

    fn provenance(outcome: &QdpOutcome) -> Vec<(Arch, Provenance)> {
        outcome
            .archs
            .iter()
            .map(|a| (a.arch, a.provenance))
            .collect()
    }

    fn summary(outcome: &QdpOutcome) -> Vec<String> {
        let archs = outcome.archs.iter().map(|arch| {
            format!(
                "{}: {} ({} component(s), float baseline {:.3})",
                arch.arch.label(),
                arch.provenance.label(),
                arch.rows.len(),
                arch.float_accuracy
            )
        });
        archs
            .chain([format!("total {:.2}s", outcome.total_s)])
            .collect()
    }
}

/// One component's measured-vs-predicted comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct QdpRow {
    /// Library component name (`mul8u_…`).
    pub component: String,
    /// Component power in µW (library metadata).
    pub power_uw: f64,
    /// Characterized noise magnitude (empirical operands).
    pub nm: f64,
    /// Characterized noise average (empirical operands).
    pub na: f64,
    /// Accuracy of the quantized datapath running this component.
    pub measured_accuracy: f64,
    /// Accuracy of the float network under the component's noise model.
    pub predicted_accuracy: f64,
}

/// One architecture's full sweep: float baseline + per-component rows
/// + (optionally) the heterogeneous Step-6 design's re-score.
#[derive(Debug, Clone)]
pub struct QdpArchOutcome {
    /// The architecture swept.
    pub arch: Arch,
    /// Model display name.
    pub model_name: String,
    /// Float (accurate, full-precision) accuracy on the eval subset —
    /// the baseline both drops are measured against.
    pub float_accuracy: f64,
    /// Per-component rows, in library order.
    pub rows: Vec<QdpRow>,
    /// The methodology's winning heterogeneous design, scored on both
    /// backends (`None` unless `heterogeneous` was configured).
    pub design: Option<ApproxDesign>,
    /// Whether this architecture's model was trained this run or
    /// restored from the artifact store. Deliberately **not** part of
    /// the JSON schema: cold and warm runs must emit byte-identical
    /// artifacts.
    pub provenance: Provenance,
}

impl QdpArchOutcome {
    /// Measured accuracy drop for `row`, in percentage points.
    pub fn measured_drop_pp(&self, row: &QdpRow) -> f64 {
        (self.float_accuracy - row.measured_accuracy) * 100.0
    }

    /// Noise-predicted accuracy drop for `row`, in percentage points.
    pub fn predicted_drop_pp(&self, row: &QdpRow) -> f64 {
        (self.float_accuracy - row.predicted_accuracy) * 100.0
    }
}

/// The result of one full `qdp` comparison run.
#[derive(Debug, Clone)]
pub struct QdpOutcome {
    /// The configuration that produced it.
    pub config: QdpConfig,
    /// One sweep per configured architecture, in `config.spec.archs`
    /// order.
    pub archs: Vec<QdpArchOutcome>,
    /// Total wall-clock seconds.
    pub total_s: f64,
}

/// Runs the shared session (dataset generation → training or restore
/// → calibration → lowering) and then the per-component
/// measured/predicted sweep (and the heterogeneous design re-score) for
/// every configured architecture, deterministically from the seed (and
/// independent of the worker-thread count).
///
/// # Panics
///
/// Panics on empty train/test/eval/arch settings, on a component name
/// not in the library, or if calibration fails (it cannot on finite
/// trained weights).
pub fn run_qdp(cfg: &QdpConfig) -> QdpOutcome {
    let t0 = Instant::now();
    let session = Session::open(&cfg.spec, "qdp");
    let entries: Vec<&ComponentEntry> = match &cfg.components {
        Some(names) => names
            .iter()
            .map(|n| {
                session
                    .library
                    .find(n)
                    .unwrap_or_else(|| panic!("unknown component '{n}'"))
            })
            .collect(),
        None => session.library.iter().collect(),
    };
    let archs = session.run(&Sweep {
        cfg,
        entries: &entries,
    });
    QdpOutcome {
        config: cfg.clone(),
        archs,
        total_s: t0.elapsed().as_secs_f64(),
    }
}

/// One architecture's sweep over the selected components.
struct Sweep<'a> {
    cfg: &'a QdpConfig,
    entries: &'a [&'a ComponentEntry],
}

impl PerArch for Sweep<'_> {
    type Out = QdpArchOutcome;

    fn run<M: CapsModel + Clone + Send + Sync + 'static>(
        &self,
        t: Trained<'_, M>,
    ) -> QdpArchOutcome {
        let spec = &self.cfg.spec;
        let float_accuracy = evaluate_clean(&t.model, &t.eval);
        eprintln!(
            "[qdp] {} {} — float baseline {:.3} on {} samples",
            t.provenance.label(),
            t.model.name(),
            float_accuracy,
            t.eval.len()
        );

        // Per-component noise parameters come from the stored table; a
        // row missing there (e.g. the table was characterized with a
        // different sample count) is characterized live — same numbers,
        // just not cached.
        let nanm: Vec<NoiseParams> = self
            .entries
            .iter()
            .map(|entry| {
                t.payload
                    .noise_table
                    .iter()
                    .find(|c| {
                        c.component == entry.name()
                            && c.samples == spec.characterization_samples as u64
                    })
                    .map(|c| NoiseParams { na: c.na, nm: c.nm })
                    .unwrap_or_else(|| {
                        let dist = t.operand_distribution();
                        entry.characterize(&dist, spec.characterization_samples, spec.seed ^ 0xc0de)
                    })
            })
            .collect();

        let rows = {
            let _s = trace::span("score");
            sweep_components(&t, self.entries, &nanm)
        };
        for row in &rows {
            eprintln!(
                "[qdp] {} {:<14} nm {:.5}  measured {:.3}  predicted {:.3}",
                t.arch.label(),
                row.component,
                row.nm,
                row.measured_accuracy,
                row.predicted_accuracy
            );
        }

        // The heterogeneous loop: the methodology's winning per-layer
        // design, scored on BOTH backends through the same trait.
        let design = self.cfg.heterogeneous.then(|| {
            let design = t.step6_design();
            eprintln!(
                "[qdp] {} heterogeneous   predicted drop {:+.2} pp  measured drop {:+.2} pp  \
                 (mean power saving {:.1}%)",
                t.arch.label(),
                design.predicted_drop_pp(),
                design.measured_drop_pp().expect("measured backend ran"),
                design.mean_power_saving * 100.0,
            );
            design
        });

        QdpArchOutcome {
            arch: t.arch,
            model_name: t.model.name(),
            float_accuracy,
            rows,
            design,
            provenance: t.provenance,
        }
    }
}

/// The per-component measured/predicted evaluations, fanned out over
/// [`par::map_with`] workers. Every per-component quantity derives
/// only from the seed, the architecture tag and the component
/// index — never from the worker that computed it — so the rows are
/// byte-identical at every thread count.
fn sweep_components<M: CapsModel + Clone + Send + Sync>(
    t: &Trained<'_, M>,
    entries: &[&ComponentEntry],
    nanm: &[NoiseParams],
) -> Vec<QdpRow> {
    let (model, eval) = (&t.model, &t.eval);
    let (seed, arch_tag) = (t.session.spec.seed, t.arch.seed_tag());
    par::map_with(
        entries.len(),
        || (),
        |(), idx| {
            let entry = entries[idx];
            let assignment = DatapathAssignment::uniform(entry.name());
            // Measured: the component inside every MAC of the shared
            // lowered datapath (ground truth).
            let measured_accuracy = t
                .measured
                .evaluate(model, eval, &assignment)
                .expect("uniform assignment covers every site");
            // Predicted: the same assignment on the noise backend, with
            // this component's characterized (NA, NM) from the shared
            // (possibly artifact-restored) table.
            let np = nanm[idx];
            let predictor = NoisePredicted::new(seed ^ 0x5eed ^ idx as u64 ^ (arch_tag << 32))
                .with_component(entry.name(), np.nm, np.na);
            let predicted_accuracy = predictor
                .evaluate(model, eval, &assignment)
                .expect("component characterized");
            QdpRow {
                component: entry.name().to_string(),
                power_uw: entry.cost().power_uw,
                nm: np.nm,
                na: np.na,
                measured_accuracy,
                predicted_accuracy,
            }
        },
    )
}

/// One `qdp` JSON line: the shared head, the row's `component` and own
/// fields, then the float baseline and the measured and predicted
/// `(accuracy, drop_pp)`.
fn qdp_line(
    cfg: &QdpConfig,
    arch: &QdpArchOutcome,
    component: &str,
    own: Vec<(String, Value)>,
    [measured, predicted]: [(f64, f64); 2],
) -> Value {
    let mut fields = vec![
        ("bench".into(), Value::from("qdp")),
        // v3: heterogeneous design rows (component = "heterogeneous")
        // alongside the per-component rows; both drops go through the
        // AccuracyBackend trait.
        ("schema_version".into(), Value::from(3usize)),
        ("benchmark".into(), Value::from(cfg.spec.benchmark.name())),
        // String: u64 seeds above 2^53 would round through a JSON number.
        ("seed".into(), Value::from(cfg.spec.seed.to_string())),
        ("arch".into(), Value::from(arch.arch.label())),
        ("model".into(), Value::from(arch.model_name.clone())),
        ("eval_samples".into(), Value::from(cfg.spec.eval_samples)),
        ("component".into(), Value::from(component)),
    ];
    fields.extend(own);
    fields.extend([
        ("float_accuracy".into(), Value::from(arch.float_accuracy)),
        ("measured_accuracy".into(), Value::from(measured.0)),
        ("measured_drop_pp".into(), Value::from(measured.1)),
        ("predicted_accuracy".into(), Value::from(predicted.0)),
        ("predicted_drop_pp".into(), Value::from(predicted.1)),
    ]);
    Value::Obj(fields)
}

/// Serializes one component's comparison as a self-contained JSON line.
pub fn qdp_row_to_json(cfg: &QdpConfig, arch: &QdpArchOutcome, row: &QdpRow) -> Value {
    let own = vec![
        ("power_uw".into(), Value::from(row.power_uw)),
        ("nm".into(), Value::from(row.nm)),
        ("na".into(), Value::from(row.na)),
    ];
    let measured = (row.measured_accuracy, arch.measured_drop_pp(row));
    let predicted = (row.predicted_accuracy, arch.predicted_drop_pp(row));
    qdp_line(cfg, arch, &row.component, own, [measured, predicted])
}

/// Serializes one architecture's heterogeneous-design re-score as a
/// self-contained JSON line (`component` = `"heterogeneous"`).
pub fn qdp_design_to_json(cfg: &QdpConfig, arch: &QdpArchOutcome, design: &ApproxDesign) -> Value {
    let components: Vec<Value> = design
        .assignments
        .iter()
        .map(|a| {
            Value::Obj(vec![
                ("layer".into(), Value::from(a.layer.clone())),
                ("group".into(), Value::from(group_slug(a.group))),
                ("component".into(), Value::from(a.component.clone())),
            ])
        })
        .collect();
    let own = vec![
        ("design_components".into(), Value::Arr(components)),
        (
            "mean_power_saving".into(),
            Value::from(design.mean_power_saving),
        ),
    ];
    let measured = (
        design.measured_accuracy.expect("design was re-scored"),
        design.measured_drop_pp().expect("design was re-scored"),
    );
    let predicted = (design.predicted_accuracy, design.predicted_drop_pp());
    qdp_line(cfg, arch, "heterogeneous", own, [measured, predicted])
}

/// All rows of an outcome as JSON lines: architectures in config
/// order, components in library order within each, the heterogeneous
/// design row (when run) last per architecture.
pub fn qdp_to_json_lines(outcome: &QdpOutcome) -> Vec<Value> {
    outcome
        .archs
        .iter()
        .flat_map(|arch| {
            arch.rows
                .iter()
                .map(|row| qdp_row_to_json(&outcome.config, arch, row))
                .chain(
                    arch.design
                        .iter()
                        .map(|design| qdp_design_to_json(&outcome.config, arch, design)),
                )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcane::report::json;

    #[test]
    fn qdp_emits_one_self_contained_line_per_arch_and_component() {
        let outcome = run_qdp(&QdpConfig::tiny(vec![Arch::CapsNet, Arch::DeepCaps]));
        assert_eq!(outcome.archs.len(), 2);
        let lines = qdp_to_json_lines(&outcome);
        assert_eq!(lines.len(), 4, "2 archs × 2 components");
        for line in &lines {
            let dumped = line.dump();
            assert!(!dumped.contains('\n'), "one line per component");
            let parsed = json::parse(&dumped).unwrap();
            for key in [
                "bench",
                "arch",
                "component",
                "float_accuracy",
                "measured_accuracy",
                "measured_drop_pp",
                "predicted_accuracy",
                "predicted_drop_pp",
                "nm",
                "power_uw",
            ] {
                assert!(parsed.get(key).is_some(), "missing key {key}");
            }
            assert_eq!(parsed.get("bench").unwrap().as_str().unwrap(), "qdp");
            assert_eq!(parsed.get("schema_version").unwrap().as_f64().unwrap(), 3.0);
        }
        // Both architectures present, in config order.
        let arch_of = |i: usize| {
            json::parse(&lines[i].dump())
                .unwrap()
                .get("arch")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        };
        assert_eq!(arch_of(0), "capsnet");
        assert_eq!(arch_of(3), "deepcaps");
    }

    #[test]
    fn exact_component_predicts_zero_drop_and_small_measured_drop() {
        let outcome = run_qdp(&QdpConfig::tiny(vec![Arch::CapsNet]));
        let arch = &outcome.archs[0];
        let exact = &arch.rows[0];
        assert_eq!(exact.component, "mul8u_1JFF");
        // NM = NA = 0 for the exact multiplier — over any operand
        // distribution, empirical included — so the noise model
        // predicts exactly the baseline.
        assert_eq!(exact.nm, 0.0);
        assert_eq!(exact.predicted_accuracy, arch.float_accuracy);
        // The measured drop of the exact component is pure quantization
        // error — bounded, though the 1-epoch model is noisy.
        assert!(arch.measured_drop_pp(exact).abs() <= 25.0);
    }

    /// With `heterogeneous` on, every architecture gains one design row
    /// carrying both drops for the Step-6 per-layer assignment.
    #[test]
    fn heterogeneous_design_row_reports_both_drops() {
        let cfg = QdpConfig {
            heterogeneous: true,
            ..QdpConfig::tiny(vec![Arch::CapsNet])
        };
        let outcome = run_qdp(&cfg);
        let arch = &outcome.archs[0];
        let design = arch.design.as_ref().expect("design re-score ran");
        assert!(!design.assignments.is_empty());
        assert!(design.measured_accuracy.is_some());
        // The methodology's baseline is the same clean evaluation the
        // sweep uses, so the design drops share the float baseline.
        assert_eq!(design.baseline_accuracy, arch.float_accuracy);

        let lines = qdp_to_json_lines(&outcome);
        assert_eq!(lines.len(), 3, "2 component rows + 1 design row");
        let parsed = json::parse(&lines[2].dump()).unwrap();
        assert_eq!(
            parsed.get("component").unwrap().as_str().unwrap(),
            "heterogeneous"
        );
        for key in [
            "design_components",
            "mean_power_saving",
            "measured_drop_pp",
            "predicted_drop_pp",
        ] {
            assert!(parsed.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(
            parsed
                .get("design_components")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            design.assignments.len()
        );
    }

    /// Per-arch seeds key on the architecture's identity, so a
    /// deepcaps-only run reproduces exactly the deepcaps rows of a
    /// both-arch run at the same seed (debuggability of CI artifacts).
    #[test]
    fn single_arch_run_reproduces_the_both_arch_rows() {
        let both = run_qdp(&QdpConfig::tiny(vec![Arch::CapsNet, Arch::DeepCaps]));
        let solo = run_qdp(&QdpConfig::tiny(vec![Arch::DeepCaps]));
        assert_eq!(solo.archs[0].float_accuracy, both.archs[1].float_accuracy);
        assert_eq!(solo.archs[0].rows, both.archs[1].rows);
    }

    /// The artifact-store acceptance bar: a cold (train) run and a warm
    /// (restore) run write the storeless run's stable lines.
    #[test]
    fn cold_and_warm_runs_give_identical_json() {
        crate::cli::tests::assert_cold_and_warm_match_storeless(QdpConfig {
            heterogeneous: true,
            ..QdpConfig::tiny(vec![Arch::CapsNet])
        });
    }

    /// The parallel component sweep must not change a single byte of
    /// the output: equal seeds give equal JSON at every thread count —
    /// heterogeneous design row included.
    #[test]
    fn json_is_byte_identical_across_thread_counts() {
        crate::cli::tests::thread_invariant_lines(&QdpConfig {
            heterogeneous: true,
            ..QdpConfig::tiny(vec![Arch::CapsNet])
        });
    }
}
