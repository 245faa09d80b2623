//! The report layer: human-readable summaries and machine-readable
//! serialization of a full methodology run.
//!
//! [`RedCaNeReport`] collects everything Steps 1–6 produce; this module
//! renders it as a one-paragraph summary ([`RedCaNeReport::summary`])
//! and round-trips the Step-3 group marking through JSON
//! ([`marking_to_json`] / [`marking_from_json`]). The benchmark's JSON
//! record of a whole run is the `pipeline` bench's schema.

pub mod json;

use crate::analysis::{GroupSweep, LayerSweep};
use crate::groups::{Group, GroupInventory};
use crate::selection::{ApproxDesign, GroupMarking, LayerMarking};
use serde::{Deserialize, Serialize};

use json::Value;

/// Everything the six steps produce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RedCaNeReport {
    /// Step 1: the operation groups.
    pub inventory: GroupInventory,
    /// Step 2: group-wise resilience curves.
    pub group_sweep: GroupSweep,
    /// Step 3: group marking.
    pub group_marking: GroupMarking,
    /// Step 4: layer-wise curves of each non-resilient group.
    pub layer_sweeps: Vec<LayerSweep>,
    /// Step 5: layer markings.
    pub layer_markings: Vec<LayerMarking>,
    /// Step 6: the approximate CapsNet design, validated.
    pub design: ApproxDesign,
}

impl RedCaNeReport {
    /// A short human-readable summary of the run's outcome.
    pub fn summary(&self) -> String {
        let resilient: Vec<String> = self
            .group_marking
            .entries
            .iter()
            .filter(|(_, _, r)| *r)
            .map(|(g, nm, _)| format!("{g} (critical NM {nm:.3})"))
            .collect();
        let non_resilient: Vec<String> = self
            .group_marking
            .entries
            .iter()
            .filter(|(_, _, r)| !*r)
            .map(|(g, nm, _)| format!("{g} (critical NM {nm:.4})"))
            .collect();
        let measured = match (
            self.design.measured_accuracy,
            self.design.measured_drop_pp(),
        ) {
            (Some(acc), Some(drop)) => {
                format!(
                    ", measured accuracy {:.2}% (drop {:.2} pp)",
                    acc * 100.0,
                    drop
                )
            }
            _ => String::new(),
        };
        format!(
            "ReD-CaNe on {}: baseline {:.2}% | resilient groups: [{}] | \
             non-resilient groups: [{}] | design: mean multiplier power \
             saving {:.1}%, predicted accuracy {:.2}% (drop {:.2} pp){}",
            self.inventory.model_name,
            self.group_sweep.baseline_accuracy * 100.0,
            resilient.join(", "),
            non_resilient.join(", "),
            self.design.mean_power_saving * 100.0,
            self.design.predicted_accuracy * 100.0,
            self.design.predicted_drop_pp(),
            measured,
        )
    }

    /// The groups marked resilient in Step 3.
    pub fn resilient_groups(&self) -> Vec<Group> {
        self.group_marking
            .entries
            .iter()
            .filter(|(_, _, r)| *r)
            .map(|(g, _, _)| *g)
            .collect()
    }

    /// The groups marked non-resilient in Step 3.
    pub fn non_resilient_groups(&self) -> Vec<Group> {
        self.group_marking.non_resilient()
    }
}

/// Stable machine-readable name of a group.
pub fn group_slug(group: Group) -> &'static str {
    match group {
        Group::MacOutputs => "mac_outputs",
        Group::Activations => "activations",
        Group::Softmax => "softmax",
        Group::LogitsUpdate => "logits_update",
    }
}

/// Inverse of [`group_slug`].
pub fn group_from_slug(slug: &str) -> Option<Group> {
    Group::all().into_iter().find(|g| group_slug(*g) == slug)
}

/// A malformed serialized marking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkingDecodeError(pub String);

impl std::fmt::Display for MarkingDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed group marking: {}", self.0)
    }
}

impl std::error::Error for MarkingDecodeError {}

/// Serializes a Step-3 group marking to JSON.
pub fn marking_to_json(marking: &GroupMarking) -> Value {
    Value::Arr(
        marking
            .entries
            .iter()
            .map(|(group, critical_nm, resilient)| {
                Value::Obj(vec![
                    ("group".into(), Value::from(group_slug(*group))),
                    ("critical_nm".into(), Value::from(*critical_nm)),
                    ("resilient".into(), Value::from(*resilient)),
                ])
            })
            .collect(),
    )
}

/// Reconstructs a Step-3 group marking from [`marking_to_json`] output.
///
/// # Errors
///
/// Returns [`MarkingDecodeError`] when the value is not an array of
/// `{group, critical_nm, resilient}` objects with known group slugs.
pub fn marking_from_json(value: &Value) -> Result<GroupMarking, MarkingDecodeError> {
    let items = value
        .as_arr()
        .ok_or_else(|| MarkingDecodeError("expected an array".into()))?;
    let mut entries = Vec::with_capacity(items.len());
    for item in items {
        let slug = item
            .get("group")
            .and_then(Value::as_str)
            .ok_or_else(|| MarkingDecodeError("entry missing string 'group'".into()))?;
        let group = group_from_slug(slug)
            .ok_or_else(|| MarkingDecodeError(format!("unknown group slug '{slug}'")))?;
        let critical_nm = item
            .get("critical_nm")
            .and_then(Value::as_f64)
            .ok_or_else(|| MarkingDecodeError("entry missing number 'critical_nm'".into()))?;
        let resilient = item
            .get("resilient")
            .and_then(Value::as_bool)
            .ok_or_else(|| MarkingDecodeError("entry missing bool 'resilient'".into()))?;
        entries.push((group, critical_nm, resilient));
    }
    Ok(GroupMarking { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Curve, SweepPoint};
    use crate::selection::Assignment;

    fn sample_report() -> RedCaNeReport {
        let mk_points = |drops: [f64; 2]| {
            vec![
                SweepPoint {
                    nm: 0.5,
                    accuracy: 0.9 - drops[0] / 100.0,
                    drop_pp: drops[0],
                },
                SweepPoint {
                    nm: 0.01,
                    accuracy: 0.9 - drops[1] / 100.0,
                    drop_pp: drops[1],
                },
            ]
        };
        let curves = vec![
            Curve {
                target: Group::MacOutputs,
                points: mk_points([55.0, 0.4]),
            },
            Curve {
                target: Group::Activations,
                points: mk_points([40.0, 0.2]),
            },
            Curve {
                target: Group::Softmax,
                points: mk_points([0.3, 0.0]),
            },
            Curve {
                target: Group::LogitsUpdate,
                points: mk_points([0.8, 0.0]),
            },
        ];
        RedCaNeReport {
            inventory: GroupInventory {
                model_name: "CapsNet-small".into(),
                sites: Vec::new(),
            },
            group_sweep: GroupSweep {
                model_name: "CapsNet-small".into(),
                dataset_name: "mnist-like-test".into(),
                baseline_accuracy: 0.9,
                curves,
            },
            group_marking: GroupMarking {
                entries: vec![
                    (Group::MacOutputs, 0.01, false),
                    (Group::Activations, 0.01, false),
                    (Group::Softmax, 0.5, true),
                    (Group::LogitsUpdate, 0.5, true),
                ],
            },
            layer_sweeps: vec![LayerSweep {
                model_name: "CapsNet-small".into(),
                group: Group::MacOutputs,
                baseline_accuracy: 0.9,
                curves: vec![Curve {
                    target: "Conv1".to_string(),
                    points: mk_points([30.0, 0.1]),
                }],
            }],
            layer_markings: vec![LayerMarking {
                group: Group::MacOutputs,
                entries: vec![("Conv1".to_string(), 0.01, false)],
            }],
            design: ApproxDesign {
                model_name: "CapsNet-small".into(),
                assignments: vec![Assignment {
                    layer: "Conv1".to_string(),
                    group: Group::MacOutputs,
                    tolerable_nm: 0.01,
                    component: "mul8u_NGR".to_string(),
                    component_noise: (0.0001, 0.004),
                    power_uw: 276.0,
                    area_um2: 350.0,
                }],
                mean_power_saving: 0.31,
                baseline_accuracy: 0.9,
                predicted_accuracy: 0.885,
                measured_accuracy: Some(0.88),
            },
        }
    }

    #[test]
    fn summary_mentions_every_outcome_dimension() {
        let report = sample_report();
        let s = report.summary();
        assert!(s.contains("CapsNet-small"), "{s}");
        assert!(s.contains("baseline 90.00%"), "{s}");
        assert!(s.contains("#3: softmax"), "{s}");
        assert!(s.contains("#1: MAC outputs"), "{s}");
        assert!(s.contains("power"), "{s}");
        assert!(s.contains("drop 1.50 pp"), "{s}");
    }

    #[test]
    fn resilient_partition_is_consistent() {
        let report = sample_report();
        let resilient = report.resilient_groups();
        let non_resilient = report.non_resilient_groups();
        assert_eq!(resilient, vec![Group::Softmax, Group::LogitsUpdate]);
        assert_eq!(non_resilient, vec![Group::MacOutputs, Group::Activations]);
        assert_eq!(resilient.len() + non_resilient.len(), 4);
    }

    #[test]
    fn marking_round_trips_through_json() {
        let report = sample_report();
        let encoded = marking_to_json(&report.group_marking);
        let decoded = marking_from_json(&encoded).unwrap();
        assert_eq!(decoded, report.group_marking);
        // And through actual text, not just the value tree.
        let reparsed = json::parse(&encoded.dump()).unwrap();
        assert_eq!(marking_from_json(&reparsed).unwrap(), report.group_marking);
    }

    #[test]
    fn marking_decode_rejects_malformed_input() {
        assert!(marking_from_json(&Value::Null).is_err());
        let missing = Value::Arr(vec![Value::Obj(vec![(
            "group".into(),
            Value::from("mac_outputs"),
        )])]);
        assert!(marking_from_json(&missing).is_err());
        let unknown =
            json::parse("[{\"group\":\"warp_cores\",\"critical_nm\":0.1,\"resilient\":true}]")
                .unwrap();
        assert!(marking_from_json(&unknown).is_err());
    }

    #[test]
    fn group_slugs_are_a_bijection() {
        for g in Group::all() {
            assert_eq!(group_from_slug(group_slug(g)), Some(g));
        }
        assert_eq!(group_from_slug("nope"), None);
    }
}
