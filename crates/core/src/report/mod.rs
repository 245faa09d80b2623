//! The report layer: human-readable summaries and machine-readable
//! serialization of a full methodology run.
//!
//! [`RedCaNeReport`] collects everything Steps 1–6 produce; this module
//! renders it as a one-paragraph summary ([`RedCaNeReport::summary`])
//! and serializes the Step-3 group marking to JSON
//! ([`marking_to_json`]). The benchmark's JSON
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
    fn marking_round_trips_through_json() {
        let report = sample_report();
        let encoded = marking_to_json(&report.group_marking);
        // Through actual text, not just the value tree.
        assert_eq!(json::parse(&encoded.dump()).unwrap(), encoded);
        let items = encoded.as_arr().unwrap();
        assert_eq!(items.len(), report.group_marking.entries.len());
        for (item, (group, critical_nm, resilient)) in
            items.iter().zip(&report.group_marking.entries)
        {
            assert_eq!(
                item.get("group").unwrap().as_str(),
                Some(group_slug(*group))
            );
            assert_eq!(
                item.get("critical_nm").unwrap().as_f64(),
                Some(*critical_nm)
            );
            assert_eq!(item.get("resilient").unwrap().as_bool(), Some(*resilient));
        }
    }

    #[test]
    fn group_slugs_are_a_bijection() {
        let slugs: Vec<&str> = Group::all().into_iter().map(group_slug).collect();
        for (i, slug) in slugs.iter().enumerate() {
            assert!(!slugs[..i].contains(slug), "duplicate slug {slug}");
        }
    }
}
