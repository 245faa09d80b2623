//! Step 1 — group extraction (Table III of the paper).

use redcane_capsnet::inject::{OpKind, OpSite, RecordingInjector};
use redcane_capsnet::CapsModel;
use redcane_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// The four operation groups of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Group {
    /// #1 — outputs of the matrix multiplications / convolutions.
    MacOutputs,
    /// #2 — outputs of the activation functions (ReLU or squash).
    Activations,
    /// #3 — results of the softmax (`k` coefficients in dynamic routing).
    Softmax,
    /// #4 — update of the logits (`b` coefficients in dynamic routing).
    LogitsUpdate,
}

impl Group {
    /// All groups in the paper's numbering order.
    pub fn all() -> [Group; 4] {
        [
            Group::MacOutputs,
            Group::Activations,
            Group::Softmax,
            Group::LogitsUpdate,
        ]
    }

    /// The paper's group number (1-based).
    pub fn number(&self) -> usize {
        match self {
            Group::MacOutputs => 1,
            Group::Activations => 2,
            Group::Softmax => 3,
            Group::LogitsUpdate => 4,
        }
    }

    /// The operation kind this group injects into.
    pub fn op_kind(&self) -> OpKind {
        match self {
            Group::MacOutputs => OpKind::MacOutput,
            Group::Activations => OpKind::Activation,
            Group::Softmax => OpKind::Softmax,
            Group::LogitsUpdate => OpKind::LogitsUpdate,
        }
    }

    /// The group a site belongs to (`None` for observation-only kinds).
    pub fn of_site(site: &OpSite) -> Option<Group> {
        match site.kind {
            OpKind::MacOutput => Some(Group::MacOutputs),
            OpKind::Activation => Some(Group::Activations),
            OpKind::Softmax => Some(Group::Softmax),
            OpKind::LogitsUpdate => Some(Group::LogitsUpdate),
            OpKind::MacInput => None,
        }
    }

    /// Table III's description of the group.
    pub fn description(&self) -> &'static str {
        match self {
            Group::MacOutputs => "outputs of the matrix multiplications",
            Group::Activations => "output of the activation functions (RELU or SQUASH)",
            Group::Softmax => "results of the softmax (k coefficients in dynamic routing)",
            Group::LogitsUpdate => "update of the logits (b coefficients in dynamic routing)",
        }
    }

    /// Short label used in figures ("#1: MAC outputs" style).
    pub fn label(&self) -> String {
        format!("#{}: {}", self.number(), self.op_kind().label())
    }
}

impl std::fmt::Display for Group {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// The result of Step 1: every distinct operation site of one inference,
/// partitioned into the four groups.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupInventory {
    /// Model display name.
    pub model_name: String,
    /// Distinct sites per group, in network order.
    pub sites: Vec<(Group, Vec<OpSite>)>,
}

impl GroupInventory {
    /// Sites of one group.
    pub fn group_sites(&self, group: Group) -> &[OpSite] {
        self.sites
            .iter()
            .find(|(g, _)| *g == group)
            .map(|(_, s)| s.as_slice())
            .unwrap_or(&[])
    }

    /// Distinct layer names participating in a group, in network order.
    pub fn group_layers(&self, group: Group) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for site in self.group_sites(group) {
            if seen.insert(site.layer_name.clone()) {
                out.push(site.layer_name.clone());
            }
        }
        out
    }
}

/// Runs one recorded inference of `model` on `sample` and partitions the
/// visited operation sites into the four groups (Step 1, "Group
/// Extraction").
pub fn extract_groups<M: CapsModel>(model: &mut M, sample: &Tensor) -> GroupInventory {
    let mut rec = RecordingInjector::sites_only();
    let _ = model.forward(sample, &mut rec);
    let distinct = rec.distinct_sites();
    let sites = Group::all()
        .into_iter()
        .map(|g| {
            let group_sites: Vec<OpSite> = distinct
                .iter()
                .filter(|s| Group::of_site(s) == Some(g))
                .cloned()
                .collect();
            (g, group_sites)
        })
        .collect();
    GroupInventory {
        model_name: model.name(),
        sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcane_capsnet::{CapsNet, CapsNetConfig, DeepCaps, DeepCapsConfig};
    use redcane_tensor::TensorRng;

    #[test]
    fn group_metadata_is_stable() {
        assert_eq!(Group::all().len(), 4);
        assert_eq!(Group::MacOutputs.number(), 1);
        assert_eq!(Group::LogitsUpdate.number(), 4);
        assert!(Group::Softmax.label().contains("#3"));
        assert!(Group::Activations.description().contains("SQUASH"));
    }

    #[test]
    fn site_classification_matches_table3() {
        let mk = |kind| OpSite::new(0, "x", kind);
        assert_eq!(
            Group::of_site(&mk(OpKind::MacOutput)),
            Some(Group::MacOutputs)
        );
        assert_eq!(Group::of_site(&mk(OpKind::Softmax)), Some(Group::Softmax));
        assert_eq!(Group::of_site(&mk(OpKind::MacInput)), None);
    }

    #[test]
    fn capsnet_inventory_structure() {
        let mut rng = TensorRng::from_seed(200);
        let mut model = CapsNet::new(&CapsNetConfig::small(1, 16), &mut rng);
        let x = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        let inv = extract_groups(&mut model, &x);
        // All four groups populated.
        for g in Group::all() {
            assert!(!inv.group_sites(g).is_empty(), "group {g} empty");
        }
        // Softmax/logits only in the routing layer.
        assert_eq!(inv.group_layers(Group::Softmax), vec!["ClassCaps"]);
        assert_eq!(inv.group_layers(Group::LogitsUpdate), vec!["ClassCaps"]);
        // MAC outputs across all three layers.
        assert_eq!(
            inv.group_layers(Group::MacOutputs),
            vec!["Conv1", "PrimaryCaps", "ClassCaps"]
        );
        let total: usize = Group::all().iter().map(|&g| inv.group_sites(g).len()).sum();
        assert!(total > 6);
    }

    #[test]
    fn deepcaps_routing_groups_span_two_layers() {
        let mut rng = TensorRng::from_seed(201);
        let mut model = DeepCaps::new(&DeepCapsConfig::small(1, 16), &mut rng);
        let x = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        let inv = extract_groups(&mut model, &x);
        let softmax_layers = inv.group_layers(Group::Softmax);
        assert_eq!(softmax_layers, vec!["Caps3D", "ClassCaps"]);
        // MAC outputs cover all 18 layers.
        assert_eq!(inv.group_layers(Group::MacOutputs).len(), 18);
    }
}
