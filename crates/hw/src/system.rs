//! Node- and cluster-level system descriptions.

use crate::{Accelerator, LinkSpec};
use serde::{Deserialize, Serialize};

/// A multi-accelerator node (e.g. a DGX box): identical accelerators joined
/// by an intra-node fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// The accelerator model populating the node.
    pub accelerator: Accelerator,
    /// Number of accelerators per node.
    pub gpus_per_node: usize,
    /// Intra-node link (NVLink/NVSwitch), per-GPU per-direction bandwidth.
    pub intra_link: LinkSpec,
}

impl NodeSpec {
    /// Creates a node description.
    ///
    /// # Panics
    ///
    /// Panics if `gpus_per_node` is zero.
    #[must_use]
    pub fn new(accelerator: Accelerator, gpus_per_node: usize, intra_link: LinkSpec) -> Self {
        assert!(gpus_per_node > 0, "a node needs at least one GPU");
        Self {
            accelerator,
            gpus_per_node,
            intra_link,
        }
    }
}

/// A cluster: homogeneous nodes joined by an inter-node network.
///
/// `inter_link.bandwidth` is the **per-GPU share** of the node's injection
/// bandwidth (node NIC bandwidth divided by GPUs per node), which is the
/// bandwidth each member of a cross-node ring actually gets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Descriptive name, e.g. `"A100-HDR"`.
    pub name: String,
    /// The node design.
    pub node: NodeSpec,
    /// Inter-node link, per-GPU share.
    pub inter_link: LinkSpec,
}

impl ClusterSpec {
    /// Creates a cluster description.
    #[must_use]
    pub fn new(name: impl Into<String>, node: NodeSpec, inter_link: LinkSpec) -> Self {
        Self {
            name: name.into(),
            node,
            inter_link,
        }
    }

    /// The accelerator model used throughout the cluster.
    #[must_use]
    pub fn accelerator(&self) -> &Accelerator {
        &self.node.accelerator
    }

    /// Chooses the link used by a collective spanning `group_size` ranks:
    /// the NVLink fabric if the group fits in one node, the inter-node
    /// network otherwise. TP/SP groups are placed intra-node by the device
    /// mapper precisely to exploit this.
    #[must_use]
    pub fn link_for_group(&self, group_size: usize) -> &LinkSpec {
        if group_size <= self.node.gpus_per_node {
            &self.node.intra_link
        } else {
            &self.inter_link
        }
    }

    /// Returns a copy with a different inter-node link.
    #[must_use]
    pub fn with_inter_link(mut self, link: LinkSpec) -> Self {
        self.inter_link = link;
        self
    }

    /// Returns a copy with a different intra-node link.
    #[must_use]
    pub fn with_intra_link(mut self, link: LinkSpec) -> Self {
        self.node.intra_link = link;
        self
    }
}

impl core::fmt::Display for ClusterSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: {} x {} per node, intra {}, inter {}",
            self.name,
            self.node.gpus_per_node,
            self.node.accelerator.name,
            self.node.intra_link.name,
            self.inter_link.name
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::presets;

    #[test]
    fn group_link_selection() {
        let c = presets::dgx_a100_hdr_cluster();
        assert_eq!(c.link_for_group(8).name, c.node.intra_link.name);
        assert_eq!(c.link_for_group(9).name, c.inter_link.name);
    }
}
