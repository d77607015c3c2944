//! The communication plan implied by a parallelism configuration.

use crate::Parallelism;
use optimus_collective::{Collective, CommModel};
use optimus_hw::ClusterSpec;
use optimus_units::{Bytes, Time};

/// Plans and costs the collectives of one training/inference step under the
/// Megatron device mapping: TP/SP on the intra-node fabric, PP and DP on
/// whichever fabric their group spans.
#[derive(Debug, Clone)]
pub struct CommPlan<'a> {
    cluster: &'a ClusterSpec,
    parallelism: Parallelism,
}

impl<'a> CommPlan<'a> {
    /// Creates a plan for `parallelism` mapped onto `cluster`. Every
    /// collective takes the cheaper of ring and tree ([`CommModel::Auto`],
    /// the NCCL-style selection of §3.4).
    #[must_use]
    pub fn new(cluster: &'a ClusterSpec, parallelism: Parallelism) -> Self {
        Self {
            cluster,
            parallelism,
        }
    }

    /// The parallelism being planned.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Tensor-parallel communication of **one layer's forward pass over one
    /// microbatch**: one all-reduce per block (MHA + MLP ⇒ two) of the
    /// full activation `volume`; under SP each all-reduce becomes an
    /// all-gather + reduce-scatter pair of identical total cost (§1.3).
    #[must_use]
    pub fn tp_layer_forward(&self, activation_volume: Bytes) -> Time {
        let tp = self.parallelism.tp;
        if tp == 1 {
            return Time::ZERO;
        }
        let link = self.cluster.link_for_group(tp);
        if self.parallelism.sp {
            let ag = CommModel::Auto.time(Collective::AllGather, activation_volume, tp, link);
            let rs = CommModel::Auto.time(Collective::ReduceScatter, activation_volume, tp, link);
            (ag + rs) * 2.0
        } else {
            CommModel::Auto.time(Collective::AllReduce, activation_volume, tp, link) * 2.0
        }
    }

    /// Tensor-parallel communication of one layer's backward pass over one
    /// microbatch — symmetric with the forward pass.
    #[must_use]
    pub fn tp_layer_backward(&self, activation_volume: Bytes) -> Time {
        self.tp_layer_forward(activation_volume)
    }

    /// Data-parallel gradient all-reduce over the per-device gradient
    /// volume, once per global batch. Crosses nodes when the Megatron
    /// layout strides DP ranks past node boundaries.
    #[must_use]
    pub fn dp_gradient_allreduce(&self, gradient_volume: Bytes) -> Time {
        let dp = self.parallelism.dp;
        if dp == 1 {
            return Time::ZERO;
        }
        let link = if self
            .parallelism
            .dp_crosses_nodes(self.cluster.node.gpus_per_node)
        {
            &self.cluster.inter_link
        } else {
            self.cluster
                .link_for_group(dp * self.parallelism.tp * self.parallelism.pp)
        };
        CommModel::Auto.time(Collective::AllReduce, gradient_volume, dp, link)
    }

    /// One pipeline-stage boundary crossing for one microbatch's
    /// activations. PP groups span nodes in the Megatron layout whenever
    /// `tp·pp` exceeds a node.
    #[must_use]
    pub fn pp_hop(&self, activation_volume: Bytes) -> Time {
        if self.parallelism.pp == 1 {
            return Time::ZERO;
        }
        let spans_nodes =
            self.parallelism.tp * self.parallelism.pp > self.cluster.node.gpus_per_node;
        let link = if spans_nodes {
            &self.cluster.inter_link
        } else {
            &self.cluster.node.intra_link
        };
        CommModel::Auto.time(Collective::PointToPoint, activation_volume, 2, link)
    }

    /// Tensor-parallel communication of one **inference** layer (prefill or
    /// a single decode step): two all-reduces of the block output
    /// activations, sized by the (often tiny) per-step volume — the
    /// latency-sensitive regime where the tree algorithm matters (§3.4).
    #[must_use]
    pub fn tp_layer_inference(&self, activation_volume: Bytes) -> Time {
        self.tp_layer_forward(activation_volume)
    }

    /// Bytes one device injects into the fabric for one layer's forward
    /// TP/SP collectives (two all-reduce-equivalent events). Used by the
    /// energy model.
    #[must_use]
    pub fn tp_layer_forward_wire_bytes(&self, activation_volume: Bytes) -> Bytes {
        let tp = self.parallelism.tp;
        if tp == 1 {
            return Bytes::ZERO;
        }
        CommModel::wire_bytes(Collective::AllReduce, activation_volume, tp) * 2.0
    }

    /// Bytes one device injects for the DP gradient all-reduce.
    #[must_use]
    pub fn dp_wire_bytes(&self, gradient_volume: Bytes) -> Bytes {
        CommModel::wire_bytes(Collective::AllReduce, gradient_volume, self.parallelism.dp)
    }

    /// Bytes one device injects per pipeline-stage crossing.
    #[must_use]
    pub fn pp_wire_bytes(&self, activation_volume: Bytes) -> Bytes {
        if self.parallelism.pp == 1 {
            return Bytes::ZERO;
        }
        CommModel::wire_bytes(Collective::PointToPoint, activation_volume, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_hw::presets;

    fn cluster() -> ClusterSpec {
        presets::dgx_a100_hdr_cluster()
    }

    #[test]
    fn tp1_is_free() {
        let c = cluster();
        let plan = CommPlan::new(&c, Parallelism::single());
        assert_eq!(plan.tp_layer_forward(Bytes::from_mib(50.0)), Time::ZERO);
    }

    #[test]
    fn sp_costs_the_same_as_tp() {
        // At 50 MiB every collective picks the ring, and a ring all-reduce
        // = all-gather + reduce-scatter, so SP's pairs cost exactly what
        // TP's all-reduces cost (the paper's "without incurring
        // communication overhead").
        let c = cluster();
        let tp = CommPlan::new(&c, Parallelism::new(1, 8, 1));
        let sp = CommPlan::new(&c, Parallelism::new(1, 8, 1).with_sp(true));
        let v = Bytes::from_mib(50.0);
        let a = tp.tp_layer_forward(v);
        let b = sp.tp_layer_forward(v);
        assert!((a.secs() - b.secs()).abs() / a.secs() < 1e-9);
    }

    #[test]
    fn dp_across_nodes_uses_infiniband() {
        let c = cluster();
        // tp·pp = 64 ≥ 8 GPUs/node: DP replicas sit on different nodes.
        let plan = CommPlan::new(&c, Parallelism::new(4, 8, 8));
        let v = Bytes::from_gib(2.0);
        let t_inter = plan.dp_gradient_allreduce(v);
        // The same volume on NVLink would be ~12x faster (300 vs 25 GB/s).
        let intra_plan = CommPlan::new(&c, Parallelism::new(4, 1, 1));
        let t_intra = intra_plan.dp_gradient_allreduce(v);
        assert!(t_inter.secs() > 5.0 * t_intra.secs());
    }

    #[test]
    fn pp_hop_uses_inter_node_when_spanning() {
        let c = cluster();
        let spanning = CommPlan::new(&c, Parallelism::new(1, 8, 8));
        let local = CommPlan::new(&c, Parallelism::new(1, 2, 4));
        let v = Bytes::from_mib(24.0);
        assert!(spanning.pp_hop(v) > local.pp_hop(v));
    }

    #[test]
    fn pp1_hop_is_free() {
        let c = cluster();
        let plan = CommPlan::new(&c, Parallelism::new(8, 8, 1));
        assert_eq!(plan.pp_hop(Bytes::from_mib(24.0)), Time::ZERO);
    }
}
