//! Datasheet presets for the accelerators and clusters studied in the paper.
//!
//! Compute throughputs are **dense** (non-sparse) tensor-core ratings; DRAM
//! bandwidths are the product figures the paper quotes (e.g. A100-80GB at
//! ~1.9 TB/s HBM2e, H100-SXM at 3.35 TB/s HBM3). On-chip capacities and
//! bandwidths come from vendor architecture whitepapers and published
//! microbenchmark studies; they only need to be right to first order since
//! LLM kernels bind on DRAM or compute in almost all regimes the paper
//! examines (the L2-bound inference regime of Fig. 9 appears only beyond
//! HBM3e, which the presets reproduce).

use crate::nettech::{self, NvlinkGen};
use crate::{
    Accelerator, ClusterSpec, ComputeSpec, DeviceCalibration, LinkSpec, MemoryLevel, NodeSpec,
    Precision,
};
use optimus_units::{Bandwidth, Bytes, FlopThroughput};

/// NVIDIA A100 SXM4 80 GB (Ampere, N7-class node).
///
/// 312 TFLOP/s dense FP16/BF16, 1.935 TB/s HBM2e, 40 MiB L2.
#[must_use]
pub fn a100_sxm_80gb() -> Accelerator {
    Accelerator::new(
        "A100-SXM-80GB",
        ComputeSpec::new([
            (Precision::Fp64, FlopThroughput::from_tera(9.7)),
            (Precision::Fp32, FlopThroughput::from_tera(19.5)),
            (Precision::Tf32, FlopThroughput::from_tera(156.0)),
            (Precision::Fp16, FlopThroughput::from_tera(312.0)),
            (Precision::Bf16, FlopThroughput::from_tera(312.0)),
            (Precision::Int8, FlopThroughput::from_tera(624.0)),
        ]),
        vec![
            MemoryLevel::shared_l1(Bytes::from_mib(17.3), Bandwidth::from_tb_per_sec(19.5)),
            MemoryLevel::l2(Bytes::from_mib(40.0), Bandwidth::from_tb_per_sec(4.8)),
        ],
        MemoryLevel::dram(Bytes::from_gb(80.0), Bandwidth::from_tb_per_sec(1.935)),
    )
    .with_calibration(DeviceCalibration::datacenter_gpu())
}

/// NVIDIA H100 SXM5 (Hopper, N5-class node).
///
/// 989.4 TFLOP/s dense FP16 (the figure the paper quotes), 1978.9 TFLOP/s
/// FP8, 3.35 TB/s HBM3, 50 MiB L2.
#[must_use]
pub fn h100_sxm() -> Accelerator {
    Accelerator::new(
        "H100-SXM",
        ComputeSpec::new([
            (Precision::Fp64, FlopThroughput::from_tera(33.5)),
            (Precision::Fp32, FlopThroughput::from_tera(66.9)),
            (Precision::Tf32, FlopThroughput::from_tera(494.7)),
            (Precision::Fp16, FlopThroughput::from_tera(989.4)),
            (Precision::Bf16, FlopThroughput::from_tera(989.4)),
            (Precision::Fp8, FlopThroughput::from_tera(1978.9)),
            (Precision::Int8, FlopThroughput::from_tera(1978.9)),
        ]),
        vec![
            MemoryLevel::shared_l1(Bytes::from_mib(29.4), Bandwidth::from_tb_per_sec(33.0)),
            MemoryLevel::l2(Bytes::from_mib(50.0), Bandwidth::from_tb_per_sec(6.5)),
        ],
        MemoryLevel::dram(Bytes::from_gb(80.0), Bandwidth::from_tb_per_sec(3.35)),
    )
    .with_calibration(DeviceCalibration::datacenter_gpu())
}

/// NVIDIA H200 SXM: H100 compute with HBM3e (141 GB, 4.8 TB/s).
#[must_use]
pub fn h200_sxm() -> Accelerator {
    h100_sxm()
        .with_dram(Bytes::from_gb(141.0), Bandwidth::from_tb_per_sec(4.8))
        .renamed("H200-SXM")
}

/// NVIDIA B200 (Blackwell, dual-die).
///
/// 2.25 PFLOP/s dense FP16, 4.5 PFLOP/s FP8, 9 PFLOP/s FP4,
/// 8 TB/s HBM3e, 192 GB.
#[must_use]
pub fn b200_sxm() -> Accelerator {
    Accelerator::new(
        "B200",
        ComputeSpec::new([
            (Precision::Fp64, FlopThroughput::from_tera(40.0)),
            (Precision::Fp32, FlopThroughput::from_tera(80.0)),
            (Precision::Tf32, FlopThroughput::from_tera(1125.0)),
            (Precision::Fp16, FlopThroughput::from_peta(2.25)),
            (Precision::Bf16, FlopThroughput::from_peta(2.25)),
            (Precision::Fp8, FlopThroughput::from_peta(4.5)),
            (Precision::Fp4, FlopThroughput::from_peta(9.0)),
            (Precision::Int8, FlopThroughput::from_peta(4.5)),
        ]),
        vec![
            MemoryLevel::shared_l1(Bytes::from_mib(58.0), Bandwidth::from_tb_per_sec(66.0)),
            MemoryLevel::l2(Bytes::from_mib(100.0), Bandwidth::from_tb_per_sec(13.0)),
        ],
        MemoryLevel::dram(Bytes::from_gb(192.0), Bandwidth::from_tb_per_sec(8.0)),
    )
    .with_calibration(DeviceCalibration::datacenter_gpu())
}

/// Google TPU v4 (the paper extends its framework "to accommodate TPUs
/// and custom architectures"). 275 TFLOP/s BF16, 1.2 TB/s HBM2 (32 GB),
/// 128 MiB of on-chip CMEM standing in as the last-level cache.
#[must_use]
pub fn tpu_v4() -> Accelerator {
    Accelerator::new(
        "TPU-v4",
        ComputeSpec::new([
            (Precision::Fp32, FlopThroughput::from_tera(34.0)),
            (Precision::Bf16, FlopThroughput::from_tera(275.0)),
            (Precision::Fp16, FlopThroughput::from_tera(275.0)),
            (Precision::Int8, FlopThroughput::from_tera(275.0)),
        ])
        // The MXU is a 128x128 systolic array.
        .with_tile(128, 128, 128),
        vec![
            MemoryLevel::shared_l1(Bytes::from_mib(16.0), Bandwidth::from_tb_per_sec(20.0)),
            MemoryLevel::l2(Bytes::from_mib(128.0), Bandwidth::from_tb_per_sec(5.0)),
        ],
        MemoryLevel::dram(Bytes::from_gb(32.0), Bandwidth::from_tb_per_sec(1.2)),
    )
    .with_calibration(DeviceCalibration::datacenter_gpu())
}

/// A 4-chip TPU v4 board joined by ICI links (~50 GB/s per direction per
/// chip toward its torus neighbours, aggregated here as one link).
#[must_use]
pub fn tpu_v4_board() -> NodeSpec {
    let ici = LinkSpec::new(
        "ICI",
        Bandwidth::from_gb_per_sec(300.0),
        optimus_units::Time::from_micros(2.0),
    );
    NodeSpec::new(tpu_v4(), 4, ici)
}

/// An 8-GPU A100 node with NVLink3.
#[must_use]
pub fn dgx_a100_node() -> NodeSpec {
    NodeSpec::new(a100_sxm_80gb(), 8, NvlinkGen::Gen3.link())
}

/// An 8-GPU H100 node with NVLink4.
#[must_use]
pub fn dgx_h100_node() -> NodeSpec {
    NodeSpec::new(h100_sxm(), 8, NvlinkGen::Gen4.link())
}

/// An 8-GPU H200 node with NVLink4.
#[must_use]
pub fn dgx_h200_node() -> NodeSpec {
    NodeSpec::new(h200_sxm(), 8, NvlinkGen::Gen4.link())
}

/// An 8-GPU B200 node with NVLink5.
#[must_use]
pub fn dgx_b200_node() -> NodeSpec {
    NodeSpec::new(b200_sxm(), 8, NvlinkGen::Gen5.link())
}

/// A100 cluster with HDR InfiniBand (200 GB/s per node) — the validation
/// platform of Table 1 and the `A100-HDR` point of Fig. 5.
#[must_use]
pub fn dgx_a100_hdr_cluster() -> ClusterSpec {
    let node = dgx_a100_node();
    let inter = nettech::ib_hdr(node.gpus_per_node);
    ClusterSpec::new("A100-HDR", node, inter)
}

/// H100 cluster with NDR InfiniBand (400 GB/s per node).
#[must_use]
pub fn dgx_h100_ndr_cluster() -> ClusterSpec {
    let node = dgx_h100_node();
    let inter = nettech::ib_ndr(node.gpus_per_node);
    ClusterSpec::new("H100-NDR", node, inter)
}

/// H100 cluster with an NVLink-Switch system as inter-node fabric.
#[must_use]
pub fn dgx_h100_nvs_cluster() -> ClusterSpec {
    let node = dgx_h100_node();
    let inter = nettech::nvlink_switch_system(NvlinkGen::Gen4);
    ClusterSpec::new("H100-NVS", node, inter)
}

/// H200 cluster with an NVLink-Switch system.
#[must_use]
pub fn dgx_h200_nvs_cluster() -> ClusterSpec {
    let node = dgx_h200_node();
    let inter = nettech::nvlink_switch_system(NvlinkGen::Gen4);
    ClusterSpec::new("H200-NVS", node, inter)
}

/// B200 cluster with NDR InfiniBand.
#[must_use]
pub fn dgx_b200_ndr_cluster() -> ClusterSpec {
    let node = dgx_b200_node();
    let inter = nettech::ib_ndr(node.gpus_per_node);
    ClusterSpec::new("B200-NDR", node, inter)
}

/// B200 cluster with an NVLink-Switch system.
#[must_use]
pub fn dgx_b200_nvs_cluster() -> ClusterSpec {
    let node = dgx_b200_node();
    let inter = nettech::nvlink_switch_system(NvlinkGen::Gen5);
    ClusterSpec::new("B200-NVS", node, inter)
}

/// Every cluster preset.
#[must_use]
pub fn clusters() -> Vec<ClusterSpec> {
    vec![
        dgx_a100_hdr_cluster(),
        dgx_h100_ndr_cluster(),
        dgx_h100_nvs_cluster(),
        dgx_h200_nvs_cluster(),
        dgx_b200_ndr_cluster(),
        dgx_b200_nvs_cluster(),
    ]
}

/// The cluster preset whose name is `name`, compared case-insensitively
/// with `_` read as `-`; a bare `a100`, `h100`, `h200` or `b200` names
/// that accelerator's default cluster.
#[must_use]
pub fn cluster_by_name(name: &str) -> Option<ClusterSpec> {
    let key = name.to_lowercase().replace('_', "-");
    let key = match key.as_str() {
        "a100" => "a100-hdr",
        "h100" => "h100-ndr",
        "h200" => "h200-nvs",
        "b200" => "b200-nvs",
        key => key,
    };
    clusters()
        .into_iter()
        .find(|c| c.name.to_lowercase() == key)
}

/// A single-node "cluster" view of `node` (no inter-node fabric needed);
/// the inter-node link is a placeholder that collectives never select for
/// groups that fit in the node.
#[must_use]
pub fn single_node_cluster(name: impl Into<String>, node: NodeSpec) -> ClusterSpec {
    let inter = nettech::ib_ndr(node.gpus_per_node);
    ClusterSpec::new(name, node, inter)
}

/// A placeholder link for synthetic systems; ideal utilization.
#[must_use]
pub fn ideal_link(bandwidth: Bandwidth) -> LinkSpec {
    LinkSpec::new("ideal", bandwidth, optimus_units::Time::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_matches_datasheet() {
        let a = a100_sxm_80gb();
        assert_eq!(a.peak(Precision::Fp16).unwrap().tera(), 312.0);
        assert!(a.peak(Precision::Fp8).is_err(), "Ampere has no FP8");
        assert!((a.dram.bandwidth.tb_per_sec() - 1.935).abs() < 1e-9);
    }

    #[test]
    fn h100_is_3x_a100_fp16() {
        let ratio = h100_sxm().peak(Precision::Fp16).unwrap().tera()
            / a100_sxm_80gb().peak(Precision::Fp16).unwrap().tera();
        assert!(
            ratio > 3.0,
            "paper: H100 triples A100 compute, got {ratio:.2}x"
        );
    }

    #[test]
    fn b200_supports_fp4() {
        let b = b200_sxm();
        assert_eq!(b.peak(Precision::Fp4).unwrap().tera(), 9000.0);
    }

    #[test]
    fn h200_keeps_h100_compute() {
        assert_eq!(
            h200_sxm().peak(Precision::Fp16).unwrap(),
            h100_sxm().peak(Precision::Fp16).unwrap()
        );
        assert_eq!(h200_sxm().dram.capacity.gb(), 141.0);
    }

    #[test]
    fn tpu_v4_matches_datasheet() {
        let t = tpu_v4();
        assert_eq!(t.peak(Precision::Bf16).unwrap().tera(), 275.0);
        assert_eq!(t.dram.capacity.gb(), 32.0);
        assert_eq!(t.compute.tile_k, 128, "systolic-array depth");
    }

    #[test]
    fn hdr_cluster_per_gpu_share() {
        let c = dgx_a100_hdr_cluster();
        assert_eq!(c.inter_link.bandwidth.gb_per_sec(), 25.0);
        assert_eq!(c.node.intra_link.bandwidth.gb_per_sec(), 300.0);
    }

    #[test]
    fn nvs_cluster_inter_equals_nvlink() {
        let c = dgx_b200_nvs_cluster();
        assert_eq!(c.inter_link.bandwidth, c.node.intra_link.bandwidth);
    }
}
