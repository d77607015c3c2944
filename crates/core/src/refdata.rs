//! Published reference numbers the paper validates against.
//!
//! Tables 1, 2, and 4 are transcribed verbatim from the paper; Table 3
//! carries the case-study configurations; the Fig. 5 series holds the
//! approximate normalized bar heights implied by the paper's §5.2 text
//! (4× for H100-NDR over A100-HDR, 2× more for NVS, …, ~35× total for
//! B200-NVS-L). These constants are a *measurement substitute*: the
//! original experiments ran on hardware we cannot execute, so the
//! published results themselves serve as the reference series that our
//! predictions are scored against.

use optimus_memory::RecomputeMode;
use optimus_parallel::Parallelism;

/// One row of Table 1 (training-time validation on A100 systems).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Model preset name (matches `optimus_model::presets`).
    pub model: &'static str,
    /// Total GPUs.
    pub gpus: usize,
    /// Global batch size.
    pub batch: usize,
    /// Data-parallel degree.
    pub dp: usize,
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Pipeline-parallel degree.
    pub pp: usize,
    /// Sequence parallelism enabled.
    pub sp: bool,
    /// Whether recomputation is selective (`true`) or full (`false`).
    pub selective: bool,
    /// Reported training time per batch (Megatron/Korthikanti), seconds.
    pub t_ref_secs: f64,
    /// The paper's own prediction, seconds.
    pub t_paper_secs: f64,
}

impl Table1Row {
    /// The row's parallelism.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::new(self.dp, self.tp, self.pp).with_sp(self.sp)
    }

    /// The row's recomputation mode.
    #[must_use]
    pub fn recompute(&self) -> RecomputeMode {
        if self.selective {
            RecomputeMode::Selective
        } else {
            RecomputeMode::Full {
                checkpoints_per_stage: None,
            }
        }
    }

    /// The paper's relative error for this row, percent.
    #[must_use]
    pub fn paper_error_percent(&self) -> f64 {
        crate::relative_error_percent(self.t_paper_secs, self.t_ref_secs)
    }
}

/// Table 1, transcribed. Note: the GPT-22B rows list 8 GPUs, which fixes
/// PP = 1 (TP = 8 fills the machine); the "1-8-8-*" string printed in the
/// paper for those rows is inconsistent with its own #GPUs column, and the
/// source experiments (Korthikanti et al.) used TP = 8 on one node.
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    let r = |model, gpus, batch, dp, tp, pp, sp, selective, t_ref_secs, t_paper_secs| Table1Row {
        model,
        gpus,
        batch,
        dp,
        tp,
        pp,
        sp,
        selective,
        t_ref_secs,
        t_paper_secs,
    };
    vec![
        // --- TP and PP only, full recomputation -------------------------
        r("GPT-22B", 8, 4, 1, 8, 1, false, false, 1.4, 1.4),
        r("GPT-175B", 64, 64, 1, 8, 8, false, false, 18.1, 16.9),
        r("GPT-530B", 280, 280, 1, 8, 35, false, false, 49.1, 46.8),
        r("GPT-1008B", 512, 512, 1, 8, 64, false, false, 94.4, 87.9),
        // --- TP, PP and SP, selective recomputation -----------------------
        r("GPT-22B", 8, 4, 1, 8, 1, true, true, 1.1, 1.1),
        r("GPT-175B", 64, 64, 1, 8, 8, true, true, 13.8, 12.9),
        r("GPT-530B", 280, 280, 1, 8, 35, true, true, 37.8, 35.5),
        r("GPT-1008B", 512, 512, 1, 8, 64, true, true, 71.5, 69.1),
        // --- DP, TP and PP, full recomputation ------------------------------
        r("GPT-310B", 1920, 2160, 15, 8, 16, false, false, 37.6, 34.1),
        r("GPT-530B", 2520, 2520, 9, 8, 35, false, false, 54.2, 51.2),
        r(
            "GPT-1008B",
            3072,
            3072,
            6,
            8,
            64,
            false,
            false,
            102.4,
            100.7,
        ),
    ]
}

/// One row of Table 2 (inference-latency validation, B = 1, 200-token
/// prompt, 200 generated tokens).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Model preset name.
    pub model: &'static str,
    /// GPUs = TP degree.
    pub tp: usize,
    /// NVIDIA-reported latency on A100, milliseconds.
    pub t_nvidia_a100_ms: f64,
    /// The paper's prediction on A100, milliseconds.
    pub t_paper_a100_ms: f64,
    /// NVIDIA-reported latency on H100, milliseconds.
    pub t_nvidia_h100_ms: f64,
    /// The paper's prediction on H100, milliseconds.
    pub t_paper_h100_ms: f64,
}

/// Table 2, transcribed.
#[must_use]
pub fn table2() -> Vec<Table2Row> {
    let r = |model, tp, a_nv, a_pred, h_nv, h_pred| Table2Row {
        model,
        tp,
        t_nvidia_a100_ms: a_nv,
        t_paper_a100_ms: a_pred,
        t_nvidia_h100_ms: h_nv,
        t_paper_h100_ms: h_pred,
    };
    vec![
        r("Llama2-70B", 8, 4735.0, 4284.0, 3202.0, 3147.0),
        r("Llama2-70B", 4, 6403.0, 6019.0, 4116.0, 3986.0),
        r("Llama2-70B", 2, 10500.0, 10042.0, 6267.0, 6186.0),
        r("Llama2-13B", 8, 1693.0, 1514.0, 1201.0, 1209.0),
        r("Llama2-13B", 4, 1894.0, 1748.0, 1431.0, 1258.0),
        r("Llama2-13B", 2, 2499.0, 2492.0, 1717.0, 1617.0),
        r("Llama2-13B", 1, 3884.0, 4263.0, 2396.0, 2599.0),
        r("Llama2-7B", 8, 1187.0, 1096.0, 828.0, 899.0),
        r("Llama2-7B", 4, 1280.0, 1166.0, 924.0, 869.0),
        r("Llama2-7B", 2, 1544.0, 1526.0, 1143.0, 1016.0),
        r("Llama2-7B", 1, 2190.0, 2472.0, 1440.0, 1522.0),
    ]
}

/// A case-study configuration of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseConfig {
    /// Model preset name.
    pub model: &'static str,
    /// Default batch size.
    pub batch: usize,
    /// Enlarged batch ("L" configurations exploiting big DRAM).
    pub large_batch: usize,
    /// Sequence length.
    pub seq: usize,
    /// DP degree.
    pub dp: usize,
    /// TP (= SP) degree.
    pub tp: usize,
    /// PP degree.
    pub pp: usize,
}

impl CaseConfig {
    /// The configured parallelism (SP always on in the case studies).
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::new(self.dp, self.tp, self.pp).with_sp(true)
    }

    /// Total GPUs.
    #[must_use]
    pub fn gpus(&self) -> usize {
        self.dp * self.tp * self.pp
    }
}

/// Table 3: the GPT-175B GPU-generation study (Fig. 5).
#[must_use]
pub fn case_gpt175b() -> CaseConfig {
    CaseConfig {
        model: "GPT-175B",
        batch: 1024,
        large_batch: 4096,
        seq: 2048,
        dp: 128,
        tp: 8,
        pp: 8,
    }
}

/// Table 3: the GPT-7B technology-node study (Figs. 6–7), 1024 GPUs.
#[must_use]
pub fn case_gpt7b() -> CaseConfig {
    CaseConfig {
        model: "GPT-7B",
        batch: 512,
        large_batch: 512,
        seq: 2048,
        dp: 64,
        tp: 4,
        pp: 4,
    }
}

/// Bound type in a reference table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefBound {
    /// Compute-bound.
    Compute,
    /// Memory-bound.
    Memory,
}

/// One row of Table 4 (per-GEMM analysis, Llama2-13B prefill of 200
/// tokens, B = 1, half precision).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table4Row {
    /// The paper's GEMM-function label.
    pub gemm: &'static str,
    /// A100 time, microseconds.
    pub a100_us: f64,
    /// A100 bound type.
    pub a100_bound: RefBound,
    /// H100 time, microseconds.
    pub h100_us: f64,
    /// H100 bound type.
    pub h100_bound: RefBound,
}

/// Table 4, transcribed.
#[must_use]
pub fn table4() -> Vec<Table4Row> {
    use RefBound::{Compute, Memory};
    let r = |gemm, a100_us, a100_bound, h100_us, h100_bound| Table4Row {
        gemm,
        a100_us,
        a100_bound,
        h100_us,
        h100_bound,
    };
    vec![
        r("merged-head X.WK/Q/V = K,Q,V", 82.0, Compute, 32.0, Memory),
        r("single head Q.KT = R", 3.0, Memory, 2.0, Memory),
        r("single head softmax(R).V = Z", 3.0, Memory, 2.0, Memory),
        r("Z.W = O", 42.0, Compute, 17.0, Memory),
        r("O.WMLP1 = O1", 216.0, Compute, 81.0, Memory),
        r("O1.WMLP2 = O2", 109.0, Compute, 42.0, Memory),
    ]
}

/// A Fig. 5 system configuration and its approximate published speedup
/// over the A100-HDR baseline (digitized from §5.2's multipliers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Point {
    /// Configuration label as printed on the figure's x-axis.
    pub label: &'static str,
    /// Approximate published speedup over A100-HDR.
    pub speedup_vs_a100: f64,
    /// Whether the "L" (large-batch) configuration applies.
    pub large_batch: bool,
}

/// The Fig. 5 series. The paper's text gives the multiplier chain; bar
/// heights are approximate (±20%) digitizations and are used for *shape*
/// comparison only.
#[must_use]
pub fn fig5_series() -> Vec<Fig5Point> {
    vec![
        Fig5Point {
            label: "A100-HDR",
            speedup_vs_a100: 1.0,
            large_batch: false,
        },
        Fig5Point {
            label: "H100-NDR",
            speedup_vs_a100: 4.0,
            large_batch: false,
        },
        Fig5Point {
            label: "H100-NVS",
            speedup_vs_a100: 8.0,
            large_batch: false,
        },
        Fig5Point {
            label: "H200-NVS-L",
            speedup_vs_a100: 24.0,
            large_batch: true,
        },
        Fig5Point {
            label: "B200-NDR",
            speedup_vs_a100: 12.0,
            large_batch: false,
        },
        Fig5Point {
            label: "B200-NVS",
            speedup_vs_a100: 28.0,
            large_batch: false,
        },
        Fig5Point {
            label: "B200-NVS-L",
            speedup_vs_a100: 35.0,
            large_batch: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_gpu_counts_are_consistent() {
        for row in table1() {
            assert_eq!(
                row.dp * row.tp * row.pp,
                row.gpus,
                "{} ({}-{}-{})",
                row.model,
                row.dp,
                row.tp,
                row.pp
            );
        }
    }

    #[test]
    fn table1_paper_errors_below_10_percent() {
        // §4.2: "the relative errors are mostly well below 10%".
        for row in table1() {
            assert!(
                row.paper_error_percent() < 10.0,
                "{}: paper error {:.1}%",
                row.model,
                row.paper_error_percent()
            );
        }
    }

    #[test]
    fn table2_paper_errors_below_13_percent() {
        // §4.3: "we match the actual reported numbers within a relative
        // error of 13%".
        for row in table2() {
            let a = crate::relative_error_percent(row.t_paper_a100_ms, row.t_nvidia_a100_ms);
            let h = crate::relative_error_percent(row.t_paper_h100_ms, row.t_nvidia_h100_ms);
            assert!(a <= 13.0 && h <= 13.0, "{} TP{}", row.model, row.tp);
        }
    }

    #[test]
    fn case_configs_match_table3() {
        assert_eq!(case_gpt175b().gpus(), 8192);
        assert_eq!(case_gpt7b().gpus(), 1024);
    }

    #[test]
    fn table4_h100_is_all_memory_bound() {
        // §6.1: "On H100, all the GEMMs in both prefill and generation
        // phases are DRAM-bound."
        for row in table4() {
            assert_eq!(row.h100_bound, RefBound::Memory, "{}", row.gemm);
        }
    }

    #[test]
    fn fig5_series_is_monotone_in_the_text_chain() {
        let s = fig5_series();
        assert_eq!(s.len(), 7);
        assert_eq!(s[0].speedup_vs_a100, 1.0);
        assert!(s.last().unwrap().speedup_vs_a100 >= 30.0);
    }
}
