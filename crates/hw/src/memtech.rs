//! Catalog of off-chip DRAM memory technologies.
//!
//! Bandwidths follow the values the paper quotes in its case studies:
//! Fig. 6 sweeps HBM2 (1 TB/s) → HBM4 (projected 3.3 TB/s) for training,
//! Fig. 9 sweeps GDDR6 (600 GB/s) → HBM3e (4.8 TB/s) plus a futuristic
//! *HBMX* (6.8 TB/s) for inference. Note the paper's HBM3 figure for the
//! technology sweep (2.6 TB/s) differs from the H100 product's stack
//! (3.35 TB/s); both appear here — presets use datasheet values, sweeps use
//! this catalog.

use optimus_units::{Bandwidth, Bytes};
use serde::{Deserialize, Serialize};

/// A DRAM memory technology generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DramTechnology {
    /// GDDR6 graphics memory.
    Gddr6,
    /// First-generation High-Bandwidth Memory 2.
    Hbm2,
    /// HBM2E.
    Hbm2e,
    /// HBM3 (paper's technology-sweep rating).
    Hbm3,
    /// HBM3E.
    Hbm3e,
    /// HBM4 (projected).
    Hbm4,
    /// Futuristic "HBMX" considered in the paper's Fig. 9.
    HbmX,
}

impl DramTechnology {
    /// Per-device bandwidth of a full stack complement of this technology.
    #[must_use]
    pub fn bandwidth(self) -> Bandwidth {
        match self {
            Self::Gddr6 => Bandwidth::from_gb_per_sec(600.0),
            Self::Hbm2 => Bandwidth::from_tb_per_sec(1.0),
            Self::Hbm2e => Bandwidth::from_tb_per_sec(1.9),
            Self::Hbm3 => Bandwidth::from_tb_per_sec(2.6),
            Self::Hbm3e => Bandwidth::from_tb_per_sec(4.8),
            Self::Hbm4 => Bandwidth::from_tb_per_sec(3.3),
            Self::HbmX => Bandwidth::from_tb_per_sec(6.8),
        }
    }

    /// Typical per-device capacity shipped with this technology.
    #[must_use]
    pub fn typical_capacity(self) -> Bytes {
        match self {
            Self::Gddr6 => Bytes::from_gb(48.0),
            Self::Hbm2 => Bytes::from_gb(40.0),
            Self::Hbm2e => Bytes::from_gb(80.0),
            Self::Hbm3 => Bytes::from_gb(80.0),
            Self::Hbm3e => Bytes::from_gb(141.0),
            Self::Hbm4 => Bytes::from_gb(192.0),
            Self::HbmX => Bytes::from_gb(256.0),
        }
    }

    /// The inference-sweep generations of Fig. 9 (GDDR6 → HBMX).
    #[must_use]
    pub fn inference_sweep() -> &'static [Self] {
        &[
            Self::Gddr6,
            Self::Hbm2,
            Self::Hbm2e,
            Self::Hbm3,
            Self::Hbm3e,
            Self::HbmX,
        ]
    }
}

impl core::fmt::Display for DramTechnology {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::Gddr6 => "GDDR6",
            Self::Hbm2 => "HBM2",
            Self::Hbm2e => "HBM2E",
            Self::Hbm3 => "HBM3",
            Self::Hbm3e => "HBM3E",
            Self::Hbm4 => "HBM4",
            Self::HbmX => "HBMX",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidths_match_paper() {
        assert_eq!(DramTechnology::Gddr6.bandwidth().gb_per_sec(), 600.0);
        assert_eq!(DramTechnology::Hbm2.bandwidth().tb_per_sec(), 1.0);
        assert_eq!(DramTechnology::Hbm2e.bandwidth().tb_per_sec(), 1.9);
        assert_eq!(DramTechnology::Hbm3.bandwidth().tb_per_sec(), 2.6);
        assert_eq!(DramTechnology::Hbm3e.bandwidth().tb_per_sec(), 4.8);
        assert_eq!(DramTechnology::Hbm4.bandwidth().tb_per_sec(), 3.3);
        assert_eq!(DramTechnology::HbmX.bandwidth().tb_per_sec(), 6.8);
    }

    #[test]
    fn sweeps_are_bandwidth_relevant() {
        // The inference sweep is ordered by increasing bandwidth.
        let bws: Vec<f64> = DramTechnology::inference_sweep()
            .iter()
            .map(|t| t.bandwidth().gb_per_sec())
            .collect();
        assert!(bws.windows(2).all(|w| w[0] < w[1]));
    }
}
