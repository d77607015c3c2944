//! Kernel cost reports and bound-type classification.

use optimus_hw::MemoryLevelKind;
use optimus_units::{Bytes, FlopCount, Time};
use serde::{Deserialize, Serialize};

/// What limits a kernel's execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BoundType {
    /// Arithmetic throughput is the bottleneck.
    Compute,
    /// Traffic at the given memory level is the bottleneck.
    Memory(MemoryLevelKind),
    /// The kernel is so small that fixed software overhead dominates.
    Overhead,
}

impl BoundType {
    /// `true` for [`BoundType::Compute`].
    #[must_use]
    pub fn is_compute(self) -> bool {
        matches!(self, Self::Compute)
    }

    /// `true` for any [`BoundType::Memory`] level.
    #[must_use]
    pub fn is_memory(self) -> bool {
        matches!(self, Self::Memory(_))
    }

    /// `true` when bound specifically by off-chip DRAM.
    #[must_use]
    pub fn is_dram(self) -> bool {
        matches!(self, Self::Memory(MemoryLevelKind::Dram))
    }
}

impl core::fmt::Display for BoundType {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Compute => f.write_str("compute"),
            Self::Memory(level) => write!(f, "memory ({level})"),
            Self::Overhead => f.write_str("overhead"),
        }
    }
}

/// The cost breakdown of one kernel as predicted by the roofline model.
///
/// A cost carries no label: the estimators cost kernels in hot loops and
/// know which op each cost belongs to, and [`crate::BatchedGemm`],
/// [`crate::EltwiseOp`] and the model crate's operators implement
/// `Display` for anyone who wants one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelCost {
    /// Total floating-point work.
    pub flops: FlopCount,
    /// Pure arithmetic time at the derated peak.
    pub compute_time: Time,
    /// Per-level `(level, traffic, transfer time)`, ordered inner → outer.
    pub level_times: Vec<(MemoryLevelKind, Bytes, Time)>,
    /// Fixed software overhead added on top.
    pub overhead: Time,
}

impl KernelCost {
    /// A zero-cost kernel (useful as an additive identity).
    #[must_use]
    pub fn free() -> Self {
        Self {
            flops: FlopCount::ZERO,
            compute_time: Time::ZERO,
            level_times: Vec::new(),
            overhead: Time::ZERO,
        }
    }

    /// The limiting (maximum) of compute and per-level times, before
    /// overhead.
    #[must_use]
    pub fn roofline_time(&self) -> Time {
        self.level_times
            .iter()
            .map(|&(_, _, t)| t)
            .fold(self.compute_time, Time::max)
    }

    /// Total predicted execution time: roofline maximum plus overhead.
    #[must_use]
    pub fn total(&self) -> Time {
        self.roofline_time() + self.overhead
    }

    /// What limits this kernel.
    ///
    /// Classified as [`BoundType::Overhead`] only when the fixed overhead
    /// exceeds the roofline time, else by whichever of compute/levels
    /// attains the maximum.
    #[must_use]
    pub fn bound(&self) -> BoundType {
        let roof = self.roofline_time();
        if self.overhead > roof {
            return BoundType::Overhead;
        }
        let mut bound = BoundType::Compute;
        let mut best = self.compute_time;
        for &(kind, _, t) in &self.level_times {
            if t > best {
                best = t;
                bound = BoundType::Memory(kind);
            }
        }
        bound
    }

    /// Traffic at the given level, if modeled.
    #[must_use]
    pub fn traffic(&self, level: MemoryLevelKind) -> Option<Bytes> {
        self.level_times
            .iter()
            .find(|(k, _, _)| *k == level)
            .map(|&(_, b, _)| b)
    }

    /// DRAM traffic (zero if DRAM is not among the modeled levels).
    #[must_use]
    pub fn dram_traffic(&self) -> Bytes {
        self.traffic(MemoryLevelKind::Dram).unwrap_or(Bytes::ZERO)
    }

    /// The transfer time at the slowest memory level (the "memory time" of
    /// the paper's bound-type breakdowns).
    #[must_use]
    pub fn memory_time(&self) -> Time {
        self.level_times
            .iter()
            .map(|&(_, _, t)| t)
            .fold(Time::ZERO, Time::max)
    }

    /// Convenience view used by the bound-type breakdown figures: the pair
    /// `(compute_time, memory_time)` of the kernel.
    #[must_use]
    pub fn split(&self) -> (Time, Time) {
        (self.compute_time, self.memory_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(compute_ms: f64, dram_ms: f64, overhead_ms: f64) -> KernelCost {
        KernelCost {
            flops: FlopCount::from_giga(1.0),
            compute_time: Time::from_millis(compute_ms),
            level_times: vec![(
                MemoryLevelKind::Dram,
                Bytes::from_mib(1.0),
                Time::from_millis(dram_ms),
            )],
            overhead: Time::from_millis(overhead_ms),
        }
    }

    #[test]
    fn compute_bound_when_compute_dominates() {
        let c = cost(2.0, 1.0, 0.0);
        assert_eq!(c.bound(), BoundType::Compute);
        assert!((c.total().millis() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_when_dram_dominates() {
        let c = cost(1.0, 2.0, 0.0);
        assert!(c.bound().is_dram());
        assert!((c.total().millis() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_bound_for_tiny_kernels() {
        let c = cost(0.001, 0.002, 1.0);
        assert_eq!(c.bound(), BoundType::Overhead);
    }

    #[test]
    fn total_adds_overhead() {
        let c = cost(2.0, 1.0, 0.5);
        assert!((c.total().millis() - 2.5).abs() < 1e-9);
    }
}
