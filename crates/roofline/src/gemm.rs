//! The hierarchical roofline engine.

use crate::{blocked_traffic, choose_tile, BatchedGemm, GemmShape, KernelCost};
use optimus_hw::{Accelerator, HwError, MemoryLevelKind, Precision};
use optimus_units::{Bytes, Ratio, Time};

/// Capacity visible to one blocking unit at the shared/L1 level, in KiB.
///
/// [`optimus_hw::MemoryLevel`] records *aggregate* capacity, but tiles
/// are chosen per SM. The effective per-SM blocking store is shared
/// memory **plus the register file** (modern GEMMs accumulate the
/// output tile in registers while A/B stream through shared memory):
/// ~160 KiB shared + ~256 KiB registers ≈ 416 KiB. Modeling only the
/// shared memory makes large GEMMs spuriously L2-bound — the
/// mis-prediction the paper calls out in DeepFlow (§5.3).
const SHAREDL1_TILE_CAPACITY_KIB: f64 = 416.0;

/// Fraction of the (chip-wide) L2 usable for blocking; the rest holds
/// other streams and metadata.
const L2_BLOCKING_FRACTION: f64 = 0.5;

/// The hierarchical roofline model bound to one accelerator.
///
/// See the crate-level docs for the methodology; construct with
/// [`RooflineModel::new`] and cost kernels with [`RooflineModel::gemm`],
/// [`RooflineModel::batched_gemm`], or
/// [`RooflineModel::eltwise`](crate::EltwiseOp).
#[derive(Debug, Clone)]
pub struct RooflineModel<'a> {
    device: &'a Accelerator,
}

impl<'a> RooflineModel<'a> {
    /// Creates a model for `device`.
    #[must_use]
    pub fn new(device: &'a Accelerator) -> Self {
        Self { device }
    }

    /// The device this model predicts for.
    #[must_use]
    pub fn device(&self) -> &Accelerator {
        self.device
    }

    /// Costs a single GEMM. See [`RooflineModel::batched_gemm`].
    ///
    /// # Errors
    ///
    /// Returns [`HwError::UnsupportedPrecision`] if the device has no peak
    /// throughput entry for `precision`.
    pub fn gemm(&self, shape: GemmShape, precision: Precision) -> Result<KernelCost, HwError> {
        self.batched_gemm(BatchedGemm::single(shape), precision)
    }

    /// Costs a GEMV `y[m] = A[m×k]·x[k]`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::UnsupportedPrecision`] as for
    /// [`RooflineModel::gemm`].
    pub fn gemv(&self, m: usize, k: usize, precision: Precision) -> Result<KernelCost, HwError> {
        self.gemm(GemmShape::gemv(m, k), precision)
    }

    /// Costs a batch of independent, identically shaped GEMMs launched as
    /// one kernel (per-head attention products, for example).
    ///
    /// Compute time: `batch · 2mnk` over the derated peak. The derating is
    /// the product of the calibrated peak fraction and the tile-quantization
    /// efficiency of the device's matmul macro-tile.
    ///
    /// Memory time at each level: the blocked traffic for tiles sized to
    /// that level, over the level bandwidth derated by the calibrated
    /// utilization (size-dependent for DRAM — the GEMV model of §4.1).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::UnsupportedPrecision`] if the device has no peak
    /// throughput entry for `precision`.
    pub fn batched_gemm(
        &self,
        gemm: BatchedGemm,
        precision: Precision,
    ) -> Result<KernelCost, HwError> {
        let peak = self.device.peak(precision)?;
        let calib = &self.device.calibration;
        let bytes_per_elem = precision.bytes();
        let shape = gemm.shape;
        let batch = gemm.batch as f64;

        // --- compute time ---------------------------------------------
        let quant = self.tile_quantization(shape);
        let eff = calib.gemm_peak_fraction.get() * quant.get();
        let flops = gemm.flops();
        let compute_time = if eff > 0.0 {
            flops / (peak * eff)
        } else {
            Time::ZERO
        };

        // --- memory time per hierarchy level ---------------------------
        let mut level_times = Vec::with_capacity(self.device.on_chip.len() + 1);
        for level in self.device.hierarchy() {
            let blocking_capacity = self.blocking_capacity(level.kind, level.capacity);
            // Traffic crossing *into* this level is governed by tiles that
            // fit one level further in; traffic crossing *out of* DRAM is
            // governed by L2-resident tiles, etc. We therefore size tiles
            // by the capacity of the next-inner level, which for the
            // innermost on-chip level is its own per-unit capacity.
            let tile = choose_tile(shape, blocking_capacity, bytes_per_elem);
            let traffic = blocked_traffic(shape, tile, bytes_per_elem) * batch;
            let util = match level.kind {
                MemoryLevelKind::Dram => calib.dram_utilization.factor(traffic),
                _ => calib.onchip_utilization,
            };
            let bw = level.bandwidth * util.get();
            let time = if bw.get() > 0.0 {
                traffic / bw
            } else {
                Time::ZERO
            };
            level_times.push((level.kind, traffic, time));
        }

        Ok(KernelCost {
            flops,
            compute_time,
            level_times,
            overhead: calib.kernel_overhead,
        })
    }

    /// Costs a kernel described directly by its arithmetic work and its
    /// per-level traffic — the escape hatch for fused kernels whose data
    /// movement does not follow the blocked-GEMM pattern (FlashAttention
    /// being the canonical example: §1.1, "focusing on the memory access to
    /// and from DRAM at the cost of FLOPs").
    ///
    /// Levels absent from `traffic` contribute no memory time. The compute
    /// time uses the calibrated GEMM peak fraction; DRAM traffic is derated
    /// by the size-dependent utilization curve like any other kernel.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::UnsupportedPrecision`] if the device has no peak
    /// throughput entry for `precision`.
    pub fn custom_kernel(
        &self,
        flops: optimus_units::FlopCount,
        traffic: &[(MemoryLevelKind, Bytes)],
        precision: Precision,
    ) -> Result<KernelCost, HwError> {
        let peak = self.device.peak(precision)?;
        let calib = &self.device.calibration;
        let eff = calib.gemm_peak_fraction.get();
        let compute_time = if eff > 0.0 {
            flops / (peak * eff)
        } else {
            Time::ZERO
        };
        let mut level_times = Vec::with_capacity(traffic.len());
        for &(kind, volume) in traffic {
            let Some(level) = self.device.level(kind) else {
                continue;
            };
            let util = match kind {
                MemoryLevelKind::Dram => calib.dram_utilization.factor(volume),
                _ => calib.onchip_utilization,
            };
            let bw = level.bandwidth * util.get();
            let time = if bw.get() > 0.0 {
                volume / bw
            } else {
                Time::ZERO
            };
            level_times.push((kind, volume, time));
        }
        Ok(KernelCost {
            flops,
            compute_time,
            level_times,
            overhead: calib.kernel_overhead,
        })
    }

    /// Tile-quantization efficiency: fraction of the matmul macro-tiles'
    /// work that is useful for this shape. Skinny GEMMs (decode) waste most
    /// of each tile, which is one reason they run far below peak.
    fn tile_quantization(&self, shape: GemmShape) -> Ratio {
        let c = &self.device.compute;
        let round_up = |dim: usize, tile: usize| -> f64 {
            let t = tile as f64;
            ((dim as f64) / t).ceil() * t
        };
        let useful = shape.m as f64 * shape.n as f64 * shape.k as f64;
        let padded =
            round_up(shape.m, c.tile_m) * round_up(shape.n, c.tile_n) * round_up(shape.k, c.tile_k);
        Ratio::saturating(useful / padded)
    }

    /// The capacity used to size blocking tiles whose traffic crosses the
    /// boundary of `kind`.
    fn blocking_capacity(&self, kind: MemoryLevelKind, own_capacity: Bytes) -> Bytes {
        match kind {
            // DRAM traffic is blocked by what fits in L2.
            MemoryLevelKind::Dram => self
                .device
                .level(MemoryLevelKind::L2)
                .map(|l| l.capacity * L2_BLOCKING_FRACTION)
                .unwrap_or(own_capacity),
            // L2 traffic is blocked by what one SM keeps in shared memory.
            MemoryLevelKind::L2 => Bytes::from_kib(SHAREDL1_TILE_CAPACITY_KIB),
            // Shared-memory traffic is blocked by the register macro-tile.
            _ => {
                let c = &self.device.compute;
                let elems =
                    (c.tile_m * c.tile_k + c.tile_k * c.tile_n + c.tile_m * c.tile_n) as f64;
                // Express the macro-tile working set as a capacity so the
                // same tile chooser applies.
                Bytes::new(elems * 4.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_hw::{presets, DeviceCalibration};

    #[test]
    fn fat_gemm_is_compute_bound_on_a100() {
        let a100 = presets::a100_sxm_80gb();
        let model = RooflineModel::new(&a100);
        let cost = model
            .gemm(GemmShape::new(8192, 8192, 8192), Precision::Fp16)
            .unwrap();
        assert!(cost.bound().is_compute(), "bound = {}", cost.bound());
        // 2·8192³ = 1.1 PFLOP at ~243 TFLOP/s effective ≈ 4.5 ms.
        let ms = cost.total().millis();
        assert!((3.0..7.0).contains(&ms), "unexpected time {ms:.2} ms");
    }

    #[test]
    fn decode_gemv_is_dram_bound_on_a100() {
        let a100 = presets::a100_sxm_80gb();
        let model = RooflineModel::new(&a100);
        // One decode step of an MLP layer: weights 4096x16384 read per token.
        let cost = model
            .gemm(GemmShape::new(1, 16384, 4096), Precision::Fp16)
            .unwrap();
        assert!(cost.bound().is_dram(), "bound = {}", cost.bound());
    }

    #[test]
    fn ideal_device_matches_hand_roofline() {
        let dev = presets::a100_sxm_80gb().with_calibration(DeviceCalibration::ideal());
        let model = RooflineModel::new(&dev);
        // Small GEMM fitting in L2: DRAM traffic = min IO; compute at peak.
        let shape = GemmShape::new(1024, 1024, 1024);
        let cost = model.gemm(shape, Precision::Fp16).unwrap();
        let flop_time = shape.flops().get() / 312e12;
        assert!(
            (cost.compute_time.secs() - flop_time).abs() / flop_time < 1e-6,
            "ideal compute time"
        );
        let dram = cost.dram_traffic();
        assert!((dram.bytes() - shape.min_io(2.0).bytes()).abs() < 1.0);
    }

    #[test]
    fn quantization_penalizes_ragged_shapes() {
        let a100 = presets::a100_sxm_80gb();
        let model = RooflineModel::new(&a100);
        let aligned = model
            .gemm(GemmShape::new(4096, 4096, 4096), Precision::Fp16)
            .unwrap();
        let ragged = model
            .gemm(GemmShape::new(4096 + 1, 4096 + 1, 4096), Precision::Fp16)
            .unwrap();
        // Nearly identical work, but the ragged shape pads a whole tile row.
        assert!(ragged.compute_time > aligned.compute_time);
    }

    #[test]
    fn batch_scales_flops_and_traffic() {
        let a100 = presets::a100_sxm_80gb();
        let model = RooflineModel::new(&a100);
        let shape = GemmShape::new(200, 200, 128);
        let one = model.gemm(shape, Precision::Fp16).unwrap();
        let forty = model
            .batched_gemm(BatchedGemm::new(40, shape), Precision::Fp16)
            .unwrap();
        assert!((forty.flops.get() / one.flops.get() - 40.0).abs() < 1e-9);
        assert!(forty.dram_traffic().bytes() >= 39.0 * one.dram_traffic().bytes());
        // One kernel launch either way.
        assert_eq!(forty.overhead, one.overhead);
    }

    #[test]
    fn unsupported_precision_propagates() {
        let a100 = presets::a100_sxm_80gb();
        let model = RooflineModel::new(&a100);
        assert!(model
            .gemm(GemmShape::new(10, 10, 10), Precision::Fp4)
            .is_err());
    }

    #[test]
    fn h100_fat_gemms_shift_toward_memory_bound() {
        // Table 4's headline: GEMMs that are compute-bound on A100 become
        // DRAM-bound on H100 because compute grew 3.2x but DRAM only 1.7x.
        let shape = GemmShape::new(200, 5120 * 3, 5120); // QKV, Llama2-13B prefill
        let a100 = presets::a100_sxm_80gb();
        let h100 = presets::h100_sxm();
        let on_a100 = RooflineModel::new(&a100)
            .gemm(shape, Precision::Fp16)
            .unwrap();
        let on_h100 = RooflineModel::new(&h100)
            .gemm(shape, Precision::Fp16)
            .unwrap();
        assert!(on_a100.bound().is_compute(), "A100: {}", on_a100.bound());
        assert!(on_h100.bound().is_memory(), "H100: {}", on_h100.bound());
    }
}
