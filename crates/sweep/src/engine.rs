//! Parallel evaluation of enumerated strategies.
//!
//! Evaluation is two-phase (the memoized pipeline of `optimus-train` /
//! `optimus-infer`): one [`optimus_train::PreparedTrainingEstimator`] or
//! [`optimus_infer::PreparedInferenceEstimator`] is built per sweep and
//! shared — memo tables included — by every rayon worker, and each point
//! reuses the memory footprint the pruning pass already computed. The hot
//! loop is `O(distinct-kernel-keys × ops + points × cheap-assembly)`
//! instead of `O(points × ops)`.

use crate::{pareto_frontier, PointMemory, StrategyPoint, SweepSpace, Workload};
use optimus_energy::{CostModel, EnergyModel};
use optimus_hw::ClusterSpec;
use optimus_infer::PreparedInferenceEstimator;
use optimus_model::ModelConfig;
use optimus_train::{CheckpointSpec, PreparedTrainingEstimator};
use optimus_units::{Bytes, Energy, Time};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One fully evaluated strategy: predicted latency, throughput, memory,
/// energy, and dollars.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedPoint {
    /// The strategy.
    pub point: StrategyPoint,
    /// Devices occupied.
    pub gpus: usize,
    /// Time per execution: one training batch or one inference request
    /// batch.
    pub latency: Time,
    /// Work units per second: samples/s for training, generated tokens/s
    /// for inference.
    pub throughput: f64,
    /// Peak per-device memory footprint.
    pub memory_per_device: Bytes,
    /// System energy per execution.
    pub energy: Energy,
    /// Amortized capital + electricity cost per execution, USD.
    pub cost_usd: f64,
    /// Model FLOPs utilization (training only).
    pub mfu: Option<f64>,
    /// Effective goodput under the engine's [`CheckpointSpec`] — the
    /// useful fraction of wall-clock after checkpoint overhead, rework,
    /// and restarts. `None` when no failure process is modeled (then
    /// `latency`/`cost_usd` are the raw failure-free figures).
    pub goodput: Option<f64>,
}

/// The complete outcome of one sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Every valid, successfully evaluated strategy, ordered by
    /// [`StrategyPoint::sort_key`].
    pub evaluated: Vec<EvaluatedPoint>,
    /// The (latency, cost) Pareto frontier, ordered by ascending latency.
    pub frontier: Vec<EvaluatedPoint>,
    /// Strategies that passed pruning but failed evaluation (for example a
    /// TP degree the comm plan rejects); kept for diagnosability.
    pub rejected: Vec<StrategyPoint>,
}

impl SweepReport {
    /// The evaluated point minimizing latency.
    #[must_use]
    pub fn fastest(&self) -> Option<&EvaluatedPoint> {
        self.evaluated
            .iter()
            .min_by(|a, b| a.latency.cmp(&b.latency))
    }

    /// The evaluated point minimizing cost per execution.
    #[must_use]
    pub fn cheapest(&self) -> Option<&EvaluatedPoint> {
        self.evaluated.iter().min_by(|a, b| {
            a.cost_usd
                .partial_cmp(&b.cost_usd)
                .expect("costs are finite")
        })
    }
}

/// Evaluates strategy spaces against one cluster.
///
/// ```
/// use optimus_hw::presets;
/// use optimus_model::presets as models;
/// use optimus_sweep::{SweepEngine, SweepSpace, Workload};
///
/// let cluster = presets::dgx_a100_hdr_cluster();
/// let report = SweepEngine::new(&cluster).sweep(
///     &models::llama2_13b(),
///     &Workload::training(64, 2048),
///     &SweepSpace::power_of_two(16),
/// );
/// assert!(!report.frontier.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SweepEngine<'a> {
    cluster: &'a ClusterSpec,
    energy: EnergyModel,
    cost: CostModel,
    checkpoint: CheckpointSpec,
}

impl<'a> SweepEngine<'a> {
    /// Creates an engine with energy/cost coefficients matched to the
    /// cluster's accelerator generation (by preset name: A100, H100/H200,
    /// B200). Unrecognized accelerators — including `tpu_v4` — fall back
    /// to A100-class economics.
    #[must_use]
    pub fn new(cluster: &'a ClusterSpec) -> Self {
        let (energy, cost) = economics_for(cluster);
        Self {
            cluster,
            energy,
            cost,
            checkpoint: CheckpointSpec::none(),
        }
    }

    /// Prices every training strategy under the same failure environment:
    /// each point's `latency` and `cost_usd` become the failure-expected
    /// figures (raw time over the strategy's effective goodput), so the
    /// Pareto frontier trades failure-expected latency against
    /// failure-expected cost. Points with more GPUs see a proportionally
    /// lower cluster MTBF — the blast-radius penalty the raw frontier
    /// hides. The default [`CheckpointSpec::none`] leaves every figure
    /// exactly as before; inference workloads ignore the spec.
    #[must_use]
    pub fn with_checkpoint(mut self, checkpoint: CheckpointSpec) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// Enumerates, evaluates (in parallel), and extracts the Pareto
    /// frontier. The result is deterministic: the same inputs produce the
    /// same report regardless of `RAYON_NUM_THREADS`.
    #[must_use]
    pub fn sweep(
        &self,
        model: &ModelConfig,
        workload: &Workload,
        space: &SweepSpace,
    ) -> SweepReport {
        let points = space.enumerate_with_memory(model, self.cluster, workload);
        self.run(
            model,
            workload,
            points
                .into_iter()
                .map(|(point, memory)| (point, Some(memory)))
                .collect(),
        )
    }

    /// Evaluates an explicit list of strategies in parallel, preserving
    /// input order in `evaluated` (minus rejected points). Memory
    /// footprints are derived in-line here (an explicit list carries
    /// none); [`Self::sweep`] reuses the pruning pass's footprints
    /// instead.
    #[must_use]
    pub fn evaluate(
        &self,
        model: &ModelConfig,
        workload: &Workload,
        points: Vec<StrategyPoint>,
    ) -> SweepReport {
        self.run(
            model,
            workload,
            points.into_iter().map(|point| (point, None)).collect(),
        )
    }

    /// Builds the phase-1 prepared context once, evaluates every point
    /// through it in parallel, and assembles the report.
    fn run(
        &self,
        model: &ModelConfig,
        workload: &Workload,
        points: Vec<(StrategyPoint, Option<PointMemory>)>,
    ) -> SweepReport {
        let prepared = PreparedSweep::new(self, model, workload);
        let outcomes: Vec<Result<EvaluatedPoint, StrategyPoint>> = points
            .into_par_iter()
            .map(|(point, memory)| prepared.evaluate_point(point, memory))
            .collect();

        let mut evaluated = Vec::with_capacity(outcomes.len());
        let mut rejected = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(e) => evaluated.push(e),
                Err(p) => rejected.push(p),
            }
        }
        let frontier = pareto_frontier(&evaluated);
        SweepReport {
            evaluated,
            frontier,
            rejected,
        }
    }
}

/// The phase-1 context of one sweep: the prepared estimator (whose memo
/// tables are shared by every evaluation worker) plus the economics.
struct PreparedSweep<'e, 'a> {
    engine: &'e SweepEngine<'a>,
    workload: &'e Workload,
    kind: PreparedKind<'a>,
}

enum PreparedKind<'a> {
    Train(PreparedTrainingEstimator<'a>),
    Infer(PreparedInferenceEstimator<'a>),
}

impl<'e, 'a> PreparedSweep<'e, 'a> {
    fn new(engine: &'e SweepEngine<'a>, model: &ModelConfig, workload: &'e Workload) -> Self {
        // One deep clone per sweep; every point then shares the Arc.
        let model = Arc::new(model.clone());
        let kind = match workload {
            Workload::Training {
                batch,
                seq,
                recompute,
                schedule,
            } => PreparedKind::Train(
                PreparedTrainingEstimator::new(engine.cluster, model, *batch, *seq)
                    .with_recompute(*recompute)
                    .with_schedule(*schedule)
                    .with_checkpoint(engine.checkpoint.clone()),
            ),
            Workload::Inference {
                batch,
                prefill,
                generate,
            } => PreparedKind::Infer(PreparedInferenceEstimator::new(
                engine.cluster,
                model,
                *batch,
                *prefill,
                *generate,
            )),
        };
        Self {
            engine,
            workload,
            kind,
        }
    }

    /// Evaluates one strategy; `Err` carries the point back on estimator
    /// rejection. `memory` is the footprint the pruning pass computed for
    /// this point, if the caller has one.
    fn evaluate_point(
        &self,
        point: StrategyPoint,
        memory: Option<PointMemory>,
    ) -> Result<EvaluatedPoint, StrategyPoint> {
        let gpus = point.gpus();
        let energy_model = self.engine.energy.scaled_for_precision(point.precision);
        match &self.kind {
            PreparedKind::Train(prepared) => {
                let report = match memory {
                    Some(PointMemory::Training(m)) => {
                        prepared.estimate_with_memory(point.parallelism, point.precision, m)
                    }
                    _ => prepared.estimate(point.parallelism, point.precision),
                }
                .map_err(|_| point)?;
                let energy = energy_model.training_energy(&report, gpus);
                let cost = self.engine.cost.training_cost(&report, &energy, gpus);
                // Under an active CheckpointSpec the batch occupies the
                // system for `1/goodput` of its failure-free time —
                // checkpoints, rework, and restarts hold (and power) the
                // same GPUs — so latency, energy, and cost all inflate by
                // the same factor. With goodput = 1.0 (or no spec) the
                // figures are bitwise the raw ones. When the spec derates
                // overhead utilization below 1, the extra seconds burn the
                // dynamic draw at that fraction (plus the full static
                // floor), so energy and the electricity share of cost
                // inflate less than capex does.
                let (waste, goodput) = match &report.resilience {
                    Some(r) => (r.waste(), Some(r.goodput)),
                    None => (0.0, None),
                };
                let inflate = 1.0 + waste;
                let overhead_util = self.engine.checkpoint.overhead_util;
                let (energy_total, cost_usd) = if overhead_util == 1.0 {
                    (energy.total() * inflate, cost.total_usd * inflate)
                } else {
                    let total = energy.total() + energy.overhead_energy(waste, overhead_util);
                    (
                        total,
                        cost.capex_usd * inflate
                            + self.engine.cost.energy_usd_joules(total.joules()),
                    )
                };
                let latency = report.time_per_batch * inflate;
                // A waste so large that an inflated figure overflows
                // rejects the point, as an estimator error does.
                if !(latency.secs().is_finite()
                    && energy_total.joules().is_finite()
                    && cost_usd.is_finite())
                {
                    return Err(point);
                }
                Ok(EvaluatedPoint {
                    point,
                    gpus,
                    latency,
                    throughput: self.workload.work_units()
                        / (report.time_per_batch.secs() * inflate),
                    memory_per_device: report.memory.total(),
                    energy: energy_total,
                    cost_usd,
                    mfu: Some(report.mfu),
                    goodput,
                })
            }
            PreparedKind::Infer(prepared) => {
                let report = match memory {
                    Some(PointMemory::Inference(m)) => {
                        prepared.estimate_with_memory(point.parallelism.tp, point.precision, m)
                    }
                    _ => prepared.estimate(point.parallelism.tp, point.precision),
                }
                .map_err(|_| point)?;
                let energy = energy_model.inference_energy(&report, gpus);
                let cost = self.engine.cost.inference_cost(&report, &energy, gpus);
                Ok(EvaluatedPoint {
                    point,
                    gpus,
                    latency: report.total,
                    throughput: self.workload.work_units() / report.total.secs(),
                    memory_per_device: report.memory.total(),
                    energy: energy.total(),
                    cost_usd: cost.total_usd,
                    mfu: None,
                    goodput: None,
                })
            }
        }
    }
}

/// Energy/cost coefficients by accelerator generation, keyed on the
/// preset naming convention of `optimus-hw`. Unrecognized names default
/// to A100-class coefficients (see [`SweepEngine::new`]).
fn economics_for(cluster: &ClusterSpec) -> (EnergyModel, CostModel) {
    let name = cluster.accelerator().name.to_uppercase();
    if name.contains("A100") {
        (EnergyModel::a100_class(), CostModel::a100_system())
    } else if name.contains("B200") {
        (EnergyModel::b200_class(), CostModel::b200_system())
    } else if name.contains("H100") || name.contains("H200") {
        (EnergyModel::h100_class(), CostModel::h100_system())
    } else {
        (EnergyModel::a100_class(), CostModel::a100_system())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_hw::presets;
    use optimus_model::presets as models;

    #[test]
    fn training_sweep_produces_consistent_rows() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = SweepEngine::new(&cluster).sweep(
            &models::llama2_13b(),
            &Workload::training(16, 2048),
            &SweepSpace::power_of_two(16),
        );
        assert!(!report.evaluated.is_empty());
        for row in &report.evaluated {
            assert!(row.latency.secs() > 0.0, "{row:?}");
            assert!(row.throughput > 0.0);
            assert!(row.cost_usd > 0.0);
            assert!(row.energy.joules() > 0.0);
            assert!(row.mfu.is_some());
        }
    }

    #[test]
    fn fastest_and_cheapest_are_on_the_frontier() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = SweepEngine::new(&cluster).sweep(
            &models::llama2_13b(),
            &Workload::training(16, 2048),
            &SweepSpace::power_of_two(16),
        );
        let fastest = report.fastest().unwrap();
        let cheapest = report.cheapest().unwrap();
        assert!(report.frontier.iter().any(|p| p.latency == fastest.latency));
        assert!(report
            .frontier
            .iter()
            .any(|p| p.cost_usd == cheapest.cost_usd));
    }

    #[test]
    fn economics_track_accelerator_generation() {
        let (a100_e, a100_c) = economics_for(&presets::dgx_a100_hdr_cluster());
        let (h100_e, h100_c) = economics_for(&presets::dgx_h100_ndr_cluster());
        let (b200_e, b200_c) = economics_for(&presets::dgx_b200_nvs_cluster());
        assert!(h100_e.compute_pj_per_flop < a100_e.compute_pj_per_flop);
        assert!(
            b200_e.compute_pj_per_flop < h100_e.compute_pj_per_flop,
            "B200 must not reuse H100 energy coefficients"
        );
        assert!(a100_c.gpu_price_usd < h100_c.gpu_price_usd);
        assert!(h100_c.gpu_price_usd < b200_c.gpu_price_usd);
    }

    /// A restart cost whose inflated energy and cost overflow, though the
    /// failure-expected time stays finite, rejects each point as an
    /// estimator error does, so no evaluated figure is ever infinite.
    #[test]
    fn overflowing_inflated_figures_reject_the_point() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let sweep = |restart_s: f64| {
            SweepEngine::new(&cluster)
                .with_checkpoint(CheckpointSpec::with_mtbf(10.0).with_restart(restart_s))
                .sweep(
                    &models::llama2_13b(),
                    &Workload::training(64, 2048),
                    &SweepSpace::power_of_two(8),
                )
        };
        let (finite, overflowing) = (sweep(1e300), sweep(1e306));
        assert_eq!((finite.evaluated.len(), finite.rejected.len()), (86, 0));
        assert_eq!(
            (overflowing.evaluated.len(), overflowing.rejected.len()),
            (0, 86)
        );
    }

    #[test]
    fn inference_sweep_is_tensor_parallel_only() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = SweepEngine::new(&cluster).sweep(
            &models::llama2_13b(),
            &Workload::inference(1, 200, 16),
            &SweepSpace::power_of_two(64),
        );
        assert!(!report.evaluated.is_empty());
        for row in &report.evaluated {
            assert_eq!(row.point.parallelism.dp, 1);
            assert_eq!(row.point.parallelism.pp, 1);
            assert!(row.mfu.is_none());
        }
    }
}
