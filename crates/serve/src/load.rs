//! The load-sweep engine: saturation curves and an SLO-goodput frontier.
//!
//! The paper's workload analysis (and the Orca/vLLM serving lineage it
//! cites) characterizes a deployment by sweeping offered load against
//! serving strategy and reading off the saturation knee — the arrival
//! rate where queueing detaches latency from the service time — and the
//! SLO-feasible operating points. [`load_sweep`] evaluates an
//! (arrival-rate × strategy) grid of full serving simulations: the sweep
//! prepares one pricing estimator, shared by every strategy, rate and
//! worker; one [`FleetInstance`] of each strategy's [`FleetConfig`] is
//! built over it, shared by every rate; the grid cells run
//! rayon-parallel, and every cell replays the *same seed* so curves are
//! paired — a throughput difference between two strategies is never
//! sampling noise. Each cell leases the estimator's price table of its TP
//! and precision and hands it back warm, so the next cell of that key
//! reads the prices the earlier ones computed. A cell runs its trace
//! exactly as a lone [`FleetInstance`] of its strategy would: prices are
//! pure functions of their shapes, not of which cell or worker filled
//! them.
//!
//! The result is deterministic: cells are collected in grid order
//! regardless of thread count, and the SLO-goodput Pareto frontier
//! (maximum goodput per device count) is extracted with the same
//! tie-break discipline as the strategy sweep's
//! [`optimus_sweep::frontier_indices_by`] core.

use crate::fleet::check_faults;
use crate::trace::ensure;
use crate::{
    ArrivalProcess, FaultSpec, FleetConfig, FleetInstance, FleetReport, KvSpec, LengthDist,
    PrefixSpec, RecordMode, RouterPolicy, Scheduler, ServeConfig, ServeError, SloSpec, TraceSpec,
};
use optimus_hw::{ClusterSpec, Precision};
use optimus_infer::PreparedInferenceEstimator;
use optimus_model::ModelConfig;
use optimus_sweep::frontier_indices_by;
use optimus_units::Time;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One serving strategy axis of the grid: a replica shape plus how many
/// of it, so the frontier trades **TP-up against replicate-out** at equal
/// device counts (`gpus = tp × replicas`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadStrategy {
    /// Tensor-parallel degree of each replica.
    pub tp: usize,
    /// Serving precision.
    pub precision: Precision,
    /// Number of identical replicas behind the sweep's router.
    pub replicas: usize,
    /// KV-cache regime of each replica (reserved or paged).
    pub kv: KvSpec,
    /// Admission scheduler of each replica.
    pub scheduler: Scheduler,
}

impl LoadStrategy {
    /// A single replica at TP `tp` with the legacy reserved-KV FIFO
    /// regime.
    #[must_use]
    pub fn single(tp: usize, precision: Precision) -> Self {
        Self {
            tp,
            precision,
            replicas: 1,
            kv: KvSpec::reserved(),
            scheduler: Scheduler::Fifo,
        }
    }

    /// Sets the replica count.
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Sets the KV-cache regime.
    #[must_use]
    pub fn with_kv(mut self, kv: KvSpec) -> Self {
        self.kv = kv;
        self
    }

    /// Sets the admission scheduler.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Devices the strategy occupies.
    #[must_use]
    pub fn gpus(&self) -> usize {
        self.tp * self.replicas
    }
}

/// The (arrival-rate × strategy) grid to evaluate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadSweepSpec {
    /// Trace seed, shared by every cell (paired comparison).
    pub seed: u64,
    /// Requests simulated per cell.
    pub requests: usize,
    /// Prompt-length distribution.
    pub prompt: LengthDist,
    /// Output-length distribution.
    pub output: LengthDist,
    /// Offered Poisson arrival rates, requests per second.
    pub rates: Vec<f64>,
    /// Strategies to sweep.
    pub strategies: Vec<LoadStrategy>,
    /// The SLO goodput is measured against.
    pub slo: SloSpec,
    /// The routing policy multi-replica strategies use.
    pub router: RouterPolicy,
    /// Fault environment applied to every cell (`None` = fault-free).
    /// Under churn the frontier becomes availability-aware: a large-TP,
    /// few-replica strategy loses a bigger capacity fraction per crash
    /// than a many-replica one.
    pub faults: Option<FaultSpec>,
    /// Shared-prefix pool applied to every cell's trace (`None` = no
    /// prefixes). A trace axis, not a strategy axis: every cell of a
    /// rate replays the same prefixed trace, so paged-with-prefix-cache
    /// strategies are compared against reserved ones on identical work.
    pub prefixes: Option<PrefixSpec>,
    /// Uniformly drawn priority classes in every cell's trace (1 = all
    /// requests equal).
    pub priority_classes: u8,
}

/// One fully simulated grid cell, summarized for curve plotting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadPoint {
    /// Tensor-parallel degree of each replica.
    pub tp: usize,
    /// Serving precision of the strategy.
    pub precision: Precision,
    /// Replica count of the strategy.
    pub replicas: usize,
    /// Devices the strategy occupies: `tp × replicas`.
    pub gpus: usize,
    /// KV block size in tokens (0 = reserved whole-lifetime KV).
    pub block_tokens: usize,
    /// Admission scheduler of the strategy.
    pub scheduler: Scheduler,
    /// Offered arrival rate, requests per second.
    pub offered_rate_per_s: f64,
    /// Sustained generation throughput, tokens per second.
    pub tokens_per_s: f64,
    /// Sustained request throughput (the saturation curve's y-axis: it
    /// tracks the offered rate until the knee, then flattens).
    pub requests_per_s: f64,
    /// Generated tokens of SLO-meeting requests per second.
    pub goodput_tokens_per_s: f64,
    /// SLO-meeting requests per second.
    pub goodput_requests_per_s: f64,
    /// Fraction of completed requests meeting the SLO.
    pub attainment: f64,
    /// Median time-to-first-token.
    pub ttft_p50: Time,
    /// 99th-percentile time-to-first-token.
    pub ttft_p99: Time,
    /// 99th-percentile time-per-output-token.
    pub tpot_p99: Time,
    /// 99th-percentile end-to-end latency.
    pub e2e_p99: Time,
    /// Mean decode-batch width (how full the continuous batch ran).
    pub mean_decode_batch: f64,
    /// Peak KV occupancy over budget.
    pub kv_peak_utilization: f64,
    /// Requests that ran to completion.
    pub completed: usize,
    /// Requests rejected on arrival.
    pub rejected: usize,
    /// Mean fraction of replica-time up (1.0 on a fault-free sweep).
    pub availability: f64,
    /// Requeue events caused by crashes in this cell.
    pub requeues: usize,
    /// Decode-time preemptions across the fleet (0 in reserved mode).
    pub preemptions: usize,
    /// Prefix-cache hits across the fleet (0 without a prefix pool).
    pub prefix_hits: usize,
}

impl LoadPoint {
    fn from_fleet(strategy: LoadStrategy, rate: f64, report: &FleetReport) -> Self {
        Self {
            tp: strategy.tp,
            precision: strategy.precision,
            replicas: report.replicas,
            gpus: report.gpus,
            offered_rate_per_s: rate,
            tokens_per_s: report.tokens_per_s,
            requests_per_s: report.requests_per_s,
            goodput_tokens_per_s: report.slo.goodput_tokens_per_s,
            goodput_requests_per_s: report.slo.goodput_requests_per_s,
            attainment: report.slo.attainment,
            ttft_p50: report.ttft.p50,
            ttft_p99: report.ttft.p99,
            tpot_p99: report.tpot.p99,
            e2e_p99: report.e2e.p99,
            mean_decode_batch: report.mean_decode_batch,
            kv_peak_utilization: report.kv_peak_utilization,
            completed: report.completed,
            rejected: report.rejected,
            availability: report.availability.availability,
            requeues: report.availability.requeues,
            block_tokens: strategy.kv.block_tokens,
            scheduler: strategy.scheduler,
            preemptions: report.paging.as_ref().map_or(0, |p| p.preemptions),
            prefix_hits: report.paging.as_ref().map_or(0, |p| p.prefix_hits),
        }
    }
}

/// One strategy's saturation curve: its cells in ascending-rate order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaturationCurve {
    /// Tensor-parallel degree of each replica.
    pub tp: usize,
    /// Serving precision.
    pub precision: Precision,
    /// Replica count.
    pub replicas: usize,
    /// Devices occupied: `tp × replicas`.
    pub gpus: usize,
    /// KV-cache regime of each replica.
    pub kv: KvSpec,
    /// Admission scheduler of each replica.
    pub scheduler: Scheduler,
    /// One point per offered rate, in the spec's rate order.
    pub points: Vec<LoadPoint>,
}

/// A strategy the sweep could not run at all, with the reason. It names
/// every axis of its [`LoadStrategy`], so no two strategies of a grid
/// read alike.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InfeasibleStrategy {
    /// Tensor-parallel degree of each replica.
    pub tp: usize,
    /// Serving precision.
    pub precision: Precision,
    /// Replica count.
    pub replicas: usize,
    /// KV-cache regime of each replica.
    pub kv: KvSpec,
    /// Admission scheduler of each replica.
    pub scheduler: Scheduler,
    /// Why it cannot serve (weights overflow, TP zero or beyond a node,
    /// unsupported precision, zero replicas), or why one of its cells
    /// failed (a fleet that never finishes, figures that overflow).
    pub reason: String,
}

impl InfeasibleStrategy {
    fn new(strategy: LoadStrategy, reason: String) -> Self {
        Self {
            tp: strategy.tp,
            precision: strategy.precision,
            replicas: strategy.replicas,
            kv: strategy.kv,
            scheduler: strategy.scheduler,
            reason,
        }
    }
}

/// The complete outcome of one load sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadSweepReport {
    /// Model name.
    pub model: String,
    /// Cluster name.
    pub cluster: String,
    /// Trace seed shared by every cell.
    pub seed: u64,
    /// Requests simulated per cell.
    pub requests_per_point: usize,
    /// The SLO goodput was measured against.
    pub slo: SloSpec,
    /// One saturation curve per feasible strategy, in spec order.
    pub curves: Vec<SaturationCurve>,
    /// The SLO-goodput Pareto frontier over every cell: the points where
    /// no other cell achieves at least the goodput with at most the
    /// devices. Ascending device count, therefore ascending goodput.
    pub frontier: Vec<LoadPoint>,
    /// Strategies that could not serve, with reasons.
    pub infeasible: Vec<InfeasibleStrategy>,
    /// The fault environment every cell ran under (`None` = fault-free).
    pub faults: Option<FaultSpec>,
}

/// Evaluates the (arrival-rate × strategy) grid rayon-parallel.
///
/// The sweep prepares one pricing estimator over its cluster (the
/// link-degraded one under link-mode degradation) and its model. Each
/// strategy runs as a fleet of its replicas behind the spec's router,
/// under the spec's fault environment, built as [`FleetInstance::new`]
/// builds one (bar the link-mode refusal) over that shared estimator.
/// Each cell leases the estimator's price table of its TP and precision
/// for its run and hands it back warm, so a worker prices each serving
/// shape of a (TP, precision) once, whichever strategy or rate cell meets
/// it first, and the decode rows behind those prices are computed once
/// per sweep. Prices are pure functions of their shapes, so each cell
/// reports exactly what a lone [`FleetInstance`] of its strategy reports
/// for its trace, and the report is byte-identical across
/// `RAYON_NUM_THREADS` settings.
/// A strategy that cannot serve goes to the report's `infeasible` list
/// with the constructor's reason, and so does one with a cell that fails:
/// a fault spec that never lets its fleet finish (outages that leave no
/// uptime long enough to complete an iteration in, or uptimes below the
/// clock's resolution), or slowdowns whose figures overflow. Its reason
/// is the [`crate::ServeError`] of its first failing rate, and the
/// frontier is drawn over the other strategies' curves.
///
/// # Panics
///
/// Panics, with the reason, on a spec [`LoadSweepSpec::validate`] refuses.
#[must_use]
pub fn load_sweep(
    cluster: &ClusterSpec,
    model: &Arc<ModelConfig>,
    spec: &LoadSweepSpec,
) -> LoadSweepReport {
    if let Err(reason) = spec.validate() {
        panic!("{reason}");
    }
    // Under link-mode degradation every cell is priced over the
    // bandwidth-degraded cluster (the report keeps the original cluster
    // name; the spec in `faults` records why the links are thinner).
    let degraded = spec
        .faults
        .as_ref()
        .and_then(|f| f.degraded_cluster(cluster));
    let cluster = degraded.as_ref().unwrap_or(cluster);
    let estimator = PreparedInferenceEstimator::for_serving(cluster, Arc::clone(model));
    run_grid(cluster, model, spec, &Arc::new(estimator))
}

/// [`load_sweep`] past its spec checks: every strategy prices through
/// `estimator`, which must be prepared for serving over `cluster` and
/// `model`.
fn run_grid<'a>(
    cluster: &'a ClusterSpec,
    model: &Arc<ModelConfig>,
    spec: &LoadSweepSpec,
    estimator: &Arc<PreparedInferenceEstimator<'a>>,
) -> LoadSweepReport {
    // --- phase 1: one validated fleet per strategy ----------------------
    // A strategy that cannot serve, an unsupported precision included, is
    // infeasible with the constructor's reason, not a mid-grid failure.
    let prepared: Vec<Result<FleetInstance<'_>, ServeError>> = spec
        .strategies
        .par_iter()
        .map(|s| {
            let config = fleet_config(spec, *s);
            FleetInstance::with_estimator(cluster, Arc::clone(model), config, Arc::clone(estimator))
        })
        .collect();
    let mut instances: Vec<(LoadStrategy, FleetInstance<'_>)> = Vec::new();
    let mut infeasible = Vec::new();
    for (s, outcome) in spec.strategies.iter().zip(prepared) {
        match outcome {
            Ok(instance) => instances.push((*s, instance)),
            Err(e) => infeasible.push(InfeasibleStrategy::new(*s, e.to_string())),
        }
    }

    // --- phase 2: the grid, cells in parallel ---------------------------
    // Traces depend on the rate alone, not the strategy: generate each
    // once and share it by reference across the row of cells (a sweep
    // therefore holds rates × requests requests in memory, 32 B each:
    // see the size assertion beside `Request`). When nothing can run none
    // is generated: every byte would be thrown away.
    let traces: Vec<Vec<crate::Request>> = if instances.is_empty() {
        Vec::new()
    } else {
        spec.rates
            .par_iter()
            .map(|&rate| spec.trace(rate).generate())
            .collect()
    };
    let cells: Vec<(usize, usize)> = (0..instances.len())
        .flat_map(|si| (0..spec.rates.len()).map(move |ri| (si, ri)))
        .collect();
    let cells: Vec<Result<LoadPoint, ServeError>> = cells
        .into_par_iter()
        .map(|(si, ri)| {
            // Every cell — single replica included — runs through the
            // fleet loop; a 1-replica fleet is bit-identical to the
            // single-instance path (pinned by
            // `one_replica_fleet_equals_single_instance`), so there is
            // one code path to keep correct.
            let (strategy, fleet) = &instances[si];
            // Phase 1 validated each strategy, its precision included,
            // and the spec's validation keeps the traces valid, so what
            // can still fail is the fault spec: a fleet that never
            // finishes, or slowdowns whose figures overflow.
            let report = fleet.simulate(&traces[ri])?;
            Ok(LoadPoint::from_fleet(*strategy, spec.rates[ri], &report))
        })
        .collect();

    // --- phase 3: curves and the SLO-goodput frontier -------------------
    // A strategy with a failing cell has no curve: it is infeasible, for
    // the reason of its first failing rate.
    let mut curves: Vec<SaturationCurve> = Vec::new();
    for ((s, _), row) in instances.iter().zip(cells.chunks(spec.rates.len())) {
        match row.iter().map(|cell| cell.as_ref().copied()).collect() {
            Ok(points) => curves.push(SaturationCurve {
                tp: s.tp,
                precision: s.precision,
                replicas: s.replicas,
                gpus: s.gpus(),
                kv: s.kv,
                scheduler: s.scheduler,
                points,
            }),
            Err(e) => infeasible.push(InfeasibleStrategy::new(*s, e.to_string())),
        }
    }
    let points: Vec<LoadPoint> = curves
        .iter()
        .flat_map(|c| c.points.iter().copied())
        .collect();
    // Minimize devices, maximize goodput (negated). The tie-break runs on
    // point identity — (tp, precision, replicas, kv, scheduler, rate) —
    // so the frontier is permutation invariant like the strategy sweep's.
    let frontier = frontier_indices_by(
        &points,
        |p| (p.gpus as f64, -p.goodput_tokens_per_s),
        |a, b| {
            (a.tp, a.precision, a.replicas, a.block_tokens, a.scheduler)
                .cmp(&(b.tp, b.precision, b.replicas, b.block_tokens, b.scheduler))
                .then_with(|| a.offered_rate_per_s.total_cmp(&b.offered_rate_per_s))
        },
    )
    .into_iter()
    .map(|i| points[i])
    .collect();

    LoadSweepReport {
        model: model.name.clone(),
        cluster: cluster.name.clone(),
        seed: spec.seed,
        requests_per_point: spec.requests,
        slo: spec.slo,
        curves,
        frontier,
        infeasible,
        faults: spec.faults.clone(),
    }
}

impl LoadSweepSpec {
    /// Checks that [`load_sweep`] can run the spec.
    ///
    /// # Errors
    ///
    /// Returns the reason for a degenerate spec: no rates, no strategies,
    /// zero requests, a rate whose cell trace [`TraceSpec::validate`]
    /// refuses (a rate that is not finite and positive, or lengths,
    /// prefixes, priority classes, a context or a request count that no
    /// trace may have), or a fault spec [`FaultSpec::validate`] refuses.
    pub fn validate(&self) -> Result<(), String> {
        ensure(!self.rates.is_empty(), "a load sweep needs arrival rates")?;
        ensure(!self.strategies.is_empty(), "a load sweep needs strategies")?;
        ensure(self.requests > 0, "a load sweep needs requests")?;
        for &rate in &self.rates {
            self.trace(rate).validate()?;
        }
        self.faults.as_ref().map_or(Ok(()), check_faults)
    }

    /// The trace every cell at `rate` replays.
    fn trace(&self, rate: f64) -> TraceSpec {
        TraceSpec {
            seed: self.seed,
            requests: self.requests,
            arrival: ArrivalProcess::Poisson { rate_per_s: rate },
            prompt: self.prompt,
            output: self.output,
            prefixes: self.prefixes,
            priority_classes: self.priority_classes,
        }
    }
}

/// The fleet that runs `strategy`'s cells: its replicas behind the
/// sweep's router, under the sweep's fault environment. A cell's point
/// reads no per-request record, so none is kept.
fn fleet_config(spec: &LoadSweepSpec, strategy: LoadStrategy) -> FleetConfig {
    FleetConfig {
        replicas: strategy.replicas,
        router: spec.router,
        replica: ServeConfig::new(strategy.tp)
            .with_precision(strategy.precision)
            .with_slo(spec.slo)
            .with_records(RecordMode::Off)
            .with_kv(strategy.kv)
            .with_scheduler(strategy.scheduler),
        faults: spec.faults.clone().unwrap_or_else(FaultSpec::none),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeInstance, EXACT_MODE_LIMIT};
    use optimus_hw::presets;
    use optimus_model::presets as models;

    fn small_spec() -> LoadSweepSpec {
        LoadSweepSpec {
            seed: 42,
            requests: 48,
            prompt: LengthDist::Uniform { lo: 50, hi: 200 },
            output: LengthDist::Uniform { lo: 4, hi: 24 },
            rates: vec![0.5, 4.0, 32.0],
            strategies: vec![
                LoadStrategy::single(1, Precision::Fp16),
                LoadStrategy::single(2, Precision::Fp16),
            ],
            slo: SloSpec::default(),
            router: RouterPolicy::RoundRobin,
            faults: None,
            prefixes: None,
            priority_classes: 1,
        }
    }

    #[test]
    fn grid_shape_and_pairing() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let report = load_sweep(&cluster, &model, &small_spec());
        assert_eq!(report.curves.len(), 2);
        assert!(report.infeasible.is_empty());
        for curve in &report.curves {
            assert_eq!(curve.points.len(), 3);
            for (p, rate) in curve.points.iter().zip([0.5, 4.0, 32.0]) {
                assert_eq!(p.offered_rate_per_s, rate);
                assert_eq!(p.completed + p.rejected, 48);
            }
        }
    }

    /// `load-sweep --tp-list 1,2 --mtbf 0.05 --mttr 10`: no cell can
    /// finish, so both strategies are infeasible, with the MTBF in the
    /// reason, instead of the sweep panicking.
    #[test]
    fn a_cell_that_cannot_finish_makes_its_strategy_infeasible() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let spec = LoadSweepSpec {
            requests: 10,
            prompt: LengthDist::Fixed { tokens: 200 },
            output: LengthDist::Fixed { tokens: 64 },
            rates: vec![4.0],
            faults: Some(FaultSpec::crashes(0, 0.05, 10.0)),
            ..small_spec()
        };
        let report = load_sweep(&cluster, &model, &spec);
        assert!(report.curves.is_empty() && report.frontier.is_empty());
        assert_eq!(report.infeasible.len(), 2);
        for (strategy, tp) in report.infeasible.iter().zip([1, 2]) {
            assert_eq!(strategy.tp, tp);
            assert!(
                strategy.reason.contains("MTBF 0.05 s"),
                "{}",
                strategy.reason
            );
        }
    }

    #[test]
    fn throughput_saturates_with_offered_load() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let report = load_sweep(&cluster, &model, &small_spec());
        for curve in &report.curves {
            // Below the knee the served rate tracks the offered rate;
            // past it the curve flattens — it must never exceed offered.
            for p in &curve.points {
                assert!(
                    p.requests_per_s <= p.offered_rate_per_s * 1.5,
                    "served {} at offered {}",
                    p.requests_per_s,
                    p.offered_rate_per_s
                );
            }
            let served: Vec<f64> = curve.points.iter().map(|p| p.requests_per_s).collect();
            assert!(
                served.windows(2).all(|w| w[1] >= w[0] * 0.9),
                "served rate should not collapse as load grows: {served:?}"
            );
        }
    }

    #[test]
    fn frontier_is_minimal_and_complete_over_the_grid() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let report = load_sweep(&cluster, &model, &small_spec());
        let all: Vec<&LoadPoint> = report.curves.iter().flat_map(|c| &c.points).collect();
        let dominates = |a: &LoadPoint, b: &LoadPoint| {
            a.gpus <= b.gpus
                && a.goodput_tokens_per_s >= b.goodput_tokens_per_s
                && (a.gpus < b.gpus || a.goodput_tokens_per_s > b.goodput_tokens_per_s)
        };
        for (i, a) in report.frontier.iter().enumerate() {
            for (j, b) in report.frontier.iter().enumerate() {
                assert!(
                    i == j || !dominates(a, b),
                    "frontier member {i} dominates {j}"
                );
            }
        }
        for p in all {
            assert!(
                report.frontier.iter().any(|f| {
                    dominates(f, p)
                        || (f.gpus == p.gpus && f.goodput_tokens_per_s == p.goodput_tokens_per_s)
                }),
                "point escapes the frontier"
            );
        }
    }

    #[test]
    fn infeasible_strategies_are_reported_not_fatal() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut spec = small_spec();
        spec.strategies
            .push(LoadStrategy::single(64, Precision::Fp16));
        let report = load_sweep(&cluster, &model, &spec);
        assert_eq!(report.curves.len(), 2);
        assert_eq!(report.infeasible.len(), 1);
        assert_eq!(report.infeasible[0].tp, 64);
        assert!(report.infeasible[0].reason.contains("exceeds"));
    }

    /// A precision the device lacks (Ampere has no FP8) fails the
    /// instance's construction with an estimator error, and the sweep
    /// lists the strategy as infeasible while the others still run,
    /// within [`EXACT_MODE_LIMIT`] requests per cell and past it alike.
    #[test]
    fn unsupported_precision_is_an_infeasible_strategy() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let err = ServeInstance::new(
            &cluster,
            Arc::clone(&model),
            ServeConfig::new(1).with_precision(Precision::Fp8),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Estimator(_)), "{err}");
        assert!(
            err.to_string().contains("no peak throughput for FP8"),
            "{err}"
        );

        let mut spec = small_spec();
        spec.strategies
            .push(LoadStrategy::single(1, Precision::Fp8));
        let report = load_sweep(&cluster, &model, &spec);
        assert_eq!(report.curves.len(), 2);
        assert_eq!(report.infeasible.len(), 1);
        assert_eq!(report.infeasible[0].precision, Precision::Fp8);
        assert!(
            report.infeasible[0]
                .reason
                .contains("no peak throughput for FP8"),
            "{}",
            report.infeasible[0].reason
        );

        let streaming = LoadSweepSpec {
            requests: EXACT_MODE_LIMIT + 1,
            prompt: LengthDist::Fixed { tokens: 20 },
            output: LengthDist::Fixed { tokens: 2 },
            rates: vec![400.0],
            strategies: vec![
                LoadStrategy::single(1, Precision::Fp16),
                LoadStrategy::single(1, Precision::Fp8),
            ],
            ..small_spec()
        };
        let report = load_sweep(&cluster, &model, &streaming);
        assert_eq!(report.curves.len(), 1);
        assert_eq!(report.curves[0].points[0].completed, streaming.requests);
        assert_eq!(report.infeasible.len(), 1);
        assert_eq!(report.infeasible[0].precision, Precision::Fp8);
        assert!(
            report.infeasible[0]
                .reason
                .contains("no peak throughput for FP8"),
            "{}",
            report.infeasible[0].reason
        );
    }

    /// A strategy prepared for a sweep, over the sweep's shared
    /// estimator, must run its cell's trace exactly as a fresh instance of
    /// the same strategy does, past [`EXACT_MODE_LIMIT`] requests too.
    /// Regression: the two once priced decode from cost grids sized from
    /// different bounds (the length distributions' and the trace's), so
    /// one strategy priced one decode iteration two ways (224,680 vs
    /// 224,681 decode iterations here, where the trace's longest request
    /// is 4,059 tokens and the distribution's 4,064).
    #[test]
    fn prepared_strategy_runs_its_cell_like_a_fresh_instance() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let spec = LoadSweepSpec {
            requests: 12_000,
            prompt: LengthDist::Uniform { lo: 50, hi: 4000 },
            output: LengthDist::Uniform { lo: 8, hi: 64 },
            rates: vec![1.0],
            strategies: vec![LoadStrategy::single(1, Precision::Fp16)],
            ..small_spec()
        };
        let trace = spec.trace(spec.rates[0]).generate();
        let estimator = Arc::new(PreparedInferenceEstimator::for_serving(
            &cluster,
            Arc::clone(&model),
        ));
        let config = fleet_config(&spec, spec.strategies[0]);
        let prepared =
            FleetInstance::with_estimator(&cluster, Arc::clone(&model), config.clone(), estimator)
                .unwrap();
        let fresh = FleetInstance::new(&cluster, Arc::clone(&model), config).unwrap();
        assert!(trace.len() > EXACT_MODE_LIMIT);
        assert_eq!(
            prepared.simulate(&trace).unwrap(),
            fresh.simulate(&trace).unwrap()
        );
    }

    /// The replicas axis: a TP1×2 strategy occupies 2 GPUs like TP2, and
    /// at saturation replication's goodput beats TP scaling's, so the
    /// frontier carries at least one multi-replica point.
    #[test]
    fn replicas_axis_reaches_the_frontier() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut spec = small_spec();
        spec.strategies = vec![
            LoadStrategy::single(1, Precision::Fp16),
            LoadStrategy::single(2, Precision::Fp16),
            LoadStrategy::single(1, Precision::Fp16).with_replicas(2),
            LoadStrategy::single(1, Precision::Fp16).with_replicas(4),
        ];
        spec.rates = vec![4.0, 32.0, 128.0];
        let report = load_sweep(&cluster, &model, &spec);
        assert_eq!(report.curves.len(), 4);
        for curve in &report.curves {
            assert_eq!(curve.gpus, curve.tp * curve.replicas);
            for p in &curve.points {
                assert_eq!(p.gpus, p.tp * p.replicas);
                assert_eq!(p.completed + p.rejected, spec.requests);
            }
        }
        assert!(
            report.frontier.iter().any(|p| p.replicas > 1),
            "replication must reach the SLO-goodput frontier: {:?}",
            report
                .frontier
                .iter()
                .map(|p| (p.tp, p.replicas, p.goodput_tokens_per_s))
                .collect::<Vec<_>>()
        );
    }

    /// Regression: a sweep whose every strategy is infeasible used to
    /// generate all rate traces anyway — with an absurd per-cell request
    /// count that meant attempting a multi-terabyte allocation. It must
    /// return the reasons without generating anything.
    #[test]
    fn all_infeasible_sweep_skips_trace_generation() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut spec = small_spec();
        spec.strategies = vec![
            LoadStrategy::single(64, Precision::Fp16),
            LoadStrategy::single(1, Precision::Fp16).with_replicas(0),
        ];
        // The most requests a cell may hold: generating them would take
        // rates × 2^32 requests of 32 bytes (~137 GB a rate).
        spec.requests = crate::MAX_TRACE_REQUESTS;
        let report = load_sweep(&cluster, &model, &spec);
        assert!(report.curves.is_empty());
        assert!(report.frontier.is_empty());
        assert_eq!(report.infeasible.len(), 2);
        assert!(report.infeasible[0].reason.contains("exceeds"));
        assert!(report.infeasible[1].reason.contains("replica"));
    }

    /// Regression: a zero-TP strategy panicked on a rayon worker, in
    /// `ServeConfig::new`'s assert. It is infeasible, with the reason,
    /// as a zero-replica one is, and the other strategies still run.
    #[test]
    fn zero_tp_strategy_is_infeasible() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut spec = small_spec();
        spec.strategies
            .push(LoadStrategy::single(0, Precision::Fp16));
        let report = load_sweep(&cluster, &model, &spec);
        assert_eq!(report.curves.len(), 2);
        assert_eq!(report.infeasible.len(), 1);
        assert_eq!(report.infeasible[0].tp, 0);
        assert!(
            report.infeasible[0]
                .reason
                .contains("tensor-parallel degree of at least 1"),
            "{}",
            report.infeasible[0].reason
        );
    }

    /// `LoadSweepSpec::validate` refuses each degenerate spec with its
    /// reason, the trace rules in `TraceSpec::validate`'s words for any
    /// rate of the grid, and `load_sweep` panics with that reason.
    #[test]
    fn validate_refuses_each_degenerate_spec() {
        let refused = |edit: fn(&mut LoadSweepSpec), reason: &str| {
            let mut spec = small_spec();
            edit(&mut spec);
            let err = spec.validate().unwrap_err();
            assert!(err.contains(reason), "{err}");
            let cluster = presets::dgx_a100_hdr_cluster();
            let model = Arc::new(models::llama2_7b());
            let panic = std::panic::catch_unwind(|| load_sweep(&cluster, &model, &spec))
                .expect_err("load_sweep runs only what validate accepts");
            assert_eq!(panic.downcast_ref::<String>(), Some(&err));
        };
        assert_eq!(small_spec().validate(), Ok(()));
        refused(|s| s.rates.clear(), "needs arrival rates");
        refused(|s| s.strategies.clear(), "needs strategies");
        refused(|s| s.requests = 0, "needs requests");
        refused(
            |s| s.rates[2] = f64::INFINITY,
            "finite and positive, got inf",
        );
        refused(|s| s.rates[1] = f64::NAN, "finite and positive, got NaN");
        refused(
            |s| s.prompt = LengthDist::Fixed { tokens: 0 },
            "prompt length must be positive",
        );
        refused(
            |s| s.output = LengthDist::Uniform { lo: 9, hi: 3 },
            "output range must satisfy 0 < lo <= hi",
        );
        refused(
            |s| {
                s.prefixes = Some(PrefixSpec {
                    pool: 4,
                    tokens: 16,
                    rate: 2.0,
                });
            },
            "prefix rate must lie in [0, 1]",
        );
        refused(
            |s| s.requests = crate::MAX_TRACE_REQUESTS + 1,
            "a trace holds at most",
        );
        refused(
            |s| s.faults = Some(FaultSpec::crashes(0, 1e-320, 10.0)),
            "fault spec: MTBF 1e-320 s is too short",
        );
    }

    /// The fault axis makes the frontier availability-aware: under crash
    /// churn the goodput landscape must disagree with the fault-free one
    /// on at least one frontier point, and the churned cells must report
    /// lost availability.
    #[test]
    fn faulted_frontier_differs_from_fault_free() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut spec = small_spec();
        spec.requests = 300;
        spec.rates = vec![20.0, 60.0];
        spec.strategies = vec![
            LoadStrategy::single(2, Precision::Fp16),
            LoadStrategy::single(1, Precision::Fp16).with_replicas(2),
        ];
        let clean = load_sweep(&cluster, &model, &spec);
        let faults = FaultSpec::crashes(3, 5.0, 2.0);
        spec.faults = Some(faults.clone());
        let churned = load_sweep(&cluster, &model, &spec);
        assert_eq!(churned.faults, Some(faults));
        assert!(clean
            .curves
            .iter()
            .flat_map(|c| &c.points)
            .all(|p| p.availability == 1.0 && p.requeues == 0));
        assert!(
            churned
                .curves
                .iter()
                .flat_map(|c| &c.points)
                .any(|p| p.availability < 1.0),
            "5 s MTBF must cost availability somewhere in the grid"
        );
        let shape = |r: &LoadSweepReport| -> Vec<(usize, f64)> {
            r.frontier
                .iter()
                .map(|p| (p.gpus, p.goodput_tokens_per_s))
                .collect()
        };
        assert_ne!(
            shape(&clean),
            shape(&churned),
            "crash churn must move the SLO-goodput frontier"
        );
    }

    #[test]
    #[should_panic(expected = "fault spec: MTTR must be positive")]
    fn degenerate_fault_spec_is_rejected() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut spec = small_spec();
        spec.faults = Some(FaultSpec::crashes(0, 10.0, 0.0));
        let _ = load_sweep(&cluster, &model, &spec);
    }

    #[test]
    #[should_panic(expected = "arrival parameter must be finite and positive")]
    fn degenerate_rates_are_rejected() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut spec = small_spec();
        spec.rates = vec![0.0];
        let _ = load_sweep(&cluster, &model, &spec);
    }

    /// Regression: a prompt length whose context overflows used to reach
    /// the cells and panic there, in a trace-validity `expect`.
    #[test]
    #[should_panic(expected = "context overflows")]
    fn overflowing_context_is_rejected_up_front() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut spec = small_spec();
        spec.prompt = LengthDist::Fixed { tokens: usize::MAX };
        let _ = load_sweep(&cluster, &model, &spec);
    }

    /// The tentpole acceptance pin: on the *same* prefixed trace grid,
    /// block-granular KV with prefix caching strictly beats whole-lifetime
    /// reservations on SLO goodput at a saturated rate point. Reserved
    /// admission must hold back ⌈prompt+output⌉ worth of KV per admit and
    /// re-prefills every shared prefix; the paged strategy admits on
    /// prompt blocks, grows during decode, and skips cached prefix
    /// prefills entirely.
    #[test]
    fn paged_prefix_caching_beats_reserved_goodput_at_saturation() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut spec = small_spec();
        spec.seed = 11;
        spec.requests = 300;
        spec.prompt = LengthDist::Uniform { lo: 300, hi: 900 };
        spec.output = LengthDist::Uniform { lo: 16, hi: 48 };
        spec.rates = vec![8.0, 16.0];
        spec.slo = SloSpec {
            ttft: Time::from_millis(4000.0),
            tpot: Time::from_millis(100.0),
        };
        spec.prefixes = Some(crate::PrefixSpec {
            pool: 4,
            tokens: 256,
            rate: 0.7,
        });
        spec.strategies = vec![
            LoadStrategy::single(1, Precision::Fp16),
            LoadStrategy::single(1, Precision::Fp16).with_kv(KvSpec::paged(32)),
        ];
        let report = load_sweep(&cluster, &model, &spec);
        assert_eq!(report.curves.len(), 2);
        let reserved = &report.curves[0].points;
        let paged = &report.curves[1].points;
        // Identical work: the trace axis is shared, so prefix hits show
        // up only where a cache exists to serve them.
        assert!(reserved.iter().all(|p| p.prefix_hits == 0));
        assert!(paged.iter().all(|p| p.prefix_hits > 0));
        for (r, p) in reserved.iter().zip(paged) {
            assert!(
                p.goodput_tokens_per_s >= r.goodput_tokens_per_s,
                "paging + prefix caching must never lose goodput: {} vs {} at rate {}",
                p.goodput_tokens_per_s,
                r.goodput_tokens_per_s,
                r.offered_rate_per_s
            );
        }
        // The saturated point: the reserved strategy's attainment has
        // collapsed while the paged one still meets the SLO for most
        // requests — a strict goodput win.
        let (r, p) = (&reserved[1], &paged[1]);
        assert!(
            r.attainment < 0.5,
            "rate 16 must saturate the reserved strategy (attainment {})",
            r.attainment
        );
        assert!(
            p.goodput_tokens_per_s > 2.0 * r.goodput_tokens_per_s,
            "paging + prefix caching must strictly lift saturated goodput: {} vs {}",
            p.goodput_tokens_per_s,
            r.goodput_tokens_per_s
        );
    }

    /// The KV and scheduler axes land in every layer of the report:
    /// curves carry the strategy's regime, points carry block size and
    /// scheduler, and the frontier tie-break stays deterministic with
    /// same-shape strategies differing only in regime.
    #[test]
    fn kv_and_scheduler_axes_thread_through_the_report() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut spec = small_spec();
        spec.priority_classes = 3;
        spec.strategies = vec![
            LoadStrategy::single(1, Precision::Fp16),
            LoadStrategy::single(1, Precision::Fp16)
                .with_kv(KvSpec::paged(16))
                .with_scheduler(Scheduler::Sjf),
            LoadStrategy::single(1, Precision::Fp16)
                .with_kv(KvSpec::paged(16).with_policy(crate::PreemptPolicy::Swap))
                .with_scheduler(Scheduler::PriorityPreempt),
        ];
        let report = load_sweep(&cluster, &model, &spec);
        assert_eq!(report.curves.len(), 3);
        assert_eq!(report.curves[0].kv, KvSpec::reserved());
        assert_eq!(report.curves[1].scheduler, Scheduler::Sjf);
        assert_eq!(report.curves[2].scheduler, Scheduler::PriorityPreempt);
        for curve in &report.curves {
            for p in &curve.points {
                assert_eq!(p.block_tokens, curve.kv.block_tokens);
                assert_eq!(p.scheduler, curve.scheduler);
                assert_eq!(p.completed + p.rejected, spec.requests);
            }
        }
        // Priority-preempt over reserved KV is infeasible, not fatal.
        spec.strategies.push(
            LoadStrategy::single(1, Precision::Fp16).with_scheduler(Scheduler::PriorityPreempt),
        );
        let report = load_sweep(&cluster, &model, &spec);
        assert_eq!(report.curves.len(), 3);
        assert_eq!(report.infeasible.len(), 1);
        assert!(report.infeasible[0].reason.contains("priority-preempt"));
    }

    /// Every strategy of a sweep prices through one estimator. Two
    /// strategies that differ only in scheduler, over one priority class,
    /// run identical batches, so after the sweep its estimator holds
    /// exactly the memo keys one lone instance of either holds after the
    /// same cells — where one estimator per strategy leaves the sweep's
    /// untouched.
    #[test]
    fn strategies_share_one_pricing_memo() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut spec = small_spec();
        let fifo = LoadStrategy::single(1, Precision::Fp16).with_kv(KvSpec::paged(16));
        spec.strategies = vec![fifo, fifo.with_scheduler(Scheduler::Priority)];
        let shared = Arc::new(PreparedInferenceEstimator::for_serving(
            &cluster,
            Arc::clone(&model),
        ));
        let report = run_grid(&cluster, &model, &spec, &shared);
        for (a, b) in report.curves[0].points.iter().zip(&report.curves[1].points) {
            assert_eq!(
                *a,
                LoadPoint {
                    scheduler: Scheduler::Fifo,
                    ..*b
                },
                "one priority class: priority admits in FIFO order"
            );
        }

        let lone = ServeInstance::new(
            &cluster,
            Arc::clone(&model),
            ServeConfig::new(1).with_slo(spec.slo).with_kv(fifo.kv),
        )
        .unwrap();
        for &rate in &spec.rates {
            lone.simulate(&spec.trace(rate).generate()).unwrap();
        }
        let keys = lone.estimator().cached_keys();
        assert!(
            keys > 1,
            "the cells priced past the constructor's decode row"
        );
        assert_eq!(shared.cached_keys(), keys);
    }

    /// Sharing one estimator never leaks a price between strategies: over
    /// reserved and paged KV with a prefix pool, FIFO and priority
    /// admission, TP1, TP2 and two TP1 replicas behind the
    /// least-outstanding router, fault-free and under crashes, every
    /// cell's point equals the one a fresh [`FleetInstance`] of its
    /// strategy's fleet gives on that cell's trace, and an FP8 strategy
    /// the device cannot serve is still listed infeasible.
    #[test]
    fn shared_memo_cells_equal_fresh_instances() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut spec = small_spec();
        spec.requests = 120;
        spec.rates = vec![4.0, 64.0];
        spec.priority_classes = 3;
        spec.router = RouterPolicy::LeastOutstanding;
        spec.prefixes = Some(PrefixSpec {
            pool: 3,
            tokens: 64,
            rate: 0.7,
        });
        spec.strategies = Vec::new();
        for kv in [KvSpec::reserved(), KvSpec::paged(16)] {
            for scheduler in [Scheduler::Fifo, Scheduler::Priority] {
                spec.strategies.push(
                    LoadStrategy::single(1, Precision::Fp16)
                        .with_kv(kv)
                        .with_scheduler(scheduler),
                );
            }
        }
        let paged = LoadStrategy::single(1, Precision::Fp16).with_kv(KvSpec::paged(16));
        spec.strategies.push(LoadStrategy { tp: 2, ..paged });
        spec.strategies
            .push(paged.with_scheduler(Scheduler::Priority).with_replicas(2));
        spec.strategies
            .push(LoadStrategy::single(1, Precision::Fp8));
        let traces: Vec<Vec<crate::Request>> = spec
            .rates
            .iter()
            .map(|&r| spec.trace(r).generate())
            .collect();

        for faults in [None, Some(FaultSpec::crashes(3, 5.0, 2.0))] {
            spec.faults = faults;
            let report = load_sweep(&cluster, &model, &spec);
            assert_eq!(report.infeasible.len(), 1);
            assert_eq!(report.infeasible[0].precision, Precision::Fp8);
            assert_eq!(report.curves.len(), spec.strategies.len() - 1);
            let points = || report.curves.iter().flat_map(|c| &c.points);
            assert_eq!(
                points().any(|p| p.requeues > 0),
                spec.faults.is_some(),
                "crashes requeue work in some cell, and only under faults"
            );
            for (curve, strategy) in report.curves.iter().zip(&spec.strategies) {
                let fresh = FleetInstance::new(
                    &cluster,
                    Arc::clone(&model),
                    fleet_config(&spec, *strategy),
                )
                .unwrap();
                for ((point, trace), &rate) in curve.points.iter().zip(&traces).zip(&spec.rates) {
                    assert_eq!(
                        *point,
                        LoadPoint::from_fleet(*strategy, rate, &fresh.simulate(trace).unwrap()),
                        "{}× TP{} {} {:?} at {rate} req/s, faults {:?}",
                        strategy.replicas,
                        strategy.tp,
                        strategy.kv,
                        strategy.scheduler,
                        spec.faults
                    );
                }
            }
        }
    }
}
