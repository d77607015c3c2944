//! The discrete-event continuous-batching scheduler.
//!
//! Time advances iteration by iteration, the way an inference server's
//! model-execution loop does:
//!
//! 1. arrivals up to the current clock join the admission queue;
//! 2. the scheduler admits queued requests **FIFO** while their full KV
//!    reservation (prompt + requested output tokens) fits the device's KV
//!    budget — reservations are released only at completion, so the budget
//!    can never be exceeded mid-decode;
//! 3. if any admitted request still needs its prompt summarized, the next
//!    iteration is a **prefill** of the oldest such request (prefill is
//!    prioritized, the Orca/vLLM default); otherwise every running request
//!    advances one token in a **decode** iteration priced at the batch's
//!    aggregate context.
//!
//! The event loop is streaming: each replica engine borrows the trace and
//! holds `u32` indices into it, FIFO admission is a cursor over those
//! indices (ranked schedulers keep a heap), in-flight state lives in a
//! recycled slot arena,
//! decode completions are scheduled on an epoch ring (every request costs
//! O(1) bookkeeping per iteration it participates in, with no per-member
//! scans), and per-request records plus exact percentile buffers are kept
//! only within [`EXACT_MODE_LIMIT`] (or on request). Every iteration is
//! priced exactly, a decode at its own (batch, context) and a prefill at
//! its prompt length, from a dense price table that the run leases from
//! the instance's [`PreparedInferenceEstimator`], shares across its
//! replicas and hands back warm for the estimator's next run of the same
//! TP and precision. A read is a vector index and a NaN test with no
//! lock, and an entry is priced once per table. A price depends on the
//! strategy and the iteration's shape alone, never on how long the trace
//! is. Each run is single-threaded and all randomness lives in the seeded
//! trace, so reports are byte-identical across runs and thread counts (a
//! price does not depend on which run or thread filled it).

use crate::engine::ReportInputs;
use crate::fleet::run_fleet;
use crate::report::ratio;
use crate::trace::check_trace_len;
use crate::{
    FaultSpec, FleetReport, KvSpec, KvUsage, QueueSample, QueueStats, Request, RouterPolicy,
    Scheduler, ServeReport, SloSpec,
};
use optimus_hw::{ClusterSpec, HwError, Precision};
use optimus_infer::{LeasedPrices, PreparedInferenceEstimator};
use optimus_memory::{inference_memory, kv_cache_bytes};
use optimus_model::ModelConfig;
use optimus_units::{Bytes, Time};
use std::sync::Arc;

/// Cap on the queue-depth samples retained in a [`ServeReport`]; longer
/// runs are down-sampled with an even stride (plus the final sample, so
/// the series always ends at trace end).
pub const MAX_QUEUE_SAMPLES: usize = 128;

/// Trace size up to which a report keeps per-request records by default
/// ([`RecordMode::Auto`]) and selects latency percentiles exactly. Above
/// it records default off and percentiles come from log histograms, sized
/// for million-request traces. Decode pricing does not depend on it.
pub const EXACT_MODE_LIMIT: usize = 10_000;

/// The most requests one simulated trace may hold: replica engines index
/// the trace with `u32`s. A longer trace is [`ServeError::InvalidTrace`],
/// and [`crate::TraceSpec::validate`] refuses a longer spec, so every id
/// it generates fits [`Request::id`].
pub const MAX_TRACE_REQUESTS: usize = u32::MAX as usize;

/// Whether per-request [`crate::RequestMetrics`] records are collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordMode {
    /// Records within [`EXACT_MODE_LIMIT`] requests, none beyond.
    #[default]
    Auto,
    /// Always collect (a million-request trace stores a million records).
    On,
    /// Never collect; `per_request` comes back empty.
    Off,
}

/// Serving-instance configuration: the strategy axes of one replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Serving precision.
    pub precision: Precision,
    /// The latency objective goodput is measured against.
    pub slo: SloSpec,
    /// Per-request record collection.
    pub records: RecordMode,
    /// KV-cache memory regime (legacy whole-lifetime reservation, or
    /// block-granular paging with preemption).
    pub kv: KvSpec,
    /// Admission-queue ordering.
    pub scheduler: Scheduler,
}

impl ServeConfig {
    /// A TP-`tp` FP16 instance with the default interactive SLO and
    /// automatic fidelity.
    #[must_use]
    pub fn new(tp: usize) -> Self {
        Self {
            tp,
            precision: Precision::Fp16,
            slo: SloSpec::default(),
            records: RecordMode::default(),
            kv: KvSpec::default(),
            scheduler: Scheduler::default(),
        }
    }

    /// Sets the serving precision.
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the SLO.
    #[must_use]
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = slo;
        self
    }

    /// Sets the record-collection mode.
    #[must_use]
    pub fn with_records(mut self, records: RecordMode) -> Self {
        self.records = records;
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
}

/// Why a simulation could not run at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The sharded weights alone overflow the device.
    WeightsDontFit {
        /// Human-readable description with the sizes involved.
        detail: String,
    },
    /// The replica, fleet or fault configuration cannot serve (a
    /// tensor-parallel degree of 0 or beyond a node among them).
    InvalidConfig(String),
    /// The estimator rejected the configuration (e.g. unsupported
    /// precision).
    Estimator(String),
    /// The trace is not sorted by arrival time, holds more than
    /// [`MAX_TRACE_REQUESTS`] requests, or a request has a zero-length
    /// prompt or output; or the [`crate::TraceSpec`] it would be
    /// generated from is degenerate (see [`crate::TraceSpec::validate`]).
    InvalidTrace(String),
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::WeightsDontFit { detail } => write!(f, "{detail}"),
            Self::InvalidConfig(msg) | Self::Estimator(msg) | Self::InvalidTrace(msg) => {
                write!(f, "{msg}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// The serving error of a price the estimator refused.
pub(crate) fn estimator_error(e: HwError) -> ServeError {
    ServeError::Estimator(e.to_string())
}

/// A validated serving instance: one (cluster, model, strategy) triple
/// with its prepared estimator. Build once, simulate many traces — the
/// load-sweep engine runs every arrival rate of a strategy through one
/// shared instance. Each run leases the estimator's price table of the
/// instance's TP and precision and hands it back warm, so a run reads
/// the prices the runs before it computed; runs on several threads at
/// once each lease a table of their own. The estimator sits behind an
/// [`Arc`]: [`ServeInstance::new`] prepares one of its own, and the
/// load-sweep engine hands every strategy of a sweep the same one, whose
/// tables are kept per TP and precision.
#[derive(Debug)]
pub struct ServeInstance<'a> {
    cluster: &'a ClusterSpec,
    model: Arc<ModelConfig>,
    config: ServeConfig,
    weights: Bytes,
    budget: Bytes,
    /// Unsharded KV bytes of one token, `kv_cache_bytes(model, 1, 1,
    /// precision)`: every KV footprint the instance prices is a multiple.
    token_kv: f64,
    estimator: Arc<PreparedInferenceEstimator<'a>>,
}

impl<'a> ServeInstance<'a> {
    /// Validates the strategy and prepares the pricing estimator.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the configuration cannot serve at all:
    /// a zero `tp`, the priority-preempt scheduler over reserved KV, `tp`
    /// beyond a node, sharded weights that overflow the device, or
    /// ([`ServeError::Estimator`]) a device that lacks the serving
    /// precision.
    pub fn new(
        cluster: &'a ClusterSpec,
        model: Arc<ModelConfig>,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        let estimator = PreparedInferenceEstimator::for_serving(cluster, Arc::clone(&model));
        Self::with_estimator(cluster, model, config, Arc::new(estimator))
    }

    /// Like [`ServeInstance::new`], pricing through `estimator`, which
    /// must be prepared for serving over `cluster` and `model`. Its
    /// prices are pure functions of their shapes, so a shared estimator
    /// prices every iteration exactly as a fresh one would.
    ///
    /// # Errors
    ///
    /// As [`ServeInstance::new`].
    pub(crate) fn with_estimator(
        cluster: &'a ClusterSpec,
        model: Arc<ModelConfig>,
        config: ServeConfig,
        estimator: Arc<PreparedInferenceEstimator<'a>>,
    ) -> Result<Self, ServeError> {
        let tp = config.tp;
        let precision = config.precision;
        if tp == 0 {
            return Err(ServeError::InvalidConfig(
                "a replica needs a tensor-parallel degree of at least 1".to_owned(),
            ));
        }
        if config.scheduler == Scheduler::PriorityPreempt && config.kv.is_reserved() {
            return Err(ServeError::InvalidConfig(
                "the priority-preempt scheduler needs a paged KvSpec: under full \
                 reservation decode-time OOM cannot happen, so there is nothing to preempt"
                    .to_owned(),
            ));
        }
        if tp > cluster.node.gpus_per_node {
            return Err(ServeError::InvalidConfig(format!(
                "tensor-parallel degree {tp} exceeds the {} GPUs of a node",
                cluster.node.gpus_per_node
            )));
        }
        let capacity = cluster.accelerator().dram.capacity;
        // Weights via the shared footprint model (batch/context do not
        // shape the weight term).
        let weights = inference_memory(&model, 1, 1, tp, precision).weights;
        if weights >= capacity {
            return Err(ServeError::WeightsDontFit {
                detail: format!(
                    "{} weights ({} at {precision}, TP{tp}) overflow the {} device",
                    model.name, weights, capacity
                ),
            });
        }
        // The estimator itself refuses one axis, the precision: price one
        // decode step so that refusal comes here, before any trace runs.
        estimator
            .decode_iteration(1, 1, tp, precision)
            .map_err(estimator_error)?;
        let token_kv = kv_cache_bytes(&model, 1, 1, precision).bytes();
        Ok(Self {
            cluster,
            model,
            config,
            weights,
            budget: capacity - weights,
            token_kv,
            estimator,
        })
    }

    /// The per-device KV budget (capacity minus sharded weights).
    #[must_use]
    pub fn kv_budget(&self) -> Bytes {
        self.budget
    }

    /// The strategy this instance was validated for.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The prepared (memoized) pricing estimator.
    #[cfg(test)]
    pub(crate) fn estimator(&self) -> &PreparedInferenceEstimator<'a> {
        &self.estimator
    }

    /// Checks out the estimator's price table of this instance's TP and
    /// precision, for one run (see
    /// [`PreparedInferenceEstimator::lease_prices`]).
    pub(crate) fn lease_prices(&self) -> LeasedPrices<'_, 'a> {
        self.estimator
            .lease_prices(self.config.tp, self.config.precision)
    }

    /// The full KV reservation of one request on this instance: the
    /// per-device KV of its prompt + output tokens. A request with no
    /// tokens reserves nothing; the simulator's entry points reject it as
    /// an invalid trace before anything is reserved.
    #[must_use]
    pub fn reservation(&self, request: &Request) -> Bytes {
        self.kv_share(request.prompt as usize + request.output as usize)
    }

    /// The per-device KV bytes of `tokens` tokens: one token's unsharded
    /// bytes × `tokens`, split over TP. Bit-identical to
    /// `kv_cache_bytes(model, 1, tokens, precision) / tp`: every factor of
    /// that product is an integer times a power of two, so both orders
    /// multiply exactly while the product stays below 2^53 bytes, which
    /// holds past 10^8 tokens for every preset at every precision, far
    /// beyond any device's budget. The division stays last: one token's
    /// share, rounded first, would round differently at TP 3.
    fn kv_share(&self, tokens: usize) -> Bytes {
        Bytes::new(self.token_kv * tokens as f64 / self.config.tp as f64)
    }

    /// Bytes of one KV block under a paged [`KvSpec`] (exact: the KV
    /// footprint is linear in tokens, so a block is just
    /// `block_tokens` tokens' worth of per-device KV).
    ///
    /// # Panics
    ///
    /// Panics under the reserved regime, which has no blocks.
    #[must_use]
    pub fn block_bytes(&self) -> Bytes {
        assert!(!self.config.kv.is_reserved(), "reserved KV has no blocks");
        self.kv_share(self.config.kv.block_tokens)
    }

    /// Device block pool under a paged [`KvSpec`]:
    /// ⌊KV budget / block bytes⌋.
    ///
    /// # Panics
    ///
    /// Panics under the reserved regime, which has no blocks.
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        (self.budget.bytes() / self.block_bytes().bytes()).floor() as usize
    }

    /// Blocks a `tokens`-token context occupies: ⌈tokens / block⌉.
    pub(crate) fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.config.kv.block_tokens)
    }

    /// Whether this instance can ever run `request` alone: its full
    /// reservation fits the budget (reserved regime), or its peak block
    /// need fits the pool (paged regime). The trace scan marks every
    /// other request, and the router rejects it on arrival — the one
    /// rejection point, for a lone instance and a fleet alike — which is
    /// what makes the paged engine
    /// deadlock-free: an admissible head always admits on an idle
    /// replica.
    #[must_use]
    pub fn admissible(&self, request: &Request) -> bool {
        if self.config.kv.is_reserved() {
            self.reservation(request) <= self.budget
        } else {
            self.blocks_for(request.prompt as usize + request.output as usize)
                <= self.total_blocks()
        }
    }

    /// Seconds to move `blocks` KV blocks between device and host over
    /// the node-egress link — the cost of one swap direction, priced at
    /// the link's size-derated effective bandwidth exactly like
    /// checkpoint writes.
    pub(crate) fn swap_seconds(&self, blocks: usize) -> f64 {
        let bytes = self.block_bytes() * blocks as f64;
        let link = &self.cluster.inter_link;
        (bytes / link.effective_bandwidth(bytes)).secs()
    }

    /// Simulates serving `trace` on this instance: the fleet event loop
    /// over one fault-free replica, reported by
    /// [`FleetReport::into_lone_replica`]. The router rejects a request
    /// no idle instance could run on arrival, so it never counts as
    /// waiting.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidTrace`] if `trace` is not sorted by
    /// arrival time, holds more than [`MAX_TRACE_REQUESTS`] requests, or
    /// contains a zero-length prompt or output.
    pub fn simulate(&self, trace: &[Request]) -> Result<ServeReport, ServeError> {
        run_fleet(self, 1, RouterPolicy::RoundRobin, &FaultSpec::none(), trace)
            .map(FleetReport::into_lone_replica)
    }

    /// Whether this run collects per-request records, given the trace
    /// size.
    pub(crate) fn records_on(&self, trace_len: usize) -> bool {
        match self.config.records {
            RecordMode::On => true,
            RecordMode::Off => false,
            RecordMode::Auto => trace_len <= EXACT_MODE_LIMIT,
        }
    }
}

/// What one scan of a trace finds before the event loop starts: the
/// admittable portion's longest context, which sizes the completion ring,
/// and the router's rejections.
pub(crate) struct TraceBounds {
    /// Largest prompt + output among admittable requests.
    pub(crate) max_kv: usize,
    /// Trace indices of the requests no idle instance could run, in
    /// trace order.
    pub(crate) rejected: Vec<u32>,
}

impl TraceBounds {
    /// Validates `trace` and scans its bounds in one pass — the shared
    /// precondition of the single-replica and fleet entry points.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidTrace`] for an over-long trace, or
    /// at the first request in trace order that arrives before its
    /// predecessor, has a zero-length prompt or output, or whose
    /// `prompt + output` overflows.
    pub(crate) fn scan(
        instance: &ServeInstance<'_>,
        trace: &[Request],
    ) -> Result<Self, ServeError> {
        check_trace_len(trace.len()).map_err(ServeError::InvalidTrace)?;
        let mut bounds = Self {
            max_kv: 0,
            rejected: Vec::new(),
        };
        let mut previous_arrival = None;
        // `check_trace_len` caps the trace at `MAX_TRACE_REQUESTS`, so
        // every index fits a `u32`.
        for (r, index) in trace.iter().zip(0u32..) {
            let in_order = previous_arrival.is_none_or(|at: f64| at <= r.arrival_s);
            if !in_order {
                return Err(ServeError::InvalidTrace(
                    "trace must be sorted by arrival time".to_owned(),
                ));
            }
            previous_arrival = Some(r.arrival_s);
            if r.prompt == 0 || r.output == 0 {
                return Err(ServeError::InvalidTrace(format!(
                    "every request needs at least one prompt and one output token \
                     (request {} has prompt {}, output {})",
                    r.id, r.prompt, r.output
                )));
            }
            let Some(kv) = (r.prompt as usize).checked_add(r.output as usize) else {
                return Err(ServeError::InvalidTrace(format!(
                    "request {}'s prompt {} + output {} tokens overflow",
                    r.id, r.prompt, r.output
                )));
            };
            if instance.admissible(r) {
                bounds.max_kv = bounds.max_kv.max(kv);
            } else {
                bounds.rejected.push(index);
            }
        }
        Ok(bounds)
    }
}

impl<'a> ServeInstance<'a> {
    /// Shapes one replica engine's raw outputs into a [`ServeReport`] of
    /// the `requests` routed to it. The router's rejections belong to the
    /// fleet report, so none are listed here.
    pub(crate) fn assemble_report(&self, requests: usize, inputs: ReportInputs) -> ServeReport {
        let config = &self.config;
        let mut sink = inputs.sink;
        // Completion order is not id order (short outputs overtake long
        // ones); records report in id order like the trace.
        sink.records.sort_by_key(|m| m.id);

        let makespan = inputs.makespan_s;
        let figures = sink.figures(inputs.decode_iterations, inputs.decode_batch_sum, makespan);

        let stride = inputs.raw_samples.len().div_ceil(MAX_QUEUE_SAMPLES).max(1);
        let mut samples: Vec<QueueSample> =
            inputs.raw_samples.iter().step_by(stride).copied().collect();
        // Stride thinning keeps index 0, s, 2s, …, which drops the final
        // observation unless the length cooperates; re-append it so the
        // retained series still ends at trace end.
        if let (Some(kept), Some(last)) = (samples.last(), inputs.raw_samples.last()) {
            if kept != last {
                samples.push(*last);
            }
        }
        let queue = QueueStats {
            peak_waiting: inputs.peak_waiting,
            mean_waiting: ratio(inputs.queue_area, makespan),
            peak_decoding: inputs.peak_decoding,
            samples,
        };

        ServeReport {
            model: self.model.name.clone(),
            cluster: self.cluster.name.clone(),
            tp: config.tp,
            precision: config.precision,
            requests,
            completed: sink.completed,
            rejected: 0,
            rejected_ids: Vec::new(),
            makespan: Time::from_secs(makespan),
            generated_tokens: sink.generated_tokens,
            tokens_per_s: figures.tokens_per_s,
            requests_per_s: figures.requests_per_s,
            prefill_iterations: inputs.prefill_iterations,
            decode_iterations: inputs.decode_iterations,
            mean_decode_batch: figures.mean_decode_batch,
            ttft: figures.ttft,
            tpot: figures.tpot,
            e2e: figures.e2e,
            queue,
            kv: KvUsage {
                weights: self.weights,
                budget: self.budget,
                peak: inputs.kv_peak,
                peak_utilization: ratio(inputs.kv_peak.bytes(), self.budget.bytes()),
            },
            slo: figures.slo,
            per_request: sink.records,
            scheduler: (config.scheduler != Scheduler::Fifo).then_some(config.scheduler),
            paging: inputs.paging,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{ArrivalProcess, LengthDist, TraceSpec};
    use optimus_hw::presets;
    use optimus_model::presets as models;

    /// Serves `trace` on a fresh instance of `config`.
    fn serve(
        cluster: &ClusterSpec,
        model: Arc<ModelConfig>,
        config: ServeConfig,
        trace: &[Request],
    ) -> Result<ServeReport, ServeError> {
        ServeInstance::new(cluster, model, config)?.simulate(trace)
    }

    /// Ids of the inadmissible requests in [`trace_with_rejects`].
    pub(crate) const REJECTED: [usize; 2] = [6, 13];

    /// A llama2-13b TP1 burst whose 20k-token prompts fit the KV budget
    /// only a few at a time, so admission backs up, plus two requests no
    /// device could ever hold (~500k tokens of KV): one queued behind the
    /// blocked head in the middle of the backlog — least urgent, so no
    /// scheduler picks it early — and one arriving long after the last
    /// completion.
    pub(crate) fn trace_with_rejects() -> Vec<Request> {
        (0..14)
            .map(|i| match i {
                6 => Request::new(i, 0.1, 500_000, 4).with_priority(2),
                13 => Request::new(i, 1_000.0, 500_000, 4).with_priority(2),
                _ => Request::new(i, 0.1, 20_000 - 500 * i, 2 + i % 5).with_priority((i % 2) as u8),
            })
            .collect()
    }

    /// A TP1 replica under every KV regime × scheduler pairing
    /// (`priority-preempt` is paged only).
    pub(crate) fn regimes() -> Vec<ServeConfig> {
        let paged = KvSpec::paged(16);
        [
            (KvSpec::reserved(), Scheduler::Fifo),
            (KvSpec::reserved(), Scheduler::Priority),
            (KvSpec::reserved(), Scheduler::Sjf),
            (paged, Scheduler::Fifo),
            (paged, Scheduler::Priority),
            (paged, Scheduler::Sjf),
            (paged, Scheduler::PriorityPreempt),
        ]
        .into_iter()
        .map(|(kv, scheduler)| ServeConfig::new(1).with_kv(kv).with_scheduler(scheduler))
        .collect()
    }

    fn spec(seed: u64, requests: usize, rate: f64) -> TraceSpec {
        TraceSpec {
            seed,
            requests,
            arrival: ArrivalProcess::Poisson { rate_per_s: rate },
            prompt: LengthDist::Uniform { lo: 50, hi: 200 },
            output: LengthDist::Uniform { lo: 1, hi: 24 },
            prefixes: None,
            priority_classes: 1,
        }
    }

    #[test]
    fn all_requests_complete_and_conserve_tokens() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let trace = spec(9, 24, 4.0).generate();
        let report = serve(
            &cluster,
            Arc::new(models::llama2_7b()),
            ServeConfig::new(1),
            &trace,
        )
        .unwrap();
        assert_eq!(report.completed + report.rejected, report.requests);
        assert_eq!(report.rejected, 0, "7B leaves ample KV budget");
        let requested: usize = trace.iter().map(|r| r.output as usize).sum();
        assert_eq!(report.generated_tokens, requested);
        assert_eq!(report.per_request.len(), report.completed);
        assert_eq!(report.prefill_iterations, report.completed);
    }

    #[test]
    fn higher_load_means_deeper_queues_and_worse_tails() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let cfg = ServeConfig::new(1);
        let run = |rate| {
            serve(
                &cluster,
                Arc::clone(&model),
                cfg,
                &spec(5, 32, rate).generate(),
            )
        };
        let calm = run(0.05).unwrap();
        let slammed = run(50.0).unwrap();
        assert!(slammed.queue.peak_decoding >= calm.queue.peak_decoding);
        assert!(
            slammed.queue.peak_waiting > calm.queue.peak_waiting,
            "compute-bound saturation must show up as waiting requests: {} vs {}",
            slammed.queue.peak_waiting,
            calm.queue.peak_waiting
        );
        assert!(slammed.queue.mean_waiting > calm.queue.mean_waiting);
        assert!(
            slammed.ttft.p99 > calm.ttft.p99,
            "queueing must surface in the TTFT tail: {} vs {}",
            slammed.ttft.p99,
            calm.ttft.p99
        );
        assert!(slammed.slo.attainment <= calm.slo.attainment);
    }

    #[test]
    fn oversized_request_is_rejected_not_wedged() {
        let cluster = presets::dgx_a100_hdr_cluster();
        // A llama2-13b KV reservation of ~500k tokens (~50 GB at FP16)
        // next to 26 GB of weights can never fit an 80 GB device.
        let trace = [
            Request::new(0, 0.1, 500_000, 4),
            Request::new(1, 0.2, 100, 4),
        ];
        let report = serve(
            &cluster,
            Arc::new(models::llama2_13b()),
            ServeConfig::new(1),
            &trace,
        )
        .unwrap();
        assert_eq!(report.rejected_ids, vec![0]);
        assert_eq!(report.completed, 1);
        assert_eq!(report.per_request[0].id, 1);

        // The router rejects on arrival, so a rejected request never
        // waits: queued behind a blocked head it adds nothing to the
        // waiting peak, mean or samples, and arriving after the last
        // completion it does not stretch the makespan. The run equals the
        // run without it, apart from the trace's own counts.
        let trace = trace_with_rejects();
        let served: Vec<Request> = trace
            .iter()
            .filter(|r| !REJECTED.contains(&(r.id as usize)))
            .copied()
            .collect();
        for config in regimes() {
            let model = Arc::new(models::llama2_13b());
            let report = serve(&cluster, Arc::clone(&model), config, &trace).unwrap();
            let clean = serve(&cluster, model, config, &served).unwrap();
            let label = format!("{} {:?}", config.kv, config.scheduler);
            assert_eq!(report.rejected_ids, REJECTED, "{label}: trace order");
            assert_eq!(report.requests, trace.len(), "{label}");
            assert_eq!(report.completed, served.len(), "{label}");
            assert!(clean.queue.peak_waiting > 1, "{label}: admission backs up");
            assert_eq!(
                report.queue.peak_waiting, clean.queue.peak_waiting,
                "{label}"
            );
            assert_eq!(
                report.queue.mean_waiting, clean.queue.mean_waiting,
                "{label}"
            );
            assert_eq!(report.queue.samples, clean.queue.samples, "{label}");
            let last_completion = report
                .per_request
                .iter()
                .map(|m| (m.arrival + m.e2e).secs())
                .fold(0.0, f64::max);
            assert!(
                (report.makespan.secs() - last_completion).abs() < 1e-9,
                "{label}: makespan {} ends at the last completion {last_completion}",
                report.makespan
            );
            assert!(report.makespan.secs() < trace[13].arrival_s, "{label}");
            assert_eq!(
                ServeReport {
                    requests: clean.requests,
                    rejected: 0,
                    rejected_ids: Vec::new(),
                    ..report
                },
                clean,
                "{label}"
            );
        }
    }

    #[test]
    fn weights_overflow_is_a_clean_error() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let err = ServeInstance::new(&cluster, Arc::new(models::gpt_175b()), ServeConfig::new(1))
            .unwrap_err();
        assert!(matches!(err, ServeError::WeightsDontFit { .. }), "{err}");
    }

    #[test]
    fn tp_beyond_the_node_is_rejected() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let err = ServeInstance::new(
            &cluster,
            Arc::new(models::llama2_7b()),
            ServeConfig::new(16),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn empty_trace_yields_an_empty_report() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = serve(
            &cluster,
            Arc::new(models::llama2_7b()),
            ServeConfig::new(1),
            &[],
        )
        .unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan, Time::ZERO);
        assert_eq!(report.tokens_per_s, 0.0);
        assert_eq!(report.slo.attainment, 1.0);
    }

    /// A decode price depends on the iteration's own (batch, context),
    /// never on how long the trace is. `serve --model llama2-13b --tp 2
    /// --requests N --rate 20 --prompt 50:400 --output 8:64` at N = 10,000,
    /// with one more request appended that arrives after every other has
    /// completed: each of the first 10,000 per-request records must be
    /// unchanged, since nothing the extra request does can reach them. The
    /// test compares records, not percentiles: past [`EXACT_MODE_LIMIT`]
    /// requests percentiles come from log histograms, so TPOT p50 moves
    /// from 26.08 to 26.44 ms across the limit on that command line
    /// although no request's TPOT does.
    #[test]
    fn appending_a_late_request_leaves_every_earlier_record_unchanged() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let instance = ServeInstance::new(
            &cluster,
            Arc::new(models::llama2_13b()),
            ServeConfig::new(2).with_records(RecordMode::On),
        )
        .unwrap();
        let mut trace = TraceSpec {
            seed: 42,
            requests: EXACT_MODE_LIMIT,
            arrival: ArrivalProcess::Poisson { rate_per_s: 20.0 },
            prompt: LengthDist::Uniform { lo: 50, hi: 400 },
            output: LengthDist::Uniform { lo: 8, hi: 64 },
            prefixes: None,
            priority_classes: 1,
        }
        .generate();
        let within = instance.simulate(&trace).unwrap();
        assert_eq!(within.per_request.len(), EXACT_MODE_LIMIT);
        let late = within.makespan.secs() + 1.0;
        trace.push(Request::new(EXACT_MODE_LIMIT as u32, late, 200, 32));
        let past = instance.simulate(&trace).unwrap();
        assert_eq!(past.per_request.len(), EXACT_MODE_LIMIT + 1);
        for (before, after) in within.per_request.iter().zip(&past.per_request) {
            assert_eq!(before, after, "request {}", before.id);
        }
    }

    /// Past [`EXACT_MODE_LIMIT`] requests, a second run of the same trace
    /// on the same instance reads every price from the table the first
    /// run handed back: it prices no new entry, adds no memo key and
    /// returns an equal report. The trace and fleet are those of
    /// `tests/golden/fleet_streaming.json`.
    #[test]
    fn a_repeat_run_on_a_warm_table_returns_an_equal_report() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let instance = ServeInstance::new(
            &cluster,
            Arc::new(models::llama2_13b()),
            ServeConfig::new(2),
        )
        .unwrap();
        let trace = TraceSpec {
            seed: 31,
            requests: 12_000,
            arrival: ArrivalProcess::Poisson { rate_per_s: 300.0 },
            prompt: LengthDist::Uniform { lo: 50, hi: 400 },
            output: LengthDist::Uniform { lo: 8, hi: 64 },
            prefixes: None,
            priority_classes: 1,
        }
        .generate();
        let run = || {
            run_fleet(
                &instance,
                2,
                RouterPolicy::LeastOutstanding,
                &FaultSpec::none(),
                &trace,
            )
            .unwrap()
        };
        let first = run();
        assert_eq!(first.completed, trace.len());
        let priced = || instance.lease_prices().priced();
        let (entries, keys) = (priced(), instance.estimator().cached_keys());
        assert!(entries > 1, "the first run priced its shapes");
        assert_eq!(run(), first);
        assert_eq!(priced(), entries, "a repeat run prices no new shape");
        assert_eq!(instance.estimator().cached_keys(), keys);
    }

    /// A trace past [`EXACT_MODE_LIMIT`] in which *no* request fits the
    /// KV budget runs cleanly: the router rejects every request on
    /// arrival, on the reserved and the paged path alike.
    #[test]
    fn all_inadmissible_trace_past_the_limit_rejects_every_request() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        // Half-million-token prompts overflow any single-GPU KV budget.
        let trace: Vec<Request> = (0..=EXACT_MODE_LIMIT as u32)
            .map(|i| Request::new(i, f64::from(i) * 1e-4, 500_000, 4))
            .collect();
        for config in [
            ServeConfig::new(1),
            ServeConfig::new(1).with_kv(KvSpec::paged(16)),
        ] {
            let instance = ServeInstance::new(&cluster, Arc::clone(&model), config).unwrap();
            let report = instance.simulate(&trace).unwrap();
            assert_eq!(report.completed, 0);
            assert_eq!(report.rejected, trace.len());
            assert_eq!(report.generated_tokens, 0);
            // No engine clock ever starts.
            assert_eq!(report.makespan, Time::ZERO);
            assert_eq!(report.queue.peak_waiting, 0);
        }
    }

    /// `RecordMode::On` must restore per-request records beyond the
    /// auto-off limit, and `Auto` must drop them there — same aggregates
    /// either way.
    #[test]
    fn records_forced_on_beyond_the_limit() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        // Tiny fixed lengths keep a just-over-the-limit trace cheap.
        let trace = TraceSpec::poisson(5, EXACT_MODE_LIMIT + 1, 400.0, 20, 2).generate();
        let auto = serve(&cluster, Arc::clone(&model), ServeConfig::new(1), &trace).unwrap();
        assert!(
            auto.per_request.is_empty(),
            "records default off past the limit"
        );
        let forced = serve(
            &cluster,
            Arc::clone(&model),
            ServeConfig::new(1).with_records(RecordMode::On),
            &trace,
        )
        .unwrap();
        assert_eq!(forced.per_request.len(), forced.completed);
        assert!(
            forced.per_request.windows(2).all(|w| w[0].id < w[1].id),
            "records come back in id order"
        );
        assert_eq!(forced.completed, auto.completed);
        assert_eq!(forced.generated_tokens, auto.generated_tokens);
        assert_eq!(forced.makespan, auto.makespan);
    }

    /// Records off must empty `per_request` without changing any
    /// aggregate.
    #[test]
    fn record_mode_off_only_drops_the_records() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let trace = spec(3, 40, 8.0).generate();
        let with = serve(&cluster, Arc::clone(&model), ServeConfig::new(1), &trace).unwrap();
        let without = serve(
            &cluster,
            Arc::clone(&model),
            ServeConfig::new(1).with_records(RecordMode::Off),
            &trace,
        )
        .unwrap();
        assert!(without.per_request.is_empty());
        assert_eq!(with.per_request.len(), with.completed);
        let strip = |mut r: ServeReport| {
            r.per_request.clear();
            r
        };
        assert_eq!(strip(with), strip(without));
    }

    /// Regression: the queue-depth sample at an iteration's end used the
    /// arrival cursor from the iteration's *start*, so every request that
    /// arrived while the iteration ran was missing from the sample. Two
    /// requests arriving early in a long prefill must show up in the
    /// sample that closes it.
    #[test]
    fn queue_samples_count_arrivals_during_the_iteration() {
        let cluster = presets::dgx_a100_hdr_cluster();
        // Request 0's prefill of a 4000-token prompt runs for a long
        // while (≫ 2 ms); requests 1 and 2 arrive 1–2 ms into it.
        let trace = [
            Request::new(0, 0.1, 4000, 4),
            Request::new(1, 0.101, 100, 4),
            Request::new(2, 0.102, 100, 4),
        ];
        let report = serve(
            &cluster,
            Arc::new(models::llama2_13b()),
            ServeConfig::new(1),
            &trace,
        )
        .unwrap();
        let first = report.queue.samples[0];
        assert!(
            first.at.secs() > 0.102,
            "the opening prefill must outlast both arrivals ({})",
            first.at
        );
        assert_eq!(
            first.waiting, 2,
            "both mid-iteration arrivals must be visible in the closing sample"
        );
    }

    /// Regression: `peak_waiting` counted the request receiving its
    /// prefill in the same iteration, while the time-weighted mean
    /// excluded it — peak and mean disagreed with the documented "no
    /// compute yet" definition. A lone request that prefills immediately
    /// never waits.
    #[test]
    fn peak_waiting_excludes_the_request_being_prefilled() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let lone = [Request::new(0, 0.1, 100, 4)];
        let report = serve(
            &cluster,
            Arc::new(models::llama2_7b()),
            ServeConfig::new(1),
            &lone,
        )
        .unwrap();
        assert_eq!(report.queue.peak_waiting, 0, "a lone request never waits");
        assert_eq!(report.queue.mean_waiting, 0.0);

        // Two simultaneous arrivals: one prefills, one genuinely waits.
        let pair = [Request::new(0, 0.1, 100, 4), Request::new(1, 0.1, 100, 4)];
        let report = serve(
            &cluster,
            Arc::new(models::llama2_7b()),
            ServeConfig::new(1),
            &pair,
        )
        .unwrap();
        assert_eq!(
            report.queue.peak_waiting, 1,
            "exactly one of two simultaneous arrivals waits for the prefill slot"
        );
        assert!(report.queue.mean_waiting > 0.0);
    }

    /// Regression: an unsorted trace or a zero-length prompt or output
    /// used to panic in the single-replica entry point; it is now a
    /// typed error. (A `u32` prompt plus a `u32` output cannot overflow
    /// a token count, so an overflowing context is a spec-level case of
    /// `degenerate_trace_specs_are_typed_errors`.)
    #[test]
    fn invalid_traces_are_typed_errors() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let instance =
            ServeInstance::new(&cluster, Arc::new(models::llama2_7b()), ServeConfig::new(1))
                .unwrap();
        let unsorted = [Request::new(0, 1.0, 10, 4), Request::new(1, 0.5, 10, 4)];
        let no_prompt = [Request::new(0, 0.0, 0, 4)];
        let no_output = [Request::new(0, 0.0, 10, 4), Request::new(1, 0.5, 10, 0)];
        for (trace, what) in [
            (&unsorted[..], "sorted by arrival time"),
            (&no_prompt[..], "request 0 has prompt 0"),
            (&no_output[..], "request 1 has prompt 10, output 0"),
        ] {
            let err = instance.simulate(trace).unwrap_err();
            assert!(matches!(err, ServeError::InvalidTrace(_)), "{err}");
            assert!(err.to_string().contains(what), "{err}");
        }
    }

    /// One instance per preset model × precision × TP 1..=8, on a B200
    /// node, which has every precision, whose DRAM holds any model's
    /// weights, so no combination is skipped.
    fn every_kv_shape(cluster: &ClusterSpec) -> Vec<ServeInstance<'_>> {
        let mut instances = Vec::new();
        for model in models::all() {
            let model = Arc::new(model);
            let estimator = Arc::new(PreparedInferenceEstimator::for_serving(
                cluster,
                Arc::clone(&model),
            ));
            for &precision in Precision::all() {
                for tp in 1..=8 {
                    let config = ServeConfig::new(tp).with_precision(precision);
                    instances.push(
                        ServeInstance::with_estimator(
                            cluster,
                            Arc::clone(&model),
                            config,
                            Arc::clone(&estimator),
                        )
                        .unwrap(),
                    );
                }
            }
        }
        instances
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The reservation from the per-token constant equals the KV
        /// footprint priced whole and split over TP, bit for bit, for
        /// every shape: a per-device constant (one token's share rounded
        /// first) fails this at TP 3.
        #[test]
        fn reservation_equals_the_whole_footprint_split_over_tp(
            context in 1usize..=10_000_000,
        ) {
            let mut cluster = presets::dgx_b200_ndr_cluster();
            cluster.node.accelerator.dram.capacity = Bytes::from_gb(1e9);
            let instances = every_kv_shape(&cluster);
            assert_eq!(instances.len(), 9 * Precision::all().len() * 8);
            for instance in &instances {
                let c = instance.config();
                for tokens in [1, context, 10_000_000] {
                    let whole = kv_cache_bytes(&instance.model, 1, tokens, c.precision);
                    let expected = whole / c.tp as f64;
                    let prompt = u32::try_from(tokens - 1).unwrap();
                    let got = instance.reservation(&Request::new(0, 0.0, prompt, 1));
                    proptest::prop_assert_eq!(
                        got.bytes().to_bits(),
                        expected.bytes().to_bits(),
                        "{} {} TP{} at {} tokens",
                        instance.model.name,
                        c.precision,
                        c.tp,
                        tokens
                    );
                }
            }
        }
    }

    /// A request with no tokens reserves nothing, rather than panicking;
    /// the simulator itself rejects such a request before reserving.
    #[test]
    fn a_request_without_tokens_reserves_nothing() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let instance =
            ServeInstance::new(&cluster, Arc::new(models::llama2_7b()), ServeConfig::new(3))
                .unwrap();
        assert_eq!(
            instance.reservation(&Request::new(0, 0.0, 0, 0)),
            Bytes::ZERO
        );
    }

    /// The down-sampled queue series always ends at the trace end, even
    /// when the thinning stride would skip the final iteration.
    #[test]
    fn queue_samples_end_at_trace_end() {
        let cluster = presets::dgx_a100_hdr_cluster();
        // Enough iterations to engage both the online stride doubling and
        // the assembly-time thinning.
        let report = serve(
            &cluster,
            Arc::new(models::llama2_7b()),
            ServeConfig::new(1),
            &spec(21, 600, 12.0).generate(),
        )
        .unwrap();
        assert!(report.queue.samples.len() <= MAX_QUEUE_SAMPLES + 1);
        let last = report.queue.samples.last().expect("non-empty series");
        assert_eq!(
            last.at, report.makespan,
            "series must end at the makespan, not at the last stride hit"
        );
        assert_eq!(last.waiting, 0, "the run ends idle");
        assert_eq!(last.decoding, 0, "the run ends idle");
    }
}
