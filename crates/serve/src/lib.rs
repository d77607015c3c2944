//! Deterministic discrete-event **continuous-batching serving simulator**.
//!
//! The paper's inference model (§IV) prices one static (batch, prompt,
//! decode) configuration; this crate models what a serving deployment
//! actually sees — a *request stream*. Requests arrive from a seeded
//! Poisson process (or evenly spaced, for closed-form validation), a
//! scheduler admits them FIFO under the device's KV-cache budget, and
//! prefill/decode iterations interleave exactly as an inference server's
//! execution loop would, each one priced through the memoized
//! [`optimus_infer::PreparedInferenceEstimator`]. The output is a
//! [`ServeReport`]: TTFT/TPOT/end-to-end percentiles, sustained
//! throughput, queue depth over time, KV occupancy, and goodput under a
//! configurable SLO.
//!
//! When requests never overlap, the simulator degenerates to the static
//! analytical model — the validation suite pins the two against each other
//! to within 2% — and under load it surfaces exactly the queueing and
//! batching effects the static model cannot express.
//!
//! Deployments are fleets, not single devices: [`FleetInstance`] runs
//! `replicas` identical instances behind an online router
//! ([`RouterPolicy`]: round-robin, seeded random, least-outstanding,
//! join-shortest-queue — the state-aware policies observe live
//! per-replica queue state at each arrival), merges the per-replica
//! latency populations exactly, and reports fleet-level throughput and
//! SLO goodput, so the load-sweep's frontier trades **TP-up against
//! replicate-out** at equal device counts (`gpus = tp × replicas`).
//! Fleets can additionally run under seeded fault injection
//! ([`FaultSpec`]: MTBF/MTTR crash/recover processes, shared failure
//! domains ([`FaultDomain`]) that take whole replica groups down
//! together — racks, power feeds, leaf switches — straggler slow nodes,
//! and fleet-wide degradation priced either flat or through the link
//! model ([`DegradeMode`])): crashed replicas drain their in-flight
//! work back to the router for deterministic requeueing, routers skip
//! down replicas, and reports gain availability metrics — which makes the
//! load-sweep frontier availability-aware.
//!
//! Every run enters through one of four validated doors:
//! [`ServeInstance::simulate`] and [`FleetInstance::simulate`] serve a
//! trace on an instance built once, [`simulate_fleet`] serves a
//! [`TraceSpec`] on a fleet, and [`load_sweep`] runs a (rate × strategy)
//! grid; the last two also price link-mode degradation. Each rule on a
//! caller's input is stated once: [`TraceSpec::validate`] for lengths,
//! prefixes, contexts, request counts and arrival rates,
//! [`FaultSpec::validate`] for the fault environment, and
//! [`LoadSweepSpec::validate`] for a grid, which holds every one of its
//! cell traces and its fault spec to the other two. Every fleet, each
//! load-sweep strategy's included, is built by one checked constructor
//! (the fleet check, then the replica check of [`ServeInstance::new`],
//! whose first rule is a tensor-parallel degree of at least 1) and
//! reports through one replica's arithmetic. The first three doors
//! return a [`ServeError`] for input they refuse, and [`load_sweep`]
//! panics on a spec [`LoadSweepSpec::validate`] refuses, so a caller
//! holding outside input validates first.
//!
//! ```
//! use optimus_hw::presets;
//! use optimus_model::presets as models;
//! use optimus_serve::{ServeConfig, ServeInstance, TraceSpec};
//! use std::sync::Arc;
//!
//! let cluster = presets::dgx_a100_hdr_cluster();
//! let instance =
//!     ServeInstance::new(&cluster, Arc::new(models::llama2_7b()), ServeConfig::new(1)).unwrap();
//! let trace = TraceSpec::poisson(42, 16, 2.0, 200, 16).generate();
//! let report = instance.simulate(&trace).unwrap();
//! assert_eq!(report.completed, 16);
//! assert!(report.ttft.p50 <= report.e2e.p50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod faults;
mod fleet;
mod kv;
mod load;
mod report;
mod sim;
pub mod stats;
mod trace;

pub use faults::{DegradeMode, FaultDomain, FaultSpec, FleetAvailability};
pub use fleet::{simulate_fleet, FleetConfig, FleetInstance, FleetReport, RouterPolicy};
pub use kv::{KvSpec, PagingReport, PreemptPolicy, Scheduler};
pub use load::{
    load_sweep, InfeasibleStrategy, LoadPoint, LoadStrategy, LoadSweepReport, LoadSweepSpec,
    SaturationCurve,
};
pub use report::{
    KvUsage, LatencyStats, QueueSample, QueueStats, RequestMetrics, ServeReport, SloReport, SloSpec,
};
pub use sim::{
    RecordMode, ServeConfig, ServeError, ServeInstance, EXACT_MODE_LIMIT, MAX_QUEUE_SAMPLES,
    MAX_TRACE_REQUESTS,
};
pub use stats::LogHistogram;
pub use trace::{ArrivalProcess, LengthDist, Prefix, PrefixSpec, Request, TraceSpec};
