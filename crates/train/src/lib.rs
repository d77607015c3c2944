//! End-to-end analytical performance model for distributed LLM training.
//!
//! Composes every substrate of the suite into the paper's training
//! estimator (Fig. 1): per-device kernel times from the hierarchical
//! roofline, Megatron TP/SP collectives per layer and microbatch, pipeline
//! schedules with bubbles and point-to-point transfers, the data-parallel
//! gradient all-reduce, and the optimizer update — plus the per-device
//! memory footprint of `optimus-memory`.
//!
//! See [`TrainingEstimator`] for the composition details and
//! [`TrainingReport`] for what comes out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod estimator;
mod prepared;
mod report;
mod resilience;

pub use config::TrainingConfig;
pub use estimator::{TrainError, TrainingEstimator};
pub use prepared::PreparedTrainingEstimator;
pub use report::{GemmBoundSplit, TrainingBreakdown, TrainingReport};
pub use resilience::{
    expected_rework, waste_fraction, young_daly_interval, CheckpointSpec, CheckpointTier,
    ElasticReport, ResilienceReport, StackContext, TierKind, TierReport, Uptime,
    DELTA_FRACTION_DEFAULT,
};
