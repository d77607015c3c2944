//! Checkpoint/restart resilience modeling for distributed training.
//!
//! At the cluster scales the paper targets, failures dominate real
//! wall-clock: a 64-GPU job with a 50 000-hour per-GPU MTBF fails about
//! every 32 days of compute, and a 16 384-GPU job every 3 hours. A
//! [`CheckpointSpec`] prices that reality into the training estimate with
//! the Young–Daly checkpoint/restart model:
//!
//! * **Checkpoint cost `δ`** — the per-device model state (parameters +
//!   optimizer moments, from `optimus-memory`) streamed over the node's
//!   egress link (`ClusterSpec::inter_link`, with its size-dependent
//!   utilization derating from `optimus-hw`). Larger TP/PP shards the
//!   state thinner, so per-device checkpoints *shrink* as a strategy
//!   spreads out.
//! * **Cluster MTBF `M`** — under the default exponential process, the
//!   per-GPU MTBF divided by the GPU count: failure rates add, so
//!   doubling the fleet halves the time between job-stopping faults.
//!   This is the blast-radius term that reorders the strategy frontier.
//! * **Waste fraction** `w(τ) = δ/τ + (E + R)/M` — checkpoint overhead
//!   per useful second, plus the expected rework `E` and the restart time
//!   `R` amortized over the mean time between failures. `E` is the exact
//!   expectation `E[min(U mod (τ+δ), τ)]` of the work a failure at uptime
//!   `U` loses ([`expected_rework`], deterministic and closed form for
//!   exponential failures); to first order in `δ/τ` and `τ/M` it is the
//!   half interval `τ/2` of the classic [`waste_fraction`].
//! * **Effective goodput** `g = 1 / (1 + w)` — the useful-step fraction
//!   of wall-clock; the failure-expected batch time is
//!   `time_per_batch / g`.
//!
//! When no interval is given, the spec picks the Young–Daly optimum
//! `τ* = √(2 δ M)`, which exactly minimizes the first-order waste (the
//! `R/M` term is `τ`-independent) — a property the resilience proptests
//! pin on a grid around `τ*`. The exact waste's own minimizer sits within
//! `O(τ/M)` of it, so a pinned interval can beat `τ*` only by a sliver
//! (under 1e-6 goodput over the proptests' MTBF range).
//!
//! # The composable resilience stack
//!
//! The scalar model above is the *base tier*: one persistent full
//! checkpoint stream. Production jobs layer more machinery on top, and
//! the spec composes all of it:
//!
//! * **Tiered checkpoints** ([`CheckpointTier`]): in-memory peer replicas
//!   (priced as a DP-group all-gather through `optimus-collective`'s link
//!   model) and incremental optimizer-state deltas (a
//!   [`CheckpointSpec::delta_fraction`] slice of the sharded footprint)
//!   run *in front of* the persistent full tier, each with its own
//!   Young–Daly interval. Recovery rolls back to the most recent snapshot
//!   on a tier that *survives* the failure's blast radius — peer replicas
//!   only help when at least one DP group outlives the fault. Tiers that
//!   do not pay for themselves (overhead exceeds the rework they save)
//!   are dropped from the priced stack and reported `active: false`, so
//!   adding a tier can never make a spec worse.
//! * **Failure processes** ([`FailureProcess`]): exponential (closed
//!   form), Weibull with shape `k` for infant mortality or wear-out (the
//!   same rework expectation over the Weibull survival curve: an
//!   incomplete-gamma first period, a few quadrature periods and an
//!   Euler–Maclaurin tail; `k = 1` takes the exponential closed form
//!   bit-exactly, and nearby shapes price continuously into it), and a
//!   correlated rack process whose rack-sized events take out whole DP
//!   groups at once. Every process prices through the one
//!   [`expected_rework`]; nothing here draws random numbers.
//! * **Elastic training** ([`CheckpointSpec::elastic`]): instead of a
//!   full restart, drop the DP groups inside the blast radius, re-warm in
//!   [`CheckpointSpec::rewarm_s`] seconds, and keep training at degraded
//!   throughput (re-priced live through the estimator) until spares
//!   arrive after [`CheckpointSpec::repair_s`]. The report carries both
//!   goodputs ([`ElasticReport`]); the cheaper strategy wins.
//!
//! The degenerate [`CheckpointSpec::none`] (zero MTBF) adds nothing:
//! the report's resilience section stays absent and the serialized
//! [`crate::TrainingReport`] is byte-identical to a spec-free estimate.
//! Likewise, a spec that uses none of the stack extensions (exponential
//! process, no extra tiers, no elasticity) serializes with exactly the
//! keys of the original scalar model — the goldens pin this.

use optimus_collective::{Collective, CommModel};
use optimus_hw::reliability::{ln_gamma, regularized_gamma_p};
use optimus_hw::{ClusterSpec, FailureProcess};
use optimus_memory::TrainingMemoryReport;
use optimus_parallel::Parallelism;
use optimus_units::{Bytes, Time};
use serde::{Deserialize, Serialize};

/// Default fraction of the sharded optimizer state captured by a
/// [`TierKind::PersistentDelta`] checkpoint.
pub const DELTA_FRACTION_DEFAULT: f64 = 0.25;

/// What one extra checkpoint tier writes and where it survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TierKind {
    /// Replicate device state into peer DP-group memory (a DP all-gather
    /// over the node-egress link). Fastest to write and to restore from,
    /// but lost whenever the failure's blast radius covers every DP
    /// group holding a replica.
    InMemoryPeer,
    /// The always-present base tier: the full model state streamed to
    /// persistent storage. Never listed as an *extra* tier — it is
    /// configured by [`CheckpointSpec::interval_s`].
    PersistentFull,
    /// An incremental checkpoint of only the optimizer-state delta
    /// ([`CheckpointSpec::delta_fraction`] of the sharded footprint),
    /// persisted between full snapshots. Survives any blast radius.
    PersistentDelta,
}

impl core::fmt::Display for TierKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InMemoryPeer => write!(f, "peer"),
            Self::PersistentFull => write!(f, "full"),
            Self::PersistentDelta => write!(f, "delta"),
        }
    }
}

/// One extra checkpoint tier layered in front of the persistent full
/// base tier: its kind plus an interval policy (`None` = per-tier
/// Young–Daly optimum over the tier's own write cost).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointTier {
    /// What this tier snapshots and where it survives.
    pub kind: TierKind,
    /// Seconds of useful work between snapshots on this tier. `None`
    /// selects the tier's own Young–Daly optimum.
    pub interval_s: Option<f64>,
}

impl CheckpointTier {
    /// An in-memory peer-replica tier with auto interval.
    #[must_use]
    pub fn peer() -> Self {
        Self {
            kind: TierKind::InMemoryPeer,
            interval_s: None,
        }
    }

    /// A persistent optimizer-delta tier with auto interval.
    #[must_use]
    pub fn delta() -> Self {
        Self {
            kind: TierKind::PersistentDelta,
            interval_s: None,
        }
    }

    /// Fixes this tier's snapshot interval.
    #[must_use]
    pub fn with_interval(mut self, interval_s: f64) -> Self {
        self.interval_s = Some(interval_s);
        self
    }
}

/// The failure environment of one training job: the per-GPU MTBF and
/// failure process shape, the checkpoint tier stack, the recovery
/// strategy (restart vs elastic), and the power profile of overhead
/// time.
///
/// Serialization note: the stack fields after `restart_s` are omitted at
/// their defaults (and restored from them when absent), so a base
/// `--mtbf`/`--restart` spec serializes exactly as before the stack
/// existed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointSpec {
    /// Mean seconds of uptime between failures of **one GPU**. The
    /// cluster-level MTBF follows from [`Self::process`]
    /// (`mtbf_s / gpus` for exponential). `0` disables resilience
    /// modeling entirely.
    pub mtbf_s: f64,
    /// Seconds of useful work between *persistent full* checkpoints.
    /// `None` selects the Young–Daly optimum `√(2 δ M)` per strategy.
    pub interval_s: Option<f64>,
    /// Seconds to restart the job after a failure (scheduling, process
    /// re-spawn, checkpoint reload), on top of the lost work.
    pub restart_s: f64,
    /// The failure arrival process (default exponential).
    #[serde(default, skip_serializing_if = "is_default")]
    pub process: FailureProcess,
    /// Extra checkpoint tiers in front of the persistent full base tier.
    #[serde(default, skip_serializing_if = "is_default")]
    pub tiers: Vec<CheckpointTier>,
    /// Whether the job may shrink its DP group by the blast radius and
    /// keep training instead of restarting.
    #[serde(default, skip_serializing_if = "is_default")]
    pub elastic: bool,
    /// Seconds to re-shard and re-warm the shrunken job after an elastic
    /// recovery (in place of the full `restart_s`).
    #[serde(default, skip_serializing_if = "is_default")]
    pub rewarm_s: f64,
    /// Mean seconds until failed resources return to the job. A
    /// restarting job waits this long stopped; an elastic job trains
    /// degraded through it.
    #[serde(default, skip_serializing_if = "is_default")]
    pub repair_s: f64,
    /// Fraction of the sharded optimizer state a delta checkpoint
    /// captures.
    #[serde(
        default = "default_delta_fraction",
        skip_serializing_if = "is_default_delta_fraction"
    )]
    pub delta_fraction: f64,
    /// Utilization of the dynamic power budget during checkpoint /
    /// rework / restart overhead time (`1.0` = full burn, the classic
    /// pessimistic assumption; lower values let the energy model price
    /// overhead seconds at idle-ish power).
    #[serde(default = "full_util", skip_serializing_if = "is_full_util")]
    pub overhead_util: f64,
}

/// Whether a stack field still holds its inert default (and is therefore
/// left out of the serialized spec).
fn is_default<T: Default + PartialEq>(value: &T) -> bool {
    *value == T::default()
}

fn default_delta_fraction() -> f64 {
    DELTA_FRACTION_DEFAULT
}

fn is_default_delta_fraction(fraction: &f64) -> bool {
    *fraction == DELTA_FRACTION_DEFAULT
}

fn full_util() -> f64 {
    1.0
}

fn is_full_util(util: &f64) -> bool {
    *util == 1.0
}

impl CheckpointSpec {
    /// The degenerate no-failure spec: zero MTBF. Reports estimated
    /// under it are byte-identical to reports with no spec at all.
    #[must_use]
    pub fn none() -> Self {
        Self {
            mtbf_s: 0.0,
            interval_s: None,
            restart_s: 0.0,
            process: FailureProcess::Exponential,
            tiers: Vec::new(),
            elastic: false,
            rewarm_s: 0.0,
            repair_s: 0.0,
            delta_fraction: DELTA_FRACTION_DEFAULT,
            overhead_util: 1.0,
        }
    }

    /// A failure process with per-GPU MTBF `mtbf_s` seconds, Young–Daly
    /// auto-interval, and zero restart cost.
    #[must_use]
    pub fn with_mtbf(mtbf_s: f64) -> Self {
        Self {
            mtbf_s,
            ..Self::none()
        }
    }

    /// Fixes the persistent-full checkpoint interval instead of the
    /// Young–Daly optimum.
    #[must_use]
    pub fn with_interval(mut self, interval_s: f64) -> Self {
        self.interval_s = Some(interval_s);
        self
    }

    /// Sets the per-failure restart cost in seconds.
    #[must_use]
    pub fn with_restart(mut self, restart_s: f64) -> Self {
        self.restart_s = restart_s;
        self
    }

    /// Sets the failure arrival process.
    #[must_use]
    pub fn with_process(mut self, process: FailureProcess) -> Self {
        self.process = process;
        self
    }

    /// Adds one extra checkpoint tier to the stack.
    #[must_use]
    pub fn with_tier(mut self, tier: CheckpointTier) -> Self {
        self.tiers.push(tier);
        self
    }

    /// Replaces the extra-tier stack.
    #[must_use]
    pub fn with_tiers(mut self, tiers: Vec<CheckpointTier>) -> Self {
        self.tiers = tiers;
        self
    }

    /// Enables or disables elastic (shrink-and-continue) recovery.
    #[must_use]
    pub fn with_elastic(mut self, elastic: bool) -> Self {
        self.elastic = elastic;
        self
    }

    /// Sets the elastic re-warm cost in seconds.
    #[must_use]
    pub fn with_rewarm(mut self, rewarm_s: f64) -> Self {
        self.rewarm_s = rewarm_s;
        self
    }

    /// Sets the mean repair (resource return) time in seconds.
    #[must_use]
    pub fn with_repair(mut self, repair_s: f64) -> Self {
        self.repair_s = repair_s;
        self
    }

    /// Sets the optimizer-delta capture fraction.
    #[must_use]
    pub fn with_delta_fraction(mut self, delta_fraction: f64) -> Self {
        self.delta_fraction = delta_fraction;
        self
    }

    /// Sets the dynamic-power utilization of overhead time.
    #[must_use]
    pub fn with_overhead_util(mut self, overhead_util: f64) -> Self {
        self.overhead_util = overhead_util;
        self
    }

    /// Whether the failure process is active (positive MTBF).
    #[must_use]
    pub fn has_failures(&self) -> bool {
        self.mtbf_s > 0.0
    }

    /// Whether the spec models no failures at all — the estimator then
    /// leaves the report's resilience section absent.
    #[must_use]
    pub fn is_none(&self) -> bool {
        !self.has_failures()
    }

    /// Validates the spec's parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a field is out of range
    /// (negative or non-finite MTBF, non-positive or non-finite interval,
    /// negative/non-finite restart cost, degenerate process shape,
    /// duplicate or base-kind extra tiers, out-of-range fractions).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.mtbf_s.is_finite() && self.mtbf_s >= 0.0) {
            return Err(format!(
                "MTBF must be non-negative and finite (0 disables failures), got {}",
                self.mtbf_s
            ));
        }
        if let Some(interval) = self.interval_s {
            if !(interval.is_finite() && interval > 0.0) {
                return Err(format!(
                    "checkpoint interval must be positive and finite, got {interval}"
                ));
            }
        }
        if !(self.restart_s.is_finite() && self.restart_s >= 0.0) {
            return Err(format!(
                "restart cost must be non-negative and finite, got {}",
                self.restart_s
            ));
        }
        self.process.validate()?;
        for (i, tier) in self.tiers.iter().enumerate() {
            if tier.kind == TierKind::PersistentFull {
                return Err(
                    "the persistent full tier is always present; extra tiers may only \
                     be peer or delta"
                        .to_owned(),
                );
            }
            if self.tiers[..i].iter().any(|t| t.kind == tier.kind) {
                return Err(format!("duplicate checkpoint tier '{}'", tier.kind));
            }
            if let Some(interval) = tier.interval_s {
                if !(interval.is_finite() && interval > 0.0) {
                    return Err(format!(
                        "tier '{}' interval must be positive and finite, got {interval}",
                        tier.kind
                    ));
                }
            }
        }
        if !(self.rewarm_s.is_finite() && self.rewarm_s >= 0.0) {
            return Err(format!(
                "re-warm cost must be non-negative and finite, got {}",
                self.rewarm_s
            ));
        }
        if !(self.repair_s.is_finite() && self.repair_s >= 0.0) {
            return Err(format!(
                "repair time must be non-negative and finite, got {}",
                self.repair_s
            ));
        }
        if !(self.delta_fraction.is_finite()
            && self.delta_fraction > 0.0
            && self.delta_fraction <= 1.0)
        {
            return Err(format!(
                "delta fraction must be in (0, 1], got {}",
                self.delta_fraction
            ));
        }
        if !(self.overhead_util.is_finite() && (0.0..=1.0).contains(&self.overhead_util)) {
            return Err(format!(
                "overhead utilization must be in [0, 1], got {}",
                self.overhead_util
            ));
        }
        Ok(())
    }

    /// Prices the full resilience stack for one evaluated strategy.
    ///
    /// `reprice` maps a shrunken DP degree to the failure-free time of
    /// the correspondingly shrunken batch (the elastic repricing entry
    /// point of [`crate::PreparedTrainingEstimator`]); return `None` to
    /// declare the shrink infeasible. `rework` prices the expected rework
    /// per failure of an uptime law, an interval and a write time: the
    /// bare [`expected_rework`], or a memo in front of it that returns its
    /// values bit for bit (the prepared estimator keeps one per sweep).
    /// `None` overall when the failure process is disabled.
    #[must_use]
    pub fn evaluate_stack(
        &self,
        ctx: &StackContext<'_>,
        reprice: &dyn Fn(usize) -> Option<Time>,
        rework: &dyn Fn(Uptime, f64, f64) -> f64,
    ) -> Option<ResilienceReport> {
        if !self.has_failures() {
            return None;
        }
        let memory = ctx.memory;
        // Model state per device: parameters + optimizer moments. The
        // gradient buffer is transient and activations are recomputed, so
        // neither belongs in a checkpoint.
        let checkpoint_bytes = memory.parameters + memory.optimizer;
        // Every device streams its shard over the node's egress link in
        // parallel; the size-dependent utilization derating penalizes the
        // small shards of wide strategies.
        let link = &ctx.cluster.inter_link;
        let checkpoint_write = checkpoint_bytes / link.effective_bandwidth(checkpoint_bytes);
        let delta = checkpoint_write.secs();

        let cluster_mtbf = self
            .process
            .cluster_mtbf(self.mtbf_s, ctx.parallelism.total_gpus());
        let (interval, auto_interval) = match self.interval_s {
            Some(s) => (s, false),
            None => (young_daly_interval(delta, cluster_mtbf), true),
        };

        let checkpoint_overhead_frac = if interval > 0.0 {
            delta / interval
        } else {
            0.0
        };

        let dp = ctx.parallelism.dp;
        let classes = self.failure_classes(ctx.parallelism);
        let priced = self.price_tiers(ctx, checkpoint_bytes, cluster_mtbf);
        let applicable: Vec<&PricedTier> = priced.iter().filter(|t| t.applicable).collect();

        let restart_frac = self.restart_s / cluster_mtbf;
        let repair_frac_v = self.repair_s / cluster_mtbf;

        // Expected rework per useful second of each applicable tier's own
        // cadence, and of the base tier's: one exact evaluation per
        // distinct (τ, δ), shared by every tier subset below.
        let uptime = Uptime::of(self.process, cluster_mtbf);
        let base_rework = rework(uptime, interval, delta) / cluster_mtbf;
        let tier_rework: Vec<f64> = applicable
            .iter()
            .map(|t| rework(uptime, t.interval_s, t.write.secs()) / cluster_mtbf)
            .collect();

        // Recovery per failure class, independent of the tier subset: a
        // full restart stops for restart_s and waits out the repair;
        // elastic re-warms the survivors and trains degraded through the
        // repair window.
        let restart_extra = restart_frac + repair_frac_v;
        let mut elastic_extra_frac = 0.0;
        let mut elastic_detail: Option<ElasticDetail> = None;
        for class in &classes {
            let mut class_extra = restart_extra;
            if self.elastic && class.lost_groups < dp {
                let shrunken = dp - class.lost_groups;
                if let Some(t_deg) = reprice(shrunken) {
                    // Per-replica batch stays constant, so degraded
                    // sample throughput is (dp'/dp) · (t/t') of full.
                    let ratio = (shrunken as f64 * ctx.time_per_batch.secs()
                        / (dp as f64 * t_deg.secs()))
                    .clamp(0.0, 1.0);
                    let elastic_extra =
                        (self.rewarm_s + self.repair_s * (1.0 - ratio)) / cluster_mtbf;
                    class_extra = elastic_extra.min(restart_extra);
                    elastic_detail.get_or_insert(ElasticDetail {
                        shrunken_dp: shrunken,
                        degraded_time_per_batch: t_deg,
                        throughput_ratio: ratio,
                    });
                }
            }
            elastic_extra_frac += class.weight * class_extra;
        }

        // The stack only keeps tiers that pay for themselves: evaluate
        // every subset of the applicable extra tiers and keep the best
        // (the empty subset — the scalar base model — is always a
        // candidate, so tiers can never make a spec worse).
        let mut best: Option<Candidate> = None;
        for mask in 0u32..(1 << applicable.len()) {
            let active = || (0..applicable.len()).filter(move |bit| mask & (1 << bit) != 0);
            let extra_overhead: f64 = active().map(|bit| applicable[bit].overhead_frac()).sum();
            let overhead_total = checkpoint_overhead_frac + extra_overhead;

            let mut rework_frac = 0.0;
            for class in &classes {
                // Roll back to the freshest snapshot on a tier that
                // survives this class's blast radius. Persistent tiers
                // always survive; peer replicas need a surviving DP group.
                let mut tau_c = interval;
                let mut rework_c = base_rework;
                for bit in active() {
                    let t = applicable[bit];
                    let survives = match t.kind {
                        TierKind::InMemoryPeer => class.lost_groups < dp,
                        _ => true,
                    };
                    if survives && t.interval_s < tau_c {
                        tau_c = t.interval_s;
                        rework_c = tier_rework[bit];
                    }
                }
                rework_frac += class.weight * rework_c;
            }

            let waste_restart = overhead_total + rework_frac + restart_frac + repair_frac_v;
            let waste_elastic = overhead_total + rework_frac + elastic_extra_frac;
            let waste_chosen = if self.elastic {
                waste_elastic.min(waste_restart)
            } else {
                waste_restart
            };
            let candidate = Candidate {
                mask,
                overhead_total,
                rework_frac,
                waste_restart,
                waste_elastic,
                waste_chosen,
            };
            if best
                .as_ref()
                .is_none_or(|b| candidate.waste_chosen < b.waste_chosen)
            {
                best = Some(candidate);
            }
        }
        let best = best.expect("subset enumeration always includes the empty stack");

        let waste = best.waste_chosen;
        let goodput = 1.0 / (1.0 + waste);

        let tiers = if priced.is_empty() {
            None
        } else {
            // Applicable tiers hold the subset bits, in order.
            let mut bit = 0;
            Some(
                priced
                    .iter()
                    .map(|t| {
                        let active = t.applicable && best.mask & (1 << bit) != 0;
                        bit += u32::from(t.applicable);
                        TierReport {
                            kind: t.kind,
                            bytes: t.bytes,
                            write: t.write,
                            interval: Time::from_secs(t.interval_s),
                            auto_interval: t.auto,
                            overhead_frac: t.overhead_frac(),
                            active,
                        }
                    })
                    .collect(),
            )
        };
        let elastic = if self.elastic {
            let detail = elastic_detail.unwrap_or(ElasticDetail {
                shrunken_dp: dp.saturating_sub(1),
                degraded_time_per_batch: Time::ZERO,
                throughput_ratio: 0.0,
            });
            Some(ElasticReport {
                shrunken_dp: detail.shrunken_dp,
                feasible: elastic_detail.is_some(),
                degraded_time_per_batch: detail.degraded_time_per_batch,
                throughput_ratio: detail.throughput_ratio,
                restart_goodput: 1.0 / (1.0 + best.waste_restart),
                elastic_goodput: 1.0 / (1.0 + best.waste_elastic),
                waste,
                chosen: best.waste_elastic < best.waste_restart,
            })
        } else {
            None
        };

        Some(ResilienceReport {
            spec: self.clone(),
            checkpoint_bytes,
            checkpoint_write,
            interval: Time::from_secs(interval),
            auto_interval,
            cluster_mtbf: Time::from_secs(cluster_mtbf),
            checkpoint_overhead_frac: best.overhead_total,
            rework_frac: best.rework_frac,
            restart_frac,
            goodput,
            expected_time_per_batch: ctx.time_per_batch * (1.0 + waste),
            process: if self.process.is_exponential() {
                None
            } else {
                Some(self.process)
            },
            tiers,
            repair_frac: if self.repair_s == 0.0 {
                None
            } else {
                Some(repair_frac_v)
            },
            elastic,
        })
    }

    /// The failure event classes of this spec's process: each with its
    /// share of the total failure rate and the number of DP groups its
    /// blast radius removes under strategy `p`.
    fn failure_classes(&self, p: Parallelism) -> Vec<FailureClass> {
        match self.process {
            FailureProcess::RackCorrelated { racks, rack_mtbf_s } => {
                let gpus = p.total_gpus();
                let solo_rate = gpus as f64 / self.mtbf_s;
                let rack_rate = racks as f64 / rack_mtbf_s;
                let total = solo_rate + rack_rate;
                let rack_gpus = gpus.div_ceil(racks.max(1));
                let lost = rack_gpus.div_ceil(p.tp * p.pp).clamp(1, p.dp);
                vec![
                    FailureClass {
                        weight: solo_rate / total,
                        lost_groups: 1,
                    },
                    FailureClass {
                        weight: rack_rate / total,
                        lost_groups: lost,
                    },
                ]
            }
            _ => vec![FailureClass {
                weight: 1.0,
                lost_groups: 1,
            }],
        }
    }

    /// Prices every configured extra tier: bytes, write time over the
    /// appropriate path, and interval (given or per-tier Young–Daly).
    fn price_tiers(
        &self,
        ctx: &StackContext<'_>,
        checkpoint_bytes: Bytes,
        cluster_mtbf: f64,
    ) -> Vec<PricedTier> {
        let link = &ctx.cluster.inter_link;
        let dp = ctx.parallelism.dp;
        self.tiers
            .iter()
            .map(|tier| {
                let (bytes, write, applicable) = match tier.kind {
                    TierKind::InMemoryPeer => {
                        // Peer replication is a DP-group all-gather of the
                        // device state over the node-egress link; with no
                        // peer group there is nowhere to replicate to.
                        let write =
                            CommModel::Auto.time(Collective::AllGather, checkpoint_bytes, dp, link);
                        (checkpoint_bytes, write, dp >= 2)
                    }
                    TierKind::PersistentFull | TierKind::PersistentDelta => {
                        let bytes = Bytes::new(memory_delta_bytes(ctx.memory, self.delta_fraction));
                        let write = bytes / link.effective_bandwidth(bytes);
                        (bytes, write, true)
                    }
                };
                let (interval_s, auto) = match tier.interval_s {
                    Some(s) => (s, false),
                    None => (young_daly_interval(write.secs(), cluster_mtbf), true),
                };
                PricedTier {
                    kind: tier.kind,
                    bytes,
                    write,
                    interval_s,
                    auto,
                    applicable,
                }
            })
            .collect()
    }
}

/// Sharded optimizer-state bytes captured by a delta checkpoint.
fn memory_delta_bytes(memory: &TrainingMemoryReport, fraction: f64) -> f64 {
    memory.optimizer.bytes() * fraction
}

/// Everything [`CheckpointSpec::evaluate_stack`] needs to know about the
/// strategy being priced.
#[derive(Debug, Clone, Copy)]
pub struct StackContext<'a> {
    /// The cluster whose links price checkpoint writes.
    pub cluster: &'a ClusterSpec,
    /// The strategy's per-device memory footprint.
    pub memory: &'a TrainingMemoryReport,
    /// The strategy: its device count, peer-tier group size and elastic
    /// blast-radius arithmetic.
    pub parallelism: Parallelism,
    /// The strategy's failure-free batch time.
    pub time_per_batch: Time,
}

/// One failure event class: its share of the total failure rate and how
/// many DP groups its blast radius removes.
struct FailureClass {
    weight: f64,
    lost_groups: usize,
}

/// One extra tier with its pricing resolved.
struct PricedTier {
    kind: TierKind,
    bytes: Bytes,
    write: Time,
    interval_s: f64,
    auto: bool,
    applicable: bool,
}

impl PricedTier {
    /// Write overhead per useful second.
    fn overhead_frac(&self) -> f64 {
        if self.interval_s > 0.0 {
            self.write.secs() / self.interval_s
        } else {
            0.0
        }
    }
}

/// Elastic repricing detail of the first feasible failure class.
#[derive(Clone, Copy)]
struct ElasticDetail {
    shrunken_dp: usize,
    degraded_time_per_batch: Time,
    throughput_ratio: f64,
}

/// One tier subset's waste terms.
struct Candidate {
    mask: u32,
    overhead_total: f64,
    rework_frac: f64,
    waste_restart: f64,
    waste_elastic: f64,
    waste_chosen: f64,
}

/// The law of a job's uptime between job-stopping failures, as the rework
/// pricing sees it: Weibull with shape `k` and mean `M`. `k = 1` is the
/// exponential law, which the rack-correlated process induces too (its
/// per-GPU and per-rack Poisson streams superpose into one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uptime {
    /// Weibull shape `k` (`1` = exponential).
    pub shape: f64,
    /// Mean uptime `M` in seconds: the cluster MTBF.
    pub mean_s: f64,
}

impl Uptime {
    /// Exponential uptime with mean `mean_s`.
    #[must_use]
    pub fn exponential(mean_s: f64) -> Self {
        Self { shape: 1.0, mean_s }
    }

    /// Weibull uptime with shape `shape` and mean `mean_s`.
    #[must_use]
    pub fn weibull(shape: f64, mean_s: f64) -> Self {
        Self { shape, mean_s }
    }

    /// The uptime law `process` induces on a cluster whose MTBF is
    /// `cluster_mtbf_s` (see [`FailureProcess::cluster_mtbf`]).
    #[must_use]
    pub fn of(process: FailureProcess, cluster_mtbf_s: f64) -> Self {
        match process {
            FailureProcess::Weibull { shape } => Self::weibull(shape, cluster_mtbf_s),
            FailureProcess::Exponential | FailureProcess::RackCorrelated { .. } => {
                Self::exponential(cluster_mtbf_s)
            }
        }
    }
}

/// Expected useful work lost per failure, `E[min(U mod P, τ)]` with
/// `P = τ + δ`: work alternates `τ` useful seconds (`interval_s`) with a
/// `δ`-second snapshot (`write_s`), and a failure at uptime `U` loses
/// whatever of the current interval is not yet checkpointed.
///
/// Integrating `min(u mod P, τ)` by parts against the survival function
/// `S` of `uptime` (it rises with slope 1 for the first `τ` seconds of
/// each period and drops by `τ` at each period's end) gives the exact
/// deterministic form
///
/// `E = Σ_j [∫_{jP}^{jP+τ} S(u) du − τ·S((j+1)P)]`,
///
/// which tends to `τ/2` (the first-order term of [`waste_fraction`]) as
/// `δ → 0` and `τ/M → 0`, and always lies in `[0, τ]`.
///
/// * **Exponential** (`k = 1`): the geometric series sums in closed form,
///   `[M(1 − e^{−τ/M}) − τe^{−P/M}] / (1 − e^{−P/M})`.
/// * **Weibull** (`k ≠ 1`, scale `λ = M / Γ(1 + 1/k)`): the first period
///   is the partial mean `M·P(1/k, (τ/λ)^k)` (regularized lower
///   incomplete gamma). Each next period is one 6-point Gauss–Legendre
///   panel where `S` is smooth across it, and a difference of the same
///   exact partial means where it is not (a high hazard, or a large
///   shape's steep drop). Once the hazard `h` is flat on the scale of a
///   period (`h·P` small, and enough periods from the origin that `h`
///   itself barely drifts across one) the rest of the sum closes with an
///   Euler–Maclaurin tail that needs one period's integrals and `S′`,
///   `S‴` at three points. For `k > 1` the hazard grows along the tail,
///   so the smooth stretch ends where `h·P` crosses the threshold and the
///   periods past it are summed one by one; each of those burns a fixed
///   slice of cumulative hazard, so their count stays bounded for every
///   shape [`FailureProcess::validate`] accepts. Periods before the mass
///   begins (`(u/λ)^k` below `1e-17`) are skipped, and the sum stops once
///   `τ·S(u)`, which bounds everything past `u`, is below `1e-17` of it.
///   A period too short to resolve where the mass begins (under `2⁻²⁶`
///   of that point) prices the uniform phase, `τ(τ/2 + δ)/(τ + δ)`.
///   A mean far from 1 s (outside `1e-50..=1e50`) is priced in units of
///   the mean, `M·E(1, τ/M, δ/M)`, where those sums stay in f64's range.
#[must_use]
pub fn expected_rework(uptime: Uptime, interval_s: f64, write_s: f64) -> f64 {
    let tau = interval_s;
    if tau.is_nan() || tau <= 0.0 {
        return 0.0;
    }
    let period = tau + write_s;
    let mean = uptime.mean_s;
    if uptime.shape == 1.0 {
        // The closed form rearranged to τ − M·φ(τ/M) / (1 − e^{−P/M}):
        // its numerator and denominator both vanish as τ/M → 0, and this
        // form keeps full precision there.
        let whole = -(-period / mean).exp_m1();
        return (tau - mean * exp_remainder(tau / mean) / whole).clamp(0.0, tau);
    }
    if mean > 0.0 && mean.is_finite() && !DIRECT_MEANS.contains(&mean) {
        let unit = expected_rework(
            Uptime::weibull(uptime.shape, 1.0),
            tau / mean,
            write_s / mean,
        );
        return (mean * unit).min(tau);
    }
    WeibullLaw::new(uptime.shape, mean).rework(tau, period)
}

/// The means `M` whose Weibull rework [`expected_rework`] sums directly.
/// The period sum's scales follow `M`: its Euler–Maclaurin tail forms
/// `P³` and the survival derivatives `h³`, with `P` and `1/h` of the
/// order of `M` at realistic `τ/M`, and those leave f64's range (`M`
/// beyond about 1e100 or below about 1e-100 gives a wrong sum or NaN).
/// Outside this band `E` is priced in units of the mean,
/// `E(M, τ, δ) = M·E(1, τ/M, δ/M)`, which holds because `E` scales
/// linearly when `M`, `τ` and `δ` scale together; inside it every result
/// is the direct sum's.
const DIRECT_MEANS: core::ops::RangeInclusive<f64> = 1e-50..=1e50;

/// `φ(a) = a − 1 + e^{−a}`, from its Taylor series `Σ_{n≥2} (−a)ⁿ/n!`
/// below `a = 1/2` (where the direct form cancels) and directly above.
fn exp_remainder(a: f64) -> f64 {
    if a > 0.5 {
        return a + (-a).exp_m1();
    }
    let mut term = a * a / 2.0;
    let mut sum = term;
    for n in 3..=20 {
        term *= -a / f64::from(n);
        sum += term;
    }
    sum
}

/// Gauss–Legendre nodes on `[−1, 1]` (positive half) and their weights:
/// exact for polynomials up to degree 11.
const GL_NODES: [f64; 3] = [
    0.238_619_186_083_196_9,
    0.661_209_386_466_264_5,
    0.932_469_514_203_152,
];
const GL_WEIGHTS: [f64; 3] = [
    0.467_913_934_572_691,
    0.360_761_573_048_138_6,
    0.171_324_492_379_170_4,
];

/// `∫_a^b f` by 6-point Gauss–Legendre.
fn gauss_legendre(f: impl Fn(f64) -> f64, a: f64, b: f64) -> f64 {
    let half = (b - a) / 2.0;
    let mid = a + half;
    let mut sum = 0.0;
    for (x, w) in GL_NODES.iter().zip(GL_WEIGHTS) {
        sum += w * (f(mid - half * x) + f(mid + half * x));
    }
    sum * half
}

/// Euler–Maclaurin switch: the tail takes over once the hazard per period
/// `h·P` is at most this over the rest of the sum ...
const EM_SMOOTHNESS: f64 = 0.25;
/// ... and the period index `j` is large enough that the hazard's own
/// drift across a period is small. The omitted remainder carries the
/// hazard's derivatives `h⁽ᵐ⁾ = (k−1)(k−2)⋯(k−m)·h/uᵐ`; with
/// `c = |k − 1|` the rising factorial `c(c+1)(c+2)(c+3)` bounds every
/// such product up to `m = 4`, and `h·P · c(c+1)(c+2)(c+3) · (P/u)⁴` is
/// held to at most this.
const EM_DRIFT: f64 = 2e-3;
/// Cumulative hazard `(u/λ)^k` below which the mass has not begun:
/// periods that end before it add at most `τ` times it in total.
const MASS_BEGINS: f64 = 1e-17;
/// The period sum resolves a period at the point `x` where the mass begins
/// only while `P` is at least this fraction of `x` (`2⁻²⁶ = √ε`): its
/// nodes `x + s·τ` round by `ε·x/τ` relative, and where `x + τ == x` a
/// whole period rounds away. A shorter period prices the uniform phase
/// `U mod P` instead, whose error in `E/τ` is at most the skipped mass
/// plus `P` times the density's total variation past `x`: `k·1e-17` more
/// where the density falls from `x` on (`k < 1`), and `2⁻²⁵·x·f_max` more
/// where it rises to a mode first.
const RESOLVED_PERIOD: f64 = 1.490_116_119_384_765_6e-8;
/// Stop once the remaining mass bounds the rest of the sum below this
/// fraction of the running total.
const TAIL_NEGLIGIBLE: f64 = 1e-17;
/// A summed period's useful stretch takes one Gauss–Legendre panel when
/// the cumulative hazard across it is at most this ...
const PANEL_HAZARD: f64 = 1.0;
/// ... and the log-hazard drifts across it by at most this (`|k − 1|·τ/u`;
/// large shapes make `S` a steep high power of `u`). Rougher stretches
/// take the exact incomplete-gamma partial mean instead.
const PANEL_DRIFT: f64 = 2.0;
/// Backstop on summed periods. The switch rules above bound the count
/// by a few hundred; this only guards non-finite inputs.
const MAX_PERIODS: usize = 1 << 14;

/// A Weibull survival curve `S(u) = exp(−(u/λ)^k)`, the derivatives its
/// Euler–Maclaurin tail needs, and the period sum of
/// [`expected_rework`].
struct WeibullLaw {
    shape: f64,
    ln_scale: f64,
    mean: f64,
    /// The first period index the Euler–Maclaurin tail may start at.
    tail_start: f64,
}

impl WeibullLaw {
    fn new(shape: f64, mean: f64) -> Self {
        let c = (shape - 1.0).abs();
        let drift = c * (c + 1.0) * (c + 2.0) * (c + 3.0);
        Self {
            shape,
            // ln λ = ln M − ln Γ(1 + 1/k), without forming λ: tiny shapes
            // would underflow it.
            ln_scale: mean.ln() - ln_gamma(1.0 + 1.0 / shape),
            mean,
            tail_start: (EM_SMOOTHNESS * drift / EM_DRIFT)
                .powf(0.25)
                .ceil()
                .max(1.0),
        }
    }

    /// The cumulative hazard `z = (u/λ)^k`.
    fn cumulative_hazard(&self, u: f64) -> f64 {
        (self.shape * (u.ln() - self.ln_scale)).exp()
    }

    fn survival(&self, u: f64) -> f64 {
        (-self.cumulative_hazard(u)).exp()
    }

    /// The partial mean `∫₀^u S = M·P(1/k, z(u))`, exactly. It is
    /// `u·(1 − z(u)/(k + 1) + …)`, so `u` itself while `z(u)` is below ε,
    /// where `z(u)` may underflow for large `k` although `z(u)^{1/k} = u/λ`
    /// does not.
    fn partial_mean(&self, u: f64) -> f64 {
        let z = self.cumulative_hazard(u);
        if z < f64::EPSILON {
            u
        } else {
            self.mean * regularized_gamma_p(1.0 / self.shape, z)
        }
    }

    /// `[S, S′, S″, S‴]` at `u > 0`, from the hazard `h = k·z/u` and its
    /// derivatives `h′ = (k − 1)·h/u`, `h″ = (k − 2)·h′/u`.
    fn survival_derivatives(&self, u: f64) -> [f64; 4] {
        let k = self.shape;
        let z = self.cumulative_hazard(u);
        let s = (-z).exp();
        let h = k * z / u;
        let h1 = (k - 1.0) * h / u;
        let h2 = (k - 2.0) * h1 / u;
        [
            s,
            -h * s,
            (h * h - h1) * s,
            (3.0 * h * h1 - h * h * h - h2) * s,
        ]
    }

    /// Whether the period sum from index `j` on is smooth enough for the
    /// Euler–Maclaurin tail, given the cumulative hazard `z_max` at the
    /// period's hazard maximum `u_max` (its start for `k < 1`, its end
    /// for `k > 1`).
    fn smooth(&self, j: f64, period: f64, z_max: f64, u_max: f64) -> bool {
        j >= self.tail_start && self.shape * z_max * period <= EM_SMOOTHNESS * u_max
    }

    /// For `k > 1`, the period index where the smooth stretch ends:
    /// `h(u) ≤ EM_SMOOTHNESS / P` holds up to `u*`, and the index is the
    /// last one whose period still ends by `u*` (the tail terms there look
    /// one period ahead). `None` when the stretch runs past any
    /// representable index (or `k < 1`, whose hazard falls).
    fn smooth_end(&self, period: f64) -> Option<f64> {
        let k = self.shape;
        if k < 1.0 {
            return None;
        }
        // h(u)·P = ε  ⇔  (u/λ)^{k−1} = ε·λ / (k·P).
        let ln_u_star =
            self.ln_scale + ((EM_SMOOTHNESS / (k * period)).ln() + self.ln_scale) / (k - 1.0);
        let end = (ln_u_star.exp() / period - 1.0).floor();
        (end < 2f64.powi(52)).then_some(end)
    }

    /// The Euler–Maclaurin tail `Σ_{i≥0} F(x + iP)` of the period terms
    /// `F(x) = ∫_x^{x+τ} S − τ·S(x + P)`:
    /// `(1/P)∫_x^∞ F + F(x)/2 − (P/12)·F′(x) + (P³/720)·F‴(x)`, where
    /// `∫_x^∞ F = ∫_x^{x+τ} (u − x)·S + τ·∫_{x+τ}^{x+P} S` only spans one
    /// period.
    fn tail(&self, x: f64, tau: f64, period: f64) -> f64 {
        let weighted = gauss_legendre(|u| (u - x + period / 2.0) * self.survival(u), x, x + tau);
        let write = if period > tau {
            gauss_legendre(|u| self.survival(u), x + tau, x + period)
        } else {
            0.0
        };
        let [s_start, _, d2_start, _] = self.survival_derivatives(x);
        let [s_useful, _, d2_useful, _] = self.survival_derivatives(x + tau);
        let [s_end, d1_end, _, d3_end] = self.survival_derivatives(x + period);
        let f1 = s_useful - s_start - tau * d1_end;
        let f3 = d2_useful - d2_start - tau * d3_end;
        (weighted + tau * write) / period - tau / 2.0 * s_end - period / 12.0 * f1
            + period.powi(3) / 720.0 * f3
    }

    /// `E[min(U mod P, τ)]`; see [`expected_rework`].
    fn rework(&self, tau: f64, period: f64) -> f64 {
        let k = self.shape;
        let mass_begins = (self.ln_scale + MASS_BEGINS.ln() / k).exp();
        if period < RESOLVED_PERIOD * mass_begins {
            return uniform_phase(tau, period);
        }
        // Period 0 exactly: ∫₀^τ S = M·P(1/k, (τ/λ)^k).
        let mut total = self.partial_mean(tau) - tau * self.survival(period);
        // Skip the periods that end before the mass begins.
        let mut j = (mass_begins / period).floor().max(1.0);
        let mut z = self.cumulative_hazard(j * period);
        let smooth_end = self.smooth_end(period);
        for _ in 0..MAX_PERIODS {
            let x = j * period;
            if tau * (-z).exp() <= TAIL_NEGLIGIBLE * total {
                break;
            }
            let z_next = self.cumulative_hazard(x + period);
            let (z_max, u_max) = if k < 1.0 {
                (z, x)
            } else {
                (z_next, x + period)
            };
            if self.smooth(j, period, z_max, u_max) {
                match smooth_end {
                    None => {
                        let tail = self.tail(x, tau, period);
                        if tail.is_nan() {
                            // A period far below the scale where the
                            // hazard varies (tiny shapes at τ/M near
                            // 1e-150): the tail's P³ underflows to 0 and
                            // F‴, built from h³, overflows. The phase is
                            // uniform there, to about (P/λ)^k.
                            return uniform_phase(tau, period);
                        }
                        return (total + tail).clamp(0.0, tau);
                    }
                    Some(end) if end > j => {
                        total += self.tail(x, tau, period) - self.tail(end * period, tau, period);
                        j = end;
                        z = self.cumulative_hazard(j * period);
                        continue;
                    }
                    Some(_) => {}
                }
            }
            let hazard_span = (k * z / x).max(k * z_next / (x + period)) * tau;
            let drift = (k - 1.0).abs() * tau / x;
            let useful = if hazard_span <= PANEL_HAZARD && drift <= PANEL_DRIFT {
                gauss_legendre(|u| self.survival(u), x, x + tau)
            } else {
                self.partial_mean(x + tau) - self.partial_mean(x)
            };
            total += useful - tau * (-z_next).exp();
            j += 1.0;
            z = z_next;
        }
        total.clamp(0.0, tau)
    }
}

/// `E` when the phase `U mod P` is uniform: `τ(τ/2 + δ)/P`.
fn uniform_phase(tau: f64, period: f64) -> f64 {
    tau * (1.0 - tau / (2.0 * period))
}

/// The Young–Daly checkpoint interval `√(2 δ M)` for a checkpoint that
/// costs `checkpoint_write_s` seconds on a system with a cluster-level
/// MTBF of `cluster_mtbf_s` seconds: the exact minimizer of the
/// first-order [`waste_fraction`] (the restart term does not depend on
/// the interval). The priced waste uses the exact [`expected_rework`]
/// instead of `τ/2`, whose minimizer sits within `O(τ/M)` of this one.
#[must_use]
pub fn young_daly_interval(checkpoint_write_s: f64, cluster_mtbf_s: f64) -> f64 {
    let product = 2.0 * checkpoint_write_s * cluster_mtbf_s;
    if product.is_finite() {
        product.sqrt()
    } else {
        // 2δM overflows past about 1.8e308; the roots of its factors do not.
        (2.0 * checkpoint_write_s).sqrt() * cluster_mtbf_s.sqrt()
    }
}

/// The first-order waste fraction `w(τ) = δ/τ + (τ/2 + R)/M`: non-useful
/// seconds per useful second spent on checkpoint writes, expected rework
/// (half an interval per failure), and restarts. This is the objective
/// [`young_daly_interval`] minimizes; reports price the rework term
/// exactly with [`expected_rework`], which it approximates to first
/// order in `δ/τ` and `τ/M`. Effective goodput is `1 / (1 + w)`.
#[must_use]
pub fn waste_fraction(
    interval_s: f64,
    checkpoint_write_s: f64,
    restart_s: f64,
    cluster_mtbf_s: f64,
) -> f64 {
    checkpoint_write_s / interval_s + (interval_s / 2.0 + restart_s) / cluster_mtbf_s
}

/// One extra checkpoint tier's pricing inside a [`ResilienceReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierReport {
    /// The tier's kind.
    pub kind: TierKind,
    /// Bytes this tier snapshots per device.
    pub bytes: Bytes,
    /// Time of one snapshot on this tier.
    pub write: Time,
    /// The tier's snapshot interval (given, or per-tier Young–Daly).
    pub interval: Time,
    /// Whether `interval` was auto-selected.
    pub auto_interval: bool,
    /// This tier's write overhead per useful second.
    pub overhead_frac: f64,
    /// Whether the stack kept this tier (tiers that don't pay for
    /// themselves are dropped and contribute nothing).
    pub active: bool,
}

/// The elastic-vs-restart comparison of a [`ResilienceReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElasticReport {
    /// DP degree after shrinking by the (first feasible) blast radius.
    pub shrunken_dp: usize,
    /// Whether any failure class could be absorbed elastically.
    pub feasible: bool,
    /// Failure-free time of the shrunken batch (zero when infeasible).
    pub degraded_time_per_batch: Time,
    /// Degraded sample throughput as a fraction of the full job's.
    pub throughput_ratio: f64,
    /// Goodput of the restart-only strategy.
    pub restart_goodput: f64,
    /// Goodput continuing elastically through repairs.
    pub elastic_goodput: f64,
    /// Waste fraction of the chosen strategy.
    pub waste: f64,
    /// Whether elastic recovery strictly beat restarting.
    pub chosen: bool,
}

/// The resilience section of a [`crate::TrainingReport`]: how one
/// strategy's failure-free batch time inflates under a [`CheckpointSpec`].
///
/// Stack extensions are omitted (not `null`) when absent so base reports
/// stay byte-identical to the pre-stack format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// The spec priced into this report.
    pub spec: CheckpointSpec,
    /// Per-device model state written per checkpoint (parameters +
    /// optimizer moments).
    pub checkpoint_bytes: Bytes,
    /// Time of one persistent full checkpoint write (`δ`): the state
    /// shard over the node-egress link's effective bandwidth.
    pub checkpoint_write: Time,
    /// The persistent-full checkpoint interval `τ` in effect (given, or
    /// Young–Daly).
    pub interval: Time,
    /// Whether `interval` was auto-selected via Young–Daly.
    pub auto_interval: bool,
    /// Cluster-level MTBF `M` under the spec's failure process
    /// (`mtbf_s / gpus` for exponential).
    pub cluster_mtbf: Time,
    /// Checkpoint write overhead per useful second, summed over every
    /// active tier (`δ/τ` for the base model).
    pub checkpoint_overhead_frac: f64,
    /// Expected rework per useful second: the uncheckpointed work lost
    /// per failure (on the freshest surviving tier) over `M`.
    pub rework_frac: f64,
    /// Restart time per useful second (`R/M`).
    pub restart_frac: f64,
    /// Effective goodput: the useful fraction of wall-clock,
    /// `1 / (1 + w)`.
    pub goodput: f64,
    /// Failure-expected time per batch: `time_per_batch / goodput`.
    pub expected_time_per_batch: Time,
    /// The non-exponential failure process, when one is in effect.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub process: Option<FailureProcess>,
    /// Extra checkpoint tier pricing, when tiers are configured.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tiers: Option<Vec<TierReport>>,
    /// Repair-wait time per useful second, when `repair_s > 0`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub repair_frac: Option<f64>,
    /// The elastic-vs-restart comparison, when elasticity is enabled.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub elastic: Option<ElasticReport>,
}

impl ResilienceReport {
    /// Total waste fraction `w` of the chosen recovery strategy: for the
    /// base model exactly `δ/τ + (E + R)/M` with `E` the
    /// [`expected_rework`]; with repair waits or an elastic recovery,
    /// their terms included.
    #[must_use]
    pub fn waste(&self) -> f64 {
        match &self.elastic {
            Some(e) if e.chosen => e.waste,
            _ => {
                self.checkpoint_overhead_frac
                    + self.rework_frac
                    + self.restart_frac
                    + self.repair_frac.unwrap_or(0.0)
            }
        }
    }
}

impl core::fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "goodput {:.1}% (ckpt {} every {}{}, cluster MTBF {}, expected {})",
            self.goodput * 100.0,
            self.checkpoint_write,
            self.interval,
            if self.auto_interval { " auto" } else { "" },
            self.cluster_mtbf,
            self.expected_time_per_batch
        )?;
        if let Some(process) = &self.process {
            write!(f, " [{process}]")?;
        }
        if let Some(tiers) = &self.tiers {
            for tier in tiers {
                write!(
                    f,
                    " [{}{} every {}]",
                    tier.kind,
                    if tier.active { "" } else { " off" },
                    tier.interval
                )?;
            }
        }
        if let Some(elastic) = &self.elastic {
            write!(
                f,
                " [elastic {}: dp→{} at {:.0}% vs restart {:.1}%]",
                if elastic.chosen { "on" } else { "off" },
                elastic.shrunken_dp,
                elastic.throughput_ratio * 100.0,
                elastic.restart_goodput * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_hw::presets;
    use optimus_memory::{training_memory, RecomputeMode, TrainingMemorySpec};
    use optimus_model::presets as models;
    use optimus_parallel::{Parallelism, PipelineSchedule};

    fn memory_for(p: Parallelism) -> TrainingMemoryReport {
        training_memory(
            &models::llama2_13b(),
            &TrainingMemorySpec {
                batch: 64,
                seq: 2048,
                parallelism: p,
                schedule: PipelineSchedule::OneFOneB,
                precision: optimus_hw::Precision::Fp16,
                recompute: RecomputeMode::Selective,
            },
        )
        .unwrap()
    }

    fn stack_ctx<'a>(
        cluster: &'a ClusterSpec,
        memory: &'a TrainingMemoryReport,
        p: Parallelism,
        t: Time,
    ) -> StackContext<'a> {
        StackContext {
            cluster,
            memory,
            parallelism: p,
            time_per_batch: t,
        }
    }

    /// `spec` priced on one DP group of `gpus` devices, TP up to 8 and PP
    /// the rest: no peer group, nothing to shrink, and a rack takes the
    /// whole job.
    fn price_one_group(
        spec: &CheckpointSpec,
        cluster: &ClusterSpec,
        memory: &TrainingMemoryReport,
        gpus: usize,
        t: Time,
    ) -> Option<ResilienceReport> {
        let tp = gpus.min(8);
        let p = Parallelism::new(1, tp, gpus / tp);
        spec.evaluate_stack(
            &stack_ctx(cluster, memory, p, t),
            &|_| None,
            &expected_rework,
        )
    }

    #[test]
    fn none_is_inactive_and_valid() {
        let spec = CheckpointSpec::none();
        assert!(spec.is_none());
        assert!(!spec.has_failures());
        assert!(spec.validate().is_ok());
        let cluster = presets::dgx_a100_hdr_cluster();
        let memory = memory_for(Parallelism::new(8, 8, 1).with_sp(true));
        assert!(price_one_group(&spec, &cluster, &memory, 64, Time::from_secs(10.0)).is_none());
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        assert!(CheckpointSpec::with_mtbf(-1.0).validate().is_err());
        assert!(CheckpointSpec::with_mtbf(f64::NAN).validate().is_err());
        assert!(CheckpointSpec::with_mtbf(f64::INFINITY).validate().is_err());
        assert!(CheckpointSpec::with_mtbf(1e5)
            .with_interval(0.0)
            .validate()
            .is_err());
        assert!(CheckpointSpec::with_mtbf(1e5)
            .with_interval(f64::INFINITY)
            .validate()
            .is_err());
        assert!(CheckpointSpec::with_mtbf(1e5)
            .with_restart(-3.0)
            .validate()
            .is_err());
        assert!(CheckpointSpec::with_mtbf(1e5)
            .with_interval(600.0)
            .with_restart(120.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_stacks() {
        let base = CheckpointSpec::with_mtbf(1e5);
        assert!(base
            .clone()
            .with_tier(CheckpointTier {
                kind: TierKind::PersistentFull,
                interval_s: None
            })
            .validate()
            .is_err());
        assert!(base
            .clone()
            .with_tier(CheckpointTier::peer())
            .with_tier(CheckpointTier::peer())
            .validate()
            .is_err());
        assert!(base
            .clone()
            .with_tier(CheckpointTier::delta().with_interval(-5.0))
            .validate()
            .is_err());
        assert!(base.clone().with_delta_fraction(0.0).validate().is_err());
        assert!(base.clone().with_delta_fraction(1.5).validate().is_err());
        assert!(base.clone().with_overhead_util(1.2).validate().is_err());
        assert!(base.clone().with_rewarm(f64::NAN).validate().is_err());
        assert!(base.clone().with_repair(-1.0).validate().is_err());
        assert!(base
            .clone()
            .with_process(FailureProcess::Weibull { shape: 0.0 })
            .validate()
            .is_err());
        assert!(base
            .with_tier(CheckpointTier::peer())
            .with_tier(CheckpointTier::delta())
            .with_elastic(true)
            .with_process(FailureProcess::Weibull { shape: 0.7 })
            .validate()
            .is_ok());
    }

    #[test]
    fn cluster_mtbf_scales_inversely_with_gpus() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let memory = memory_for(Parallelism::new(8, 8, 1).with_sp(true));
        let spec = CheckpointSpec::with_mtbf(1e8).with_restart(60.0);
        let t = Time::from_secs(10.0);
        let r64 = price_one_group(&spec, &cluster, &memory, 64, t).unwrap();
        let r128 = price_one_group(&spec, &cluster, &memory, 128, t).unwrap();
        assert!(
            (r64.cluster_mtbf.secs() - 2.0 * r128.cluster_mtbf.secs()).abs() < 1e-6,
            "doubling the fleet must halve the cluster MTBF"
        );
        assert!(
            r128.goodput < r64.goodput,
            "more GPUs ⇒ more failures ⇒ less goodput"
        );
        assert!(r128.expected_time_per_batch > r64.expected_time_per_batch);
    }

    #[test]
    fn auto_interval_is_young_daly_and_given_interval_wins() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let memory = memory_for(Parallelism::new(8, 8, 1).with_sp(true));
        let t = Time::from_secs(10.0);
        let auto =
            price_one_group(&CheckpointSpec::with_mtbf(1e8), &cluster, &memory, 64, t).unwrap();
        assert!(auto.auto_interval);
        let expect = young_daly_interval(auto.checkpoint_write.secs(), auto.cluster_mtbf.secs());
        assert!((auto.interval.secs() - expect).abs() < 1e-9);
        let fixed = CheckpointSpec::with_mtbf(1e8).with_interval(1234.0);
        let fixed = price_one_group(&fixed, &cluster, &memory, 64, t).unwrap();
        assert!(!fixed.auto_interval);
        assert_eq!(fixed.interval.secs(), 1234.0);
        // A fixed interval far from the Young–Daly pick loses to it.
        assert!(auto.goodput > fixed.goodput);
    }

    #[test]
    fn young_daly_interval_outlives_an_overflowing_product() {
        // In range the interval is √(2δM), bit for bit.
        assert_eq!(
            young_daly_interval(37.5, 1.25e4),
            (2.0 * 37.5 * 1.25e4f64).sqrt()
        );
        // 2δM leaves f64's range past about 1.8e308, √(2δM) does not.
        let tau = young_daly_interval(100.0, 1e307);
        assert!((tau / (200f64.sqrt() * 1e307f64.sqrt()) - 1.0).abs() < 1e-15);
        // One unsharded llama2-13b device at the largest per-GPU MTBF
        // takes seconds to checkpoint, so its 2δM overflows; every process
        // prices it to finite figures.
        let cluster = presets::dgx_a100_hdr_cluster();
        let memory = memory_for(Parallelism::new(1, 1, 1));
        for process in [
            FailureProcess::Exponential,
            FailureProcess::Weibull { shape: 0.7 },
            FailureProcess::Weibull { shape: 1.5 },
            FailureProcess::RackCorrelated {
                racks: 4,
                rack_mtbf_s: 1e9,
            },
        ] {
            let spec = CheckpointSpec::with_mtbf(1e308).with_process(process);
            let r = price_one_group(&spec, &cluster, &memory, 1, Time::from_secs(10.0)).unwrap();
            if process == FailureProcess::Exponential {
                let (delta, m) = (r.checkpoint_write.secs(), r.cluster_mtbf.secs());
                assert!(!(2.0 * delta * m).is_finite(), "δ = {delta}, M = {m}");
            }
            for (name, x) in [
                ("interval", r.interval.secs()),
                ("rework", r.rework_frac),
                ("goodput", r.goodput),
                ("expected", r.expected_time_per_batch.secs()),
            ] {
                assert!(x.is_finite(), "{process:?}: {name} = {x}");
            }
        }
    }

    #[test]
    fn wider_sharding_shrinks_the_checkpoint() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let narrow = memory_for(Parallelism::new(8, 2, 1));
        let wide = memory_for(Parallelism::new(2, 8, 1).with_sp(true));
        let spec = CheckpointSpec::with_mtbf(1e8);
        let t = Time::from_secs(10.0);
        let rn = price_one_group(&spec, &cluster, &narrow, 16, t).unwrap();
        let rw = price_one_group(&spec, &cluster, &wide, 16, t).unwrap();
        assert!(
            rw.checkpoint_bytes < rn.checkpoint_bytes,
            "TP8 shards model state thinner than TP2"
        );
        assert!(rw.checkpoint_write < rn.checkpoint_write);
    }

    #[test]
    fn waste_decomposes_and_goodput_inverts_it() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let memory = memory_for(Parallelism::new(8, 8, 1).with_sp(true));
        let spec = CheckpointSpec::with_mtbf(5e7).with_restart(300.0);
        let r = price_one_group(&spec, &cluster, &memory, 64, Time::from_secs(10.0)).unwrap();
        let (tau, delta, m) = (
            r.interval.secs(),
            r.checkpoint_write.secs(),
            r.cluster_mtbf.secs(),
        );
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        // Each reported term against its own formula; the rework in the
        // exponential closed form [M(1−e^{−τ/M}) − τe^{−P/M}] / (1−e^{−P/M}).
        let p = tau + delta;
        let rework = (m * (1.0 - (-tau / m).exp()) - tau * (-p / m).exp()) / (1.0 - (-p / m).exp());
        assert!(close(r.checkpoint_overhead_frac, delta / tau));
        assert!(
            close(r.rework_frac, rework / m),
            "{} vs {}",
            r.rework_frac,
            rework / m
        );
        assert!(close(r.restart_frac, 300.0 / m));
        let w = r.checkpoint_overhead_frac + r.rework_frac + r.restart_frac;
        assert_eq!(r.waste(), w);
        assert!((r.goodput - 1.0 / (1.0 + w)).abs() < 1e-12);
        assert!(
            (r.expected_time_per_batch.secs() - 10.0 * (1.0 + w)).abs() < 1e-9,
            "expected batch time must be the failure-free time over goodput"
        );
        // The first-order model drops O(δ/τ) and O(τ/M) corrections to the
        // τ/2 rework; here they move the waste by well under 1e-6.
        let first_order = waste_fraction(tau, delta, 300.0, m);
        assert!(
            w > first_order && w - first_order < 1e-6,
            "{w} vs {first_order}"
        );
    }

    #[test]
    fn exact_rework_tends_to_half_an_interval() {
        // δ → 0 and τ/M → 0: E[min(U mod τ, τ)] → τ/2 for every shape
        // (for k < 1 the correction is O((τ/λ)^k), not O(τ/M)).
        for shape in [0.5, 1.0, 2.0] {
            let e = expected_rework(Uptime::weibull(shape, 1e13), 100.0, 0.0);
            assert!((e / 50.0 - 1.0).abs() < 1e-5, "k = {shape}: {e}");
        }
        // A non-positive (or NaN) interval loses nothing.
        assert_eq!(expected_rework(Uptime::exponential(1e3), 0.0, 5.0), 0.0);
        assert_eq!(
            expected_rework(Uptime::weibull(0.7, 1e3), f64::NAN, 5.0),
            0.0
        );
        // Rack-correlated superposition prices as exponential.
        let racks = FailureProcess::RackCorrelated {
            racks: 4,
            rack_mtbf_s: 1e6,
        };
        assert_eq!(Uptime::of(racks, 500.0), Uptime::exponential(500.0));
    }

    /// Regression: at τ/M = 1e-150 with a shape of 0.1 or below, the
    /// Euler–Maclaurin tail formed 0·∞ (its `P³` underflows, `F‴` carries
    /// an overflowing `h³`), so the rework came out NaN, and τ — twice
    /// the uniform phase's τ/2 — once scaled back from units of the mean.
    /// The phase is uniform there to about `(P/λ)^k`, which is 2% at
    /// `k = 0.02` and below 1e-6 at the larger shapes.
    #[test]
    fn tiny_shapes_at_tiny_intervals_price_the_uniform_phase() {
        for shape in [0.02, 0.05, 0.1] {
            for write in [0.0, 0.5] {
                for (mean, tau) in [(1.0, 1e-150), (1e300, 1e150)] {
                    let e = expected_rework(Uptime::weibull(shape, mean), tau, write * tau);
                    let uniform = tau * (0.5 + write) / (1.0 + write);
                    assert!(
                        (e / uniform - 1.0).abs() < 0.05,
                        "k = {shape}, M = {mean}, δ/τ = {write}: {e} vs {uniform}"
                    );
                }
            }
        }
    }

    #[test]
    fn huge_shapes_price_a_near_deterministic_uptime() {
        // k → ∞ concentrates the uptime at its mean M, so the rework tends
        // to min(M mod P, τ): here 1000 mod 330 = 10. The survival curve
        // drops within a fraction of one period, where (u/λ)^k underflows
        // just below the drop and overflows just above it.
        for shape in [1e4, 1e6, 1e8] {
            let e = expected_rework(Uptime::weibull(shape, 1000.0), 300.0, 30.0);
            assert!((e - 10.0).abs() < 1e-8, "k = {shape}: {e}");
        }
    }

    #[test]
    fn tiers_never_hurt_and_report_their_pricing() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let p = Parallelism::new(8, 8, 1).with_sp(true);
        let memory = memory_for(p);
        let t = Time::from_secs(10.0);
        // Harsh environment: failures every ~1.7 h of cluster time.
        let base = CheckpointSpec::with_mtbf(4e5).with_restart(900.0);
        let tiered = base
            .clone()
            .with_tier(CheckpointTier::peer())
            .with_tier(CheckpointTier::delta());
        let ctx = stack_ctx(&cluster, &memory, p, t);
        let rb = base
            .evaluate_stack(&ctx, &|_| None, &expected_rework)
            .unwrap();
        let rt = tiered
            .evaluate_stack(&ctx, &|_| None, &expected_rework)
            .unwrap();
        assert!(
            rt.goodput >= rb.goodput,
            "a tier that does not pay for itself must be dropped, not priced: \
             {} vs {}",
            rt.goodput,
            rb.goodput
        );
        let tiers = rt.tiers.as_ref().unwrap();
        assert_eq!(tiers.len(), 2);
        assert_eq!(tiers[0].kind, TierKind::InMemoryPeer);
        assert_eq!(tiers[1].kind, TierKind::PersistentDelta);
        for tier in tiers.iter().filter(|t| t.active) {
            assert!(tier.write.secs() > 0.0);
            assert!(tier.interval.secs() > 0.0);
            assert!(
                tier.write < rt.checkpoint_write,
                "extra tiers must write less than a full persistent snapshot"
            );
        }
    }

    #[test]
    fn peer_tier_needs_a_peer_group() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let p = Parallelism::new(1, 8, 1).with_sp(true);
        let memory = memory_for(p);
        let spec = CheckpointSpec::with_mtbf(4e5)
            .with_restart(900.0)
            .with_tier(CheckpointTier::peer());
        let ctx = stack_ctx(&cluster, &memory, p, Time::from_secs(10.0));
        let r = spec
            .evaluate_stack(&ctx, &|_| None, &expected_rework)
            .unwrap();
        let tiers = r.tiers.as_ref().unwrap();
        assert!(!tiers[0].active, "dp=1 has no peer group to replicate into");
    }

    #[test]
    fn elastic_beats_restart_when_rewarm_is_cheap() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let p = Parallelism::new(8, 8, 1).with_sp(true);
        let memory = memory_for(p);
        let t = Time::from_secs(10.0);
        let spec = CheckpointSpec::with_mtbf(4e5)
            .with_restart(1800.0)
            .with_repair(3600.0)
            .with_rewarm(60.0)
            .with_elastic(true);
        let ctx = stack_ctx(&cluster, &memory, p, t);
        // Per-replica work is constant, so the shrunken batch takes about
        // the same wall-clock as the full one (slightly more here).
        let r = spec
            .evaluate_stack(&ctx, &|_| Some(Time::from_secs(10.1)), &expected_rework)
            .unwrap();
        let e = r.elastic.as_ref().unwrap();
        assert!(e.feasible);
        assert!(e.chosen, "cheap re-warm must beat an 1800 s restart");
        assert_eq!(e.shrunken_dp, 7);
        assert!(e.elastic_goodput > e.restart_goodput);
        assert!(e.throughput_ratio > 0.8 && e.throughput_ratio <= 1.0);
        assert!((r.goodput - 1.0 / (1.0 + r.waste())).abs() < 1e-12);
    }

    #[test]
    fn weibull_infant_mortality_degrades_goodput() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let memory = memory_for(Parallelism::new(8, 8, 1).with_sp(true));
        let t = Time::from_secs(10.0);
        let exp = CheckpointSpec::with_mtbf(4e5).with_restart(900.0);
        let infant = exp
            .clone()
            .with_process(FailureProcess::Weibull { shape: 0.7 });
        let exp = price_one_group(&exp, &cluster, &memory, 64, t).unwrap();
        let infant = price_one_group(&infant, &cluster, &memory, 64, t).unwrap();
        assert!(
            infant.cluster_mtbf < exp.cluster_mtbf,
            "k < 1 min-stability shortens the cluster MTBF"
        );
        assert!(infant.goodput < exp.goodput);
        assert_eq!(infant.process, Some(FailureProcess::Weibull { shape: 0.7 }));
        assert!(
            exp.process.is_none(),
            "exponential reports omit the process"
        );
    }

    #[test]
    fn spec_serialization_omits_stack_defaults_and_round_trips() {
        let base = CheckpointSpec::with_mtbf(5e7).with_restart(300.0);
        let text = serde_json::to_string(&base).unwrap();
        assert_eq!(
            text, r#"{"mtbf_s":50000000,"interval_s":null,"restart_s":300}"#,
            "base spec must omit every stack key"
        );
        // The omitted keys come back from their defaults, including the
        // `default = "path"` ones (delta fraction 0.25, full utilization).
        let round: CheckpointSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(round.delta_fraction, DELTA_FRACTION_DEFAULT);
        assert_eq!(round.overhead_util, 1.0);
        assert_eq!(round, base);
        let full = base
            .with_process(FailureProcess::Weibull { shape: 0.7 })
            .with_tier(CheckpointTier::peer())
            .with_tier(CheckpointTier::delta().with_interval(120.0))
            .with_elastic(true)
            .with_rewarm(45.0)
            .with_repair(1200.0)
            .with_delta_fraction(0.5)
            .with_overhead_util(0.3);
        let text = serde_json::to_string(&full).unwrap();
        assert_eq!(serde_json::from_str::<CheckpointSpec>(&text).unwrap(), full);
        assert_eq!(
            text.matches("null").count(),
            2,
            "only the two auto intervals may be null: {text}"
        );
        // `weibull:1` prices like the exponential process but is still
        // the process the user asked for, so it keeps its key.
        let unit_weibull = CheckpointSpec::with_mtbf(5e7)
            .with_process(FailureProcess::Weibull { shape: 1.0 })
            .to_value();
        assert!(unit_weibull.get("process").is_some());
    }
}
