//! Multi-replica fleet serving with online request routing.
//!
//! The paper's workload analysis treats inference deployments as
//! *fleets*: under a fixed GPU budget the operative capacity question is
//! **TP-up vs. replicate-out** — shard one replica wider, or run more
//! independent replicas of a narrower one. A [`FleetInstance`] simulates
//! `replicas` identical [`crate::ServeInstance`] replicas fed by one
//! front-door router that assigns each arriving request to exactly one
//! replica, online:
//!
//! * stateless policies ([`RouterPolicy::RoundRobin`],
//!   [`RouterPolicy::Random`]) decide from the arrival sequence alone;
//! * state-aware policies ([`RouterPolicy::LeastOutstanding`],
//!   [`RouterPolicy::JoinShortestQueue`]) observe **live** per-replica
//!   queue depth and outstanding work *at the arrival instant* — every
//!   replica engine is stepped to the arrival time before the decision,
//!   which is exactly why the event loop is a resumable
//!   `ReplicaEngine` rather than a trace splitter.
//!
//! The result is a [`FleetReport`]: per-replica [`ServeReport`]s plus
//! fleet-level latency (per-replica populations merged exactly in the
//! small-trace regime, histogram-merged in the streaming regime),
//! throughput, and SLO goodput. Everything is single-threaded and seeded,
//! so fleet reports are byte-identical across runs and thread counts.

use crate::engine::{CompletionSink, Dropped, ReplicaEngine};
use crate::faults::{clipped_stats, EngineFaults, FaultSpec, FleetAvailability};
use crate::report::{ratio, write_latency_lines, write_slo_line};
use crate::sim::TraceBounds;
use crate::{
    LatencyStats, PagingReport, Request, ServeConfig, ServeError, ServeInstance, ServeReport,
    SloReport, TraceSpec,
};
use optimus_hw::{ClusterSpec, Precision};
use optimus_infer::PreparedInferenceEstimator;
use optimus_model::ModelConfig;
use optimus_units::{Figure, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the fleet's front door assigns each arriving request to a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Replica `i mod R` for the `i`-th routed request: perfectly
    /// balanced counts, blind to load.
    #[default]
    RoundRobin,
    /// Uniformly random replica from a seeded stream. Splitting a Poisson
    /// arrival process this way yields `R` independent Poisson processes
    /// at `rate / R` (thinning), so random routing is the stateless
    /// baseline fleet scaling is measured against.
    Random {
        /// Seed of the router's RNG (independent of the trace seed).
        seed: u64,
    },
    /// The replica with the fewest outstanding requests — waiting or
    /// decoding — at the arrival instant; ties break to the lowest
    /// replica index.
    LeastOutstanding,
    /// The replica with the shortest waiting queue (arrived but no
    /// compute yet) at the arrival instant; ties break to the lowest
    /// replica index. Ignores decode occupancy, so it reacts faster than
    /// [`RouterPolicy::LeastOutstanding`] but can pile onto a replica
    /// deep in decode work.
    JoinShortestQueue,
}

impl core::fmt::Display for RouterPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::RoundRobin => write!(f, "round-robin"),
            Self::Random { seed } => write!(f, "random(seed {seed})"),
            Self::LeastOutstanding => write!(f, "least-outstanding"),
            Self::JoinShortestQueue => write!(f, "shortest-queue"),
        }
    }
}

impl RouterPolicy {
    /// Whether the policy observes live replica state at each arrival
    /// (and therefore needs every engine stepped to the arrival time).
    #[must_use]
    pub fn is_state_aware(&self) -> bool {
        matches!(self, Self::LeastOutstanding | Self::JoinShortestQueue)
    }
}

/// Fleet configuration: how many replicas of which strategy, routed how.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of identical replicas (each `replica.tp` devices, so the
    /// fleet occupies `replicas × tp` GPUs).
    pub replicas: usize,
    /// The request-routing policy.
    pub router: RouterPolicy,
    /// The per-replica serving strategy.
    pub replica: ServeConfig,
    /// The injected fault environment. [`FaultSpec::none`] (the default)
    /// keeps the fleet path bit-identical to the fault-free simulation.
    pub faults: FaultSpec,
}

impl FleetConfig {
    /// A fleet of `replicas` TP-`tp` FP16 replicas behind a round-robin
    /// router, with the default interactive SLO.
    #[must_use]
    pub fn new(replicas: usize, tp: usize) -> Self {
        Self {
            replicas,
            router: RouterPolicy::default(),
            replica: ServeConfig::new(tp),
            faults: FaultSpec::none(),
        }
    }

    /// Sets the routing policy.
    #[must_use]
    pub fn with_router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// Sets the per-replica serving strategy wholesale.
    #[must_use]
    pub fn with_replica(mut self, replica: ServeConfig) -> Self {
        self.replica = replica;
        self
    }

    /// Sets the fault environment.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// The checks every fleet passes before it is built: at least one
    /// replica and a valid fault spec. Validation comes before anything
    /// reads the spec: a NaN or negative link-mode multiplier would
    /// panic in [`FaultSpec::degraded_cluster`].
    fn check(&self) -> Result<(), ServeError> {
        if self.replicas == 0 {
            return Err(ServeError::InvalidConfig(
                "a fleet needs at least one replica".to_owned(),
            ));
        }
        check_faults(&self.faults).map_err(ServeError::InvalidConfig)
    }
}

/// [`FaultSpec::validate`], with a refusal worded as every serving door
/// words it.
pub(crate) fn check_faults(faults: &FaultSpec) -> Result<(), String> {
    faults
        .validate()
        .map_err(|reason| format!("fault spec: {reason}"))
}

/// The complete outcome of one fleet simulation: fleet-level aggregates
/// plus the per-replica [`ServeReport`]s they were derived from.
///
/// The trailing paged-KV field is *omitted* — not `null` — in the legacy
/// reserved regime, keeping reserved-mode fleet JSON byte-identical to
/// reports emitted before paging existed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Model name.
    pub model: String,
    /// Cluster name.
    pub cluster: String,
    /// Tensor-parallel degree of each replica.
    pub tp: usize,
    /// Serving precision.
    pub precision: Precision,
    /// Number of replicas.
    pub replicas: usize,
    /// Devices the fleet occupies: `tp × replicas`.
    pub gpus: usize,
    /// The routing policy used.
    pub router: RouterPolicy,
    /// Requests in the trace.
    pub requests: usize,
    /// Requests that ran to completion (across all replicas).
    pub completed: usize,
    /// Requests rejected at the router (their lone KV reservation exceeds
    /// a replica's whole budget — no replica could ever admit them).
    pub rejected: usize,
    /// Trace ids of rejected requests.
    pub rejected_ids: Vec<usize>,
    /// Fleet makespan: the latest completion time across replicas.
    pub makespan: Time,
    /// Tokens generated across all completed requests.
    pub generated_tokens: usize,
    /// Sustained generation throughput: generated tokens / makespan.
    pub tokens_per_s: f64,
    /// Sustained request throughput: completed requests / makespan.
    pub requests_per_s: f64,
    /// Mean decode-batch size across all replicas' decode iterations.
    pub mean_decode_batch: f64,
    /// Time-to-first-token statistics over the merged fleet population.
    pub ttft: LatencyStats,
    /// Time-per-output-token statistics over the merged fleet population.
    pub tpot: LatencyStats,
    /// End-to-end latency statistics over the merged fleet population.
    pub e2e: LatencyStats,
    /// Worst per-replica peak KV utilization (`peak / budget`).
    pub kv_peak_utilization: f64,
    /// Goodput under the configured SLO, over the merged population.
    pub slo: SloReport,
    /// Requests assigned to each replica (`routed[i]` for replica `i`) —
    /// the router's balance at a glance. Requeues count every assignment,
    /// so under churn the sum is `requests − rejected + requeues`.
    pub routed: Vec<usize>,
    /// One full [`ServeReport`] per replica, in replica order.
    pub per_replica: Vec<ServeReport>,
    /// The injected fault environment, `None` for a fault-free run (a
    /// degenerate [`FaultSpec::none`] configuration also reports `None`).
    pub faults: Option<FaultSpec>,
    /// Availability and requeue metrics under churn — trivially perfect
    /// (`availability = 1`, nothing requeued) for a fault-free run.
    pub availability: FleetAvailability,
    /// Paged-KV accounting merged across replicas (peak occupancy is the
    /// worst replica's, counters are fleet sums). `None` in the legacy
    /// reserved regime.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub paging: Option<PagingReport>,
}

impl FleetReport {
    /// A one-replica fleet's report as a lone [`ServeInstance`] gives
    /// it: the replica's report, with `requests`, `rejected` and
    /// `rejected_ids` from the router, which rejects on arrival what no
    /// idle instance could run. The fleet-level fields are dropped.
    ///
    /// # Panics
    ///
    /// Panics unless the fleet has exactly one replica.
    #[must_use]
    pub fn into_lone_replica(self) -> ServeReport {
        let [replica]: [ServeReport; 1] = self
            .per_replica
            .try_into()
            .expect("a lone replica is a fleet of one");
        ServeReport {
            requests: self.requests,
            rejected: self.rejected,
            rejected_ids: self.rejected_ids,
            ..replica
        }
    }
}

impl core::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "fleet of {} × TP{} ({} GPUs, {} router): served {}/{} requests ({} rejected) in {}",
            self.replicas,
            self.tp,
            self.gpus,
            self.router,
            self.completed,
            self.requests,
            self.rejected,
            self.makespan,
        )?;
        writeln!(
            f,
            "  {:.1} tok/s, {:.2} req/s fleet-wide  |  routed {:?}",
            self.tokens_per_s, self.requests_per_s, self.routed
        )?;
        write_latency_lines(f, &self.ttft, &self.tpot, &self.e2e)?;
        write_slo_line(f, &self.slo, self.completed)?;
        if self.faults.is_some() {
            let a = &self.availability;
            write!(
                f,
                "\n  churn  {} crashes, downtime {} (availability {:.2}%), {} requeues of {} requests",
                a.crashes,
                a.downtime,
                a.availability * 100.0,
                a.requeues,
                a.requeued_requests,
            )?;
        }
        if let Some(paging) = &self.paging {
            write!(f, "\n  paged  {paging}")?;
        }
        Ok(())
    }
}

/// A validated fleet: one shared [`ServeInstance`] (replicas are
/// identical, so they share the prepared estimator) plus the routing
/// configuration. Build once, simulate many traces.
#[derive(Debug)]
pub struct FleetInstance<'a> {
    instance: ServeInstance<'a>,
    config: FleetConfig,
}

impl<'a> FleetInstance<'a> {
    /// Validates the fleet and its per-replica strategy and prepares the
    /// shared pricing estimator.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when `replicas` is zero, the fault spec is
    /// invalid, the replica strategy cannot serve at all (see
    /// [`ServeInstance::new`]), or the fault spec requires link-mode
    /// degradation: this constructor prices over the caller's borrowed
    /// cluster as-is, so an active [`crate::DegradeMode::Link`] spec must
    /// instead enter through [`simulate_fleet`] or [`crate::load_sweep`],
    /// which build the degraded cluster before preparing instances.
    pub fn new(
        cluster: &'a ClusterSpec,
        model: Arc<ModelConfig>,
        config: FleetConfig,
    ) -> Result<Self, ServeError> {
        config.check()?;
        if config.faults.link_degrade_active() {
            return Err(ServeError::InvalidConfig(
                "link-mode degradation re-prices the cluster's interconnect; \
                 run it through simulate_fleet or load_sweep, \
                 which simulate over the degraded cluster"
                    .to_owned(),
            ));
        }
        let estimator = PreparedInferenceEstimator::for_serving(cluster, Arc::clone(&model));
        Self::with_estimator(cluster, model, config, Arc::new(estimator))
    }

    /// Every fleet's constructor: the fleet check, then the replica's over
    /// `estimator`, which must be prepared for serving over `cluster` and
    /// `model`. It prices over `cluster` as given, link-mode specs too.
    ///
    /// # Errors
    ///
    /// As [`FleetInstance::new`], bar the link-mode refusal.
    pub(crate) fn with_estimator(
        cluster: &'a ClusterSpec,
        model: Arc<ModelConfig>,
        config: FleetConfig,
        estimator: Arc<PreparedInferenceEstimator<'a>>,
    ) -> Result<Self, ServeError> {
        config.check()?;
        let instance = ServeInstance::with_estimator(cluster, model, config.replica, estimator)?;
        Ok(Self { instance, config })
    }

    /// Simulates serving `trace` on this fleet.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidTrace`] if `trace` is not sorted by
    /// arrival time, holds more than [`crate::MAX_TRACE_REQUESTS`]
    /// requests, or contains a zero-length prompt or output, and
    /// [`ServeError::InvalidConfig`] when the fault spec never lets the
    /// fleet finish, its uptimes fall below the clock's resolution, or
    /// its slowdowns stretch the run until its figures overflow.
    pub fn simulate(&self, trace: &[Request]) -> Result<FleetReport, ServeError> {
        run_fleet(
            &self.instance,
            self.config.replicas,
            self.config.router,
            &self.config.faults,
            trace,
        )
    }
}

/// The router's mutable decision state. Least-outstanding and
/// join-shortest-queue share `LeastLoaded`: they differ only in the
/// [`load`] they balance.
enum RouterState {
    RoundRobin { next: usize },
    Random { rng: StdRng },
    LeastLoaded,
}

impl RouterState {
    fn new(policy: RouterPolicy) -> Self {
        match policy {
            RouterPolicy::RoundRobin => Self::RoundRobin { next: 0 },
            RouterPolicy::Random { seed } => Self::Random {
                rng: StdRng::seed_from_u64(seed),
            },
            RouterPolicy::LeastOutstanding | RouterPolicy::JoinShortestQueue => Self::LeastLoaded,
        }
    }

    /// Picks one of `n` replicas among those `up` reports available —
    /// `|_| true` on a fault-free fleet, which compiles the availability
    /// checks away. The caller guarantees at least one up replica.
    /// Round-robin takes the first up replica at or after its cursor;
    /// random draws a uniform index among the up replicas (the same draw
    /// while all are up); the state-aware policies take the up replica of
    /// least `load` — the policy's [`load`] of each replica, read live —
    /// and `min_by_key` returns the first minimum, so ties break to the
    /// lowest replica index, deterministically.
    fn pick(
        &mut self,
        n: usize,
        up: impl Fn(usize) -> bool,
        load: impl Fn(usize) -> usize,
    ) -> usize {
        debug_assert!((0..n).any(&up), "the router waits for a live replica");
        match self {
            Self::RoundRobin { next } => {
                let mut choice = *next % n;
                while !up(choice) {
                    choice = (choice + 1) % n;
                }
                *next = (choice + 1) % n;
                choice
            }
            Self::Random { rng } => {
                let alive = (0..n).filter(|&i| up(i)).count();
                let draw = rng.gen_range(0..alive);
                (0..n)
                    .filter(|&i| up(i))
                    .nth(draw)
                    .expect("draw < alive ⇒ an up replica matches")
            }
            Self::LeastLoaded => (0..n)
                .filter(|&i| up(i))
                .min_by_key(|&i| load(i))
                .expect("at least one up replica"),
        }
    }
}

/// One requeue instant's destinations in closed form, with no per-request
/// argmin. The replicas in `order` take turns, one request each per round.
/// At the start they are the up replicas at the lowest snapshot load, in
/// cyclic index order from the first turn. After each round every member
/// has risen one level, and once the level reaches the next load up, the
/// replicas at that load join. That is the water-fill of the state-aware
/// policies: every push raises exactly its replica's load by one, and the
/// first minimum in index order is the next member still at the level.
/// Round-robin's loads are all 0, so its up replicas cycle from its
/// cursor in one phase.
#[derive(Default)]
struct Turns {
    /// The policy's [`load`] of each replica at the instant,
    /// `usize::MAX` for a down replica (which never joins).
    loads: Vec<usize>,
    /// The replicas taking turns, in turn order.
    order: Vec<usize>,
    /// The replica whose index the turn order starts at.
    first: usize,
    /// The load every member of `order` has at the start of this phase.
    level: usize,
    /// The lowest load above `level`, where the next replicas join
    /// (`usize::MAX` when none will).
    joins_at: usize,
}

impl Turns {
    /// Starts the turns over the snapshot in `loads`, in cyclic index
    /// order from `first`. At least one replica is up.
    fn start(&mut self, first: usize) {
        self.first = first;
        self.level = self.loads.iter().copied().min().unwrap_or(0);
        self.widen();
    }

    /// Lets every replica at or below `level` take turns.
    fn widen(&mut self) {
        let n = self.loads.len();
        self.order.clear();
        self.joins_at = usize::MAX;
        for i in (self.first..n).chain(0..self.first) {
            let load = self.loads[i];
            if load <= self.level {
                self.order.push(i);
            } else {
                self.joins_at = self.joins_at.min(load);
            }
        }
        debug_assert!(
            !self.order.is_empty(),
            "the router waits for a live replica"
        );
    }

    /// How many of the next `left` requests go round `order` before more
    /// replicas join: whole rounds up to the joining level, or all of
    /// them.
    fn phase_len(&self, left: usize) -> usize {
        (self.joins_at - self.level)
            .saturating_mul(self.order.len())
            .min(left)
    }

    /// Ends a phase: the level reaches the next load up, and the replicas
    /// there join.
    fn next_phase(&mut self) {
        self.level = self.joins_at;
        self.widen();
    }
}

/// The load `policy` balances at `engine`: outstanding requests under
/// least-outstanding, waiting requests under join-shortest-queue; the
/// stateless policies read none. A `push` raises both by exactly one.
fn load(policy: RouterPolicy, engine: &ReplicaEngine<'_, '_>) -> usize {
    match policy {
        RouterPolicy::LeastOutstanding => engine.outstanding(),
        RouterPolicy::JoinShortestQueue => engine.waiting(),
        RouterPolicy::RoundRobin | RouterPolicy::Random { .. } => 0,
    }
}

/// The fleet's front door: the policy's decision state, the router's own
/// clock, and the requeue ledger.
struct Router {
    policy: RouterPolicy,
    state: RouterState,
    /// The router's clock: monotone across requeues and all-down stalls,
    /// so the availability cursors never run backwards.
    now: f64,
    /// Which replicas were up at `now` at the last availability scan.
    up: Vec<bool>,
    /// The destinations of one requeue instant.
    turns: Turns,
    /// One bit per trace index, set while a requeue instant gathers its
    /// drops and cleared as it reads them back (empty on a fault-free
    /// fleet).
    pending: Vec<u64>,
    /// One requeue instant's requests, in trace order.
    lost: Vec<u32>,
    /// Requeue events: every crash-drain of a request counts once.
    requeues: usize,
    /// One mark per trace index, set when a crash requeues the request
    /// (empty on a fault-free fleet).
    requeued: Vec<bool>,
}

impl Router {
    fn new(policy: RouterPolicy, marks: usize) -> Self {
        Self {
            policy,
            state: RouterState::new(policy),
            now: 0.0,
            up: Vec::new(),
            turns: Turns::default(),
            pending: vec![0; marks.div_ceil(64)],
            lost: Vec::new(),
            requeues: 0,
            requeued: vec![false; marks],
        }
    }

    /// Scans which replicas are up at the router's clock. When the whole
    /// fleet is down the FIFO front door blocks — the clock jumps to the
    /// earliest scheduled recovery — and scans again.
    fn await_live(&mut self, engines: &mut [ReplicaEngine<'_, '_>]) -> Result<(), ServeError> {
        loop {
            self.up.clear();
            for engine in engines.iter_mut() {
                self.up.push(engine.available(self.now)?);
            }
            if self.up.contains(&true) {
                return Ok(());
            }
            let mut wake = f64::INFINITY;
            for engine in engines.iter_mut() {
                wake = wake.min(engine.next_up(self.now)?);
            }
            debug_assert!(wake > self.now, "a down replica recovers strictly later");
            self.now = wake;
        }
    }

    /// Routes trace request `req` at the router's clock, skipping down
    /// replicas (and waiting out an all-down fleet) and reading live
    /// loads.
    fn route_at(
        &mut self,
        engines: &mut [ReplicaEngine<'_, '_>],
        req: u32,
    ) -> Result<(), ServeError> {
        self.await_live(engines)?;
        let choice = self.state.pick(
            engines.len(),
            |i| self.up[i],
            |i| load(self.policy, &engines[i]),
        );
        engines[choice].push(req, self.now);
        Ok(())
    }

    /// Collects the drops every replica's crashes have made since the
    /// last call and re-routes their requests (see [`Router::requeue`]).
    fn reroute_drained(&mut self, engines: &mut [ReplicaEngine<'_, '_>]) -> Result<(), ServeError> {
        let mut drops = Vec::new();
        for engine in engines.iter_mut() {
            drops.extend(engine.take_requeued());
        }
        self.requeue(engines, drops)
    }

    /// Re-routes every dropped request at the instant it was dropped:
    /// instants in time order, and within one instant in trace order.
    /// Drops that share an instant (the members of one failure domain)
    /// are routed together, each instant in one pass.
    fn requeue(
        &mut self,
        engines: &mut [ReplicaEngine<'_, '_>],
        mut drops: Vec<Dropped>,
    ) -> Result<(), ServeError> {
        drops.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        for group in drops.chunk_by(|a, b| a.at_s.total_cmp(&b.at_s).is_eq()) {
            self.route_instant(engines, group[0].at_s, group)?;
        }
        Ok(())
    }

    /// Routes the requests `drops` lost at `at_s` in one pass, in time
    /// linear in the requests plus one bit scan over their index span:
    /// one availability scan (and at most one all-down stall), then the
    /// requests in trace order (see [`Router::gather`]). Random draws each
    /// request's replica as [`RouterState::pick`] does. The other policies
    /// route in [`Turns`] over a load snapshot taken once (no engine
    /// advances inside the pass): each of a phase's `m` members takes
    /// every `m`-th request of the phase, in one append.
    fn route_instant(
        &mut self,
        engines: &mut [ReplicaEngine<'_, '_>],
        at_s: f64,
        drops: &[Dropped],
    ) -> Result<(), ServeError> {
        self.now = self.now.max(at_s);
        self.await_live(engines)?;
        self.gather(drops);
        if self.lost.is_empty() {
            return Ok(());
        }
        self.requeues += self.lost.len();

        let policy = self.policy;
        let turns = &mut self.turns;
        turns.loads.clear();
        turns
            .loads
            .extend(engines.iter().zip(&self.up).map(|(engine, &up)| {
                if up {
                    load(policy, engine)
                } else {
                    usize::MAX
                }
            }));
        let (lost, now) = (&self.lost[..], self.now);
        match &mut self.state {
            RouterState::Random { rng } => {
                turns.start(0);
                for &req in lost {
                    engines[turns.order[rng.gen_range(0..turns.order.len())]].push(req, now);
                }
            }
            state => {
                turns.start(match state {
                    RouterState::RoundRobin { next } => *next % engines.len(),
                    _ => 0,
                });
                let mut routed = 0;
                let last = loop {
                    let m = turns.order.len();
                    let phase = &lost[routed..routed + turns.phase_len(lost.len() - routed)];
                    for (j, &replica) in turns.order.iter().enumerate() {
                        engines[replica].push_all(phase.iter().skip(j).step_by(m).copied(), now);
                    }
                    routed += phase.len();
                    if routed == lost.len() {
                        break turns.order[(phase.len() - 1) % m];
                    }
                    turns.next_phase();
                };
                if let RouterState::RoundRobin { next } = state {
                    *next = (last + 1) % engines.len();
                }
            }
        }
        Ok(())
    }

    /// Puts the requests `drops` lost into `lost` in trace order, marking
    /// each requeued. Every index is set in the `pending` bitmap, then
    /// the words from the lowest index to the highest are read back and
    /// cleared: one bit scan over the index span, with no comparison
    /// sort. The same request is never lost twice in one instant.
    fn gather(&mut self, drops: &[Dropped]) {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &req in drops.iter().flat_map(|drop| &drop.lost) {
            let req = req as usize;
            let (word, bit) = (req / 64, 1u64 << (req % 64));
            debug_assert!(self.pending[word] & bit == 0, "request {req} lost twice");
            self.pending[word] |= bit;
            lo = lo.min(req);
            hi = hi.max(req);
        }
        self.lost.clear();
        for word in lo / 64..=hi / 64 {
            let mut bits = core::mem::take(&mut self.pending[word]);
            while bits != 0 {
                let req = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.requeued[req] = true;
                self.lost.push(req as u32);
            }
        }
    }
}

/// The fleet event loop behind every serving entry point: scan the trace
/// once, route every request online, drain the replicas, merge their
/// populations. Shared by [`FleetInstance::simulate`], which every fleet
/// and load-sweep cell runs through, and [`ServeInstance::simulate`] (one
/// fault-free replica). Each fleet caller has validated `faults` in the
/// [`FleetConfig`] check. Every replica reads its iteration prices from
/// one table the run leases from the instance's estimator and hands back,
/// warm, when it returns, and the fleet's figures come from its replicas'
/// merged completions by the arithmetic of a replica's report.
/// The router is the one place an inadmissible request is rejected: on
/// arrival, before it reaches any queue.
///
/// Online-knowledge caveat: a replica's queue-depth sample is taken at
/// the end of each iteration from the requests routed to it *by then*. A
/// request that arrives while an iteration is running is routed when the
/// stepped engines next yield, so it shows up from the replica's next
/// sample on — at most one iteration later than an omniscient observer
/// would report. All latency, throughput, and peak/mean queue accounting
/// is unaffected.
pub(crate) fn run_fleet(
    instance: &ServeInstance<'_>,
    replicas: usize,
    router: RouterPolicy,
    faults: &FaultSpec,
    trace: &[Request],
) -> Result<FleetReport, ServeError> {
    // Global trace bounds dominate every replica's share, so one scan
    // sizes all engines.
    let bounds = TraceBounds::scan(instance, trace)?;
    // A degenerate spec takes the exact fault-free code path below, so
    // `FaultSpec::none()` (whatever its seed) stays bit-identical to a
    // run without fault wiring at all.
    let faulty = !faults.is_none();
    // Regime and record decisions run on the *whole* trace length, never
    // a replica's share: every replica must pick the same accumulator
    // regime for the fleet merge (a mixed pair panics), and `Auto`
    // thresholds would otherwise depend on the router's balance.
    let records_on = instance.records_on(trace.len());
    let mut prices = instance.lease_prices();
    let mut engines: Vec<ReplicaEngine<'_, '_>> = (0..replicas)
        .map(|i| {
            let wiring = faulty
                .then(|| EngineFaults::for_replica(faults, i))
                .transpose()?;
            Ok(ReplicaEngine::new(
                instance, trace, &bounds, records_on, wiring,
            ))
        })
        .collect::<Result<_, ServeError>>()?;

    let mut front = Router::new(router, if faulty { trace.len() } else { 0 });
    let mut rejected = bounds.rejected.iter().peekable();
    // The scan caps the trace at `MAX_TRACE_REQUESTS`, so every index
    // fits a `u32`.
    for (r, req) in trace.iter().zip(0u32..) {
        // The scan found that no replica could ever admit this request
        // (replicas are identical), so the front door rejects it outright
        // instead of letting it occupy a queue.
        if rejected.next_if_eq(&&req).is_some() {
            continue;
        }
        if faulty {
            // Step every replica to the arrival instant: crashes drain at
            // iteration boundaries, so work lost before this arrival is
            // requeued ahead of it, and state-aware policies observe live
            // queue state exactly as on the fault-free path.
            for engine in &mut engines {
                engine.advance_to(r.arrival_s, &mut prices)?;
            }
            front.now = front.now.max(r.arrival_s);
            front.reroute_drained(&mut engines)?;
            front.route_at(&mut engines, req)?;
        } else {
            // A single replica needs no observation — every choice is 0 —
            // so skip the stepping and run the lone engine out in one
            // `finish` (which is also what keeps a 1-replica fleet
            // bit-identical to `ServeInstance::simulate` for every policy).
            if replicas > 1 && router.is_state_aware() {
                // Step every replica to the arrival instant so the router
                // observes live queue depth / outstanding work, not stale
                // snapshots.
                for engine in &mut engines {
                    engine.advance_to(r.arrival_s, &mut prices)?;
                }
            }
            let choice = front
                .state
                .pick(replicas, |_| true, |i| load(router, &engines[i]));
            engines[choice].push(req, r.arrival_s);
        }
    }
    // Drain. Crashes during the tail can still requeue work after the
    // last arrival, so finishing and re-routing alternate until the fleet
    // runs dry. Each round re-serves only the work the previous round
    // dropped, which converges unless the outages leave no uptime long
    // enough to finish an iteration in: then every round loses the same
    // work again, and the spec is refused.
    let mut drain_rounds = 0usize;
    loop {
        for engine in &mut engines {
            engine.finish(&mut prices)?;
        }
        if !faulty {
            break;
        }
        let before = front.requeues;
        front.reroute_drained(&mut engines)?;
        if front.requeues == before {
            break;
        }
        drain_rounds += 1;
        if drain_rounds == 100_000 {
            return Err(ServeError::InvalidConfig(format!(
                "fault spec: the fleet never finishes at MTBF {} s: crashes lost the same \
                 work again in each of {drain_rounds} requeue rounds after the last arrival",
                faults.mtbf_s
            )));
        }
    }

    // --- aggregate -------------------------------------------------------
    let parts: Vec<(usize, crate::engine::ReportInputs)> =
        engines.into_iter().map(ReplicaEngine::into_parts).collect();
    let config = instance.config();
    // The fleet's populations and counters, merged in replica order (the
    // order an exact-mode mean sums in).
    let mut sink = CompletionSink::new(config.slo, trace.len(), false);
    let mut decode_iterations = 0;
    let mut decode_batch_sum = 0;
    let mut makespan_s = 0.0_f64;
    let mut paging: Option<PagingReport> = None;
    for (_, inputs) in &parts {
        if let Some(p) = &inputs.paging {
            paging = Some(match paging {
                Some(acc) => acc.merged(p),
                None => *p,
            });
        }
        sink.merge(&inputs.sink);
        decode_iterations += inputs.decode_iterations;
        decode_batch_sum += inputs.decode_batch_sum;
        makespan_s = makespan_s.max(inputs.makespan_s);
    }
    // No latency outlasts the makespan and no queue holds more requests
    // than the trace, so below this bound no sum a report takes can
    // overflow. Slowdown multipliers can stretch a run past it.
    if !(makespan_s * trace.len() as f64).is_finite() {
        return Err(ServeError::InvalidConfig(format!(
            "fault spec: slowdowns of {}× (degrade) and {}× (stragglers) stretch the makespan \
             to {} s, and the figures of its {} requests overflow",
            Figure(faults.degrade_mult),
            Figure(faults.straggler_mult),
            Figure(makespan_s),
            trace.len()
        )));
    }
    let figures = sink.figures(decode_iterations, decode_batch_sum, makespan_s);
    let routed: Vec<usize> = parts.iter().map(|(routed, _)| *routed).collect();
    let per_replica: Vec<ServeReport> = parts
        .into_iter()
        .map(|(routed, inputs)| instance.assemble_report(routed, inputs))
        .collect();
    let rejected_ids: Vec<usize> = bounds
        .rejected
        .iter()
        .map(|&req| trace[req as usize].id as usize)
        .collect();

    // Availability is schedule-based: outage windows are a pure function
    // of the spec, clipped to the fleet makespan, whether or not work was
    // lost in them.
    let mut crash_total = 0usize;
    let mut downtime_total = 0.0_f64;
    let mut per_replica_downtime = Vec::with_capacity(replicas);
    for i in 0..replicas {
        let (crashes, downtime) = if faulty {
            clipped_stats(&faults.outage_windows(i, makespan_s)?, makespan_s)
        } else {
            (0, 0.0)
        };
        crash_total += crashes;
        downtime_total += downtime;
        per_replica_downtime.push(Time::from_secs(downtime));
    }
    // Domain downtime is also reported un-fanned-out: the shared process
    // alone, clipped to the makespan. (Its fan-out to members is already
    // inside the per-replica merged downtime above.)
    let per_domain_downtime: Vec<Time> = if faulty {
        (0..faults.domains.len())
            .map(|d| {
                let windows = faults.domain_outage_windows(d, makespan_s)?;
                Ok(Time::from_secs(clipped_stats(&windows, makespan_s).1))
            })
            .collect::<Result<_, ServeError>>()?
    } else {
        Vec::new()
    };
    let availability_frac = 1.0 - ratio(downtime_total, replicas as f64 * makespan_s);
    let mut distinct_requeued: Vec<usize> = trace
        .iter()
        .zip(&front.requeued)
        .filter_map(|(r, &marked)| marked.then_some(r.id as usize))
        .collect();
    distinct_requeued.sort_unstable();
    distinct_requeued.dedup();
    let goodput_tokens_per_s = figures.slo.goodput_tokens_per_s;
    let up_replicas = replicas as f64 * availability_frac;
    let availability = FleetAvailability {
        crashes: crash_total,
        downtime: Time::from_secs(downtime_total),
        availability: availability_frac,
        requeues: front.requeues,
        requeued_requests: distinct_requeued.len(),
        requeued_ids: distinct_requeued,
        per_replica_downtime,
        per_domain_downtime,
        goodput_tokens_per_up_replica_s: ratio(goodput_tokens_per_s, up_replicas),
    };
    Ok(FleetReport {
        model: per_replica[0].model.clone(),
        cluster: per_replica[0].cluster.clone(),
        tp: config.tp,
        precision: config.precision,
        replicas,
        gpus: config.tp * replicas,
        router,
        requests: trace.len(),
        completed: sink.completed,
        rejected: rejected_ids.len(),
        rejected_ids,
        makespan: Time::from_secs(makespan_s),
        generated_tokens: sink.generated_tokens,
        tokens_per_s: figures.tokens_per_s,
        requests_per_s: figures.requests_per_s,
        mean_decode_batch: figures.mean_decode_batch,
        ttft: figures.ttft,
        tpot: figures.tpot,
        e2e: figures.e2e,
        kv_peak_utilization: per_replica
            .iter()
            .map(|r| r.kv.peak_utilization)
            .fold(0.0, f64::max),
        slo: figures.slo,
        routed,
        per_replica,
        faults: faulty.then(|| faults.clone()),
        availability,
        paging,
    })
}

/// Generates the trace from `spec` and simulates serving it on a fleet of
/// `config.replicas` identical replicas of `model` over `cluster`.
///
/// Unlike [`FleetInstance::new`], this entry point accepts an active
/// [`crate::DegradeMode::Link`] fault spec: it builds the
/// bandwidth-degraded copy of `cluster` (see
/// [`FaultSpec::degraded_cluster`]) and prices every iteration over it,
/// so the degradation flows through the collective cost model. The
/// report still carries the original spec in its `faults` field.
///
/// # Errors
///
/// Returns the errors of [`FleetInstance::new`], bar the link-mode one,
/// and of [`FleetInstance::simulate`]; and, before generating anything,
/// [`ServeError::InvalidTrace`] for a `spec` [`TraceSpec::validate`]
/// refuses, one of more than [`crate::MAX_TRACE_REQUESTS`] requests
/// among them.
pub fn simulate_fleet(
    cluster: &ClusterSpec,
    model: Arc<ModelConfig>,
    config: &FleetConfig,
    spec: &TraceSpec,
) -> Result<FleetReport, ServeError> {
    config.check()?;
    spec.validate().map_err(ServeError::InvalidTrace)?;
    let degraded = config.faults.degraded_cluster(cluster);
    let cluster = degraded.as_ref().unwrap_or(cluster);
    let estimator = PreparedInferenceEstimator::for_serving(cluster, Arc::clone(&model));
    FleetInstance::with_estimator(cluster, model, config.clone(), Arc::new(estimator))?
        .simulate(&spec.generate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrivalProcess, FaultDomain, LengthDist};
    use optimus_hw::{presets, FailureProcess};
    use optimus_model::presets as models;
    use proptest::prelude::*;

    /// Serves `trace` on a fresh fleet of `config`.
    fn serve(
        cluster: &ClusterSpec,
        model: Arc<ModelConfig>,
        config: &FleetConfig,
        trace: &[Request],
    ) -> Result<FleetReport, ServeError> {
        FleetInstance::new(cluster, model, config.clone())?.simulate(trace)
    }

    fn spec(seed: u64, requests: usize, rate: f64) -> TraceSpec {
        TraceSpec {
            seed,
            requests,
            arrival: ArrivalProcess::Poisson { rate_per_s: rate },
            prompt: LengthDist::Uniform { lo: 50, hi: 200 },
            output: LengthDist::Uniform { lo: 2, hi: 24 },
            prefixes: None,
            priority_classes: 1,
        }
    }

    fn policies() -> [RouterPolicy; 4] {
        [
            RouterPolicy::RoundRobin,
            RouterPolicy::Random { seed: 99 },
            RouterPolicy::LeastOutstanding,
            RouterPolicy::JoinShortestQueue,
        ]
    }

    #[test]
    fn every_policy_conserves_requests_and_tokens() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let trace = spec(17, 96, 24.0);
        let requested: usize = trace.generate().iter().map(|r| r.output as usize).sum();
        for policy in policies() {
            let config = FleetConfig::new(3, 1).with_router(policy);
            let report = simulate_fleet(&cluster, Arc::clone(&model), &config, &trace).unwrap();
            assert_eq!(
                report.completed + report.rejected,
                report.requests,
                "{policy}"
            );
            assert_eq!(report.rejected, 0, "{policy}");
            assert_eq!(report.generated_tokens, requested, "{policy}");
            assert_eq!(
                report.routed.iter().sum::<usize>(),
                report.requests,
                "{policy}"
            );
            assert_eq!(report.per_replica.len(), 3, "{policy}");
            let replica_completed: usize = report.per_replica.iter().map(|r| r.completed).sum();
            assert_eq!(replica_completed, report.completed, "{policy}");
            assert_eq!(report.gpus, 3, "{policy}");
        }
    }

    #[test]
    fn round_robin_balances_counts_exactly() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = simulate_fleet(
            &cluster,
            Arc::new(models::llama2_7b()),
            &FleetConfig::new(4, 1),
            &spec(5, 103, 16.0),
        )
        .unwrap();
        let (min, max) = (
            report.routed.iter().min().unwrap(),
            report.routed.iter().max().unwrap(),
        );
        assert!(max - min <= 1, "round-robin routed {:?}", report.routed);
    }

    /// A single-replica fleet is exactly the single-instance simulation
    /// for every policy: its lone-replica view (the per-replica report,
    /// with `requests`, `rejected` and `rejected_ids` taken from the
    /// router) must equal `ServeInstance::simulate`'s output field for
    /// field — the ground truth that lets the load-sweep run all its
    /// cells as fleets and `serve` print a lone replica from
    /// its one `simulate_fleet` run. It holds with inadmissible requests
    /// mid-backlog and after the last completion, under every KV regime
    /// and scheduler, because the router is the one place that rejects
    /// them.
    #[test]
    fn one_replica_fleet_equals_single_instance() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let trace_spec = spec(11, 64, 8.0);
        let trace = trace_spec.generate();
        let single = ServeInstance::new(&cluster, Arc::clone(&model), ServeConfig::new(2))
            .unwrap()
            .simulate(&trace)
            .unwrap();
        for policy in policies() {
            let config = FleetConfig {
                replicas: 1,
                router: policy,
                replica: ServeConfig::new(2),
                faults: FaultSpec::none(),
            };
            let fleet = serve(&cluster, Arc::clone(&model), &config, &trace).unwrap();
            let generated =
                simulate_fleet(&cluster, Arc::clone(&model), &config, &trace_spec).unwrap();
            assert_eq!(generated, fleet, "{policy}");
            assert_eq!(fleet.per_replica[0], single, "{policy}");
            assert_eq!(fleet.clone().into_lone_replica(), single, "{policy}");
            assert_eq!(fleet.ttft, single.ttft, "{policy}");
            assert_eq!(fleet.e2e, single.e2e, "{policy}");
            assert_eq!(fleet.makespan, single.makespan, "{policy}");
        }

        let trace = crate::sim::tests::trace_with_rejects();
        for replica in crate::sim::tests::regimes() {
            let single = ServeInstance::new(&cluster, Arc::clone(&model), replica)
                .unwrap()
                .simulate(&trace)
                .unwrap();
            for policy in policies() {
                let label = format!("{} {:?} {policy}", replica.kv, replica.scheduler);
                let fleet = serve(
                    &cluster,
                    Arc::clone(&model),
                    &FleetConfig::new(1, 1)
                        .with_router(policy)
                        .with_replica(replica),
                    &trace,
                )
                .unwrap();
                assert_eq!(fleet.rejected_ids, crate::sim::tests::REJECTED, "{label}");
                assert_eq!(fleet.routed, vec![trace.len() - 2], "{label}");
                assert_eq!(fleet.makespan, single.makespan, "{label}");
                assert_eq!(fleet.into_lone_replica(), single, "{label}");
            }
        }
    }

    /// Runs `run` over each trace on a thread of its own, all started
    /// together, and returns the results in trace order.
    fn at_once<R: Send>(traces: &[Vec<Request>], run: impl Fn(&[Request]) -> R + Sync) -> Vec<R> {
        let start = std::sync::Barrier::new(traces.len());
        std::thread::scope(|s| {
            let runs: Vec<_> = traces
                .iter()
                .map(|trace| {
                    s.spawn(|| {
                        start.wait();
                        run(trace)
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().unwrap()).collect()
        })
    }

    /// Runs that share one instance at the same time each lease a price
    /// table of their own, so each returns the report a lone run of its
    /// trace returns: two threads simulate different traces at once on
    /// one `ServeInstance`, then on one four-replica `FleetInstance`.
    #[test]
    fn concurrent_runs_on_one_instance_return_their_lone_reports() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let traces = [
            spec(21, 600, 30.0).generate(),
            spec(22, 600, 90.0).generate(),
        ];
        let replica = ServeConfig::new(1).with_kv(crate::KvSpec::paged(16));

        let shared = ServeInstance::new(&cluster, Arc::clone(&model), replica).unwrap();
        let reports = at_once(&traces, |trace| shared.simulate(trace).unwrap());
        for (trace, report) in traces.iter().zip(reports) {
            let lone = ServeInstance::new(&cluster, Arc::clone(&model), replica).unwrap();
            assert_eq!(report, lone.simulate(trace).unwrap());
        }

        let fleet = FleetConfig::new(4, 1)
            .with_router(RouterPolicy::LeastOutstanding)
            .with_replica(replica);
        let shared = FleetInstance::new(&cluster, Arc::clone(&model), fleet.clone()).unwrap();
        let reports = at_once(&traces, |trace| shared.simulate(trace).unwrap());
        for (trace, report) in traces.iter().zip(reports) {
            assert_eq!(
                report,
                serve(&cluster, Arc::clone(&model), &fleet, trace).unwrap()
            );
        }
    }

    /// State-aware routing must never leave one replica idle while
    /// another queues: under sustained load, least-outstanding spreads
    /// requests across all replicas.
    #[test]
    fn state_aware_routing_uses_every_replica() {
        let cluster = presets::dgx_a100_hdr_cluster();
        for policy in [
            RouterPolicy::LeastOutstanding,
            RouterPolicy::JoinShortestQueue,
        ] {
            let report = simulate_fleet(
                &cluster,
                Arc::new(models::llama2_7b()),
                &FleetConfig::new(4, 1).with_router(policy),
                &spec(23, 200, 200.0),
            )
            .unwrap();
            assert!(
                report.routed.iter().all(|&n| n > 0),
                "{policy} starved a replica: {:?}",
                report.routed
            );
        }
    }

    /// Unservable requests are rejected at the router, and every other
    /// request still completes.
    #[test]
    fn oversized_request_is_rejected_at_the_router() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let trace = [
            Request::new(0, 0.1, 500_000, 4),
            Request::new(1, 0.2, 100, 4),
            Request::new(2, 0.3, 120, 4),
        ];
        let report = serve(
            &cluster,
            Arc::new(models::llama2_13b()),
            &FleetConfig::new(2, 1).with_router(RouterPolicy::LeastOutstanding),
            &trace,
        )
        .unwrap();
        assert_eq!(report.rejected_ids, vec![0]);
        assert_eq!(report.completed, 2);
        assert!(report.per_replica.iter().all(|r| r.rejected == 0));
    }

    #[test]
    fn zero_replicas_is_a_clean_error() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let config = FleetConfig {
            replicas: 0,
            router: RouterPolicy::RoundRobin,
            replica: ServeConfig::new(1),
            faults: FaultSpec::none(),
        };
        let model = Arc::new(models::llama2_7b());
        for err in [
            FleetInstance::new(&cluster, Arc::clone(&model), config.clone()).unwrap_err(),
            simulate_fleet(&cluster, model, &config, &spec(1, 4, 1.0)).unwrap_err(),
        ] {
            assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains("at least one replica"), "{err}");
        }
    }

    /// Regression: a zero tensor-parallel degree panicked at every serving
    /// door, in `ServeConfig::new`'s assert or, for a config built past
    /// it, in the memory model's `tp must be positive`; and
    /// `FleetConfig::new(0, 1)` panicked in its own assert. Each is now
    /// refused with a typed error, by the one replica check and the one
    /// fleet check.
    #[test]
    fn zero_tp_and_zero_replicas_are_typed_errors_at_every_door() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        for replica in [
            ServeConfig::new(0),
            ServeConfig {
                tp: 0,
                ..ServeConfig::new(1)
            },
        ] {
            let fleet = FleetConfig::new(2, 1).with_replica(replica);
            for err in [
                ServeInstance::new(&cluster, Arc::clone(&model), replica).unwrap_err(),
                FleetInstance::new(&cluster, Arc::clone(&model), fleet.clone()).unwrap_err(),
                simulate_fleet(&cluster, Arc::clone(&model), &fleet, &spec(1, 4, 1.0)).unwrap_err(),
            ] {
                assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
                assert_eq!(
                    err.to_string(),
                    "a replica needs a tensor-parallel degree of at least 1"
                );
            }
        }
        let err = FleetInstance::new(&cluster, model, FleetConfig::new(0, 1)).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        assert_eq!(err.to_string(), "a fleet needs at least one replica");
    }

    /// Regression: an unsorted trace or a zero-length prompt or output
    /// used to panic in the fleet entry points; it is now a typed error.
    /// (An overflowing context is a spec-level case of
    /// `degenerate_trace_specs_are_typed_errors`.)
    #[test]
    fn invalid_traces_are_typed_errors() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let fleet = FleetInstance::new(
            &cluster,
            Arc::new(models::llama2_7b()),
            FleetConfig::new(2, 1),
        )
        .unwrap();
        let unsorted = [Request::new(0, 1.0, 10, 4), Request::new(1, 0.5, 10, 4)];
        let no_prompt = [Request::new(0, 0.0, 0, 4)];
        let no_output = [Request::new(0, 0.0, 10, 4), Request::new(1, 0.5, 10, 0)];
        for trace in [&unsorted[..], &no_prompt[..], &no_output[..]] {
            let err = fleet.simulate(trace).unwrap_err();
            assert!(matches!(err, ServeError::InvalidTrace(_)), "{err}");
        }
    }

    /// Every degenerate trace spec is a typed error from the spec-level
    /// entry point, refused before a request is generated; each of the
    /// first fifteen used to panic inside [`TraceSpec::generate`] (the
    /// overflowing context with a prefix pool, on the prefixed prompt's
    /// sum). The last four are the 32-bit limits of a [`Request`]: a
    /// prompt or output whose context passes `u32::MAX` tokens (the
    /// spec-level form of a trace whose `prompt + output` overflows), a
    /// pool of more than 2^32 prefixes and a trace too long to index.
    #[test]
    fn degenerate_trace_specs_are_typed_errors() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        fn pool(pool: usize, tokens: usize, rate: f64) -> Option<crate::PrefixSpec> {
            Some(crate::PrefixSpec { pool, tokens, rate })
        }
        type Case = (&'static str, fn(&mut TraceSpec));
        let cases: [Case; 19] = [
            ("arrival parameter", |t| {
                t.arrival = ArrivalProcess::Poisson { rate_per_s: 0.0 }
            }),
            ("arrival parameter", |t| {
                t.arrival = ArrivalProcess::Poisson {
                    rate_per_s: f64::NAN,
                }
            }),
            ("arrival parameter", |t| {
                t.arrival = ArrivalProcess::Fixed { interval_s: 0.0 }
            }),
            ("arrival parameter", |t| {
                t.arrival = ArrivalProcess::Fixed {
                    interval_s: f64::NAN,
                }
            }),
            ("prompt length", |t| {
                t.prompt = LengthDist::Fixed { tokens: 0 }
            }),
            ("output length", |t| {
                t.output = LengthDist::Fixed { tokens: 0 }
            }),
            ("prompt range", |t| {
                t.prompt = LengthDist::Uniform { lo: 0, hi: 8 }
            }),
            ("output range", |t| {
                t.output = LengthDist::Uniform { lo: 9, hi: 8 }
            }),
            ("prefix pool", |t| t.prefixes = pool(0, 8, 0.5)),
            ("prefix length", |t| t.prefixes = pool(2, 0, 0.5)),
            ("prefix rate", |t| t.prefixes = pool(2, 8, 1.5)),
            ("prefix rate", |t| t.prefixes = pool(2, 8, -0.1)),
            ("prefix rate", |t| t.prefixes = pool(2, 8, f64::NAN)),
            ("priority class", |t| t.priority_classes = 0),
            ("context overflows", |t| {
                t.prompt = LengthDist::Fixed {
                    tokens: usize::MAX - 4,
                };
                t.prefixes = pool(2, 8, 1.0);
            }),
            ("context overflows", |t| {
                t.prompt = LengthDist::Fixed {
                    tokens: u32::MAX as usize,
                };
            }),
            ("context overflows", |t| {
                t.output = LengthDist::Uniform {
                    lo: 1,
                    hi: u32::MAX as usize,
                };
            }),
            ("prefix pool holds at most", |t| {
                t.prefixes = pool((1 << 32) + 1, 8, 0.5)
            }),
            ("a trace holds at most", |t| {
                t.requests = crate::MAX_TRACE_REQUESTS + 1
            }),
        ];
        for (what, degenerate) in cases {
            let mut trace = spec(1, 4, 1.0);
            degenerate(&mut trace);
            let config = FleetConfig::new(2, 1);
            let err = simulate_fleet(&cluster, Arc::clone(&model), &config, &trace).unwrap_err();
            assert!(matches!(err, ServeError::InvalidTrace(_)), "{what}: {err}");
            assert!(err.to_string().contains(what), "{what}: {err}");
            assert_eq!(trace.validate(), Err(err.to_string()), "{what}");
        }
    }

    /// A NaN or negative link-mode multiplier is an invalid fault spec,
    /// refused before the degraded cluster is built: pricing a link at
    /// such a multiplier panics in `Bandwidth::new`.
    #[test]
    fn link_mode_multipliers_are_validated_before_degrading() {
        let cluster = presets::dgx_a100_hdr_cluster();
        for mult in [f64::NAN, -2.0] {
            let faults = FaultSpec::none()
                .with_degradation(mult)
                .with_degrade_mode(crate::DegradeMode::Link);
            let err = simulate_fleet(
                &cluster,
                Arc::new(models::llama2_7b()),
                &FleetConfig::new(2, 1).with_faults(faults),
                &spec(1, 4, 1.0),
            )
            .unwrap_err();
            assert!(matches!(err, ServeError::InvalidConfig(_)), "{mult}: {err}");
            assert!(err.to_string().starts_with("fault spec: "), "{mult}: {err}");
        }
    }

    #[test]
    fn empty_trace_yields_an_empty_fleet_report() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = serve(
            &cluster,
            Arc::new(models::llama2_7b()),
            &FleetConfig::new(2, 1),
            &[],
        )
        .unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan, Time::ZERO);
        assert_eq!(report.slo.attainment, 1.0);
        assert_eq!(report.routed, vec![0, 0]);
    }

    /// More replicas at the same offered load strictly help the TTFT
    /// tail once a single replica saturates.
    #[test]
    fn replication_relieves_a_saturated_replica() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_13b());
        let trace = spec(7, 128, 50.0);
        let one = simulate_fleet(
            &cluster,
            Arc::clone(&model),
            &FleetConfig::new(1, 1),
            &trace,
        )
        .unwrap();
        let four = simulate_fleet(
            &cluster,
            Arc::clone(&model),
            &FleetConfig::new(4, 1).with_router(RouterPolicy::LeastOutstanding),
            &trace,
        )
        .unwrap();
        assert!(
            four.ttft.p99 < one.ttft.p99,
            "4 replicas p99 {} vs 1 replica p99 {}",
            four.ttft.p99,
            one.ttft.p99
        );
        assert!(four.slo.attainment >= one.slo.attainment);
    }

    /// Crash injection still conserves requests — everything completes
    /// after requeues — and the report carries the matching availability
    /// metrics.
    #[test]
    fn crashes_requeue_and_conserve() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let faults = FaultSpec::crashes(5, 8.0, 2.0);
        let config = FleetConfig::new(3, 1)
            .with_router(RouterPolicy::LeastOutstanding)
            .with_faults(faults.clone());
        let report =
            simulate_fleet(&cluster, Arc::clone(&model), &config, &spec(29, 400, 40.0)).unwrap();
        assert_eq!(report.completed + report.rejected, report.requests);
        assert_eq!(report.faults, Some(faults));
        let a = &report.availability;
        assert!(a.crashes > 0, "8 s MTBF over a long trace must crash");
        assert!(a.downtime > Time::ZERO);
        assert!(a.availability < 1.0 && a.availability > 0.0);
        assert!(a.requeues >= a.requeued_requests);
        assert_eq!(a.requeued_ids.len(), a.requeued_requests);
        assert!(a.requeued_ids.windows(2).all(|w| w[0] < w[1]));
        // Every assignment is accounted: originals plus requeue events.
        assert_eq!(
            report.routed.iter().sum::<usize>(),
            report.requests - report.rejected + a.requeues
        );
        // Schedule-based downtime matches the per-replica decomposition.
        let sum: f64 = a.per_replica_downtime.iter().map(|t| t.secs()).sum();
        assert!((sum - a.downtime.secs()).abs() < 1e-9);
        assert!(report.to_string().contains("churn"));
    }

    /// A straggler-only spec slows the straggling replica without losing
    /// any request.
    #[test]
    fn stragglers_slow_but_conserve() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let trace = spec(31, 200, 30.0);
        let clean = simulate_fleet(
            &cluster,
            Arc::clone(&model),
            &FleetConfig::new(2, 1),
            &trace,
        )
        .unwrap();
        let slowed = simulate_fleet(
            &cluster,
            Arc::clone(&model),
            &FleetConfig::new(2, 1).with_faults(FaultSpec::none().with_degradation(3.0)),
            &trace,
        )
        .unwrap();
        assert_eq!(slowed.completed, clean.completed);
        assert_eq!(slowed.availability.requeues, 0);
        assert_eq!(slowed.availability.availability, 1.0);
        assert!(
            slowed.e2e.mean > clean.e2e.mean,
            "3× degradation must slow e2e: {} vs {}",
            slowed.e2e.mean,
            clean.e2e.mean
        );
    }

    #[test]
    fn invalid_fault_spec_is_a_clean_error() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let err = FleetInstance::new(
            &cluster,
            Arc::new(models::llama2_7b()),
            FleetConfig::new(2, 1).with_faults(FaultSpec::crashes(0, 10.0, -1.0)),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
    }

    /// `serve --mtbf 0.05 --mttr 10 --requests 10`: with a 50 ms MTBF
    /// every iteration outlasts the uptime it starts in, so each crash
    /// loses the work again and the requeue drain never runs dry. That is
    /// a typed error naming the MTBF, not a panic.
    #[test]
    fn a_fault_spec_that_never_lets_the_fleet_finish_is_a_clean_error() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let spec = TraceSpec {
            seed: 42,
            requests: 10,
            arrival: ArrivalProcess::Poisson { rate_per_s: 2.0 },
            prompt: LengthDist::Fixed { tokens: 200 },
            output: LengthDist::Fixed { tokens: 64 },
            prefixes: None,
            priority_classes: 1,
        };
        let err = simulate_fleet(
            &cluster,
            Arc::new(models::llama2_13b()),
            &FleetConfig::new(1, 1).with_faults(FaultSpec::crashes(0, 0.05, 10.0)),
            &spec,
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("MTBF 0.05 s"), "{err}");
    }

    /// `serve --degrade 1e308 --requests 5`: a finite slowdown multiplier
    /// whose iteration times overflow the report's sums. The run is a
    /// typed error naming the multiplier, not a report with an infinite
    /// e2e mean.
    #[test]
    fn a_slowdown_whose_figures_overflow_is_a_clean_error() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let err = simulate_fleet(
            &cluster,
            Arc::new(models::llama2_13b()),
            &FleetConfig::new(1, 1).with_faults(FaultSpec::none().with_degradation(1e308)),
            &spec(42, 5, 2.0),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("1.000e308× (degrade)"), "{err}");
    }

    /// `serve --mtbf 1e-300 --mttr 10 --requests 10` and `serve --mtbf 5
    /// --mttr 10 --requests 10 --failure-process weibull:0.01`: nearly
    /// every uptime either spec samples is below the clock's resolution at
    /// the recovery instant, so each next crash lands exactly on the
    /// recovery and the merged outage window absorbs it, forever. Both are
    /// a typed error naming the MTBF. Each runs on its own thread, so a
    /// hang fails the test after 5 s instead of stalling the suite.
    #[test]
    fn fault_specs_with_uptimes_below_the_clock_resolution_are_clean_errors() {
        let specs = [
            (FaultSpec::crashes(0, 1e-300, 10.0), "MTBF 1e-300 s"),
            (
                FaultSpec::crashes(0, 5.0, 10.0)
                    .with_process(FailureProcess::Weibull { shape: 0.01 }),
                "MTBF 5.0 s",
            ),
        ];
        for (faults, mtbf) in specs {
            let (sent, received) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                let trace = TraceSpec {
                    seed: 42,
                    requests: 10,
                    arrival: ArrivalProcess::Poisson { rate_per_s: 2.0 },
                    prompt: LengthDist::Fixed { tokens: 200 },
                    output: LengthDist::Fixed { tokens: 64 },
                    prefixes: None,
                    priority_classes: 1,
                };
                let result = simulate_fleet(
                    &presets::dgx_a100_hdr_cluster(),
                    Arc::new(models::llama2_13b()),
                    &FleetConfig::new(1, 1).with_faults(faults),
                    &trace,
                );
                // The receiver may have given up already.
                let _ = sent.send(result.map(|report| report.completed));
            });
            let result = received
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("{mtbf}: no result within 5 s ({e})"));
            worker
                .join()
                .expect("the simulation thread ends after sending");
            let err = result.unwrap_err();
            assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains(mtbf), "{err}");
        }
    }

    /// Every availability and throughput figure must be finite and JSON
    /// must carry no `null`ed-out numbers (the vendored serializer writes
    /// non-finite floats as `null`), whatever degenerate shape the run
    /// takes: nothing served, everything rejected, or replicas down for
    /// essentially the whole run.
    fn assert_json_has_no_nulls(report: &FleetReport) {
        let a = &report.availability;
        assert!(a.availability.is_finite() && (0.0..=1.0).contains(&a.availability));
        assert!(a.goodput_tokens_per_up_replica_s.is_finite());
        assert!(report.tokens_per_s.is_finite());
        assert!(report.requests_per_s.is_finite());
        assert!(report.mean_decode_batch.is_finite());
        assert!(report.kv_peak_utilization.is_finite());
        assert!(report.slo.attainment.is_finite());
        assert!(report.slo.goodput_tokens_per_s.is_finite());
        let json = serde_json::to_string(report).unwrap();
        assert!(
            !json.contains("null"),
            "a non-finite number leaked into the fleet JSON: {json}"
        );
    }

    /// Regression (availability audit): an empty trace under an active
    /// fault spec has `makespan == 0`, which used to be the divide-by-zero
    /// hazard for the availability fraction and per-up-replica goodput.
    #[test]
    fn empty_trace_under_faults_keeps_availability_finite() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = serve(
            &cluster,
            Arc::new(models::llama2_7b()),
            &FleetConfig::new(3, 1).with_faults(FaultSpec::crashes(5, 2.0, 1.0)),
            &[],
        )
        .unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan, Time::ZERO);
        assert_eq!(report.availability.availability, 1.0);
        assert_eq!(report.availability.crashes, 0, "outages clip to makespan");
        assert_json_has_no_nulls(&report);
    }

    /// Regression (availability audit): a trace whose every request is
    /// rejected at the front door also never starts the clock — the
    /// availability math and throughput denominators must stay clean.
    #[test]
    fn all_rejected_trace_under_faults_keeps_availability_finite() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let trace = [
            Request::new(0, 0.1, 500_000, 4),
            Request::new(1, 0.2, 600_000, 4),
        ];
        let report = serve(
            &cluster,
            Arc::new(models::llama2_13b()),
            &FleetConfig::new(2, 1).with_faults(FaultSpec::crashes(5, 2.0, 1.0)),
            &trace,
        )
        .unwrap();
        assert_eq!(report.rejected, 2);
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan, Time::ZERO);
        assert_eq!(report.availability.availability, 1.0);
        assert_eq!(report.slo.attainment, 1.0);
        assert_json_has_no_nulls(&report);
    }

    /// Replicas down for essentially the entire run: the fraction must
    /// stay inside [0, 1] (downtime is clipped per replica to the
    /// makespan), requests still complete once repairs land, and the JSON
    /// stays null-free.
    #[test]
    fn mostly_down_fleet_keeps_availability_in_unit_range() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let report = simulate_fleet(
            &cluster,
            Arc::new(models::llama2_7b()),
            &FleetConfig::new(2, 1).with_faults(FaultSpec::crashes(9, 0.5, 50.0)),
            &spec(41, 30, 10.0),
        )
        .unwrap();
        assert_eq!(report.completed + report.rejected, report.requests);
        assert!(report.availability.availability < 1.0);
        assert!(report.availability.downtime > Time::ZERO);
        assert_json_has_no_nulls(&report);
    }

    /// Pins the fleet half of the online-knowledge caveat documented on
    /// [`run_fleet`]: a request that arrives while a replica's iteration
    /// is running is (a) routed with *live* queue knowledge — the
    /// state-aware router sends it to the idle replica, not the busy one —
    /// and (b) visible in the busy replica's samples at most one
    /// iteration late: the sample closing the in-flight iteration was
    /// recorded before the router pushed the request (an omniscient
    /// observer would count it waiting there), and the very next sample
    /// shows it in compute.
    #[test]
    fn router_sees_mid_iteration_arrivals_and_samples_lag_one_iteration() {
        let cluster = presets::dgx_a100_hdr_cluster();
        // Request 0 opens a 4000-token prefill on replica 0 (≫ 2 ms);
        // requests 1 and 2 arrive 1–2 ms into it.
        let trace = [
            Request::new(0, 0.1, 4000, 4),
            Request::new(1, 0.101, 100, 4),
            Request::new(2, 0.102, 100, 4),
        ];
        let report = serve(
            &cluster,
            Arc::new(models::llama2_13b()),
            &FleetConfig::new(2, 1).with_router(RouterPolicy::LeastOutstanding),
            &trace,
        )
        .unwrap();
        // Live knowledge: replica 0 is mid-prefill when request 1 lands,
        // so least-outstanding diverts it to replica 1; request 2 ties
        // 1–1 and breaks to replica 0. Stale (route-time-zero) knowledge
        // would have sent all three to replica 0.
        assert_eq!(report.routed, vec![2, 1]);
        assert_eq!(report.completed, 3);
        // Sample lag = exactly 1 iteration here: replica 0's opening
        // prefill outlasts request 2's arrival, but the engine ran (and
        // sampled) that iteration while advancing to request 1's arrival
        // — before the router pushed request 2 — so the closing sample
        // shows an empty queue where an omniscient observer would count
        // one waiter. The very next iteration is request 2's prefill, so
        // the next sample already shows it decoding: the lag never
        // exceeds one iteration.
        let samples = &report.per_replica[0].queue.samples;
        assert!(
            samples[0].at.secs() > 0.102,
            "the opening prefill must outlast the mid-iteration arrival ({})",
            samples[0].at
        );
        assert_eq!(
            (samples[0].waiting, samples[0].decoding),
            (0, 1),
            "the closing sample predates the mid-iteration push — the one-iteration lag"
        );
        assert_eq!(
            samples[1].decoding, 2,
            "the pushed request must be in compute by the next sample"
        );
    }

    /// A paged fleet with a shared-prefix trace merges per-replica paging
    /// into one fleet section: counters are sums, peak occupancy is the
    /// worst replica's, and conservation still holds under preemption.
    #[test]
    fn paged_fleet_merges_paging_and_conserves() {
        let cluster = presets::dgx_a100_hdr_cluster();
        let model = Arc::new(models::llama2_7b());
        let mut trace_spec = spec(53, 120, 40.0);
        trace_spec.prefixes = Some(crate::PrefixSpec {
            pool: 3,
            tokens: 32,
            rate: 0.6,
        });
        let config = FleetConfig::new(3, 1)
            .with_router(RouterPolicy::LeastOutstanding)
            .with_replica(ServeConfig::new(1).with_kv(crate::KvSpec::paged(16)));
        let report = simulate_fleet(&cluster, Arc::clone(&model), &config, &trace_spec).unwrap();
        assert_eq!(report.completed + report.rejected, report.requests);
        let fleet_paging = report.paging.expect("paged fleets report paging");
        let per: Vec<_> = report
            .per_replica
            .iter()
            .map(|r| r.paging.expect("paged replicas report paging"))
            .collect();
        assert_eq!(
            fleet_paging.prefix_hits + fleet_paging.prefix_misses,
            per.iter().map(|p| p.prefix_hits + p.prefix_misses).sum()
        );
        assert_eq!(
            fleet_paging.peak_blocks,
            per.iter().map(|p| p.peak_blocks).max().unwrap()
        );
        assert!(fleet_paging.prefix_hits > 0, "a 60% hit rate must hit");
        assert!(fleet_paging.peak_blocks <= fleet_paging.total_blocks);
        // The reserved fleet on the identical trace reports no paging.
        let reserved = simulate_fleet(
            &cluster,
            Arc::clone(&model),
            &FleetConfig::new(3, 1).with_router(RouterPolicy::LeastOutstanding),
            &trace_spec,
        )
        .unwrap();
        assert!(reserved.paging.is_none());
        assert!(reserved.per_replica.iter().all(|r| r.paging.is_none()));
        assert!(!serde_json::to_string(&reserved).unwrap().contains("paging"));
    }

    /// The per-request pick the bulk requeue replaced, kept as the
    /// reference: round-robin and random as in [`RouterState::pick`], and
    /// the first minimum of `policy`'s *live* engine load over the up
    /// replicas.
    fn scan_pick(
        policy: RouterPolicy,
        state: &mut RouterState,
        engines: &[ReplicaEngine<'_, '_>],
        up: &[bool],
    ) -> usize {
        let n = engines.len();
        let live = || (0..n).filter(|&i| up[i]);
        match (state, policy) {
            (RouterState::RoundRobin { next }, _) => {
                let mut choice = *next % n;
                while !up[choice] {
                    choice = (choice + 1) % n;
                }
                *next = (choice + 1) % n;
                choice
            }
            (RouterState::Random { rng }, _) => {
                let draw = rng.gen_range(0..live().count());
                live().nth(draw).unwrap()
            }
            (_, RouterPolicy::LeastOutstanding) => {
                live().min_by_key(|&i| engines[i].outstanding()).unwrap()
            }
            _ => live().min_by_key(|&i| engines[i].waiting()).unwrap(),
        }
    }

    /// The per-request requeue loop the bulk requeue replaced, kept as
    /// the reference: every dropped request in (drop instant, trace
    /// index) order, each with its own availability scan, all-down stall
    /// and [`scan_pick`]. Returns the requeue count.
    fn requeue_one_by_one(
        policy: RouterPolicy,
        engines: &mut [ReplicaEngine<'_, '_>],
        state: &mut RouterState,
        router_now: &mut f64,
        drops: &[Dropped],
    ) -> usize {
        let mut batch: Vec<(u32, f64)> = drops
            .iter()
            .flat_map(|d| d.lost.iter().map(move |&req| (req, d.at_s)))
            .collect();
        batch.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut up = Vec::new();
        for &(req, dropped_at) in &batch {
            *router_now = router_now.max(dropped_at);
            loop {
                up.clear();
                for engine in engines.iter_mut() {
                    up.push(engine.available(*router_now).unwrap());
                }
                if up.contains(&true) {
                    break;
                }
                *router_now = engines
                    .iter_mut()
                    .map(|e| e.next_up(*router_now).unwrap())
                    .fold(f64::INFINITY, f64::min);
            }
            let choice = scan_pick(policy, state, engines, &up);
            engines[choice].push(req, *router_now);
        }
        batch.len()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random crash drops at 1–4 instants — some shared by two
        /// replicas, some inside a replica's outage window, one possibly
        /// inside a fleet-wide domain outage so the router stalls
        /// mid-batch — over random preexisting loads: the bulk requeue
        /// hands every engine the (trace index, effective arrival)
        /// sequence the per-request loop did, and leaves the router clock,
        /// the requeue count, the requeue marks and the next pick where
        /// the loop left them, for all four policies. Each drop has the
        /// shape a crash hands over, up to hundreds of requests: an
        /// unsorted in-flight head, then its backlog as a few ascending
        /// runs out of trace order. Some drop holds each 64-bit word edge
        /// (indices 0, 63 and 64) and the last index. The preloads are
        /// unlevel, or level with no warm-up, so the water-fill levels,
        /// takes turns and ends mid-round.
        #[test]
        fn bulk_requeue_routes_what_the_per_request_loop_routed(
            fault_seed in 0u64..1000,
            router_seed in 0u64..1000,
            (preloads, level, warmup_s) in (
                proptest::collection::vec(0u32..8, 4..5),
                0u8..2,
                0.0f64..0.4,
            ),
            instants in proptest::collection::vec((0u8..2, 0.0f64..1.0, 0u8..2), 1..5),
            stall_at in 0usize..6,
            (words, tail, shape_seed) in (2usize..20, prop_oneof![Just(0usize), 1usize..64], 0u64..1000),
        ) {
            const REPLICAS: usize = 4;
            const HORIZON_S: f64 = 40.0;
            let cluster = presets::dgx_a100_hdr_cluster();
            let instance =
                ServeInstance::new(&cluster, Arc::new(models::llama2_7b()), ServeConfig::new(1))
                    .unwrap();
            // Everything arrives at once, so the preloads are pushed at
            // their arrival and reach decode within the warm-up.
            let trace: Vec<Request> = spec(fault_seed, 64 * words + tail, 40.0)
                .generate()
                .into_iter()
                .map(|r| Request { arrival_s: 0.0, ..r })
                .collect();
            let bounds = TraceBounds::scan(&instance, &trace).unwrap();
            let faults = FaultSpec::crashes(fault_seed, 6.0, 1.5)
                .with_domain(FaultDomain::new((0..REPLICAS).collect(), 10.0, 2.0));
            let own: Vec<Vec<(f64, f64)>> =
                (0..REPLICAS).map(|i| faults.outage_windows(i, HORIZON_S).unwrap()).collect();
            let shared = faults.domain_outage_windows(0, HORIZON_S).unwrap();
            // A point `u` of the way through the windows, laid end to end.
            let inside = |windows: &[(f64, f64)], u: f64| {
                let at = u * windows.len() as f64;
                let (crash, recover) = windows[at as usize];
                crash + at.fract() * (recover - crash)
            };
            let mut drops: Vec<Dropped> = Vec::new();
            for (k, &(kind, u, pair)) in instants.iter().enumerate() {
                let at_s = if k == stall_at && !shared.is_empty() {
                    let at_s = inside(&shared, u);
                    let down = |w: &Vec<(f64, f64)>| w.iter().any(|&(c, r)| c <= at_s && at_s < r);
                    prop_assert!(own.iter().all(down), "the whole fleet is down at {}", at_s);
                    at_s
                } else if kind == 0 || own[k % REPLICAS].is_empty() {
                    u * HORIZON_S
                } else {
                    inside(&own[k % REPLICAS], u)
                };
                for _ in 0..=pair {
                    drops.push(Dropped { at_s, lost: Vec::new() });
                }
            }
            // Each request is lost by one drop or by none; the word edges
            // and the last index always are.
            let mut rng = StdRng::seed_from_u64(shape_seed);
            let last = trace.len() - 1;
            for req in 0..=last {
                let owner = if [0, 63, 64, last].contains(&req) {
                    req % drops.len()
                } else {
                    rng.gen_range(0..drops.len() + 1)
                };
                if let Some(drop) = drops.get_mut(owner) {
                    drop.lost.push(req as u32);
                }
            }
            // A crash that loses nothing hands over no drop.
            drops.retain(|drop| !drop.lost.is_empty());
            let mut marked = vec![false; trace.len()];
            for drop in &mut drops {
                for &req in &drop.lost {
                    marked[req as usize] = true;
                }
                // Up to 8 requests in flight, in no order, then the rest
                // as up to 4 ascending runs, the last run first.
                let mut shaped = Vec::new();
                for _ in 0..rng.gen_range(0..9usize).min(drop.lost.len()) {
                    shaped.push(drop.lost.remove(rng.gen_range(0..drop.lost.len())));
                }
                let mut cuts: Vec<usize> = (0..rng.gen_range(0..4usize))
                    .map(|_| rng.gen_range(0..drop.lost.len() + 1))
                    .chain([0, drop.lost.len()])
                    .collect();
                cuts.sort_unstable();
                for run in cuts.windows(2).rev() {
                    shaped.extend_from_slice(&drop.lost[run[0]..run[1]]);
                }
                drop.lost = shaped;
            }
            let (preloads, warmup_s) = if level == 1 {
                (vec![preloads[0]; REPLICAS], 0.0)
            } else {
                (preloads, warmup_s)
            };
            let records_on = instance.records_on(trace.len());
            let engines = || {
                let mut engines: Vec<ReplicaEngine<'_, '_>> = (0..REPLICAS)
                    .map(|i| {
                        let wiring = Some(EngineFaults::for_replica(&faults, i).unwrap());
                        ReplicaEngine::new(&instance, &trace, &bounds, records_on, wiring)
                    })
                    .collect();
                for ((engine, &preload), first) in engines.iter_mut().zip(&preloads).zip(0u32..) {
                    for req in 8 * first..8 * first + preload {
                        engine.push(req, 0.0);
                    }
                    // Part of the preload reaches decode, so outstanding
                    // and waiting differ; a crash on the way is discarded.
                    engine.advance_to(warmup_s, &mut instance.lease_prices()).unwrap();
                    engine.take_requeued();
                }
                engines
            };
            let start = |policy| {
                let mut state = RouterState::new(policy);
                if let RouterState::RoundRobin { next } = &mut state {
                    *next = router_seed as usize;
                }
                state
            };
            let policies = policies().map(|policy| match policy {
                RouterPolicy::Random { .. } => RouterPolicy::Random { seed: router_seed },
                other => other,
            });
            for policy in policies {
                let mut reference = engines();
                let mut state = start(policy);
                let mut router_now = 0.0;
                let requeues =
                    requeue_one_by_one(policy, &mut reference, &mut state, &mut router_now, &drops);

                let mut bulk = engines();
                let mut front = Router {
                    state: start(policy),
                    ..Router::new(policy, trace.len())
                };
                let copy = drops.iter().map(|d| Dropped { at_s: d.at_s, lost: d.lost.clone() });
                front.requeue(&mut bulk, copy.collect()).unwrap();

                for (i, (a, b)) in reference.iter().zip(&bulk).enumerate() {
                    prop_assert_eq!(a.assignments(), b.assignments(), "{policy}, replica {i}");
                }
                prop_assert_eq!(front.now, router_now, "{policy}");
                prop_assert_eq!(front.requeues, requeues, "{policy}");
                prop_assert_eq!(&front.requeued, &marked, "{policy}");
                prop_assert_eq!(
                    front.state.pick(REPLICAS, |_| true, |i| load(policy, &bulk[i])),
                    scan_pick(policy, &mut state, &reference, &[true; REPLICAS]),
                    "{policy}: next pick"
                );
            }
        }
    }
}
