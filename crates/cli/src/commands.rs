//! Subcommand implementations.

use crate::args::{synopses, ArgError, Args, Command};
use optimus::memory::{training_memory, RecomputeMode, TrainingMemorySpec};
use optimus::prelude::*;
use optimus::units::Figure;
use optimus_sweep::{render_frontier, render_table, SweepEngine, SweepSpace, Workload};

/// Resolves a model preset name (case-insensitive, `-`/`_` agnostic).
///
/// # Errors
///
/// Returns [`ArgError`] listing the known names on a miss.
pub fn model_preset(name: &str) -> Result<ModelConfig, ArgError> {
    use optimus::model::presets;
    presets::by_name(name)
        .ok_or_else(|| unknown_preset("model", name, presets::all().iter().map(|m| &m.name)))
}

/// Resolves a cluster preset name.
///
/// # Errors
///
/// Returns [`ArgError`] listing the known names on a miss.
pub fn cluster_preset(name: &str) -> Result<ClusterSpec, ArgError> {
    use optimus::hw::presets;
    presets::cluster_by_name(name)
        .ok_or_else(|| unknown_preset("cluster", name, presets::clusters().iter().map(|c| &c.name)))
}

/// The error for an unknown `kind` preset `name`, listing the `known`
/// preset names in lower case.
fn unknown_preset<'a>(kind: &str, name: &str, known: impl Iterator<Item = &'a String>) -> ArgError {
    let known: Vec<String> = known.map(|n| n.to_lowercase()).collect();
    ArgError(format!(
        "unknown {kind} `{name}`; try one of: {}",
        known.join(", ")
    ))
}

fn precision_of(name: &str) -> Result<Precision, ArgError> {
    Ok(match name.to_lowercase().as_str() {
        "fp16" => Precision::Fp16,
        "bf16" => Precision::Bf16,
        "fp8" => Precision::Fp8,
        "fp4" => Precision::Fp4,
        "fp32" => Precision::Fp32,
        other => return Err(ArgError(format!("unknown precision `{other}`"))),
    })
}

fn recompute_of(name: &str) -> Result<RecomputeMode, ArgError> {
    Ok(match name.to_lowercase().as_str() {
        "none" => RecomputeMode::None,
        "selective" => RecomputeMode::Selective,
        "full" => RecomputeMode::Full {
            checkpoints_per_stage: None,
        },
        other => return Err(ArgError(format!("unknown recompute mode `{other}`"))),
    })
}

fn parallelism_of(args: &Args) -> Parallelism {
    Parallelism::new(
        args.get_usize("dp", 1),
        args.get_usize("tp", 1),
        args.get_usize("pp", 1),
    )
    .with_sp(args.has("sp"))
    .with_microbatch(args.get_usize("microbatch", 1))
}

/// Parses a `--failure-process` value: `exp`/`exponential`,
/// `weibull:K` (Weibull uptimes with shape K), or `racks:N:MTBF`
/// (N racks, each failing wholesale every MTBF seconds on average, on
/// top of the per-GPU process).
fn failure_process_of(value: &str) -> Result<FailureProcess, ArgError> {
    let lower = value.to_lowercase();
    if lower == "exp" || lower == "exponential" {
        return Ok(FailureProcess::Exponential);
    }
    if let Some(shape) = lower.strip_prefix("weibull:") {
        let shape = shape.parse::<f64>().map_err(|_| {
            ArgError(format!(
                "--failure-process weibull:K expects a numeric shape, got `{value}`"
            ))
        })?;
        return Ok(FailureProcess::Weibull { shape });
    }
    if let Some(rest) = lower.strip_prefix("racks:") {
        let parsed = rest.split_once(':').and_then(|(racks, mtbf)| {
            Some((racks.parse::<usize>().ok()?, mtbf.parse::<f64>().ok()?))
        });
        let Some((racks, rack_mtbf_s)) = parsed else {
            return Err(ArgError(format!(
                "--failure-process racks:N:MTBF expects a rack count and seconds, got `{value}`"
            )));
        };
        return Ok(FailureProcess::RackCorrelated { racks, rack_mtbf_s });
    }
    Err(ArgError(format!(
        "unknown failure process `{value}`; expected `exp`, `weibull:K`, or `racks:N:MTBF`"
    )))
}

/// Parses a `--checkpoint-tiers` value: a comma list of extra tiers
/// (`peer`, `delta`) layered under the always-present persistent full
/// checkpoint.
fn checkpoint_tiers_of(value: &str) -> Result<Vec<CheckpointTier>, ArgError> {
    list_of(value, |name| match name.to_lowercase().as_str() {
        "peer" => Ok(CheckpointTier::peer()),
        "delta" => Ok(CheckpointTier::delta()),
        other => Err(ArgError(format!(
            "unknown checkpoint tier `{other}`; expected `peer` or `delta`"
        ))),
    })
}

/// Parses the resilience options of `train` and `sweep`: without `--mtbf`
/// (per-GPU, seconds), [`CheckpointSpec::none`].
fn checkpoint_of(args: &Args) -> Result<CheckpointSpec, ArgError> {
    if !args.has("mtbf") {
        return Ok(CheckpointSpec::none());
    }
    let mut spec = CheckpointSpec::with_mtbf(args.get_f64("mtbf", 0.0));
    if args.has("checkpoint-interval") {
        spec = spec.with_interval(args.get_f64("checkpoint-interval", 0.0));
    }
    spec = spec.with_restart(args.get_f64("restart", 0.0));
    if let Some(value) = args.get("failure-process") {
        spec = spec.with_process(failure_process_of(value)?);
    }
    let tiers = match args.get("checkpoint-tiers") {
        Some(value) => checkpoint_tiers_of(value)?,
        None => Vec::new(),
    };
    if args.has("delta-frac") {
        if !tiers.iter().any(|t| t.kind == TierKind::PersistentDelta) {
            return Err(ArgError(
                "--delta-frac only applies with a `delta` entry in --checkpoint-tiers".to_owned(),
            ));
        }
        spec = spec.with_delta_fraction(args.get_f64("delta-frac", 0.0));
    }
    spec = spec.with_tiers(tiers);
    if args.has("elastic") {
        spec = spec
            .with_elastic(true)
            .with_rewarm(args.get_f64("rewarm", 0.0))
            .with_repair(args.get_f64("repair", 0.0));
    }
    if args.has("checkpoint-util") {
        spec = spec.with_overhead_util(args.get_f64("checkpoint-util", 1.0));
    }
    spec.validate()
        .map_err(|reason| ArgError(format!("invalid resilience options: {reason}")))?;
    Ok(spec)
}

/// `optimus-cli train …` — training-time estimate.
fn train(args: &Args) -> Result<String, ArgError> {
    let model = model_preset(args.get_or("model", "gpt-175b"))?;
    let cluster = cluster_preset(args.get_or("cluster", "a100-hdr"))?;
    let cfg = TrainingConfig::new(
        model,
        args.get_usize("batch", 64),
        args.get_usize("seq", 2048),
        parallelism_of(args),
    )
    .with_precision(precision_of(args.get_or("precision", "fp16"))?)
    .with_recompute(recompute_of(args.get_or("recompute", "selective"))?)
    .with_flash(args.has("flash"));

    let report = TrainingEstimator::new(&cluster)
        .with_checkpoint(checkpoint_of(args)?)
        .estimate(&cfg)
        .map_err(|e| ArgError(e.to_string()))?;

    if args.has("json") {
        return serde_json::to_string_pretty(&report).map_err(|e| ArgError(e.to_string()));
    }
    let mut out = String::new();
    out.push_str(&format!("config: {cfg}\ncluster: {cluster}\n\n{report}\n"));
    out.push_str(&format!(
        "\nfits {} device memory: {}\n",
        cluster.accelerator().dram.capacity,
        report.memory.fits(cluster.accelerator().dram.capacity)
    ));
    Ok(out)
}

/// `optimus-cli infer …` — serving-latency estimate.
fn infer(args: &Args) -> Result<String, ArgError> {
    let model = model_preset(args.get_or("model", "llama2-13b"))?;
    let cluster = cluster_preset(args.get_or("cluster", "a100-hdr"))?;
    let cfg = InferenceConfig::new(
        model,
        args.get_usize("batch", 1),
        args.get_usize("prefill", 200),
        args.get_usize("generate", 200),
        args.get_usize("tp", 1),
    )
    .with_precision(precision_of(args.get_or("precision", "fp16"))?);

    let report = InferenceEstimator::new(&cluster)
        .estimate(&cfg)
        .map_err(|e| ArgError(e.to_string()))?;

    if args.has("json") {
        return serde_json::to_string_pretty(&report).map_err(|e| ArgError(e.to_string()));
    }
    let mut out = format!("config: {cfg}\ncluster: {cluster}\n\n{report}\n");
    out.push_str("\nper-GEMM bound analysis (decode layer at full context):\n");
    for g in &report.decode_gemms {
        out.push_str(&format!(
            "  {:<20} {:>9.1} us  {}\n",
            g.role.to_string(),
            g.time.micros(),
            g.bound
        ));
    }
    out.push_str(&format!(
        "\nweights {:.1} GB + kv-cache {:.2} GB per device\n",
        report.memory.weights.gb(),
        report.memory.kv_cache.gb()
    ));
    Ok(out)
}

/// Parses a token-length option: either a single count (`200`) or an
/// inclusive `LO:HI` range (`50:400`). `TraceSpec::validate` refuses a
/// zero length or an inverted range.
fn length_dist_of(key: &str, value: &str) -> Result<optimus_serve::LengthDist, ArgError> {
    use optimus_serve::LengthDist;
    let parse_tokens = |v: &str| {
        v.parse::<usize>()
            .map_err(|_| ArgError(format!("--{key} expects a positive token count, got `{v}`")))
    };
    Ok(match value.split_once(':') {
        None => LengthDist::Fixed {
            tokens: parse_tokens(value)?,
        },
        Some((lo, hi)) => LengthDist::Uniform {
            lo: parse_tokens(lo)?,
            hi: parse_tokens(hi)?,
        },
    })
}

/// Parses the routing options shared by `serve` and `load-sweep`:
/// `--router NAME` (+ `--router-seed N` for the random policy).
fn router_of(args: &Args) -> Result<optimus_serve::RouterPolicy, ArgError> {
    use optimus_serve::RouterPolicy;
    let name = args.get_or("router", "round-robin");
    if args.has("router-seed") && name != "random" {
        return Err(ArgError(
            "--router-seed only applies with --router random".to_owned(),
        ));
    }
    Ok(match name {
        "round-robin" => RouterPolicy::RoundRobin,
        "random" => RouterPolicy::Random {
            seed: args.get_usize("router-seed", 0) as u64,
        },
        "least-outstanding" => RouterPolicy::LeastOutstanding,
        "shortest-queue" | "join-shortest-queue" => RouterPolicy::JoinShortestQueue,
        other => {
            return Err(ArgError(format!(
                "unknown router `{other}`; try one of: round-robin, random, \
                 least-outstanding, shortest-queue"
            )))
        }
    })
}

/// Parses the fault-injection options of `serve` and `load-sweep`, with
/// `--domains N` splitting `fleet_replicas` (the largest fleet the spec
/// will run against) into N contiguous groups that fail together. `None`
/// when no fault axis is requested at all. The run checks the spec
/// (`FaultSpec::validate`).
fn faults_of(
    args: &Args,
    fleet_replicas: usize,
) -> Result<Option<optimus_serve::FaultSpec>, ArgError> {
    use optimus_serve::{DegradeMode, FaultDomain, FaultSpec};
    let crashes = args.has("mtbf");
    let stragglers = args.get("stragglers");
    let domains = args.has("domains");
    let degrade = args.has("degrade");
    if !crashes && stragglers.is_none() && !domains && !degrade {
        return Ok(None);
    }
    let mut spec = FaultSpec::none();
    spec.seed = args.get_usize("fault-seed", 0) as u64;
    if crashes {
        spec.mtbf_s = args.get_f64("mtbf", 0.0);
        spec.mttr_s = args.get_f64("mttr", 30.0);
        if let Some(value) = args.get("failure-process") {
            spec = spec.with_process(failure_process_of(value)?);
        }
    }
    if let Some(value) = stragglers {
        let parsed = value
            .split_once(':')
            .and_then(|(frac, mult)| Some((frac.parse::<f64>().ok()?, mult.parse::<f64>().ok()?)));
        let Some((frac, mult)) = parsed else {
            return Err(ArgError(format!(
                "--stragglers expects FRAC:MULT (e.g. 0.25:2.5), got `{value}`"
            )));
        };
        spec = spec.with_stragglers(frac, mult);
    }
    if domains {
        if fleet_replicas < 2 {
            return Err(ArgError(
                "--domains requires a fleet: --replicas 2 or more (serve) or a \
                 --replicas-list entry of 2 or more (load-sweep)"
                    .to_owned(),
            ));
        }
        let count = args.get_usize("domains", 0);
        if count > fleet_replicas {
            return Err(ArgError(format!(
                "--domains must lie in 1..={fleet_replicas} (the fleet size), got {count}"
            )));
        }
        let mtbf_s = args.get_f64("domain-mtbf", 0.0);
        let mttr_s = args.get_f64("domain-mttr", 30.0);
        // Split the fleet into `count` contiguous near-even groups — the
        // shape of racks filled in replica order. The front groups take
        // the remainder.
        let (base, extra) = (fleet_replicas / count, fleet_replicas % count);
        let mut start = 0;
        spec = spec.with_domains(
            (0..count)
                .map(|d| {
                    let size = base + usize::from(d < extra);
                    let members = (start..start + size).collect();
                    start += size;
                    FaultDomain::new(members, mtbf_s, mttr_s)
                })
                .collect(),
        );
    }
    if degrade {
        spec = spec.with_degradation(args.get_f64("degrade", 1.0));
        spec = spec.with_degrade_mode(match args.get_or("degrade-mode", "flat") {
            "flat" => DegradeMode::Flat,
            "link" => DegradeMode::Link,
            other => {
                return Err(ArgError(format!(
                    "unknown degrade mode `{other}`; expected `flat` or `link`"
                )))
            }
        });
    }
    Ok(Some(spec))
}

/// Parses `--kv-block N` tokens per block (0 or absent = legacy
/// whole-lifetime reservations) and `--preempt recompute|swap` for
/// decode-time OOM.
fn kv_of(args: &Args) -> Result<optimus_serve::KvSpec, ArgError> {
    let block = args.get_usize("kv-block", 0);
    if block == 0 {
        if args.has("preempt") {
            return Err(ArgError(
                "--preempt only applies to paged KV; add --kv-block N".to_owned(),
            ));
        }
        return Ok(optimus_serve::KvSpec::reserved());
    }
    Ok(optimus_serve::KvSpec::paged(block).with_policy(preempt_of(args)?))
}

/// Parses `--preempt recompute|swap`, shared by `serve` and `load-sweep`.
fn preempt_of(args: &Args) -> Result<optimus_serve::PreemptPolicy, ArgError> {
    use optimus_serve::PreemptPolicy;
    match args.get_or("preempt", "recompute") {
        "recompute" => Ok(PreemptPolicy::Recompute),
        "swap" => Ok(PreemptPolicy::Swap),
        other => Err(ArgError(format!(
            "unknown preemption policy `{other}`; expected `recompute` or `swap`"
        ))),
    }
}

/// Parses a scheduler name: `fifo|priority|sjf|priority-preempt`.
fn scheduler_of(name: &str) -> Result<optimus_serve::Scheduler, ArgError> {
    use optimus_serve::Scheduler;
    match name {
        "fifo" => Ok(Scheduler::Fifo),
        "priority" => Ok(Scheduler::Priority),
        "sjf" => Ok(Scheduler::Sjf),
        "priority-preempt" => Ok(Scheduler::PriorityPreempt),
        other => Err(ArgError(format!(
            "unknown scheduler `{other}`; expected `fifo`, `priority`, `sjf`, \
             or `priority-preempt`"
        ))),
    }
}

/// Parses a comma list entry by entry.
fn list_of<T>(value: &str, item: impl Fn(&str) -> Result<T, ArgError>) -> Result<Vec<T>, ArgError> {
    value.split(',').map(|t| item(t.trim())).collect()
}

/// The `--precisions P,P` list, or the singular `--precision` spelling
/// (the option table admits at most one of the two); `None` when neither
/// is given.
fn precisions_of(args: &Args) -> Option<Result<Vec<Precision>, ArgError>> {
    let list = args.get("precisions").or_else(|| args.get("precision"))?;
    Some(list_of(list, precision_of))
}

/// Parses the shared-prefix trace options: `--prefix-tokens N` activates
/// a pool of `--prefix-pool` prefixes hit with probability
/// `--prefix-rate`.
fn prefixes_of(args: &Args) -> Result<Option<optimus_serve::PrefixSpec>, ArgError> {
    let tokens = args.get_usize("prefix-tokens", 0);
    if tokens == 0 {
        if args.has("prefix-pool") || args.has("prefix-rate") {
            return Err(ArgError(
                "--prefix-pool and --prefix-rate only apply with a non-zero --prefix-tokens"
                    .to_owned(),
            ));
        }
        return Ok(None);
    }
    Ok(Some(optimus_serve::PrefixSpec {
        pool: args.get_usize("prefix-pool", 8),
        tokens,
        rate: args.get_f64("prefix-rate", 0.5),
    }))
}

/// Parses `--priority-classes N` (1 = every request at priority 0).
fn priority_classes_of(args: &Args) -> Result<u8, ArgError> {
    u8::try_from(args.get_usize("priority-classes", 1))
        .map_err(|_| ArgError("--priority-classes must lie in 1..=255".to_owned()))
}

/// Parses the SLO options shared by `serve` and `load-sweep`.
fn slo_of(args: &Args) -> optimus_serve::SloSpec {
    optimus_serve::SloSpec {
        ttft: optimus::units::Time::from_millis(args.get_f64("ttft-slo", 2000.0)),
        tpot: optimus::units::Time::from_millis(args.get_f64("tpot-slo", 100.0)),
    }
}

/// `optimus-cli serve …` — continuous-batching serving simulation with
/// SLO metrics, over one replica or (with `--replicas N`) a routed
/// fleet, either way through one fleet simulation.
fn serve(args: &Args) -> Result<String, ArgError> {
    use optimus_serve::{
        simulate_fleet, ArrivalProcess, FaultSpec, FleetConfig, RecordMode, ServeConfig, TraceSpec,
    };
    let model = model_preset(args.get_or("model", "llama2-13b"))?;
    let cluster = cluster_preset(args.get_or("cluster", "a100-hdr"))?;
    let tp = args.get_usize("tp", 1);
    let precision = precision_of(args.get_or("precision", "fp16"))?;

    let arrival = if args.has("interval") {
        ArrivalProcess::Fixed {
            interval_s: args.get_f64("interval", 1.0),
        }
    } else {
        ArrivalProcess::Poisson {
            rate_per_s: args.get_f64("rate", 2.0),
        }
    };
    let requests = args.get_usize("requests", 100);
    let slo = slo_of(args);

    let spec = TraceSpec {
        seed: args.get_usize("seed", 42) as u64,
        requests,
        arrival,
        prompt: length_dist_of("prompt", args.get_or("prompt", "200"))?,
        output: length_dist_of("output", args.get_or("output", "64"))?,
        prefixes: prefixes_of(args)?,
        priority_classes: priority_classes_of(args)?,
    };
    // Per-request records default off beyond the exact-mode limit (a
    // million-request trace would otherwise carry a million records);
    // `--records` forces them on at any scale.
    let mut config = ServeConfig::new(tp)
        .with_precision(precision)
        .with_slo(slo)
        .with_kv(kv_of(args)?)
        .with_scheduler(scheduler_of(args.get_or("scheduler", "fifo"))?);
    if args.has("records") {
        config = config.with_records(RecordMode::On);
    }

    let arrival_desc = match arrival {
        ArrivalProcess::Poisson { rate_per_s } => format!("poisson {rate_per_s} req/s"),
        ArrivalProcess::Fixed { interval_s } => format!("fixed every {interval_s} s"),
    };

    // Fault injection is a fleet concern, so `--mtbf` on a single replica
    // reports as a fleet too (the router requeues its drained work); a
    // fault-free lone replica reports as one serving instance.
    let replicas = args.get_usize("replicas", 1);
    let faults = faults_of(args, replicas)?;
    let lone = replicas == 1 && faults.is_none();
    if lone && args.has("router") {
        return Err(ArgError(
            "--router does not apply without --replicas 2 or more".to_owned(),
        ));
    }
    let fleet_config = FleetConfig {
        replicas,
        router: router_of(args)?,
        replica: config,
        faults: faults.unwrap_or_else(FaultSpec::none),
    };
    let report = simulate_fleet(&cluster, std::sync::Arc::new(model), &fleet_config, &spec)
        .map_err(|e| ArgError(e.to_string()))?;

    if lone {
        let report = report.into_lone_replica();
        if args.has("json") {
            return serde_json::to_string_pretty(&report).map_err(|e| ArgError(e.to_string()));
        }
        let mut out = format!(
            "serve: {} on {} (TP{tp}, {precision})\ntrace: {requests} requests, {arrival_desc}, \
             seed {}\n\n{report}\n",
            report.model, report.cluster, spec.seed
        );
        out.push_str(&format!(
            "\niterations: {} prefill + {} decode (mean decode batch {:.1})\n",
            report.prefill_iterations, report.decode_iterations, report.mean_decode_batch
        ));
        return Ok(out);
    }
    if args.has("json") {
        return serde_json::to_string_pretty(&report).map_err(|e| ArgError(e.to_string()));
    }
    let mut out = format!(
        "serve: {} on {} ({replicas} × TP{tp}, {precision}, {} GPUs)\ntrace: {requests} \
         requests, {arrival_desc}, seed {}\n\n{report}\n\nper replica:\n",
        report.model, report.cluster, report.gpus, spec.seed
    );
    for (i, r) in report.per_replica.iter().enumerate() {
        out.push_str(&format!(
            "  {i}: {:>6} routed, {:>6} completed  |  {:>8.1} tok/s, ttft p99 {:>10}, \
             slo {:>5.1}%\n",
            report.routed[i],
            r.completed,
            r.tokens_per_s,
            r.ttft.p99.to_string(),
            r.slo.attainment * 100.0,
        ));
    }
    let (prefills, decodes): (usize, usize) =
        report.per_replica.iter().fold((0, 0), |(p, d), r| {
            (p + r.prefill_iterations, d + r.decode_iterations)
        });
    out.push_str(&format!(
        "\niterations: {prefills} prefill + {decodes} decode across replicas \
         (mean decode batch {:.1})\n",
        report.mean_decode_batch
    ));
    if let Some(f) = &report.faults {
        let downtime: Vec<String> = report
            .availability
            .per_replica_downtime
            .iter()
            .map(ToString::to_string)
            .collect();
        out.push_str(&format!(
            "churn: downtime per replica [{}], {} requeue events over {} requests\n",
            downtime.join(", "),
            report.availability.requeues,
            report.availability.requeued_requests,
        ));
        if !f.domains.is_empty() {
            let domains: Vec<String> = f
                .domains
                .iter()
                .zip(&report.availability.per_domain_downtime)
                .map(|(d, down)| format!("{:?} down {down}", d.replicas))
                .collect();
            out.push_str(&format!("domains: {}\n", domains.join(", ")));
        }
    }
    Ok(out)
}

/// `optimus-cli load-sweep …` — saturation curves and the SLO-goodput
/// frontier over an (arrival-rate × strategy) grid of serving
/// simulations.
fn load_sweep(args: &Args) -> Result<String, ArgError> {
    use optimus_serve::{load_sweep, LoadStrategy, LoadSweepSpec};

    let model = model_preset(args.get_or("model", "llama2-13b"))?;
    let cluster = cluster_preset(args.get_or("cluster", "a100-hdr"))?;

    // Strategy axis: a TP list crossed with a precision list and a
    // replica-count list — `gpus = tp × replicas`, so the frontier trades
    // TP-up against replicate-out at equal device counts.
    let tps: Vec<usize> = args.get_list("tp-list", "1,2,4,8");
    let replicas_list: Vec<usize> = args.get_list("replicas-list", "1");
    if args.has("router") && replicas_list.iter().all(|&r| r == 1) {
        return Err(ArgError(
            "--router does not apply without a --replicas-list entry of 2 or more".to_owned(),
        ));
    }
    let router = router_of(args)?;
    let precisions = precisions_of(args).unwrap_or(Ok(vec![Precision::Fp16]))?;
    // KV axis: block sizes in tokens, 0 = the legacy reserved regime.
    let kv_blocks: Vec<usize> = args.get_list("kv-block-list", "0");
    if args.has("preempt") && kv_blocks.iter().all(|&b| b == 0) {
        return Err(ArgError(
            "--preempt only applies to paged KV; add a non-zero --kv-block-list entry".to_owned(),
        ));
    }
    let preempt = preempt_of(args)?;
    // Scheduler axis. Priority-preempt entries require a paged KV entry
    // to pair with; reserved cells of that scheduler are infeasible.
    let schedulers = list_of(
        args.get("scheduler-list")
            .or_else(|| args.get("scheduler"))
            .unwrap_or("fifo"),
        scheduler_of,
    )?;
    let mut strategies: Vec<LoadStrategy> = Vec::new();
    for &tp in &tps {
        for &precision in &precisions {
            for &replicas in &replicas_list {
                for &block in &kv_blocks {
                    for &scheduler in &schedulers {
                        let kv = if block == 0 {
                            optimus_serve::KvSpec::reserved()
                        } else {
                            optimus_serve::KvSpec::paged(block).with_policy(preempt)
                        };
                        strategies.push(
                            LoadStrategy::single(tp, precision)
                                .with_replicas(replicas)
                                .with_kv(kv)
                                .with_scheduler(scheduler),
                        );
                    }
                }
            }
        }
    }

    // Rate axis: an explicit list, or a geometric grid over
    // [--min-rate, --max-rate] with --points entries.
    let rates: Vec<f64> = if args.has("rates") {
        args.get_list("rates", "")
    } else {
        let lo = args.get_f64("min-rate", 0.5);
        let hi = args.get_f64("max-rate", 128.0);
        let points = args.get_usize("points", 16);
        if hi < lo {
            return Err(ArgError(
                "--max-rate must be at least --min-rate".to_owned(),
            ));
        }
        if points == 1 {
            vec![lo]
        } else {
            (0..points)
                .map(|i| lo * (hi / lo).powf(i as f64 / (points - 1) as f64))
                .collect()
        }
    };

    let spec = LoadSweepSpec {
        seed: args.get_usize("seed", 42) as u64,
        requests: args.get_usize("requests", 1000),
        prompt: length_dist_of("prompt", args.get_or("prompt", "200"))?,
        output: length_dist_of("output", args.get_or("output", "64"))?,
        rates,
        strategies,
        slo: slo_of(args),
        router,
        faults: faults_of(args, replicas_list.iter().copied().max().unwrap_or(1))?,
        prefixes: prefixes_of(args)?,
        priority_classes: priority_classes_of(args)?,
    };
    // `load_sweep` panics on a spec `validate` refuses.
    spec.validate().map_err(ArgError)?;

    let report = load_sweep(&cluster, &std::sync::Arc::new(model), &spec);
    if report.curves.is_empty() {
        let reasons: Vec<String> = report.infeasible.iter().map(infeasible_desc).collect();
        return Err(ArgError(format!(
            "no feasible strategy in the grid:\n  {}",
            reasons.join("\n  ")
        )));
    }

    if args.has("json") {
        return serde_json::to_string_pretty(&report).map_err(|e| ArgError(e.to_string()));
    }

    let mut out = format!(
        "load-sweep: {} on {} — {} rates × {} strategies, {} requests/point, seed {}\n\
         slo: ttft ≤ {}, tpot ≤ {}\n",
        report.model,
        report.cluster,
        spec.rates.len(),
        spec.strategies.len(),
        report.requests_per_point,
        report.seed,
        report.slo.ttft,
        report.slo.tpot,
    );
    if let Some(f) = &report.faults {
        let mut axes = Vec::new();
        if f.mtbf_s > 0.0 {
            axes.push(format!(
                "mtbf {} s, mttr {} s",
                Figure(f.mtbf_s),
                Figure(f.mttr_s)
            ));
        }
        if !f.domains.is_empty() {
            axes.push(format!("{} failure domain(s)", f.domains.len()));
        }
        if f.straggler_frac > 0.0 {
            axes.push(format!(
                "stragglers {}:{}",
                f.straggler_frac,
                Figure(f.straggler_mult)
            ));
        }
        if f.degrade_mult != 1.0 {
            axes.push(format!(
                "degrade {}× ({:?})",
                Figure(f.degrade_mult),
                f.degrade_mode
            ));
        }
        out.push_str(&format!(
            "faults: {}, seed {} — availability-aware frontier\n",
            axes.join(", "),
            f.seed
        ));
    }
    for curve in &report.curves {
        let replicas_desc = if curve.replicas == 1 {
            String::new()
        } else {
            format!(" × {} replicas", curve.replicas)
        };
        out.push_str(&format!(
            "\nTP{} {}{replicas_desc} ({} GPU{}):\n  {:>10}  {:>9}  {:>9}  {:>12}  {:>7}  \
             {:>10}  {:>10}\n",
            curve.tp,
            curve.precision,
            curve.gpus,
            if curve.gpus == 1 { "" } else { "s" },
            "offered/s",
            "served/s",
            "tok/s",
            "goodput tok/s",
            "slo %",
            "ttft p99",
            "tpot p99",
        ));
        for p in &curve.points {
            out.push_str(&format!(
                "  {:>10.2}  {:>9.2}  {:>9.1}  {:>12.1}  {:>7.1}  {:>10}  {:>10}\n",
                p.offered_rate_per_s,
                p.requests_per_s,
                p.tokens_per_s,
                p.goodput_tokens_per_s,
                p.attainment * 100.0,
                p.ttft_p99.to_string(),
                p.tpot_p99.to_string(),
            ));
        }
    }
    out.push_str(&format!(
        "\nSLO-goodput frontier ({} point{}):\n",
        report.frontier.len(),
        if report.frontier.len() == 1 { "" } else { "s" }
    ));
    for p in &report.frontier {
        let replicas_desc = if p.replicas == 1 {
            String::new()
        } else {
            format!(" × {} replicas", p.replicas)
        };
        out.push_str(&format!(
            "  TP{} {}{replicas_desc} @ {:.2} req/s offered → {:.1} goodput tok/s on {} GPU{} \
             ({:.1}% slo)\n",
            p.tp,
            p.precision,
            p.offered_rate_per_s,
            p.goodput_tokens_per_s,
            p.gpus,
            if p.gpus == 1 { "" } else { "s" },
            p.attainment * 100.0,
        ));
    }
    for i in &report.infeasible {
        out.push_str(&format!("\ninfeasible: {}\n", infeasible_desc(i)));
    }
    Ok(out)
}

/// An infeasible load-sweep strategy by every axis that tells it apart
/// (TP, precision, replicas, KV regime, scheduler), with its reason.
fn infeasible_desc(i: &optimus_serve::InfeasibleStrategy) -> String {
    format!(
        "TP{} {} × {} replica(s), {} KV, {}: {}",
        i.tp, i.precision, i.replicas, i.kv, i.scheduler, i.reason
    )
}

/// `optimus-cli memory …` — training memory dissection.
fn memory(args: &Args) -> Result<String, ArgError> {
    let model = model_preset(args.get_or("model", "gpt-175b"))?;
    let spec = TrainingMemorySpec {
        batch: args.get_usize("batch", 64),
        seq: args.get_usize("seq", 2048),
        parallelism: parallelism_of(args),
        schedule: PipelineSchedule::OneFOneB,
        precision: precision_of(args.get_or("precision", "fp16"))?,
        recompute: recompute_of(args.get_or("recompute", "selective"))?,
    };
    let report = training_memory(&model, &spec).map_err(|e| ArgError(e.to_string()))?;
    if args.has("json") {
        return serde_json::to_string_pretty(&report).map_err(|e| ArgError(e.to_string()));
    }
    Ok(format!("{report}\n"))
}

/// `optimus-cli sweep …` — exhaustive parallelization-strategy search
/// with a (latency, cost) Pareto frontier.
fn sweep(args: &Args) -> Result<String, ArgError> {
    let model = model_preset(args.get_or("model", "llama2-13b"))?;
    let cluster = cluster_preset(args.get_or("cluster", "a100-hdr"))?;
    let max_gpus = args.get_usize("max-gpus", 64);
    let workload = if args.command == Command::SweepInfer {
        Workload::inference(
            args.get_usize("batch", 1),
            args.get_usize("prefill", 200),
            args.get_usize("generate", 200),
        )
    } else {
        Workload::Training {
            batch: args.get_usize("batch", 64),
            seq: args.get_usize("seq", 2048),
            recompute: recompute_of(args.get_or("recompute", "selective"))?,
            schedule: PipelineSchedule::OneFOneB,
        }
    };

    let mut space = SweepSpace::power_of_two(max_gpus);
    // Accept the singular `--precision` the other subcommands use as an
    // alias, so familiarity with `train`/`infer` carries over.
    if let Some(precisions) = precisions_of(args) {
        space = space.with_precisions(precisions?);
    }

    let checkpoint = checkpoint_of(args)?;
    let mut report = SweepEngine::new(&cluster)
        .with_checkpoint(checkpoint.clone())
        .sweep(&model, &workload, &space);
    if report.evaluated.is_empty() {
        return Err(ArgError(format!(
            "no valid strategy for {} on {} within {max_gpus} GPUs",
            model.name, cluster.name
        )));
    }

    if args.has("json") {
        // JSON honors the same shaping flags as the text output:
        // `--frontier-only` emits just the frontier array, `--top N` caps
        // `evaluated` at the N lowest-latency strategies (0 = no cap, rows
        // sorted by latency), and the default — spellable explicitly as
        // `--full` — dumps the complete report in stable strategy order.
        if args.has("frontier-only") {
            return serde_json::to_string_pretty(&report.frontier)
                .map_err(|e| ArgError(e.to_string()));
        }
        if args.has("top") {
            let top = args.get_usize("top", 20);
            report.evaluated.sort_by_key(|r| r.latency);
            if top > 0 {
                report.evaluated.truncate(top);
            }
        }
        return serde_json::to_string_pretty(&report).map_err(|e| ArgError(e.to_string()));
    }

    let mut out = format!(
        "sweep: {} on {} (≤{max_gpus} GPUs)\n{} strategies valid, {} on the Pareto frontier, \
         {} rejected by the estimator\n\n",
        model.name,
        cluster.name,
        report.evaluated.len(),
        report.frontier.len(),
        report.rejected.len(),
    );
    if checkpoint.has_failures() {
        let interval = match checkpoint.interval_s {
            Some(s) => format!("checkpoint every {} s", Figure(s)),
            None => "Young–Daly checkpoint interval".to_owned(),
        };
        let mut extras = String::new();
        if !checkpoint.process.is_exponential() {
            extras.push_str(&format!(", {} failures", checkpoint.process));
        }
        if !checkpoint.tiers.is_empty() {
            let names: Vec<String> = checkpoint
                .tiers
                .iter()
                .map(|t| t.kind.to_string())
                .collect();
            extras.push_str(&format!(", extra tiers: {}", names.join("+")));
        }
        if checkpoint.elastic {
            extras.push_str(", elastic fallback");
        }
        out.push_str(&format!(
            "resilience: per-GPU mtbf {} s, {interval}, restart {} s{extras} — latency, cost, \
             and energy are failure-expected\n\n",
            Figure(checkpoint.mtbf_s),
            Figure(checkpoint.restart_s)
        ));
    }
    out.push_str(&render_frontier(&report));
    if !args.has("frontier-only") {
        // `--full` is the explicit spelling of an uncapped table (= --top 0).
        let top = if args.has("full") {
            0
        } else {
            args.get_usize("top", 20)
        };
        if top == 0 {
            // `render_table` treats 0 as "no cap": label it accordingly.
            out.push_str(&format!(
                "\nall {} strategies by latency:\n",
                report.evaluated.len()
            ));
        } else {
            out.push_str(&format!("\ntop {top} strategies by latency:\n"));
        }
        out.push_str(&render_table(&report, top));
    }
    Ok(out)
}

/// `optimus-cli list` — the available presets.
#[must_use]
pub fn list() -> String {
    let mut out = String::from("models:\n");
    for m in optimus::model::presets::all() {
        out.push_str(&format!("  {m}\n"));
    }
    out.push_str("\nclusters:\n");
    for c in optimus::hw::presets::clusters() {
        out.push_str(&format!("  {c}\n"));
    }
    out
}

/// Parses `argv[1..]` and runs the subcommand it names: the one entry
/// point of the binary and the tests.
///
/// # Errors
///
/// Returns [`ArgError`] for a command line the option table rejects, bad
/// option values, or configurations the estimators reject.
pub fn run<I: IntoIterator<Item = String>>(argv: I) -> Result<String, ArgError> {
    let args = Args::parse(argv)?;
    match args.command {
        Command::Train => train(&args),
        Command::Infer => infer(&args),
        Command::Serve => serve(&args),
        Command::LoadSweep => load_sweep(&args),
        Command::Memory => memory(&args),
        Command::SweepTrain | Command::SweepInfer => sweep(&args),
        Command::List => Ok(list()),
        Command::Help => Ok(usage()),
    }
}

/// Top-level usage text: the synopses the option table generates, then
/// what the options mean.
#[must_use]
pub fn usage() -> String {
    format!(
        "optimus-cli — analytical LLM performance modeling (IISWC 2024 reproduction)\n\n\
         USAGE:\n{}\n{HELP}",
        synopses()
    )
}

const HELP: &str = "\
FLEET OPTIONS (serve with --replicas ≥ 2, load-sweep with --replicas-list):
  --replicas N      identical replicas behind one router; the fleet
                    occupies tp × N GPUs (serve default 1)
  --router POLICY   round-robin (default), random, least-outstanding, or
                    shortest-queue; the state-aware policies observe live
                    per-replica queue depth at each arrival
  --router-seed N   RNG seed of the random router (default 0)

FAULT INJECTION (serve and load-sweep; deterministic, seeded):
  --mtbf S          mean seconds of uptime between replica crashes
                    (exponential, per replica); off unless given. Crashed
                    replicas drain their in-flight requests back to the
                    router for requeueing, and routers skip down replicas
  --mttr S          mean seconds to repair one crash (default 30)
  --failure-process exp|weibull:K
                    the uptime law behind --mtbf: `exp` (default,
                    memoryless) or `weibull:K` with shape K — K < 1
                    models infant mortality (bursty early failures),
                    K > 1 wear-out. Rack-correlated outages are spelled
                    with --domains here
  --fault-seed N    seed of the fault processes (default 0); independent
                    of the trace and router seeds
  --stragglers F:M  fraction F of replicas run every iteration M× slower
                    (drawn once per replica from the fault seed)
  --domains N       split the fleet into N contiguous failure domains —
                    racks, power feeds, leaf switches — whose members
                    crash and recover **together** on one shared seeded
                    outage process (requires a fleet of 2+ replicas)
  --domain-mtbf S   mean seconds of domain uptime between shared outages
                    (required with --domains)
  --domain-mttr S   mean seconds to repair one domain outage (default 30)
  --degrade M       fleet-wide slowdown multiplier ≥ 1 (default off)
  --degrade-mode    how --degrade is priced: `flat` scales every
                    iteration uniformly (default); `link` divides the
                    cluster's link bandwidths by M and re-prices every
                    iteration through the collective cost model

TRAINING RESILIENCE (train and sweep; Young–Daly checkpoint model):
  --mtbf S          mean seconds of uptime between failures of one GPU;
                    the job-level MTBF is S / gpus, so bigger strategies
                    fail proportionally more often. Latency, cost, and
                    energy figures become failure-expected (time over
                    goodput), and reports gain a resilience section
  --checkpoint-interval S
                    seconds of useful work between checkpoints (default:
                    the Young–Daly optimum √(2δM) per strategy)
  --restart S       seconds to restart after a failure, on top of the
                    expected rework since the last checkpoint (default 0)
  --failure-process exp|weibull:K|racks:N:MTBF
                    the failure law: `exp` (default), `weibull:K`
                    (shape K — K < 1 infant mortality shortens the
                    effective cluster MTBF; rework is priced exactly,
                    with no sampling), or `racks:N:MTBF` (N racks each
                    failing wholesale every MTBF seconds, superposed on
                    the per-GPU process)
  --checkpoint-tiers peer,delta
                    extra checkpoint tiers under the always-present
                    persistent full tier: `peer` snapshots into DP-peer
                    memory (priced as an all-gather; survives single-GPU
                    failures only), `delta` persists only the optimizer
                    delta (--delta-frac of its bytes, default 0.25).
                    Each tier runs at its own Young–Daly interval; tiers
                    that don't lower the expected waste report inactive
  --delta-frac F    fraction of optimizer state a delta checkpoint
                    writes (requires a `delta` tier; default 0.25)
  --elastic         on failure, also price shrinking the DP group by the
                    blast radius and continuing degraded (re-priced
                    through the estimator) vs a full restart; the report
                    keeps whichever wastes less
  --rewarm S        seconds to re-shard into the shrunken DP group
                    (requires --elastic; default 0)
  --repair S        mean seconds until the failed hardware rejoins
                    (requires --elastic; default 0)
  --checkpoint-util F
                    dynamic-power utilization during checkpoint/rework/
                    restart seconds, 0..=1 (default 1 = full burn);
                    below 1, energy and electricity cost inflate less
                    than latency and capex

PAGED KV, SCHEDULERS, AND SHARED PREFIXES (serve and load-sweep):
  --kv-block N      allocate KV in blocks of N tokens (vLLM-style paging)
                    instead of whole-lifetime reservations; admission
                    only needs the prompt's blocks, decode grows block by
                    block, and OOM preempts a victim. 0 or absent = the
                    legacy reserved regime (byte-identical reports)
  --preempt P       what decode-time OOM does to the victim: `recompute`
                    (drop blocks, prefill again later — the default) or
                    `swap` (stage blocks over the inter-node link, priced
                    both ways); requires --kv-block
  --scheduler S     admission order: `fifo` (default), `priority` (lowest
                    class first), `sjf` (shortest prompt+output first),
                    or `priority-preempt` (priority admission whose OOM
                    victims are the worst class; requires paged KV)
  --priority-classes N
                    draw each request's class uniformly from 0..N
                    (default 1 = every request equal)
  --prefix-tokens N the shared-prefix workload shape: requests carry one
                    of --prefix-pool fixed N-token prefixes with
                    probability --prefix-rate (pool default 8, rate 0.5).
                    Paged replicas cache prefix blocks with refcounts —
                    cache hits skip the prefix's prefill compute
  --kv-block-list N,N  (load-sweep) KV block sizes to sweep as a strategy
                    axis; 0 = reserved (default 0)
  --scheduler-list S,S  (load-sweep) schedulers to sweep as a strategy
                    axis (default fifo)

SERVE TRAFFIC AND SLO OPTIONS:
  --rate R          Poisson arrivals at R requests/s (default 2.0)
  --interval S      evenly spaced arrivals every S seconds instead
  --prompt N|LO:HI  prompt length: fixed or uniform over LO..=HI tokens
  --output N|LO:HI  output length: fixed or uniform over LO..=HI tokens
  --ttft-slo MS     time-to-first-token target, ms (default 2000)
  --tpot-slo MS     time-per-output-token target, ms (default 100)
  --records         force per-request records into the report; beyond
                    10k requests they default off (aggregates stay exact)

LOAD-SWEEP GRID OPTIONS:
  --tp-list N,N     tensor-parallel degrees to sweep (default 1,2,4,8)
  --replicas-list N,N  replica counts to cross with the TP list (default
                    1); each strategy occupies tp × replicas GPUs
  --precisions P,P  precisions to cross with the TP list (default fp16)
  --rates R,R       explicit offered arrival rates, req/s
  --min-rate R      geometric rate grid start (default 0.5)
  --max-rate R      geometric rate grid end (default 128)
  --points N        geometric rate grid size (default 16)
  --requests N      requests simulated per grid cell (default 1000)

SWEEP OUTPUT SHAPING (text and JSON alike):
  --frontier-only   only the Pareto frontier (JSON: the frontier array)
  --top N           cap the strategy rows at the N lowest-latency entries
                    (0 = no cap; JSON rows come out latency-sorted)
  --full            the complete report — the default for --json, spelled
                    out; for text, an uncapped table (default caps at 20)

EXAMPLES:
  optimus-cli train --model gpt-175b --cluster a100-hdr --batch 64 \\
      --tp 8 --pp 8 --sp --recompute selective
  optimus-cli infer --model llama2-70b --cluster h100-ndr --tp 8
  optimus-cli sweep --model llama2-13b --cluster a100-hdr --workload train \\
      --batch 64 --max-gpus 64
";

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one command line through [`run`], the binary's entry point.
    fn cli(line: &str) -> Result<String, ArgError> {
        run(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn train_command_produces_report() {
        let out = cli("train --model gpt-22b --cluster a100-hdr --batch 4 --tp 8 --recompute full")
            .unwrap();
        assert!(out.contains("time/batch"), "{out}");
        assert!(out.contains("fits"));
    }

    #[test]
    fn train_json_is_valid() {
        let out = cli("train --model gpt-22b --batch 4 --tp 8 --json").unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v.get("time_per_batch").is_some());
    }

    #[test]
    fn train_with_mtbf_reports_resilience() {
        let base = "train --model llama2-13b --batch 64 --dp 8 --tp 8 --sp \
                    --mtbf 100000000 --restart 300";
        let out = cli(base).unwrap();
        assert!(out.contains("resilience"), "{out}");
        assert!(out.contains("goodput"), "{out}");
        let v: serde_json::Value =
            serde_json::from_str(&cli(&format!("{base} --json")).unwrap()).unwrap();
        let resilience = v.get("resilience").expect("resilience section");
        let goodput = resilience
            .get("goodput")
            .and_then(serde_json::Value::as_f64)
            .unwrap();
        assert!(goodput > 0.0 && goodput < 1.0, "goodput {goodput}");
        assert!(resilience.get("interval").is_some());
        assert_eq!(
            resilience
                .get("auto_interval")
                .and_then(serde_json::Value::as_bool),
            Some(true)
        );
        // A fixed interval switches the auto flag off.
        let fixed: serde_json::Value = serde_json::from_str(
            &cli(&format!("{base} --checkpoint-interval 600 --json")).unwrap(),
        )
        .unwrap();
        assert_eq!(
            fixed
                .get("resilience")
                .unwrap()
                .get("auto_interval")
                .and_then(serde_json::Value::as_bool),
            Some(false)
        );
    }

    #[test]
    fn train_without_mtbf_has_no_resilience_section() {
        let out = cli("train --model gpt-22b --batch 4 --tp 8 --json").unwrap();
        assert!(!out.contains("resilience"), "{out}");
    }

    #[test]
    fn train_rejects_bad_resilience_options() {
        for bad in [
            "train --checkpoint-interval 600",
            "train --restart 60",
            "train --mtbf 0",
            "train --mtbf -5",
            "train --mtbf 1e8 --checkpoint-interval 0",
            "train --mtbf 1e8 --restart -1",
        ] {
            assert!(cli(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn train_rejects_stack_options_without_their_anchors() {
        // Every stack flag names the flag it needs.
        for (bad, needs) in [
            ("train --failure-process weibull:0.7", "--mtbf"),
            ("train --checkpoint-tiers peer", "--mtbf"),
            ("train --delta-frac 0.5", "--mtbf"),
            ("train --checkpoint-util 0.5", "--mtbf"),
            ("train --rewarm 60", "--mtbf"),
            ("train --repair 600", "--mtbf"),
            ("train --elastic", "--mtbf"),
            ("train --mtbf 1e8 --rewarm 60", "--elastic"),
            ("train --mtbf 1e8 --repair 600", "--elastic"),
            ("train --mtbf 1e8 --delta-frac 0.5", "--checkpoint-tiers"),
            (
                "train --mtbf 1e8 --checkpoint-tiers peer --delta-frac 0.5",
                "--checkpoint-tiers",
            ),
        ] {
            let err = cli(bad).unwrap_err();
            assert!(
                err.to_string().contains("only applies with") && err.to_string().contains(needs),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn train_rejects_malformed_stack_values() {
        for bad in [
            "train --mtbf 1e8 --failure-process weibull:x",
            "train --mtbf 1e8 --failure-process weibull:0",
            "train --mtbf 1e8 --failure-process racks:2",
            "train --mtbf 1e8 --failure-process racks:0:5000",
            "train --mtbf 1e8 --failure-process racks:2:0",
            "train --mtbf 1e8 --failure-process bogus",
            "train --mtbf 1e8 --checkpoint-tiers full",
            "train --mtbf 1e8 --checkpoint-tiers peer,peer",
            "train --mtbf 1e8 --checkpoint-tiers peer,delta --delta-frac 0",
            "train --mtbf 1e8 --checkpoint-tiers delta --delta-frac 1.5",
            "train --mtbf 1e8 --checkpoint-util 1.5",
            "train --mtbf 1e8 --checkpoint-util -0.1",
            "train --mtbf 1e8 --elastic --rewarm -1",
            "train --mtbf 1e8 --elastic --repair -1",
        ] {
            assert!(cli(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn train_with_stack_reports_tiers_and_elastic() {
        let base = "train --model llama2-13b --batch 64 --dp 8 --tp 8 --sp \
                    --mtbf 40000 --restart 900 --failure-process weibull:0.7 \
                    --checkpoint-tiers peer,delta --elastic --rewarm 60 --repair 1800";
        let out = cli(base).unwrap();
        assert!(out.contains("weibull"), "{out}");
        let v: serde_json::Value =
            serde_json::from_str(&cli(&format!("{base} --json")).unwrap()).unwrap();
        let resilience = v.get("resilience").expect("resilience section");
        assert!(resilience.get("process").is_some(), "{resilience:?}");
        let tiers = resilience.get("tiers").unwrap().as_array().unwrap();
        assert_eq!(tiers.len(), 2);
        let elastic = resilience.get("elastic").expect("elastic section");
        assert!(elastic.get("chosen").is_some());
        // Goodput under a stacked spec is at least the plain-restart one.
        let restart = elastic
            .get("restart_goodput")
            .and_then(serde_json::Value::as_f64)
            .unwrap();
        let goodput = resilience
            .get("goodput")
            .and_then(serde_json::Value::as_f64)
            .unwrap();
        assert!(goodput >= restart, "goodput {goodput} < restart {restart}");
    }

    /// The expected rework is continuous in the Weibull shape across
    /// `k = 1`, where the exponential closed form takes over.
    #[test]
    fn train_rework_is_continuous_across_weibull_shape_one() {
        let rework = |shape: &str| {
            let out = cli(&format!(
                "train --model llama2-13b --tp 8 --dp 8 --batch 64 --mtbf 10000 \
                 --restart 900 --failure-process weibull:{shape} --json"
            ))
            .unwrap();
            let v: serde_json::Value = serde_json::from_str(&out).unwrap();
            v.get("resilience")
                .and_then(|r| r.get("rework_frac"))
                .and_then(serde_json::Value::as_f64)
                .unwrap()
        };
        let at_one = rework("1");
        for shape in ["0.9999", "1.0001"] {
            let near = rework(shape);
            assert!(
                (near / at_one - 1.0).abs() < 1e-3,
                "weibull:{shape} rework_frac {near} vs weibull:1 {at_one}"
            );
        }
    }

    #[test]
    fn infer_command_produces_report() {
        let out = cli("infer --model llama2-7b --tp 2").unwrap();
        assert!(out.contains("latency"));
        assert!(out.contains("kv-cache"));
    }

    #[test]
    fn serve_command_produces_report() {
        let out =
            cli("serve --model llama2-7b --tp 1 --requests 12 --rate 4 --prompt 100 --output 8")
                .unwrap();
        assert!(out.contains("served 12/12"), "{out}");
        assert!(out.contains("ttft"), "{out}");
        assert!(out.contains("goodput"), "{out}");
    }

    #[test]
    fn serve_json_is_valid() {
        let out =
            cli("serve --model llama2-7b --requests 8 --interval 5 --prompt 100 --output 4 --json")
                .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v.get("ttft").is_some());
        assert!(v.get("slo").is_some());
        assert_eq!(
            v.get("completed").and_then(serde_json::Value::as_f64),
            Some(8.0)
        );
    }

    #[test]
    fn serve_accepts_length_ranges() {
        let out = cli("serve --model llama2-7b --requests 6 --rate 8 --prompt 50:150 --output 1:8")
            .unwrap();
        assert!(out.contains("served 6/6"), "{out}");
    }

    #[test]
    fn serve_rejects_bad_options() {
        for bad in [
            "serve --rate 0",
            "serve --interval 0",
            "serve --rate 2 --interval 3",
            "serve --prompt 0",
            "serve --prompt 200:100",
            "serve --output 10:x",
            "serve --tp 0",
            "serve --ttft-slo 0",
        ] {
            assert!(cli(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn serve_surfaces_infeasible_configs_cleanly() {
        // 175B weights cannot fit one 80 GB device at FP16.
        let err = cli("serve --model gpt-175b --requests 1").unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
        let err = cli("serve --model llama2-7b --tp 16 --requests 1").unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn serve_records_flag_restores_per_request_output() {
        // Past the 10k auto-off limit the report drops per-request
        // records; the flag must bring them back through the CLI wiring.
        // Tiny fixed lengths keep the just-over-the-limit trace cheap.
        let base = "serve --model llama2-7b --requests 10001 --rate 400 --prompt 20 --output 2";
        let per_request_len = |out: String| {
            serde_json::from_str::<serde_json::Value>(&out)
                .unwrap()
                .get("per_request")
                .unwrap()
                .as_array()
                .unwrap()
                .len()
        };
        let without = cli(&format!("{base} --json")).unwrap();
        assert_eq!(per_request_len(without), 0, "records default off past 10k");
        let with = cli(&format!("{base} --json --records")).unwrap();
        assert_eq!(per_request_len(with), 10001);
    }

    #[test]
    fn serve_replicas_runs_a_fleet() {
        let out = cli(
            "serve --model llama2-7b --tp 1 --replicas 3 --router least-outstanding \
             --requests 30 --rate 12 --prompt 100 --output 8",
        )
        .unwrap();
        assert!(out.contains("3 × TP1"), "{out}");
        assert!(out.contains("3 GPUs"), "{out}");
        assert!(out.contains("least-outstanding"), "{out}");
        assert!(out.contains("per replica:"), "{out}");
        assert!(out.contains("served 30/30"), "{out}");
    }

    #[test]
    fn serve_fleet_json_is_valid() {
        let out = cli(
            "serve --model llama2-7b --replicas 2 --router random --router-seed 7 \
             --requests 16 --rate 8 --prompt 100 --output 4 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(
            v.get("replicas").and_then(serde_json::Value::as_f64),
            Some(2.0)
        );
        assert_eq!(v.get("gpus").and_then(serde_json::Value::as_f64), Some(2.0));
        assert_eq!(v.get("per_replica").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            v.get("completed").and_then(serde_json::Value::as_f64),
            Some(16.0)
        );
    }

    /// Finite figures of 2^53 or more print in exponent form, not as
    /// hundreds of digits: the expected time, latencies and costs of a
    /// huge restart cost, the echoed restart, and a load sweep's echoed
    /// MTBF and MTTR.
    #[test]
    fn huge_figures_print_no_long_digit_runs() {
        for line in [
            "train --mtbf 10 --restart 1e300",
            "sweep --max-gpus 8 --mtbf 10 --restart 1e300 --frontier-only",
            "load-sweep --model llama2-7b --tp-list 1 --replicas-list 2 --rates 20 \
             --requests 30 --mtbf 1e300 --mttr 1e299",
        ] {
            let out = cli(line).unwrap();
            let longest = out
                .split(|c: char| !c.is_ascii_digit())
                .map(str::len)
                .max()
                .unwrap_or(0);
            assert!(longest < 20, "{line}: {out}");
            assert!(out.contains("e29"), "{line}: {out}");
        }
    }

    /// A fleet with faults but no outage window (stragglers only) reports
    /// zero downtime per replica, not `-0.000 ns`.
    #[test]
    fn fault_free_replicas_report_positive_zero_downtime() {
        let out = cli("serve --replicas 2 --stragglers 0.5:2 --requests 20").unwrap();
        let line = out
            .lines()
            .find(|l| l.starts_with("churn: downtime per replica"))
            .unwrap();
        assert!(line.contains("[0.000 ns, 0.000 ns]"), "{line}");
        assert!(!out.contains("-0.000"), "{out}");
    }

    #[test]
    fn serve_rejects_bad_fleet_options() {
        for bad in [
            "serve --replicas 0",
            "serve --replicas 2 --router teleport",
            "serve --router least-outstanding",
            "serve --router-seed 9",
            "serve --replicas 1 --router round-robin",
            "serve --replicas 2 --router round-robin --router-seed 3",
        ] {
            assert!(cli(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn serve_with_faults_reports_availability() {
        let out = cli(
            "serve --model llama2-7b --replicas 3 --requests 120 --rate 30 \
             --prompt 100:200 --output 4:16 --mtbf 5 --mttr 2 --fault-seed 7",
        )
        .unwrap();
        assert!(out.contains("churn"), "{out}");
        assert!(out.contains("downtime per replica"), "{out}");
        let json = cli(
            "serve --model llama2-7b --replicas 3 --requests 120 --rate 30 \
             --prompt 100:200 --output 4:16 --mtbf 5 --mttr 2 --fault-seed 7 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let availability = v.get("availability").unwrap();
        assert!(
            availability
                .get("crashes")
                .and_then(serde_json::Value::as_f64)
                .unwrap()
                > 0.0
        );
        let faults = v.get("faults").unwrap();
        assert_eq!(
            faults.get("mtbf_s").and_then(serde_json::Value::as_f64),
            Some(5.0)
        );
    }

    #[test]
    fn serve_single_replica_with_faults_takes_the_fleet_path() {
        let out = cli(
            "serve --model llama2-7b --requests 60 --rate 20 --prompt 100 --output 8 \
             --mtbf 4 --mttr 1 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(
            v.get("replicas").and_then(serde_json::Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            v.get("completed").and_then(serde_json::Value::as_f64),
            Some(60.0)
        );
    }

    #[test]
    fn serve_rejects_bad_fault_options() {
        for bad in [
            "serve --mttr 10",
            "serve --fault-seed 3",
            "serve --replicas 2 --mtbf 0",
            "serve --replicas 2 --mtbf -5",
            "serve --replicas 2 --mtbf 10 --mttr 0",
            "serve --replicas 2 --stragglers half:2",
            "serve --replicas 2 --stragglers 1.5:2",
            "serve --replicas 2 --stragglers 0.5:0.5",
        ] {
            assert!(cli(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn serve_with_domains_reports_shared_outages() {
        let base = "serve --model llama2-7b --replicas 4 --requests 160 --rate 40 \
                    --prompt 100 --output 8 --domains 2 --domain-mtbf 8 --domain-mttr 2";
        let out = cli(base).unwrap();
        assert!(out.contains("churn"), "{out}");
        assert!(out.contains("domains: [0, 1]"), "{out}");
        let v: serde_json::Value =
            serde_json::from_str(&cli(&format!("{base} --json")).unwrap()).unwrap();
        let availability = v.get("availability").unwrap();
        assert_eq!(
            availability
                .get("per_domain_downtime")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            2
        );
        assert!(
            availability
                .get("crashes")
                .and_then(serde_json::Value::as_f64)
                .unwrap()
                > 0.0
        );
        let domains = v
            .get("faults")
            .unwrap()
            .get("domains")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(domains.len(), 2);
        // Contiguous near-even split: [0, 1] and [2, 3].
        let members = |d: &serde_json::Value| {
            d.get("replicas")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m.as_f64().unwrap() as usize)
                .collect::<Vec<_>>()
        };
        assert_eq!(members(&domains[0]), vec![0, 1]);
        assert_eq!(members(&domains[1]), vec![2, 3]);
    }

    #[test]
    fn serve_degrade_modes_run_through_the_fleet_path() {
        let flat = cli(
            "serve --model llama2-7b --tp 2 --replicas 2 --requests 40 --rate 10 \
             --prompt 100 --output 8 --degrade 2 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&flat).unwrap();
        let faults = v.get("faults").unwrap();
        assert_eq!(
            faults
                .get("degrade_mult")
                .and_then(serde_json::Value::as_f64),
            Some(2.0)
        );
        let link = cli(
            "serve --model llama2-7b --tp 2 --replicas 2 --requests 40 --rate 10 \
             --prompt 100 --output 8 --degrade 2 --degrade-mode link --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&link).unwrap();
        assert_eq!(
            v.get("faults")
                .unwrap()
                .get("degrade_mode")
                .and_then(serde_json::Value::as_str),
            Some("Link")
        );
        assert_ne!(flat, link, "the two pricing modes must not coincide");
    }

    #[test]
    fn serve_rejects_bad_domain_and_degrade_options() {
        for bad in [
            "serve --domains 2 --domain-mtbf 5",
            "serve --replicas 1 --domains 1 --domain-mtbf 5",
            "serve --replicas 4 --domains 0 --domain-mtbf 5",
            "serve --replicas 4 --domains 5 --domain-mtbf 5",
            "serve --replicas 4 --domains 2",
            "serve --replicas 4 --domains 2 --domain-mtbf 0",
            "serve --replicas 4 --domains 2 --domain-mtbf 5 --domain-mttr 0",
            "serve --domain-mtbf 5",
            "serve --domain-mttr 5",
            "serve --degrade 0.5",
            "serve --degrade-mode link",
            "serve --replicas 2 --degrade 2 --degrade-mode sideways",
        ] {
            assert!(cli(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn serve_rejects_bad_failure_process_options() {
        let err = cli("serve --failure-process weibull:0.7").unwrap_err();
        assert!(
            err.to_string().contains("only applies with --mtbf"),
            "{err}"
        );
        let err = cli("serve --mtbf 5 --failure-process racks:2:5000").unwrap_err();
        assert_eq!(
            err.to_string(),
            "fault spec: rack-correlated outages are expressed with failure domains here; \
             use --domains instead"
        );
        for bad in [
            "serve --mtbf 5 --failure-process weibull:0",
            "serve --mtbf 5 --failure-process weibull:x",
            "serve --mtbf 5 --failure-process bogus",
        ] {
            assert!(cli(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn serve_weibull_uptimes_change_the_outage_pattern() {
        let base = "serve --model llama2-7b --tp 1 --requests 60 --rate 10 \
                    --prompt 100 --output 8 --mtbf 8 --mttr 2";
        let exp = cli(&format!("{base} --json")).unwrap();
        // Spelling the default law explicitly is byte-identical.
        let explicit = cli(&format!("{base} --failure-process exp --json")).unwrap();
        assert_eq!(exp, explicit);
        let weibull = cli(&format!("{base} --failure-process weibull:0.7 --json")).unwrap();
        assert_ne!(exp, weibull, "shape 0.7 must reshuffle the outages");
        let v: serde_json::Value = serde_json::from_str(&weibull).unwrap();
        let process = v.get("faults").unwrap().get("process").unwrap();
        assert_eq!(
            process
                .get("Weibull")
                .and_then(|w| w.get("shape"))
                .and_then(serde_json::Value::as_f64),
            Some(0.7)
        );
    }

    #[test]
    fn load_sweep_with_domains_labels_the_report() {
        let out = cli(
            "load-sweep --model llama2-7b --tp-list 1 --replicas-list 2 \
             --rates 20 --requests 80 --prompt 100 --output 8 \
             --domains 2 --domain-mtbf 6 --domain-mttr 2",
        )
        .unwrap();
        assert!(out.contains("2 failure domain(s)"), "{out}");
        assert!(out.contains("availability-aware"), "{out}");
    }

    #[test]
    fn load_sweep_with_faults_runs_and_labels_the_report() {
        let out = cli(
            "load-sweep --model llama2-7b --tp-list 1 --replicas-list 2 \
             --rates 20 --requests 120 --prompt 100 --output 8 \
             --mtbf 5 --mttr 2 --fault-seed 3",
        )
        .unwrap();
        assert!(out.contains("faults: mtbf 5 s"), "{out}");
        assert!(out.contains("availability-aware"), "{out}");
    }

    #[test]
    fn load_sweep_command_produces_curves_and_frontier() {
        let out = cli(
            "load-sweep --model llama2-7b --tp-list 1,2 --rates 1,8 --requests 24 \
             --prompt 100 --output 8",
        )
        .unwrap();
        assert!(out.contains("2 rates × 2 strategies"), "{out}");
        assert!(out.contains("TP1"), "{out}");
        assert!(out.contains("TP2"), "{out}");
        assert!(out.contains("SLO-goodput frontier"), "{out}");
    }

    #[test]
    fn load_sweep_json_is_valid_and_deterministic() {
        let cmd = "load-sweep --model llama2-7b --tp-list 1,2 --rates 2,16 --requests 16 \
                   --prompt 50:150 --output 4:12 --json";
        let a = cli(cmd).unwrap();
        let b = cli(cmd).unwrap();
        assert_eq!(a, b);
        let v: serde_json::Value = serde_json::from_str(&a).unwrap();
        assert_eq!(v.get("curves").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("frontier").is_some());
        assert!(v.get("infeasible").is_some());
    }

    /// Seeds above 2^53 print exactly as given, so a report names the seed
    /// that ran rather than the nearest double.
    #[test]
    fn reports_print_64_bit_seeds_exactly() {
        let printed = |out: &str, seed: &str| {
            out.lines()
                .any(|l| l.trim().trim_end_matches(',') == format!("\"seed\": {seed}"))
        };
        for seed in ["9007199254740993", "18446744073709551615"] {
            let out = cli(&format!(
                "load-sweep --model llama2-7b --tp-list 1 --rates 5 --requests 200 \
                 --prompt 40:160 --output 2:16 --seed {seed} --json"
            ))
            .unwrap();
            assert!(printed(&out, seed), "load-sweep --seed {seed}: {out}");
            let out = cli(&format!(
                "serve --model llama2-7b --tp 1 --replicas 2 --requests 50 --rate 20 \
                 --prompt 50:150 --output 2:16 --mtbf 6 --mttr 2 --fault-seed {seed} --json"
            ))
            .unwrap();
            assert!(printed(&out, seed), "serve --fault-seed {seed}: {out}");
        }
    }

    #[test]
    fn load_sweep_geometric_grid_and_defaults() {
        let out = cli(
            "load-sweep --model llama2-7b --tp-list 1 --min-rate 1 --max-rate 4 --points 3 \
             --requests 8 --prompt 100 --output 4",
        )
        .unwrap();
        assert!(out.contains("3 rates × 1 strategies"), "{out}");
    }

    #[test]
    fn load_sweep_replicas_list_adds_fleet_strategies() {
        let out = cli(
            "load-sweep --model llama2-7b --tp-list 1 --replicas-list 1,2 \
             --router shortest-queue --rates 2,24 --requests 24 --prompt 100 --output 8",
        )
        .unwrap();
        assert!(out.contains("2 rates × 2 strategies"), "{out}");
        assert!(out.contains("TP1 FP16 (1 GPU)"), "{out}");
        assert!(out.contains("TP1 FP16 × 2 replicas (2 GPUs)"), "{out}");
    }

    #[test]
    fn load_sweep_multi_replica_frontier_point() {
        // The acceptance shape: llama2-7b on the A100 preset with
        // --replicas-list 1,2,4 must place at least one multi-replica
        // point on the SLO-goodput frontier, with gpus = tp × replicas.
        let out = cli(
            "load-sweep --model llama2-7b --cluster a100-hdr --tp-list 1,2 \
             --replicas-list 1,2,4 --rates 4,64 --requests 64 --prompt 50:200 \
             --output 4:24 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let frontier = v.get("frontier").unwrap().as_array().unwrap();
        let as_u = |p: &serde_json::Value, k: &str| {
            p.get(k).and_then(serde_json::Value::as_f64).unwrap() as usize
        };
        assert!(
            frontier.iter().any(|p| as_u(p, "replicas") > 1),
            "no multi-replica frontier point in {out}"
        );
        for p in frontier {
            assert_eq!(as_u(p, "gpus"), as_u(p, "tp") * as_u(p, "replicas"));
        }
    }

    #[test]
    fn load_sweep_rejects_bad_fleet_options() {
        for bad in [
            "load-sweep --replicas-list 0",
            "load-sweep --replicas-list 1,x",
            "load-sweep --router least-outstanding",
            "load-sweep --replicas-list 1 --router round-robin",
        ] {
            assert!(cli(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn load_sweep_reports_infeasible_strategies() {
        let out = cli(
            "load-sweep --model llama2-7b --tp-list 1,16 --rates 4 --requests 8 \
             --prompt 100 --output 4",
        )
        .unwrap();
        assert!(out.contains("infeasible: TP16"), "{out}");
    }

    #[test]
    fn load_sweep_rejects_bad_options() {
        for bad in [
            "load-sweep --rates 0",
            "load-sweep --rates 2,x",
            "load-sweep --rates 2 --min-rate 1",
            "load-sweep --min-rate 0",
            "load-sweep --min-rate 8 --max-rate 2",
            "load-sweep --points 0",
            "load-sweep --tp-list 0",
            "load-sweep --tp-list 1,a",
            "load-sweep --requests 0",
            "load-sweep --ttft-slo 0",
        ] {
            assert!(cli(bad).is_err(), "{bad} should be rejected");
        }
    }

    /// A request holds its lengths and its prefix id in `u32`s: a context
    /// past `u32::MAX` tokens and a pool of more than 2^32 prefixes are
    /// usage errors from `serve` and `load-sweep` alike, in
    /// `TraceSpec::validate`'s words (`load-sweep` validates its spec
    /// first, since `load_sweep` panics on one it refuses).
    #[test]
    fn the_32_bit_trace_limits_are_usage_errors() {
        let pool = "--prefix-tokens 16 --prefix-pool 4294967297";
        for line in [
            format!("serve --requests 4 {pool}"),
            format!("load-sweep --tp-list 1 --rates 4 --requests 4 {pool}"),
        ] {
            let err = cli(&line).unwrap_err().to_string();
            assert!(
                err.contains("prefix pool holds at most 2^32"),
                "{line}: {err}"
            );
        }
        for line in [
            "serve --prompt 4294967295 --output 1 --requests 1",
            "load-sweep --prompt 4294967295 --output 1 --requests 1",
        ] {
            let err = cli(line).unwrap_err().to_string();
            assert!(
                err.contains("the largest prompt + output + prefix context overflows"),
                "{line}: {err}"
            );
        }
    }

    /// Regression: an infeasible load-sweep strategy carried only its TP,
    /// precision and replica count, so the FP8 strategies under reserved
    /// and 16-token paged KV were two identical `infeasible` entries, and
    /// the all-infeasible error named a one- and a two-replica strategy
    /// alike, as `TP1 FP16`. Each now names every axis of its strategy.
    #[test]
    fn infeasible_strategies_name_every_axis() {
        let out = cli(
            "load-sweep --model llama2-7b --tp-list 1 --precisions fp16,fp8 --kv-block-list 0,16 \
             --rates 4 --requests 10 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let infeasible = v.get("infeasible").and_then(serde_json::Value::as_array);
        let kv_blocks: Vec<Option<f64>> = infeasible
            .unwrap()
            .iter()
            .map(|i| {
                let kv = i.get("kv")?;
                assert_eq!(i.get("scheduler")?.as_str(), Some("Fifo"));
                kv.get("block_tokens")?.as_f64()
            })
            .collect();
        assert_eq!(kv_blocks, [Some(0.0), Some(16.0)], "{out}");

        let err = cli(
            "load-sweep --model llama2-7b --tp-list 1 --replicas-list 1,2 --rates 4 \
             --requests 10 --degrade 1e308",
        )
        .unwrap_err()
        .to_string();
        let named: Vec<&str> = err
            .lines()
            .skip(1)
            .map(|line| line.split(": fault spec").next().unwrap().trim())
            .collect();
        assert_eq!(
            named,
            [
                "TP1 FP16 × 1 replica(s), reserved KV, fifo",
                "TP1 FP16 × 2 replica(s), reserved KV, fifo"
            ],
            "{err}"
        );
    }

    #[test]
    fn load_sweep_with_no_feasible_strategy_is_an_error() {
        let err =
            cli("load-sweep --model gpt-175b --tp-list 1 --rates 4 --requests 4").unwrap_err();
        assert!(err.to_string().contains("no feasible strategy"), "{err}");
    }

    #[test]
    fn memory_command_produces_breakdown() {
        let out = cli("memory --model gpt-175b --batch 64 --tp 8 --pp 8").unwrap();
        assert!(out.contains("optimizer"));
    }

    #[test]
    fn unknown_model_is_helpful() {
        let err = cli("train --model gpt5").unwrap_err();
        assert!(err.to_string().contains("llama2-13b"));
    }

    #[test]
    fn infeasible_config_is_an_error_not_a_panic() {
        // TP 16 exceeds the node size.
        let err = cli("train --model gpt-22b --tp 16 --batch 4").unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn sweep_command_produces_frontier() {
        let out = cli(
            "sweep --model llama2-13b --cluster a100-hdr --workload train --batch 16 \
             --max-gpus 16 --top 5",
        )
        .unwrap();
        assert!(out.contains("strategies valid"), "{out}");
        assert!(out.contains("pareto frontier"), "{out}");
        assert!(out.contains("top 5 strategies"), "{out}");
    }

    #[test]
    fn sweep_json_is_valid_and_complete() {
        let out =
            cli("sweep --model llama2-13b --workload infer --generate 16 --max-gpus 8 --json")
                .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v.get("evaluated").is_some());
        assert!(v.get("frontier").is_some());
    }

    #[test]
    fn sweep_with_mtbf_prices_failure_expected_figures() {
        let base = "sweep --model llama2-13b --workload train --batch 16 --max-gpus 16";
        let out = cli(&format!("{base} --mtbf 1e8 --restart 300")).unwrap();
        assert!(out.contains("resilience: per-GPU mtbf"), "{out}");
        let with: serde_json::Value =
            serde_json::from_str(&cli(&format!("{base} --mtbf 1e8 --json")).unwrap()).unwrap();
        let rows = with.get("evaluated").unwrap().as_array().unwrap();
        assert!(rows.iter().all(|r| {
            r.get("goodput")
                .and_then(serde_json::Value::as_f64)
                .is_some_and(|g| g > 0.0 && g < 1.0)
        }));
        // Without a failure axis the goodput column stays null.
        let without: serde_json::Value =
            serde_json::from_str(&cli(&format!("{base} --json")).unwrap()).unwrap();
        assert!(without
            .get("evaluated")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .all(|r| r.get("goodput").unwrap().is_null()));
    }

    #[test]
    fn sweep_rejects_bad_resilience_options() {
        for bad in [
            "sweep --workload infer --mtbf 1e8",
            "sweep --workload infer --checkpoint-interval 600",
            "sweep --workload infer --restart 60",
            "sweep --checkpoint-interval 600",
            "sweep --restart 60",
            "sweep --mtbf 0",
        ] {
            assert!(cli(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn sweep_rejects_stack_options_on_the_infer_workload() {
        for bad in [
            "sweep --workload infer --failure-process weibull:0.7",
            "sweep --workload infer --checkpoint-tiers peer",
            "sweep --workload infer --rewarm 60",
            "sweep --workload infer --repair 600",
            "sweep --workload infer --delta-frac 0.5",
            "sweep --workload infer --checkpoint-util 0.5",
            "sweep --workload infer --elastic",
        ] {
            let err = cli(bad).unwrap_err();
            assert!(
                err.to_string()
                    .contains("does not apply to --workload infer"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn sweep_with_stack_labels_the_resilience_line() {
        let out = cli(
            "sweep --model llama2-13b --workload train --batch 16 --max-gpus 16 \
             --mtbf 40000 --restart 900 --failure-process weibull:0.7 \
             --checkpoint-tiers peer,delta --elastic --frontier-only",
        )
        .unwrap();
        assert!(out.contains("weibull(k=0.7) failures"), "{out}");
        assert!(out.contains("extra tiers: peer+delta"), "{out}");
        assert!(out.contains("elastic fallback"), "{out}");
    }

    #[test]
    fn sweep_rejects_unknown_workload() {
        let err = cli("sweep --workload tuning").unwrap_err();
        assert!(err.to_string().contains("train"));
    }

    #[test]
    fn sweep_rejects_degenerate_numbers_cleanly() {
        for bad in [
            "sweep --max-gpus 0",
            "sweep --batch 0",
            "sweep --workload infer --batch 0",
            "sweep --workload infer --generate 0",
        ] {
            let err = cli(bad).unwrap_err();
            assert!(err.to_string().contains("at least 1"), "{bad}: {err}");
        }
    }

    #[test]
    fn sweep_rejects_inapplicable_options() {
        let err = cli("sweep --workload infer --seq 8192").unwrap_err();
        assert!(err.to_string().contains("does not apply"), "{err}");
        let err = cli("sweep --workload train --generate 100").unwrap_err();
        assert!(err.to_string().contains("does not apply"), "{err}");
    }

    /// Every option a subcommand does not take, every malformed value and
    /// every missing or conflicting partner is an `ArgError` that names the
    /// flag. The zero counts used to panic in the `TrainingConfig`,
    /// `InferenceConfig` and `Parallelism` constructors, the grid overflow
    /// inside `load_sweep`, and the rest ran with the option ignored. A
    /// value the trace rules refuse is an `ArgError` in
    /// `TraceSpec::validate`'s words, which name the quantity.
    #[test]
    fn rejected_command_lines_name_the_offending_flag() {
        for (line, flag) in [
            ("train --batch 0", "--batch"),
            ("train --seq 0", "--seq"),
            ("train --dp 0", "--dp"),
            ("train --tp 0", "--tp"),
            ("train --pp 0", "--pp"),
            ("train --microbatch 0", "--microbatch"),
            ("infer --batch 0", "--batch"),
            ("infer --prefill 0", "--prefill"),
            ("infer --generate 0", "--generate"),
            ("infer --tp 0", "--tp"),
            ("memory --tp 0", "--tp"),
            ("memory --pp 0", "--pp"),
            ("memory --seq 0", "--seq"),
            ("serve --requets 5", "--requets"),
            ("infer --json true", "--json"),
            ("infer --tp --batch 2", "--tp"),
            ("infer --tp 2 --tp 4", "--tp"),
            ("memory --cluster h100", "--cluster"),
            ("train --replicas 4", "--replicas"),
            ("sweep --workload infer --flash", "--flash"),
            ("list --model x", "--model"),
            ("sweep --precision fp16 --precisions bf16", "--precision"),
            (
                "load-sweep --precision fp8 --precisions bf16",
                "--precision",
            ),
            (
                "load-sweep --scheduler sjf --scheduler-list fifo",
                "--scheduler",
            ),
            (
                "serve --replicas 2 --degrade 2 --fault-seed 9",
                "--fault-seed",
            ),
        ] {
            let err = cli(line).expect_err(line);
            assert!(err.to_string().contains(flag), "{line}: {err}");
        }
        let requests = "a trace holds at most 4294967295 requests, got 18446744073709551615";
        let context = "the largest prompt + output + prefix context overflows";
        for (line, reason) in [
            (
                "load-sweep --min-rate 1e-300 --max-rate 1e300 --points 3",
                "arrival parameter must be finite and positive, got inf",
            ),
            ("serve --requests 18446744073709551615", requests),
            ("load-sweep --requests 18446744073709551615", requests),
            ("load-sweep --prompt 18446744073709551615", context),
            (
                "serve --prefix-tokens 8 --prompt 18446744073709551610 --output 1",
                context,
            ),
        ] {
            assert_eq!(cli(line).expect_err(line).to_string(), reason, "{line}");
        }
    }

    #[test]
    fn load_sweep_honors_the_singular_precision() {
        let base = "load-sweep --model llama2-7b --tp-list 1 --rates 4 --requests 8 \
                    --prompt 100 --output 4";
        let list = cli(&format!("{base} --precisions bf16")).unwrap();
        assert!(list.contains("TP1 BF16"), "{list}");
        assert_eq!(cli(&format!("{base} --precision bf16")).unwrap(), list);
    }

    #[test]
    fn sweep_honors_precision_list() {
        let out = cli(
            "sweep --model llama2-7b --workload infer --generate 8 --max-gpus 8 \
             --precisions fp16 --frontier-only",
        )
        .unwrap();
        assert!(out.contains("FP16"));
        assert!(!out.contains("BF16"));
        // The singular spelling the other subcommands use works too.
        let aliased = cli(
            "sweep --model llama2-7b --workload infer --generate 8 --max-gpus 8 \
             --precision fp16 --frontier-only",
        )
        .unwrap();
        assert_eq!(aliased, out);
    }

    #[test]
    fn sweep_rejects_top_with_frontier_only() {
        let err = cli("sweep --frontier-only --top 5").unwrap_err();
        assert!(err.to_string().contains("does not apply"), "{err}");
    }

    #[test]
    fn sweep_rejects_full_with_shaping_flags() {
        for bad in ["sweep --full --top 5", "sweep --full --frontier-only"] {
            let err = cli(bad).unwrap_err();
            assert!(err.to_string().contains("does not apply"), "{bad}: {err}");
        }
    }

    #[test]
    fn sweep_json_respects_frontier_only() {
        let base = "sweep --model llama2-13b --workload infer --generate 16 --max-gpus 8";
        let full: serde_json::Value =
            serde_json::from_str(&cli(&format!("{base} --json")).unwrap()).unwrap();
        let frontier_len = full.get("frontier").unwrap().as_array().unwrap().len();
        let only: serde_json::Value =
            serde_json::from_str(&cli(&format!("{base} --json --frontier-only")).unwrap()).unwrap();
        let rows = only
            .as_array()
            .expect("--frontier-only emits the frontier array");
        assert_eq!(rows.len(), frontier_len);
        assert!(rows[0].get("latency").is_some());
    }

    #[test]
    fn sweep_json_respects_top() {
        let base = "sweep --model llama2-13b --workload train --batch 16 --max-gpus 16";
        let top: serde_json::Value =
            serde_json::from_str(&cli(&format!("{base} --json --top 3")).unwrap()).unwrap();
        let rows = top.get("evaluated").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 3, "--top must cap the JSON rows");
        // Rows come out latency-sorted: the cap keeps the fastest ones.
        let lat = |v: &serde_json::Value| {
            v.get("latency")
                .and_then(|l| l.get("secs"))
                .and_then(serde_json::Value::as_f64)
                .or_else(|| v.get("latency").and_then(serde_json::Value::as_f64))
                .expect("latency field")
        };
        assert!(lat(&rows[0]) <= lat(&rows[1]) && lat(&rows[1]) <= lat(&rows[2]));
        assert!(
            top.get("frontier").is_some(),
            "frontier stays in the report"
        );
    }

    #[test]
    fn sweep_json_full_matches_default() {
        let base = "sweep --model llama2-7b --workload infer --generate 8 --max-gpus 8";
        let default = cli(&format!("{base} --json")).unwrap();
        let full = cli(&format!("{base} --json --full")).unwrap();
        assert_eq!(
            default, full,
            "--full is the explicit spelling of the default"
        );
    }

    #[test]
    fn sweep_full_text_is_uncapped() {
        let out = cli("sweep --model llama2-13b --workload train --batch 16 --max-gpus 16 --full")
            .unwrap();
        assert!(out.contains("all "), "{out}");
        assert!(out.contains("strategies by latency"), "{out}");
    }

    /// Every preset resolves by its own name in upper case, in lower case
    /// and with `_` for `-`; each alias names the preset it always named;
    /// an unknown name resolves to nothing, and the CLI lists the presets
    /// in its error as it always did.
    #[test]
    fn presets_resolve_by_name_and_alias() {
        use optimus::hw::presets as hw;
        use optimus::model::presets as models;
        let spellings = |name: &str| {
            [
                name.to_uppercase(),
                name.to_lowercase(),
                name.replace('-', "_"),
            ]
        };
        for m in models::all() {
            for name in spellings(&m.name) {
                assert_eq!(models::by_name(&name).as_ref(), Some(&m), "{name}");
            }
        }
        for c in hw::clusters() {
            for name in spellings(&c.name) {
                assert_eq!(hw::cluster_by_name(&name).as_ref(), Some(&c), "{name}");
            }
        }
        assert_eq!(models::by_name("GPT_1T"), Some(models::gpt_1008b()));
        for (alias, cluster) in [
            ("a100", hw::dgx_a100_hdr_cluster()),
            ("H100", hw::dgx_h100_ndr_cluster()),
            ("h200", hw::dgx_h200_nvs_cluster()),
            ("b200", hw::dgx_b200_nvs_cluster()),
        ] {
            assert_eq!(hw::cluster_by_name(alias), Some(cluster), "{alias}");
        }
        assert_eq!(models::by_name("gpt-2"), None);
        assert_eq!(hw::cluster_by_name("v100"), None);
        assert_eq!(
            model_preset("gpt-2").unwrap_err().to_string(),
            "unknown model `gpt-2`; try one of: gpt-7b, gpt-22b, gpt-175b, gpt-310b, gpt-530b, \
             gpt-1008b, llama2-7b, llama2-13b, llama2-70b"
        );
        assert_eq!(
            cluster_preset("v100").unwrap_err().to_string(),
            "unknown cluster `v100`; try one of: a100-hdr, h100-ndr, h100-nvs, h200-nvs, \
             b200-ndr, b200-nvs"
        );
    }

    #[test]
    fn list_names_every_preset() {
        let out = list();
        assert!(out.contains("GPT-1008B"));
        assert!(out.contains("Llama2-70B"));
        assert!(out.contains("B200"));
    }

    #[test]
    fn serve_paged_json_has_a_paging_section_and_reserved_omits_it() {
        let base = "serve --model llama2-7b --requests 30 --rate 8 --prompt 50:200 \
                    --output 2:24 --seed 7 --json";
        let reserved: serde_json::Value = serde_json::from_str(&cli(base).unwrap()).unwrap();
        assert!(
            reserved.get("paging").is_none(),
            "the reserved regime must omit the paging section entirely"
        );
        let paged: serde_json::Value =
            serde_json::from_str(&cli(&format!("{base} --kv-block 16")).unwrap()).unwrap();
        let paging = paged.get("paging").expect("paged runs report paging");
        assert_eq!(
            paging
                .get("block_tokens")
                .and_then(serde_json::Value::as_f64),
            Some(16.0)
        );
        assert!(
            paging
                .get("total_blocks")
                .and_then(serde_json::Value::as_f64)
                > Some(0.0)
        );
    }

    #[test]
    fn serve_prefix_flags_produce_cache_hits() {
        let out = cli(
            "serve --model llama2-7b --requests 60 --rate 20 --prompt 100:300 --output 2:16 \
             --seed 5 --kv-block 16 --prefix-tokens 64 --prefix-pool 4 --prefix-rate 0.7 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let paging = v.get("paging").expect("paging section");
        let hits = paging
            .get("prefix_hits")
            .and_then(serde_json::Value::as_f64);
        assert!(
            hits > Some(0.0),
            "prefix cache must actually hit: {paging:?}"
        );
    }

    #[test]
    fn serve_scheduler_flag_threads_through_to_the_report() {
        let out = cli(
            "serve --model llama2-7b --requests 20 --rate 8 --prompt 50:200 --output 2:24 \
             --kv-block 16 --scheduler sjf --priority-classes 3 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(
            v.get("scheduler").and_then(serde_json::Value::as_str),
            Some("Sjf")
        );
    }

    #[test]
    fn serve_rejects_bad_paging_options() {
        for bad in [
            "serve --preempt swap",                       // --preempt needs --kv-block
            "serve --kv-block 16 --preempt teleport",     // unknown policy
            "serve --scheduler lifo",                     // unknown scheduler
            "serve --priority-classes 0",                 // below 1
            "serve --prefix-pool 4",                      // --prefix-pool needs --prefix-tokens
            "serve --prefix-rate 0.5",                    // --prefix-rate needs --prefix-tokens
            "serve --prefix-tokens 64 --prefix-rate 1.5", // rate beyond [0,1]
            "serve --prefix-tokens 64 --prefix-pool 0",   // empty pool
            "serve --prefix-tokens 0 --prefix-pool 4",    // a pool of empty prefixes
        ] {
            assert!(cli(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn load_sweep_kv_and_scheduler_lists_cross_the_grid() {
        let out = cli(
            "load-sweep --model llama2-7b --tp-list 1 --kv-block-list 0,16 \
             --scheduler-list fifo,sjf --rates 2,16 --requests 24 --prompt 50:150 \
             --output 4:12 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let curves = v.get("curves").unwrap().as_array().unwrap();
        assert_eq!(curves.len(), 4, "2 kv regimes × 2 schedulers");
        let mut seen: Vec<(u64, String)> = curves
            .iter()
            .map(|c| {
                (
                    c.get("kv")
                        .and_then(|k| k.get("block_tokens"))
                        .and_then(serde_json::Value::as_f64)
                        .unwrap() as u64,
                    c.get("scheduler")
                        .and_then(serde_json::Value::as_str)
                        .unwrap()
                        .to_owned(),
                )
            })
            .collect();
        seen.sort();
        assert_eq!(
            seen,
            vec![
                (0, "Fifo".to_owned()),
                (0, "Sjf".to_owned()),
                (16, "Fifo".to_owned()),
                (16, "Sjf".to_owned()),
            ]
        );
    }

    #[test]
    fn load_sweep_rejects_preempt_without_paged_cells() {
        assert!(cli(
            "load-sweep --model llama2-7b --tp-list 1 --rates 2 --requests 8 \
             --prompt 100 --output 4 --preempt swap"
        )
        .is_err());
    }
}
