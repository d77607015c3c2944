//! Layered host-time benchmark of the Optimus library.
//!
//! ```text
//! optimus-perfbench --workload sweep|serve-fleet|serve-paged --seed N
//!                   --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload: rounds of set-up followed by one pass of
//! each of the workload's three kinds, back to back for `--seconds`, each
//! pass checked for correct output. With `--trace 0` the last stdout line
//! is a JSON object with the end-to-end metrics; with `--trace 1` rounds
//! alternate traced and untraced, the per-layer probes run, and the line
//! carries the per-layer metrics. See `perfbench/README.md`.

mod fleet;
mod harness;
mod paged;
mod probes;
mod reference;
mod sweep;
mod tracer;

use harness::{check_json, digest, median, peak_rss_mb, percentile, Kind, Outcome, Stopwatch};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use tracer::Tracer;

/// Worker threads of the library's parallel maps. The benchmark runs on
/// small shared virtual machines where a second vCPU's availability varies
/// with the host's load: two-thread pass times swung by up to 1.5× between
/// runs minutes apart, one-thread times by under 10%. So the pool holds one
/// thread (never more than `nproc`) and every figure is single-core host
/// time.
const THREADS: usize = 1;

#[derive(Clone, Copy)]
enum Workload {
    Sweep,
    Fleet,
    Paged,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "sweep" => Some(Self::Sweep),
            "serve-fleet" => Some(Self::Fleet),
            "serve-paged" => Some(Self::Paged),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Sweep => "sweep",
            Self::Fleet => "serve-fleet",
            Self::Paged => "serve-paged",
        }
    }

    fn kinds(self) -> &'static [Kind; 3] {
        match self {
            Self::Sweep => &sweep::KINDS,
            Self::Fleet => &fleet::KINDS,
            Self::Paged => &paged::KINDS,
        }
    }

    /// The name throughput is reported under on this workload.
    fn work_metric(self) -> &'static str {
        match self {
            Self::Sweep => "strategies_per_s",
            Self::Fleet | Self::Paged => "sim_requests_per_s",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut argv = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".to_owned());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_owned()),
                    });
                }
                other => return Err(format!("unknown option {other}")),
            }
        }
        let name = workload.ok_or("--workload is required")?;
        let workload = Workload::parse(&name).ok_or_else(|| {
            format!("unknown workload {name}; expected sweep, serve-fleet or serve-paged")
        })?;
        Ok(Self {
            workload,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// A workload's inputs, built in set-up.
enum Inputs {
    Sweep(Box<sweep::Inputs>),
    Fleet(Box<fleet::Inputs>),
    Paged(Box<paged::Inputs>),
}

impl Inputs {
    fn new(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::Sweep => Self::Sweep(Box::new(sweep::Inputs::new())),
            Workload::Fleet => Self::Fleet(Box::new(fleet::Inputs::new(seed))),
            Workload::Paged => Self::Paged(Box::new(paged::Inputs::new(seed))),
        }
    }

    fn run(&self, kind: usize, cycle: usize, t: &Tracer) -> Outcome {
        match self {
            Self::Sweep(i) => i.run(kind, t),
            Self::Fleet(i) => i.run(kind, cycle, t),
            Self::Paged(i) => i.run(kind, t),
        }
    }
}

/// Host seconds the reference computation stands for: about its median on
/// the 2-vCPU x86-64 virtual machine the benchmark was built on, where its
/// per-run median ranged over 11–17 ms with the host's load. Reported
/// times are host times in units of the reference computation, times this.
const REFERENCE_SECS: f64 = 0.015;

/// One timed stretch of work.
#[derive(Clone, Copy)]
struct Sample {
    /// Host seconds it took.
    secs: f64,
    /// Mean host seconds of the reference computations timed just before
    /// and just after it.
    reference: f64,
}

impl Sample {
    /// Its host time at the reference speed: `secs` scaled by how much
    /// slower than [`REFERENCE_SECS`] the host ran the reference beside it.
    /// The host's speed drifts by up to 1.5× over seconds to minutes
    /// (other tenants), and the drift slows the reference and the work
    /// alike, so the ratio holds where either time alone does not.
    fn normalized(self) -> f64 {
        self.secs / self.reference * REFERENCE_SECS
    }
}

fn normalized(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.normalized()).collect()
}

/// Everything the timed phase measured.
#[derive(Default)]
struct Timed {
    /// Each round's set-up.
    setups: Vec<Sample>,
    /// Every pass, by (kind, variant, traced).
    passes: BTreeMap<(usize, usize, bool), Vec<Sample>>,
    /// Host seconds of every reference computation.
    reference_secs: Vec<f64>,
    /// Work of one pass, by (kind, variant).
    work: BTreeMap<(usize, usize), usize>,
    rounds: usize,
    attempted: usize,
    failed: usize,
    /// JSON digest of the first pass of each (kind, variant).
    digests: BTreeMap<(usize, usize), u64>,
}

impl Timed {
    /// Runs and times the reference computation once.
    fn reference(&mut self) -> f64 {
        let watch = Stopwatch::start();
        std::hint::black_box(reference::run());
        let secs = watch.secs();
        self.reference_secs.push(secs);
        secs
    }

    /// A pass kind's cost in seconds at the reference speed: the median
    /// untraced pass of each variant, averaged over the variants.
    fn pass(&self, kind: usize) -> f64 {
        let medians: Vec<f64> = self
            .passes
            .iter()
            .filter(|((k, _, traced), _)| *k == kind && !traced)
            .map(|(_, samples)| median(&normalized(samples)))
            .collect();
        medians.iter().sum::<f64>() / medians.len() as f64
    }

    /// Every untraced pass of a kind.
    fn untraced(&self, kind: usize) -> Vec<Sample> {
        self.passes
            .iter()
            .filter(|((k, _, traced), _)| *k == kind && !traced)
            .flat_map(|(_, samples)| samples.iter().copied())
            .collect()
    }

    /// Work of one pass of a kind, averaged over its variants.
    fn work(&self, kind: usize) -> f64 {
        let work: Vec<usize> = self
            .work
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|(_, w)| *w)
            .collect();
        work.iter().sum::<usize>() as f64 / work.len() as f64
    }
}

/// Runs rounds until `seconds` have passed. A round builds the inputs
/// afresh from the seed, then runs one pass of every kind. The reference
/// computation runs before the first set-up and after every set-up and
/// pass. With tracing, even rounds are traced and odd rounds are not.
fn timed_phase(args: &Args, t: &Tracer) -> Timed {
    let (seconds, trace) = (args.seconds, args.trace);
    let kinds = args.workload.kinds();
    let mut timed = Timed::default();
    // A traced run needs a traced and an untraced round to compare.
    let min_rounds = if trace { 2 } else { 1 };
    let start = Instant::now();
    let mut before = timed.reference();
    let mut sample = |timed: &mut Timed, secs: f64| {
        let after = timed.reference();
        let reference = (before + after) / 2.0;
        before = after;
        Sample { secs, reference }
    };
    while timed.rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let round = timed.rounds;
        let watch = Stopwatch::start();
        let inputs = Inputs::new(args.workload, args.seed);
        let setup = sample(&mut timed, watch.secs());
        timed.setups.push(setup);
        let traced = trace && round % 2 == 0;
        t.set_on(traced);
        // A traced run repeats each input variant in a traced and an
        // untraced round.
        let cycle = if trace { round / 2 } else { round };
        // Rotate the starting kind so no kind always runs after the same
        // neighbour.
        for step in 0..kinds.len() {
            let kind = (round + step) % kinds.len();
            let mut outcome = t.span(kinds[kind].span, || {
                let mut outcome = inputs.run(kind, cycle, t);
                t.span("check", || check_json(&outcome.json, &mut outcome.failures));
                outcome
            });
            let pass = sample(&mut timed, outcome.secs);
            let key = (kind, outcome.variant);
            let d = digest(&outcome.json);
            let first = *timed.digests.entry(key).or_insert(d);
            if first != d {
                outcome.failures.push(format!(
                    "digest {d:016x} differs from the first pass's {first:016x}"
                ));
            }
            timed.attempted += 1;
            if !outcome.failures.is_empty() {
                timed.failed += 1;
                for f in &outcome.failures {
                    eprintln!("check failed ({}): {f}", kinds[kind].metric);
                }
            }
            timed
                .passes
                .entry((kind, outcome.variant, traced))
                .or_default()
                .push(pass);
            timed.work.insert(key, outcome.work);
        }
        timed.rounds += 1;
    }
    t.set_on(false);
    timed
}

/// Mean absolute error against the paper's Tables 1 and 2, in percent.
fn accuracy() -> (f64, f64) {
    use optimus_experiments::{table1, table2};
    (
        table1::mean_error_percent(&table1::run()),
        table2::mean_error_percent(&table2::run()),
    )
}

/// `name value unit` lines for people, then the one-line JSON result.
struct Report {
    lines: String,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        let _ = writeln!(self.lines, "{name:<28} {value:>14.4} {unit:<6} {note}");
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// A timing reported as `value`, in seconds at the reference speed,
    /// with the median of the samples at that speed, the highest
    /// percentile that has at least ten samples beyond it, and the median
    /// host time as measured on the human line.
    fn timing(
        &mut self,
        name: &str,
        value: f64,
        alias: &str,
        samples: &[Sample],
        scale: f64,
        unit: &'static str,
    ) {
        let at_reference = normalized(samples);
        let raw: Vec<f64> = samples.iter().map(|s| s.secs).collect();
        let n = samples.len();
        let tail = if n >= 20 {
            let q = 1.0 - 10.0 / n as f64;
            format!(
                ", p{:.1} {:.4}",
                q * 100.0,
                percentile(&at_reference, q) * scale
            )
        } else {
            String::new()
        };
        let note = format!(
            "{alias}: median {:.4}{tail} of {n}; as measured {:.4}",
            median(&at_reference) * scale,
            median(&raw) * scale
        );
        self.metric(name, value * scale, unit, &note);
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS.min(nproc))
        .build()
        .expect("the thread pool builds");
    pool.install(|| run(&args, nproc))
}

fn run(args: &Args, nproc: usize) -> ExitCode {
    let t = Tracer::new();
    let timed = timed_phase(args, &t);
    let kinds = args.workload.kinds();

    let mut report = Report {
        lines: String::new(),
        metrics: Vec::new(),
    };
    let _ = writeln!(
        report.lines,
        "workload {} seed {} threads {} of {nproc} rounds {} passes {} failed {}",
        args.workload.name(),
        args.seed,
        rayon::current_num_threads(),
        timed.rounds,
        timed.attempted,
        timed.failed
    );
    for ((kind, variant), d) in &timed.digests {
        let samples: Vec<Sample> = [false, true]
            .iter()
            .filter_map(|traced| timed.passes.get(&(*kind, *variant, *traced)))
            .flatten()
            .copied()
            .collect();
        let _ = writeln!(
            report.lines,
            "digest {:<24} {variant} {d:016x}  median {:.4} ms",
            kinds[*kind].metric,
            median(&normalized(&samples)) * 1e3
        );
    }
    let _ = writeln!(
        report.lines,
        "reference computation: median {:.4} ms, fastest {:.4} ms of {} as measured",
        median(&timed.reference_secs) * 1e3,
        timed
            .reference_secs
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            * 1e3,
        timed.reference_secs.len()
    );

    if args.trace {
        per_layer(&mut report, &t, &timed, kinds, args.seed);
        let path = std::path::Path::new(
            &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_owned()),
        )
        .join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = std::fs::write(&path, t.to_json()) {
            eprintln!("could not write {}: {e}", path.display());
        }
    } else {
        let setup = median(&normalized(&timed.setups));
        report.timing("setup_s", setup, "set-up", &timed.setups, 1.0, "s");
        let pass: Vec<f64> = (0..kinds.len()).map(|k| timed.pass(k)).collect();
        let wall: f64 = pass.iter().sum();
        report.metric(
            "wall_s",
            wall,
            "s",
            "one pass of every kind: pass_a + pass_b + pass_c",
        );
        for (kind, name) in ["pass_a_ms", "pass_b_ms", "pass_c_ms"].iter().enumerate() {
            let samples = timed.untraced(kind);
            report.timing(name, pass[kind], kinds[kind].metric, &samples, 1e3, "ms");
        }
        let work: f64 = (0..kinds.len()).map(|k| timed.work(k)).sum();
        report.metric(
            "work_per_s",
            work / wall,
            "1/s",
            args.workload.work_metric(),
        );
        report.metric(
            "peak_rss_mb",
            peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
            "VmHWM of this process",
        );
        let (table1, table2) = accuracy();
        report.metric("table1_err_pct", table1, "%", "paper Table 1, mean |error|");
        report.metric("table2_err_pct", table2, "%", "paper Table 2, mean |error|");
    }

    let finite = report.metrics.iter().all(|m| m.1.is_finite());
    let correct = timed.failed == 0 && finite;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        timed.attempted, timed.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}}");
    print!("{}", report.lines);
    println!("{json}");
    ExitCode::SUCCESS
}

/// The traced run's metrics: the probes, plus what the traced passes show
/// about JSON output, span coverage and tracing overhead.
fn per_layer(report: &mut Report, t: &Tracer, timed: &Timed, kinds: &[Kind; 3], seed: u64) {
    // Overhead: median traced over median untraced pass, summed over the
    // (kind, variant) pairs that ran both ways.
    let (mut on, mut off) = (0.0, 0.0);
    for ((kind, variant, traced), samples) in &timed.passes {
        if let (true, Some(untraced)) = (*traced, timed.passes.get(&(*kind, *variant, false))) {
            on += median(&normalized(samples));
            off += median(&normalized(untraced));
        }
    }
    let traced_rounds = timed.rounds.div_ceil(2);
    let json_secs: f64 = t.secs("report.json").iter().sum();
    let coverage = kinds
        .iter()
        .map(|k| median(&t.child_coverage(k.span)))
        .fold(f64::INFINITY, f64::min);

    for (name, value, unit) in probes::run(t, seed) {
        report.metric(name, value, unit, "");
    }
    report.metric(
        "report.json_ms",
        json_secs / traced_rounds as f64 * 1e3,
        "ms",
        "JSON output per traced round",
    );
    report.metric(
        "trace.coverage_pct",
        coverage * 100.0,
        "%",
        "child spans over pass spans, worst kind",
    );
    report.metric(
        "trace.overhead_pct",
        (on / off - 1.0) * 100.0,
        "%",
        "median traced over median untraced passes",
    );
}
