//! Dependency-free argument parsing driven by one declarative option table.
//!
//! The grammar is a subcommand followed by flat `--key value` pairs and
//! valueless `--switch`es, so the CLI needs no argument-parsing crate (the
//! workspace's only external crates are the offline stand-ins under
//! `vendor/`). [`OPTIONS`] is the only statement of which subcommand takes
//! which option, what its value must be, and which options it needs or
//! excludes: [`Args::parse`] enforces it and [`synopses`] renders it.

use std::fmt::Debug;
use std::str::FromStr;

/// A subcommand, with `sweep` split by `--workload`: the unit the option
/// table grants options to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Train,
    Infer,
    Serve,
    LoadSweep,
    Memory,
    SweepTrain,
    SweepInfer,
    List,
    Help,
}

impl Command {
    /// This command's bit in an [`Opt::takes`] mask.
    const fn bit(self) -> u16 {
        1 << self as u16
    }

    /// Resolves the subcommand name, reading `sweep`'s `--workload`.
    fn resolve(name: &str, workload: Option<&str>) -> Result<Self, ArgError> {
        Ok(match name {
            "train" => Self::Train,
            "infer" => Self::Infer,
            "serve" => Self::Serve,
            "load-sweep" => Self::LoadSweep,
            "memory" => Self::Memory,
            "sweep" => match workload.unwrap_or("train") {
                "train" | "training" => Self::SweepTrain,
                "infer" | "inference" => Self::SweepInfer,
                other => {
                    return Err(ArgError(format!(
                        "unknown workload `{other}`; expected `train` or `infer`"
                    )))
                }
            },
            "list" => Self::List,
            "" | "help" | "-h" => Self::Help,
            other => return Err(ArgError(format!("unknown subcommand `{other}`"))),
        })
    }

    /// The table row that gives `--key` its meaning under this command,
    /// which rejection messages call `label`.
    fn option(self, key: &str, label: &str) -> Result<&'static Opt, ArgError> {
        OPTIONS
            .iter()
            .find(|o| o.name == key && o.takes & self.bit() != 0)
            .ok_or_else(|| {
                ArgError(if OPTIONS.iter().any(|o| o.name == key) {
                    format!("--{key} does not apply to {label}")
                } else {
                    format!("unknown option --{key}")
                })
            })
    }
}

/// What an option's value (each entry, for a list) must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Switch,
    Text,
    Count,
    Int,
    Number,
    Positive,
}

impl Kind {
    /// Checks one value (`None` when the option came bare).
    fn check(self, key: &str, value: Option<&str>) -> Result<(), ArgError> {
        let v = value.unwrap_or_default();
        let int = v.parse::<usize>().ok();
        let num = v.parse::<f64>().ok().filter(|x| x.is_finite());
        let (ok, expects) = match self {
            Self::Switch => (value.is_none(), "no value"),
            Self::Text => (value.is_some(), "a value"),
            Self::Count => (int > Some(0), "an integer of at least 1"),
            Self::Int => (int.is_some(), "a non-negative integer"),
            Self::Number => (num.is_some(), "a finite number"),
            Self::Positive => (num > Some(0.0), "a positive number"),
        };
        match value {
            _ if ok => Ok(()),
            None => Err(ArgError(format!("--{key} expects {expects}"))),
            Some(v) => Err(ArgError(format!("--{key} expects {expects}, got `{v}`"))),
        }
    }
}

/// One row of the option table.
#[derive(Debug)]
struct Opt {
    name: &'static str,
    /// The usage placeholder for the value (empty for a switch).
    hint: &'static str,
    kind: Kind,
    /// Whether the value is a comma list with entries of `kind`.
    list: bool,
    /// The [`Command`]s that take the option, as a mask of their bits.
    takes: u16,
    /// Options that must also be given: one of each group.
    needs: &'static [&'static [&'static str]],
    /// Options that must not also be given.
    excludes: &'static [&'static str],
}

const fn opt(name: &'static str, hint: &'static str, kind: Kind, takes: u16) -> Opt {
    let (list, needs, excludes) = (false, &[], &[]);
    Opt {
        name,
        hint,
        kind,
        list,
        takes,
        needs,
        excludes,
    }
}

impl Opt {
    const fn list(self) -> Self {
        Self { list: true, ..self }
    }

    const fn needs(self, needs: &'static [&'static [&'static str]]) -> Self {
        Self { needs, ..self }
    }

    const fn excludes(self, excludes: &'static [&'static str]) -> Self {
        Self { excludes, ..self }
    }
}

const TRAIN: u16 = Command::Train.bit();
const INFER: u16 = Command::Infer.bit();
const SERVE: u16 = Command::Serve.bit();
const LOAD: u16 = Command::LoadSweep.bit();
const MEMORY: u16 = Command::Memory.bit();
const SWEEP_TRAIN: u16 = Command::SweepTrain.bit();
const SWEEP_INFER: u16 = Command::SweepInfer.bit();
const SWEEP: u16 = SWEEP_TRAIN | SWEEP_INFER;
/// The serving simulators.
const SERVES: u16 = SERVE | LOAD;
/// The training-resilience stack's takers.
const RESILIENT: u16 = TRAIN | SWEEP_TRAIN;
const MTBF: &[&[&str]] = &[&["mtbf"]];

/// Every option of every subcommand, in usage order. An option name may
/// take several rows with disjoint commands when its placeholder or kind
/// differs between them.
#[rustfmt::skip]
const OPTIONS: &[Opt] = &[
    opt("model",               "M",                   Kind::Text,     TRAIN | INFER | SERVES | MEMORY | SWEEP),
    opt("cluster",             "C",                   Kind::Text,     TRAIN | INFER | SERVES | SWEEP),
    opt("workload",            "train|infer",         Kind::Text,     SWEEP),
    opt("max-gpus",            "N",                   Kind::Count,    SWEEP),
    opt("batch",               "N",                   Kind::Count,    TRAIN | INFER | MEMORY | SWEEP),
    opt("seq",                 "N",                   Kind::Count,    TRAIN | MEMORY | SWEEP_TRAIN),
    opt("prefill",             "N",                   Kind::Count,    INFER | SWEEP_INFER),
    opt("generate",            "N",                   Kind::Count,    INFER | SWEEP_INFER),
    opt("dp",                  "N",                   Kind::Count,    TRAIN | MEMORY),
    opt("tp",                  "N",                   Kind::Count,    TRAIN | INFER | SERVE | MEMORY),
    opt("tp-list",             "N,N,..",              Kind::Count,    LOAD).list(),
    opt("pp",                  "N",                   Kind::Count,    TRAIN | MEMORY),
    opt("sp",                  "",                    Kind::Switch,   TRAIN | MEMORY),
    opt("microbatch",          "N",                   Kind::Count,    TRAIN | MEMORY),
    opt("replicas",            "N",                   Kind::Count,    SERVE),
    opt("replicas-list",       "N,N,..",              Kind::Count,    LOAD).list(),
    opt("router",              "POLICY",              Kind::Text,     SERVES),
    opt("router-seed",         "N",                   Kind::Int,      SERVES).needs(&[&["router"]]),
    opt("precision",           "P",                   Kind::Text,     TRAIN | INFER | SERVES | MEMORY | SWEEP).excludes(&["precisions"]),
    opt("precisions",          "P,P,..",              Kind::Text,     LOAD | SWEEP),
    opt("recompute",           "none|selective|full", Kind::Text,     TRAIN | MEMORY | SWEEP_TRAIN),
    opt("flash",               "",                    Kind::Switch,   TRAIN),
    opt("kv-block",            "N",                   Kind::Int,      SERVE),
    opt("kv-block-list",       "N,N,..",              Kind::Int,      LOAD).list(),
    opt("preempt",             "recompute|swap",      Kind::Text,     SERVE).needs(&[&["kv-block"]]),
    opt("preempt",             "recompute|swap",      Kind::Text,     LOAD).needs(&[&["kv-block-list"]]),
    opt("scheduler",           "S",                   Kind::Text,     SERVES).excludes(&["scheduler-list"]),
    opt("scheduler-list",      "S,S,..",              Kind::Text,     LOAD),
    opt("priority-classes",    "N",                   Kind::Count,    SERVES),
    opt("prefix-tokens",       "N",                   Kind::Int,      SERVES),
    opt("prefix-pool",         "N",                   Kind::Count,    SERVES).needs(&[&["prefix-tokens"]]),
    opt("prefix-rate",         "F",                   Kind::Number,   SERVES).needs(&[&["prefix-tokens"]]),
    opt("mtbf",                "S",                   Kind::Positive, RESILIENT | SERVES),
    opt("checkpoint-interval", "S",                   Kind::Number,   RESILIENT).needs(MTBF),
    opt("restart",             "S",                   Kind::Number,   RESILIENT).needs(MTBF),
    opt("failure-process",     "exp|weibull:K|racks:N:MTBF", Kind::Text, RESILIENT).needs(MTBF),
    opt("failure-process",     "exp|weibull:K",       Kind::Text,     SERVES).needs(MTBF),
    opt("checkpoint-tiers",    "peer,delta",          Kind::Text,     RESILIENT).needs(MTBF),
    opt("delta-frac",          "F",                   Kind::Number,   RESILIENT).needs(&[&["mtbf"], &["checkpoint-tiers"]]),
    opt("elastic",             "",                    Kind::Switch,   RESILIENT).needs(MTBF),
    opt("rewarm",              "S",                   Kind::Number,   RESILIENT).needs(&[&["mtbf"], &["elastic"]]),
    opt("repair",              "S",                   Kind::Number,   RESILIENT).needs(&[&["mtbf"], &["elastic"]]),
    opt("checkpoint-util",     "F",                   Kind::Number,   RESILIENT).needs(MTBF),
    opt("mttr",                "S",                   Kind::Number,   SERVES).needs(MTBF),
    opt("fault-seed",          "N",                   Kind::Int,      SERVES).needs(&[&["mtbf", "stragglers", "domains"]]),
    opt("domains",             "N",                   Kind::Count,    SERVES).needs(&[&["domain-mtbf"]]),
    opt("domain-mtbf",         "S",                   Kind::Positive, SERVES).needs(&[&["domains"]]),
    opt("domain-mttr",         "S",                   Kind::Number,   SERVES).needs(&[&["domains"]]),
    opt("stragglers",          "F:M",                 Kind::Text,     SERVES),
    opt("degrade",             "M",                   Kind::Number,   SERVES),
    opt("degrade-mode",        "flat|link",           Kind::Text,     SERVES).needs(&[&["degrade"]]),
    opt("requests",            "N",                   Kind::Int,      SERVE),
    opt("requests",            "N",                   Kind::Count,    LOAD),
    opt("seed",                "N",                   Kind::Int,      SERVES),
    opt("rate",                "R",                   Kind::Positive, SERVE).excludes(&["interval"]),
    opt("interval",            "S",                   Kind::Positive, SERVE),
    opt("rates",               "R,R,..",              Kind::Positive, LOAD).list().excludes(&["min-rate", "max-rate", "points"]),
    opt("min-rate",            "R",                   Kind::Positive, LOAD),
    opt("max-rate",            "R",                   Kind::Positive, LOAD),
    opt("points",              "N",                   Kind::Count,    LOAD),
    opt("prompt",              "N|LO:HI",             Kind::Text,     SERVES),
    opt("output",              "N|LO:HI",             Kind::Text,     SERVES),
    opt("ttft-slo",            "MS",                  Kind::Positive, SERVES),
    opt("tpot-slo",            "MS",                  Kind::Positive, SERVES),
    opt("records",             "",                    Kind::Switch,   SERVE),
    opt("top",                 "N",                   Kind::Int,      SWEEP).excludes(&["frontier-only"]),
    opt("frontier-only",       "",                    Kind::Switch,   SWEEP),
    opt("full",                "",                    Kind::Switch,   SWEEP).excludes(&["frontier-only", "top"]),
    opt("json",                "",                    Kind::Switch,   TRAIN | INFER | SERVES | MEMORY | SWEEP),
];

/// Parsed command line: a subcommand plus its options, each known to the
/// subcommand, well-formed for its kind, given once, and paired as the
/// table requires.
#[derive(Debug)]
pub struct Args {
    pub command: Command,
    options: Vec<(&'static Opt, Option<String>)>,
}

/// A user error in the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl core::fmt::Display for ArgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `argv[1..]` against [`OPTIONS`].
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] naming the offending flag on a positional
    /// argument, an unknown subcommand or workload, an option unknown to
    /// or not taken by the subcommand, a value on a switch, a missing or
    /// wrongly kinded value, a repeated option, a missing partner the
    /// table requires, or an excluded one.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, ArgError> {
        let mut it = argv.into_iter().peekable();
        let name = it.next().unwrap_or_default();
        let mut given = Vec::new();
        while let Some(token) = it.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument `{token}`"
                )));
            };
            given.push((key.to_owned(), it.next_if(|next| !next.starts_with("--"))));
        }
        let workload = given.iter().find(|(key, _)| key == "workload");
        let workload = workload.and_then(|(_, v)| v.as_deref());
        let command = Command::resolve(&name, workload)?;
        let label = match command {
            Command::SweepTrain | Command::SweepInfer => {
                format!("--workload {}", workload.unwrap_or("train"))
            }
            _ => name,
        };
        let mut args = Self {
            command,
            options: Vec::new(),
        };
        for (key, value) in given {
            let opt = command.option(&key, &label)?;
            match value.as_deref() {
                Some(list) if opt.list => list
                    .split(',')
                    .try_for_each(|entry| opt.kind.check(&key, Some(entry.trim())))?,
                value => opt.kind.check(&key, value)?,
            }
            if args.has(&key) {
                return Err(ArgError(format!("--{key} is given more than once")));
            }
            args.options.push((opt, value));
        }
        for (opt, _) in &args.options {
            for group in opt.needs {
                if !group.iter().any(|key| args.has(key)) {
                    let names: Vec<String> = group.iter().map(|key| format!("--{key}")).collect();
                    let names = names.join(" or ");
                    return Err(ArgError(format!(
                        "--{} only applies with {names}",
                        opt.name
                    )));
                }
            }
            if let Some(other) = opt.excludes.iter().find(|key| args.has(key)) {
                return Err(ArgError(format!(
                    "--{} does not apply with --{other}",
                    opt.name
                )));
            }
        }
        Ok(args)
    }

    /// Whether `--key` was given (a switch, or an option with its value).
    #[must_use]
    pub fn has(&self, key: &str) -> bool {
        self.options.iter().any(|(opt, _)| opt.name == key)
    }

    /// A valued option's text.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        let (_, value) = self.options.iter().find(|(opt, _)| opt.name == key)?;
        value.as_deref()
    }

    /// A valued option's text with a default.
    #[must_use]
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// An integer option with a default. [`Args::parse`] has checked the
    /// value against the table, so only a table/accessor mismatch panics.
    #[must_use]
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key).map_or(default, |v| {
            v.parse().expect("the table declares an integer")
        })
    }

    /// A number option with a default, checked like [`Args::get_usize`].
    #[must_use]
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .map_or(default, |v| v.parse().expect("the table declares a number"))
    }

    /// A list option's entries with a default list, checked like
    /// [`Args::get_usize`].
    #[must_use]
    pub fn get_list<T: FromStr<Err: Debug>>(&self, key: &str, default: &str) -> Vec<T> {
        let entries = self.get_or(key, default).split(',');
        let parse = |t: &str| t.trim().parse().expect("the table declares the entry kind");
        entries.map(parse).collect()
    }
}

/// The usage synopsis of every subcommand, one wrapped block each, with
/// the options each takes in table order.
#[must_use]
pub fn synopses() -> String {
    const WIDTH: usize = 78;
    const INDENT: usize = 21;
    let mut out = String::new();
    for (name, takes) in [
        ("train", TRAIN),
        ("infer", INFER),
        ("serve", SERVE),
        ("load-sweep", LOAD),
        ("memory", MEMORY),
        ("sweep", SWEEP),
        ("list", 0),
    ] {
        let mut line = format!("  optimus-cli {name:<6}");
        for o in OPTIONS.iter().filter(|o| o.takes & takes != 0) {
            let item = match o.kind {
                Kind::Switch => format!(" [--{}]", o.name),
                _ => format!(" [--{} {}]", o.name, o.hint),
            };
            if line.len() + item.len() > WIDTH && line.len() > INDENT {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(INDENT - 1);
            }
            line.push_str(&item);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_subcommand_options_and_flags() {
        let a = parse("train --model gpt-175b --tp 8 --sp --json").unwrap();
        assert_eq!(a.command, Command::Train);
        assert_eq!(a.get("model"), Some("gpt-175b"));
        assert_eq!(a.get_usize("tp", 1), 8);
        assert!(a.has("sp"));
        assert!(a.has("json"));
        assert!(!a.has("flash"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("infer").unwrap();
        assert_eq!(a.get_or("model", "llama2-13b"), "llama2-13b");
        assert_eq!(a.get_usize("tp", 1), 1);
    }

    /// Rows sharing a name take disjoint commands; every command that takes
    /// a row also takes one option of each group it needs, and some command
    /// that takes it takes each option it excludes.
    #[test]
    fn the_option_table_is_consistent() {
        let takers = |name: &str| {
            OPTIONS
                .iter()
                .filter(|o| o.name == name)
                .fold(0, |mask, o| mask | o.takes)
        };
        for (i, row) in OPTIONS.iter().enumerate() {
            let mut same = OPTIONS[i + 1..].iter().filter(|o| o.name == row.name);
            assert!(same.all(|o| o.takes & row.takes == 0), "--{}", row.name);
            for group in row.needs {
                let mask = group.iter().fold(0, |mask, key| mask | takers(key));
                assert_eq!(
                    mask & row.takes,
                    row.takes,
                    "--{} needs {group:?}",
                    row.name
                );
            }
            for key in row.excludes {
                assert_ne!(
                    takers(key) & row.takes,
                    0,
                    "--{} excludes --{key}",
                    row.name
                );
            }
        }
    }

    #[test]
    fn rejects_positional() {
        assert!(parse("train gpt").is_err());
    }

    #[test]
    fn rejects_bad_number() {
        assert!(parse("train --tp eight").is_err());
    }

    #[test]
    fn parses_floats_with_defaults() {
        let a = parse("serve --rate 2.5").unwrap();
        assert_eq!(a.get_f64("rate", 1.0), 2.5);
        assert_eq!(a.get_f64("interval", 4.0), 4.0);
        assert!(parse("serve --rate fast").is_err());
        assert!(parse("serve --rate inf").is_err());
    }
}
