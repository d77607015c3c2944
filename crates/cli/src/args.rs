//! Minimal dependency-free argument parsing.
//!
//! The grammar is flat `--key value` pairs plus boolean `--flag`s, which
//! keeps the CLI self-contained: it needs no argument-parsing crate, and
//! the workspace's only external crates are the offline stand-ins under
//! `vendor/` (see the README's workspace map).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus its options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (`train`, `infer`, `memory`, `sweep`, `list`).
    pub command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
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
    /// Parses `argv[1..]`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on a dangling `--key` with no value where one
    /// is required, or a positional argument after the subcommand.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, ArgError> {
        let mut it = argv.into_iter().peekable();
        let command = it.next().unwrap_or_default();
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(token) = it.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument `{token}`"
                )));
            };
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    options.insert(key.to_owned(), it.next().expect("peeked"));
                }
                _ => flags.push(key.to_owned()),
            }
        }
        Ok(Self {
            command,
            options,
            flags,
        })
    }

    /// A string option.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    #[must_use]
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects an integer, got `{v}`"))),
        }
    }

    /// A floating-point option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse as a finite
    /// number.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| ArgError(format!("--{key} expects a number, got `{v}`"))),
        }
    }

    /// Whether a boolean flag was given.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
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
        assert_eq!(a.command, "train");
        assert_eq!(a.get("model"), Some("gpt-175b"));
        assert_eq!(a.get_usize("tp", 1).unwrap(), 8);
        assert!(a.flag("sp"));
        assert!(a.flag("json"));
        assert!(!a.flag("flash"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("infer").unwrap();
        assert_eq!(a.get_or("model", "llama2-13b"), "llama2-13b");
        assert_eq!(a.get_usize("tp", 1).unwrap(), 1);
    }

    #[test]
    fn rejects_positional() {
        assert!(parse("train gpt").is_err());
    }

    #[test]
    fn rejects_bad_number() {
        let a = parse("train --tp eight").unwrap();
        assert!(a.get_usize("tp", 1).is_err());
    }

    #[test]
    fn parses_floats_with_defaults() {
        let a = parse("serve --rate 2.5").unwrap();
        assert_eq!(a.get_f64("rate", 1.0).unwrap(), 2.5);
        assert_eq!(a.get_f64("interval", 4.0).unwrap(), 4.0);
        assert!(parse("serve --rate fast")
            .unwrap()
            .get_f64("rate", 1.0)
            .is_err());
        assert!(parse("serve --rate inf")
            .unwrap()
            .get_f64("rate", 1.0)
            .is_err());
    }
}
