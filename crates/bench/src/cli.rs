//! The `sdm` command line: one table of subcommands
//! ([`crate::experiments::EXPERIMENTS`]) from which help text, dispatch
//! and argument checking are all derived, so a flag exists in exactly one
//! place — its [`Flag`] row — and a mistyped one is an error, never a
//! silent run of the default.

use std::process::ExitCode;
use std::str::FromStr;

use crate::experiments::EXPERIMENTS;

/// One `--flag` a subcommand accepts.
pub struct Flag {
    /// The flag as typed, e.g. `--packets`.
    pub name: &'static str,
    /// Placeholder of the value it takes (`N`, `FILE`, …); `None` for a
    /// switch.
    pub value: Option<&'static str>,
    /// Value used when the flag is absent, if it has one.
    pub default: Option<&'static str>,
    /// One-line description for `--help` (continuation lines after `\n`).
    pub help: &'static str,
}

impl Flag {
    /// A value-taking flag with a default.
    pub const fn opt(
        name: &'static str,
        value: &'static str,
        default: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag { name, value: Some(value), default: Some(default), help }
    }

    /// A value-taking flag that is simply absent unless given.
    pub const fn optional(name: &'static str, value: &'static str, help: &'static str) -> Flag {
        Flag { name, value: Some(value), default: None, help }
    }

    /// A switch (no value).
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag { name, value: None, default: None, help }
    }
}

/// One `sdm` subcommand.
pub struct Experiment {
    /// Subcommand name, e.g. `k-sweep`.
    pub name: &'static str,
    /// One-line summary for `sdm --help`.
    pub summary: &'static str,
    /// Every flag it accepts; anything else is rejected.
    pub flags: &'static [Flag],
    /// Usage placeholder for bare operands (`[NAME…]`); `None` when the
    /// subcommand takes none.
    pub operands: Option<&'static str>,
    /// The body.
    pub run: fn(&Args) -> ExitCode,
}

/// A subcommand's parsed command line: only flags from its table row,
/// every value-taking flag with its value.
pub struct Args {
    flags: &'static [Flag],
    given: Vec<(&'static str, String)>,
    /// Bare operands, in order.
    pub operands: Vec<String>,
}

impl Args {
    /// Parses `argv` (the words after the subcommand) against `exp`'s flag
    /// list. Rejects a flag not in the list, a value-taking flag with no
    /// value, and an operand the subcommand does not take; the message
    /// names the offender.
    pub fn parse(exp: &'static Experiment, argv: &[String]) -> Result<Args, String> {
        let mut args = Args { flags: exp.flags, given: Vec::new(), operands: Vec::new() };
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            if !word.starts_with("--") {
                if exp.operands.is_none() {
                    return Err(format!("unexpected argument '{word}'"));
                }
                args.operands.push(word.clone());
                continue;
            }
            let Some(flag) = exp.flags.iter().find(|f| f.name == word) else {
                return Err(match closest(word, exp.flags) {
                    Some(near) => format!("unknown flag {word} (did you mean {near}?)"),
                    None => format!("unknown flag {word}"),
                });
            };
            let value = match flag.value {
                None => String::new(),
                Some(_) => match words.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => return Err(format!("{word} needs a value")),
                },
            };
            args.given.push((flag.name, value));
        }
        Ok(args)
    }

    fn flag(&self, key: &str) -> &'static Flag {
        self.flags
            .iter()
            .find(|f| f.name == key)
            .unwrap_or_else(|| panic!("{key} is not in this subcommand's flag list"))
    }

    /// Whether switch `key` was given.
    pub fn has(&self, key: &str) -> bool {
        let name = self.flag(key).name;
        self.given.iter().any(|(k, _)| *k == name)
    }

    /// The value given for `key`, else the flag's default, else `None`.
    pub fn value(&self, key: &str) -> Option<&str> {
        let flag = self.flag(key);
        self.given
            .iter()
            .find(|(k, _)| *k == flag.name)
            .map(|(_, v)| v.as_str())
            .or(flag.default)
    }

    /// The number given for `key` (or its default). An unparsable value is
    /// fatal, see [`Args::parse_num`].
    ///
    /// # Panics
    ///
    /// Panics if `key` is absent and its flag has no default.
    pub fn num<T: FromStr>(&self, key: &str) -> T {
        let value = self
            .value(key)
            .unwrap_or_else(|| panic!("{key} has no default; use Args::value"));
        Self::parse_num(key, value)
    }

    /// Parses the `value` given for numeric flag `key`; on anything else
    /// prints `<key>: not a number: <value>` and exits the process
    /// non-zero, so a typo never silently runs the default.
    pub fn parse_num<T: FromStr>(key: &str, value: &str) -> T {
        value.parse().unwrap_or_else(|_| {
            eprintln!("{key}: not a number: {value}");
            std::process::exit(1)
        })
    }
}

/// The flag sharing the longest prefix with `word`, when that prefix goes
/// beyond the dashes and two letters — enough to catch a dropped or
/// swapped character near the end.
fn closest(word: &str, flags: &[Flag]) -> Option<&'static str> {
    let shared = |name: &str| name.bytes().zip(word.bytes()).take_while(|(a, b)| a == b).count();
    flags
        .iter()
        .map(|f| (shared(f.name), f.name))
        .filter(|&(n, _)| n >= 4)
        .max_by_key(|&(n, _)| n)
        .map(|(_, name)| name)
}

fn flag_lines(flags: &[Flag]) -> String {
    let left = |f: &Flag| match f.value {
        Some(v) => format!("{} <{v}>", f.name),
        None => f.name.to_string(),
    };
    let width = flags.iter().map(|f| left(f).len()).max().unwrap_or(0).max("--help".len());
    let mut out = String::new();
    for f in flags {
        let mut help = f.help.lines();
        out += &format!("    {:<width$}   {}", left(f), help.next().unwrap_or(""));
        if let Some(d) = f.default {
            out += &format!(" [default: {d}]");
        }
        out.push('\n');
        for more in help {
            out += &format!("    {:<width$}   {more}\n", "");
        }
    }
    out + &format!("    {:<width$}   print this help\n", "--help")
}

/// The subcommand called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// `sdm <sub> --help`.
pub fn help(exp: &Experiment) -> String {
    format!(
        "sdm {} — {}\n\nUSAGE:\n    sdm {} [OPTIONS]{}\n\nOPTIONS:\n{}",
        exp.name,
        exp.summary,
        exp.name,
        exp.operands.map(|o| format!(" {o}")).unwrap_or_default(),
        flag_lines(exp.flags)
    )
}

/// `sdm --help`: the subcommand list, plus the options of `run`, which is
/// what `sdm [OPTIONS]` means.
pub fn top_help() -> String {
    let mut out = String::from(
        "sdm — dependable policy enforcement in traditional non-SDN networks\n\n\
         USAGE:\n    sdm <SUBCOMMAND> [OPTIONS]    (`sdm <SUBCOMMAND> --help` lists its options)\n    \
         sdm [OPTIONS]                 same as `sdm run [OPTIONS]`\n\nSUBCOMMANDS:\n",
    );
    for exp in EXPERIMENTS {
        out += &format!("    {:<17} {}\n", exp.name, exp.summary);
    }
    out + "\nOPTIONS (run):\n" + &flag_lines(find("run").expect("run is registered").flags)
}

/// Entry point of the `sdm` binary; `argv` excludes the program name.
pub fn main(argv: &[String]) -> ExitCode {
    let is_help = |a: &String| a == "--help" || a == "-h";
    let (name, rest) = match argv.first() {
        Some(first) if is_help(first) => {
            print!("{}", top_help());
            return ExitCode::SUCCESS;
        }
        Some(first) if !first.starts_with('-') => (first.as_str(), &argv[1..]),
        _ => ("run", argv),
    };
    let Some(exp) = find(name) else {
        eprintln!("sdm: unknown subcommand '{name}' (see `sdm --help`)");
        return ExitCode::FAILURE;
    };
    if rest.iter().any(is_help) {
        print!("{}", help(exp));
        return ExitCode::SUCCESS;
    }
    match Args::parse(exp, rest) {
        Ok(args) => (exp.run)(&args),
        Err(msg) => {
            eprintln!("sdm {name}: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> &'static Experiment {
        find("fig").expect("fig is registered")
    }

    fn words(w: &[&str]) -> Vec<String> {
        w.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let args = Args::parse(fig(), &words(&["--volumes", "1,2", "--seed", "7"])).unwrap();
        assert_eq!(args.value("--volumes"), Some("1,2"));
        assert_eq!(args.num::<u64>("--seed"), 7);
        assert_eq!(args.value("--topology"), Some("campus"), "absent flag takes its default");
        let run = find("run").expect("run is registered");
        let args = Args::parse(run, &words(&["--fail-busiest-fw"])).unwrap();
        assert!(args.has("--fail-busiest-fw"));
        assert_eq!(args.value("--k"), None);
        assert_eq!(args.num::<u64>("--packets"), 1_000_000);
    }

    #[test]
    fn mistakes_are_named() {
        let err = |w: &[&str]| Args::parse(fig(), &words(w)).err().expect("must be rejected");
        assert_eq!(err(&["--volume", "1"]), "unknown flag --volume (did you mean --volumes?)");
        assert_eq!(err(&["--frob"]), "unknown flag --frob");
        assert_eq!(err(&["--seed"]), "--seed needs a value");
        assert_eq!(err(&["--seed", "--volumes", "1"]), "--seed needs a value");
        assert_eq!(err(&["stray"]), "unexpected argument 'stray'");
    }
}
