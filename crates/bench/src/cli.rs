//! Command-line parsing shared by the runner binaries.
//!
//! `--help` (or `-h`) prints the binary's usage to stdout and exits 0. An
//! unknown flag, a flag missing its value, or a malformed value prints the
//! problem and the usage to stderr and exits 2, so a typo never ends in a
//! panic and a backtrace.

use std::fmt::Display;
use std::str::FromStr;

/// A runner binary's arguments, read flag by flag.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    args: std::env::Args,
}

impl Args {
    /// The process's arguments after the program name, with the usage text
    /// `--help` and every error print.
    pub fn from_env(usage: &'static str) -> Self {
        let mut args = std::env::args();
        args.next(); // the program name
        Args { usage, args }
    }

    /// The next flag, or `None` once every argument is read. `--help` and
    /// `-h` print the usage and exit 0.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.args.next()?;
        if flag == "--help" || flag == "-h" {
            print!("{}", self.usage);
            std::process::exit(0);
        }
        Some(flag)
    }

    /// The value following `flag`, parsed as a `T`; a missing or malformed
    /// value is a usage error.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        let Some(raw) = self.args.next() else { self.fail(format!("{flag} requires a value")) };
        raw.parse().unwrap_or_else(|_| self.fail(format!("{flag}: malformed value {raw:?}")))
    }

    /// The value of `--threads`: a count, with `0` meaning one worker per
    /// available core.
    pub fn threads(&mut self) -> usize {
        match self.value("--threads") {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads => threads,
        }
    }

    /// Prints `problem` and the usage to stderr and exits 2.
    pub fn fail(&self, problem: impl Display) -> ! {
        eprint!("error: {problem}\n\n{}", self.usage);
        std::process::exit(2);
    }
}
