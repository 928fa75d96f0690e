//! The runner binaries answer `--help` with their usage and exit 0, and
//! reject an unknown flag or a malformed value with their usage on stderr
//! and exit code 2, never with a panic.

use std::process::{Command, Output};

const RUNNERS: [(&str, &str); 4] = [
    ("cluster_scaling", env!("CARGO_BIN_EXE_cluster_scaling")),
    ("scheduler_comparison", env!("CARGO_BIN_EXE_scheduler_comparison")),
    ("trace_replay", env!("CARGO_BIN_EXE_trace_replay")),
    ("trace_viz", env!("CARGO_BIN_EXE_trace_viz")),
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("runner binary starts")
}

#[test]
fn help_prints_the_usage_and_exits_zero() {
    for (name, exe) in RUNNERS {
        // A well-formed flag before `--help` is read, not rejected.
        for args in [&["--help"][..], &["--threads", "0", "--help"]] {
            let out = run(exe, args);
            assert_eq!(out.status.code(), Some(0), "{name} {args:?}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.starts_with(&format!("usage: {name}")), "{name} {args:?}: {stdout:?}");
        }
    }
}

#[test]
fn bad_arguments_print_the_usage_and_exit_two_without_a_panic() {
    for (name, exe) in RUNNERS {
        for args in [&["--bogus"][..], &["--threads"], &["--threads", "many"]] {
            let out = run(exe, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{name} {args:?} panicked: {stderr}");
            assert!(stderr.contains(&format!("usage: {name}")), "{name} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{name} {args:?} printed to stdout");
        }
    }
}
