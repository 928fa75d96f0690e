//! The runner binaries answer `--help` with their usage and exit 0, and
//! reject an unknown flag or a malformed value with their usage on stderr
//! and exit code 2, never with a panic. `trace_replay` treats a trace file
//! it cannot read, decode, replay or write the same way.

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

#[test]
fn trace_replay_rejects_bad_trace_files_without_a_panic() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_replay_cli");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write trace file");
        path.to_str().expect("utf-8 path").to_owned()
    };
    let v1 = write("v1.trace", "daris-trace v1\nhorizon_ns 80000000\nevents 0\n");
    let unknown_task =
        write("unknown.trace", "daris-trace v2\nhorizon_ns 80000000\nevents 1\n9999 0 0 1\n");
    let missing = dir.join("missing.trace").to_str().expect("utf-8 path").to_owned();
    let unwritable = dir.join("no_such_dir/out.trace").to_str().expect("utf-8 path").to_owned();
    let (_, exe) = RUNNERS[2];
    for args in [
        ["--replay", missing.as_str()],
        ["--replay", v1.as_str()],
        ["--replay", unknown_task.as_str()],
        ["--record", unwritable.as_str()],
    ] {
        let out = Command::new(exe)
            .args(["--devices", "2"])
            .args(args)
            .env("DARIS_HORIZON_MS", "80")
            .output()
            .expect("runner binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.contains("error: cannot"), "{args:?}: {stderr}");
    }
}
