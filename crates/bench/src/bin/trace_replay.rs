//! Trace-driven workload experiments: record/replay verification plus the
//! bursty-vs-periodic overload comparison.
//!
//! The verification half is the repository's acceptance check for the trace
//! path: on a fleet of heterogeneous devices, a **live generator run** and
//! the **replay of the generator's recorded trace** must be byte-identical —
//! same fleet summary, same per-device summaries — at 1 and 4 worker
//! threads (plus any `--threads` override). The comparison half runs the
//! same fleet under the periodic plan and under each generator shape and
//! tabulates throughput, deadline-miss rates and admission behaviour — the
//! overload story trace-driven workloads exist to tell.
//!
//! Usage:
//!
//! ```sh
//! trace_replay [--devices N] [--threads N] [--gen bursty|diurnal|correlated]
//!              [--seed S] [--record PATH] [--replay PATH]
//! ```
//!
//! * `--devices` — fleet size of the heterogeneous a100/h100/orin mix
//!   (default 8).
//! * `--threads` — extra thread count to verify replay at (`0` = one per
//!   core; default 4).
//! * `--gen`     — generator shape to verify (default `bursty`).
//! * `--seed`    — generator seed (default 1).
//! * `--record`  — also write the verified trace to PATH in the versioned
//!   plain-text codec.
//! * `--replay`  — skip generation and replay an existing trace file
//!   instead (the comparison table is still generated live).
//!
//! Control the simulated horizon with `DARIS_HORIZON_MS` (default 1500 ms).
//! Exits non-zero if any replay diverges from the live run.

use std::process::ExitCode;

use daris_bench::cli::Args;
use daris_cluster::{ClusterConfig, ClusterDispatcher, ClusterOutcome, ClusterSpec};
use daris_core::RunSpec;
use daris_metrics::report::{fmt_num, fmt_pct, Table};
use daris_workload::{BurstyConfig, CorrelatedConfig, DiurnalConfig, GenSpec, TaskSet, Trace};

const USAGE: &str = "\
usage: trace_replay [--devices N] [--threads N] [--gen bursty|diurnal|correlated]
                    [--seed S] [--record PATH] [--replay PATH]
  --devices N    fleet size of the heterogeneous a100/h100/orin mix (default 8)
  --threads N    extra thread count to verify replay at (0 = one per core; default 4)
  --gen SHAPE    generator shape to verify (default bursty)
  --seed S       generator seed (default 1)
  --record PATH  also write the verified trace to PATH
  --replay PATH  replay an existing trace file instead of generating one
The horizon comes from DARIS_HORIZON_MS (default 1500 ms).
";

fn spec_for(label: &str, seed: u64) -> Option<GenSpec> {
    match label {
        "bursty" => Some(GenSpec::Bursty(BurstyConfig { seed, ..Default::default() })),
        "diurnal" => Some(GenSpec::Diurnal(DiurnalConfig { seed, ..Default::default() })),
        "correlated" => Some(GenSpec::Correlated(CorrelatedConfig { seed, ..Default::default() })),
        _ => None,
    }
}

fn outcome_hash(outcome: &ClusterOutcome) -> u64 {
    outcome.summary_hash()
}

fn dispatcher(taskset: &TaskSet, fleet: &ClusterSpec, threads: usize) -> ClusterDispatcher {
    let config = ClusterConfig { threads, ..Default::default() };
    ClusterDispatcher::new(taskset, fleet.clone(), config)
        .expect("valid trace experiment configuration")
}

fn comparison_row(label: &str, taskset: &TaskSet, outcome: &ClusterOutcome) -> Vec<String> {
    let s = &outcome.summary;
    vec![
        label.to_owned(),
        fmt_num(s.throughput_jps, 0),
        fmt_pct(s.high.deadline_miss_rate),
        fmt_pct(s.low.deadline_miss_rate),
        (s.high.rejected + s.low.rejected).to_string(),
        s.cluster_admissions.to_string(),
        s.migrations.to_string(),
        format!("{:.0}%", 100.0 * s.throughput_jps / taskset.offered_jps().max(1e-9)),
    ]
}

fn main() -> ExitCode {
    let mut devices = 8usize;
    let mut threads = 4usize;
    let mut gen_label = "bursty".to_owned();
    let mut seed = 1u64;
    let mut record: Option<String> = None;
    let mut replay: Option<String> = None;
    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--devices" => devices = args.value("--devices"),
            "--threads" => threads = args.threads(),
            "--gen" => gen_label = args.value("--gen"),
            "--seed" => seed = args.value("--seed"),
            "--record" => record = Some(args.value("--record")),
            "--replay" => replay = Some(args.value("--replay")),
            other => args.fail(format!("unknown argument {other:?}")),
        }
    }

    let Some(spec) = spec_for(&gen_label, seed) else {
        args.fail(format!("--gen must be bursty, diurnal or correlated, got {gen_label:?}"))
    };
    let horizon = daris_bench::horizon();
    let taskset = daris_bench::cluster_taskset_scaled(devices);
    let fleet = ClusterSpec::heterogeneous_mix(devices);
    eprintln!(
        "trace_replay: {devices}-device heterogeneous fleet, {} tasks, horizon {horizon}, \
         generator {gen_label} (seed {seed})",
        taskset.len()
    );

    // ---- record/replay verification -------------------------------------
    let trace = match &replay {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| args.fail(format!("cannot read trace {path}: {e}")));
            Trace::decode(&text)
                .unwrap_or_else(|e| args.fail(format!("cannot decode trace {path}: {e}")))
        }
        None => spec.generate(&taskset, horizon),
    };
    eprintln!(
        "trace_replay: trace carries {} releases ({:.0} offered JPS)",
        trace.len(),
        trace.offered_jps()
    );
    if let Some(path) = &record {
        std::fs::write(path, trace.encode())
            .unwrap_or_else(|e| args.fail(format!("cannot write trace {path}: {e}")));
        eprintln!("trace_replay: wrote {path}");
    }

    let mut diverged = false;
    let live = if replay.is_none() {
        let live = dispatcher(&taskset, &fleet, 1)
            .run(&RunSpec::generated(spec).until(horizon))
            .expect("spec runs");
        eprintln!(
            "  live generator run:    {:>7.0} JPS, {} completed jobs",
            live.summary.throughput_jps, live.summary.total.completed
        );
        Some(live)
    } else {
        None
    };
    let reference = live.as_ref().map(outcome_hash);
    let mut verify_threads = vec![1usize, 4];
    if !verify_threads.contains(&threads) {
        verify_threads.push(threads);
    }
    let mut replay_reference = None;
    let replay_spec = RunSpec::replay(trace);
    for t in verify_threads {
        let outcome = dispatcher(&taskset, &fleet, t)
            .run(&replay_spec)
            .unwrap_or_else(|e| args.fail(format!("cannot replay the trace: {e}")));
        let hash = outcome_hash(&outcome);
        eprintln!(
            "  trace replay @{t} thread{}: {:>7.0} JPS, {} completed jobs",
            if t == 1 { "" } else { "s" },
            outcome.summary.throughput_jps,
            outcome.summary.total.completed
        );
        let expected = *reference.as_ref().or(replay_reference.as_ref()).unwrap_or(&hash);
        if hash != expected {
            eprintln!(
                "trace_replay: DETERMINISM VIOLATION: replay at {t} threads diverged from the \
                 {} run",
                if reference.is_some() { "live generator" } else { "1-thread replay" }
            );
            diverged = true;
        }
        replay_reference.get_or_insert(hash);
    }
    if !diverged {
        eprintln!(
            "trace_replay: OK — live generator run and recorded-trace replays are byte-identical"
        );
    }

    // ---- bursty-vs-periodic overload comparison --------------------------
    let mut table = Table::new(format!(
        "Trace-driven workloads — {devices}-device heterogeneous fleet, {} tasks, \
         {:.0} JPS offered periodically",
        taskset.len(),
        taskset.offered_jps()
    ));
    table.set_headers([
        "workload",
        "JPS",
        "HP DMR",
        "LP DMR",
        "rejected",
        "cluster adm",
        "migrations",
        "served",
    ]);
    let periodic = dispatcher(&taskset, &fleet, 1)
        .run(&RunSpec::periodic().until(horizon))
        .expect("spec runs");
    table.add_row(comparison_row("periodic (Table II)", &taskset, &periodic));
    for shape in ["bursty", "diurnal", "correlated"] {
        // The verified shape's live run is already in hand — don't re-run
        // the most expensive simulation just to fill its table row.
        let outcome = match &live {
            Some(live) if shape == gen_label => live.clone(),
            _ => {
                let spec = spec_for(shape, seed).expect("every listed shape is known");
                dispatcher(&taskset, &fleet, 1)
                    .run(&RunSpec::generated(spec).until(horizon))
                    .expect("spec runs")
            }
        };
        table.add_row(comparison_row(shape, &taskset, &outcome));
    }
    println!("{table}");
    println!(
        "HP protection under every arrival shape relies on the admission test shedding LP \
         bursts; compare the rejected/DMR columns against the periodic row."
    );

    // The DMR contrast the ROADMAP asked to surface: Table II tasksets under
    // DARIS keep HP DMR (near) zero even when arrivals turn bursty.
    if diverged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
