//! Records a Chrome trace-event JSON of the 8-device heterogeneous bursty
//! scenario (the determinism suite's reference workload) for timeline
//! inspection in Perfetto / `chrome://tracing`.
//!
//! Every timestamp in the trace is **simulated** time, so the artifact is
//! byte-identical across machines, runs and dispatcher thread counts — the
//! golden-fixture and digest tests pin exactly that.
//!
//! Usage:
//!
//! ```sh
//! trace_viz [--out PATH] [--threads N]
//! ```
//!
//! * `--out`     — output path (default: `daris_hetero8.trace.json`,
//!   git-ignored; `-` writes to stdout).
//! * `--threads` — dispatcher worker threads; `0` uses the machine's
//!   available parallelism. The trace bytes do not depend on this.
//!
//! The simulated horizon comes from `DARIS_HORIZON_MS` (default 250 ms).

use daris_bench::cli::Args;
use daris_cluster::{ClusterConfig, ClusterDispatcher, ClusterSpec, PlacementStrategy};
use daris_core::RunSpec;
use daris_gpu::SimTime;
use daris_models::DnnKind;
use daris_telemetry::{ChromeTraceSink, SinkHandle, CHROME_SCHEMA_VERSION};
use daris_workload::{BurstyConfig, GenSpec, TaskSet};

const USAGE: &str = "\
usage: trace_viz [--out PATH] [--threads N]
  --out PATH   output path (default daris_hetero8.trace.json; - writes to stdout)
  --threads N  dispatcher worker threads (0 = one per core; default 1)
The horizon comes from DARIS_HORIZON_MS (default 250 ms).
";

fn main() {
    let mut out = "daris_hetero8.trace.json".to_owned();
    let mut threads = 1usize;
    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--out" => out = args.value("--out"),
            "--threads" => threads = args.threads(),
            other => args.fail(format!("unknown argument {other:?}")),
        }
    }

    let taskset = TaskSet::table2_scaled(DnnKind::ResNet18, 3);
    let fleet = ClusterSpec::heterogeneous_mix(8);
    let horizon = SimTime::from_millis(daris_bench::horizon_capped_ms(250));
    let spec = GenSpec::Bursty(BurstyConfig { seed: 0xD16E57, ..Default::default() });

    let sink = ChromeTraceSink::new();
    // Balanced placement so the timeline actually shows eight busy devices
    // (first-fit would concentrate this workload on the first one).
    let config = ClusterConfig {
        strategy: PlacementStrategy::GreedyBalance,
        threads,
        sink: Some(SinkHandle::new(sink.clone())),
        ..Default::default()
    };
    eprintln!("trace_viz: recording 8-device heterogeneous bursty run to {horizon} ...");
    let outcome = ClusterDispatcher::new(&taskset, fleet, config)
        .expect("valid 8-device configuration")
        .run(&RunSpec::generated(spec).until(horizon))
        .expect("spec runs");

    let json = sink.to_json();
    eprintln!(
        "trace_viz: {} events ({} bytes, schema {CHROME_SCHEMA_VERSION}); {} jobs completed, \
         {} migrations, {} cluster admissions",
        sink.len(),
        json.len(),
        outcome.summary.total.completed,
        outcome.summary.migrations,
        outcome.summary.cluster_admissions,
    );
    if out == "-" {
        print!("{json}");
    } else {
        std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        eprintln!("trace_viz: wrote {out} — load it in Perfetto or chrome://tracing");
    }
}
