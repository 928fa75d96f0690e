//! The DARIS simulator benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! One command runs a named [`Workload`] from a seed for a wall-clock
//! budget and prints, as its last stdout line, one JSON object with the
//! correctness checks and the metrics. Each repetition rebuilds the
//! workload from the seed (set-up) and runs it once (the run phase); the
//! reported figures are medians over the repetitions. Each timed repetition
//! sits between two runs of a fixed calibration loop, and its wall times are
//! rescaled to a reference host speed ([`calibrate`]).
//!
//! * `--trace 0` (the untraced run) reports the end-to-end metrics
//!   ([`END_TO_END`]). One extra wrapped repetition after the timed ones
//!   supplies the load context (`gpu.busy_streams_mean`) and checks that
//!   wrapping changes no outcome.
//! * `--trace 1` spends half the budget on untraced repetitions and half on
//!   traced ones, whose wrappers time every call into each layer, and
//!   reports the per-layer metrics plus the tracing overhead. Run it from
//!   the `perfbench_traced` binary so allocations are counted too.
//!
//! Every repetition checks job conservation against releases counted from
//! the workload itself, and every repetition's outcome digest must equal
//! the first one's, traced or not.

#![forbid(unsafe_code)]

pub mod alloc_count;
pub mod calibrate;
pub mod report;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;

use report::{median, ratio, result_json, Checks, Metric};
use trace::{
    now_ns, self_time_ns, thread_index, uncovered_ns, Layer, Op, Recorder, Recording, Span,
};
pub use workloads::{Rep, Workload};

/// The end-to-end metrics, `(name, unit)`, in output order. The paper's
/// deadline-miss rates are reported as their complements (the share of
/// accepted jobs that met their deadline), since an HP miss rate is often
/// exactly 0 and a relative bound on 0 cannot be checked.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sim_ms_per_wall_s", "ms/s"),
    ("jobs_per_wall_s", "jobs/s"),
    ("wall_ns_per_event", "ns"),
    ("peak_rss_mib", "MiB"),
    ("sim_jps", "jobs/sim-s"),
    ("hp_met_ratio", "ratio"),
    ("lp_met_ratio", "ratio"),
];

/// Repetitions every run makes at least, whatever the budget.
const MIN_REPS: usize = 3;
/// Wall time after which no further repetition starts, so a run ends well
/// inside the three-minute limit even on a slow machine.
const HARD_STOP_NS: u64 = 120_000_000_000;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Wall-clock budget of the measured repetitions.
    pub seconds: u64,
    /// Report per-layer metrics from traced repetitions.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans_dir: Option<PathBuf>,
}

/// Parses the command line (without the program name).
///
/// # Errors
///
/// Returns a message for a missing, unknown or malformed argument.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--spans-dir" => flag.as_str(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        values.insert(key, value);
    }
    let get = |key: &str| values.get(key).copied().ok_or_else(|| format!("missing {key}"));
    let name = get("--workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let number = |key: &str| -> Result<u64, String> {
        get(key)?.parse().map_err(|_| format!("{key} must be a whole number"))
    };
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must lie in 1..=600".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        spans_dir: values.get("--spans-dir").map(PathBuf::from),
    })
}

/// Entry point shared by both binaries. Returns the process exit code: 0
/// when every check passed, 1 when one failed, 2 on a usage or run error.
pub fn main_with(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    match run(&args) {
        Ok(checks) if checks.failures.is_empty() => 0,
        Ok(checks) => {
            for failure in &checks.failures {
                eprintln!("perfbench: check failed: {failure}");
            }
            1
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            2
        }
    }
}

/// Repeats `rep` until `budget_ns` has passed since `start` (at least
/// `min` times, and never starting one after [`HARD_STOP_NS`]).
fn repeat<T>(
    start: u64,
    budget_ns: u64,
    min: usize,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    loop {
        out.push(rep()?);
        let elapsed = now_ns() - start;
        if (out.len() >= min && elapsed >= budget_ns) || elapsed >= HARD_STOP_NS {
            return Ok(out);
        }
    }
}

/// Brackets every call of `rep` by the calibration loop and stores the mean
/// of the two loop times on either side in the repetition's `cal_ns`
/// (reached through `cal_ns`). Consecutive calls share the loop between them.
fn calibrated<T>(
    mut rep: impl FnMut() -> Result<T, String>,
    cal_ns: fn(&mut T) -> &mut u64,
) -> impl FnMut() -> Result<T, String> {
    let mut before = None;
    move || {
        let ns_before = *before.get_or_insert_with(calibrate::loop_ns);
        let mut out = rep()?;
        let ns_after = calibrate::loop_ns();
        *cal_ns(&mut out) = (ns_before + ns_after) / 2;
        before = Some(ns_after);
        Ok(out)
    }
}

/// One wrapped repetition: its outcome, its per-layer metrics and its spans.
fn traced_rep(
    workload: Workload,
    seed: u64,
    count_allocs: bool,
    main_thread: u32,
) -> Result<(Rep, Vec<Metric>, Vec<Span>), String> {
    let recorder = Recorder::new();
    alloc_count::set_enabled(count_allocs);
    let rep = workload.rep(seed, Some(&recorder));
    alloc_count::set_enabled(false);
    let rep = rep?;
    let recording = recorder.take();
    let layers = layer_metrics(&rep, &recording, main_thread);
    Ok((rep, layers, recording.spans))
}

/// Runs the measurement `args` describes, prints the report, and returns
/// its checks.
///
/// # Errors
///
/// Returns a message when the workload cannot be built or run.
pub fn run(args: &Args) -> Result<Checks, String> {
    let main_thread = thread_index();
    let w = args.workload;
    let budget_ns = args.seconds * 1_000_000_000;
    let start = now_ns();
    let plain_budget = if args.trace { budget_ns / 2 } else { budget_ns };
    let plain = repeat(
        start,
        plain_budget,
        MIN_REPS,
        calibrated(|| w.rep(args.seed, None), |r| &mut r.cal_ns),
    )?;
    // Read before any wrapped repetition holds spans in memory.
    let peak_rss = peak_rss_bytes();
    // Only the last traced repetition's spans are kept (for writing out).
    let mut last_spans = Vec::new();
    let mut traced_one = || {
        let (rep, layers, spans) = traced_rep(w, args.seed, args.trace, main_thread)?;
        last_spans = spans;
        Ok((rep, layers))
    };
    let (traced, layers): (Vec<Rep>, Vec<Vec<Metric>>) = if args.trace {
        let traced_reps = calibrated(&mut traced_one, |(r, _)| &mut r.cal_ns);
        repeat(start, budget_ns, MIN_REPS, traced_reps)?.into_iter().unzip()
    } else {
        std::iter::once(traced_one()?).unzip()
    };
    let elapsed_s = (now_ns() - start) as f64 / 1e9;

    let mut checks = Checks::default();
    let first = &plain[0];
    for (i, rep) in plain.iter().chain(&traced).enumerate() {
        checks.merge(rep.checks.clone());
        if i > 0 {
            checks.check(rep.hash == first.hash, || {
                format!("repetition {i} digest {:#x} != first {:#x}", rep.hash, first.hash)
            });
        }
    }

    let mut layer_medians = median_by_name(&layers);
    let busy_streams =
        layer_medians.iter().find(|m| m.name == "gpu.busy_streams_mean").map_or(0.0, |m| m.value);
    let offered_load = ratio_f(first.offered as f64, first.device_sim_s);

    let metrics = if args.trace {
        let run_ns = |reps: &[Rep]| {
            median(&reps.iter().map(|r| r.run_ns as f64 * scale(r)).collect::<Vec<_>>())
        };
        let overhead = ratio_f(run_ns(&traced), run_ns(&plain));
        layer_medians.push(Metric { name: "trace.overhead_ratio", unit: "ratio", value: overhead });
        if let Some(dir) = &args.spans_dir {
            let path = dir.join(format!("spans-{}.csv", w.name()));
            if let Err(e) = trace::write_spans(&path, &last_spans) {
                eprintln!("perfbench: could not write {}: {e}", path.display());
            }
        }
        layer_medians
    } else {
        end_to_end(&plain, peak_rss)
    };

    println!("workload {} seed {}: {}", w.name(), args.seed, w.input_size());
    println!(
        "  {} untraced + {} {} repetitions in {elapsed_s:.1} s; offered load {offered_load:.1} \
         releases per simulated second per device; gpu.busy_streams_mean {busy_streams:.3}",
        plain.len(),
        traced.len(),
        if args.trace { "traced" } else { "wrapped" },
    );
    let raw = |f: &dyn Fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    println!(
        "  calibration loop {:.3} ms (reference {:.3} ms); unscaled: setup {:.6} s, \
         {:.3} simulated ms per wall s",
        raw(&|r| r.cal_ns as f64) / 1e6,
        calibrate::REFERENCE_NS / 1e6,
        raw(&|r| r.setup_ns as f64) / 1e9,
        raw(&|r| ratio_f(r.sim_ms, r.run_ns as f64 / 1e9)),
    );
    for m in &metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let p = &first.pooled;
    println!(
        "  hp_dmr {:.6} ({} of {} accepted HP jobs missed), lp_dmr {:.6} ({} of {})",
        p.hp_dmr(),
        p.hp_missed,
        p.hp_accepted,
        p.lp_dmr(),
        p.lp_missed,
        p.lp_accepted
    );
    println!("  failed_checks {} of {}", checks.failures.len(), checks.attempted);
    println!("{}", result_json(&checks, &metrics));
    Ok(checks)
}

fn ratio_f(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `rep`'s factor from its own wall clock to the reference host's.
fn scale(rep: &Rep) -> f64 {
    calibrate::scale(rep.cal_ns)
}

/// The end-to-end metrics: timings are medians over the untraced
/// repetitions, each rescaled by its own calibration; outcomes come from the
/// first (all digests are equal). `peak_rss` is the process peak read right
/// after those repetitions.
pub fn end_to_end(reps: &[Rep], peak_rss: u64) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let run_ns = |r: &Rep| r.run_ns as f64 * scale(r);
    let first = reps.first().cloned().unwrap_or_default();
    let values = [
        med(&|r| r.setup_ns as f64 * scale(r) / 1e9),
        med(&|r| ratio_f(r.sim_ms, run_ns(r) / 1e9)),
        med(&|r| ratio_f(r.completed as f64, run_ns(r) / 1e9)),
        med(&|r| ratio_f(run_ns(r), r.events as f64)),
        peak_rss as f64 / f64::from(1u32 << 20),
        ratio_f(first.completed_inferences as f64, first.sim_ms / 1e3),
        1.0 - first.pooled.hp_dmr(),
        1.0 - first.pooled.lp_dmr(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// Median of each metric across repetitions, keeping the first
/// repetition's order.
fn median_by_name(reps: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = reps.first() else { return Vec::new() };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            value: median(&reps.iter().map(|r| r[i].value).collect::<Vec<_>>()),
            ..m.clone()
        })
        .collect()
}

/// Calls, busy time, allocations and successes of one `(layer, op)`.
#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    calls: u64,
    ns: u64,
    allocs: u64,
    ok: u64,
}

/// The per-layer metrics of one traced repetition.
pub fn layer_metrics(rep: &Rep, rec: &Recording, main_thread: u32) -> Vec<Metric> {
    let mut aggs: BTreeMap<(Layer, Op), Agg> = BTreeMap::new();
    let mut pool_busy_ns = 0u64;
    for s in &rec.spans {
        let agg = aggs.entry((s.layer, s.op)).or_default();
        agg.calls += 1;
        agg.ns += s.duration_ns();
        agg.allocs += s.allocs;
        agg.ok += u64::from(s.ok);
        let device_call = matches!(s.layer, Layer::Core | Layer::Baselines) && s.op != Op::Run;
        if device_call && s.thread != main_thread {
            pool_busy_ns += s.duration_ns();
        }
    }
    let get = |layer, op| aggs.get(&(layer, op)).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let both = |op| {
        let (c, b) = (get(Layer::Core, op), get(Layer::Baselines, op));
        Agg {
            calls: c.calls + b.calls,
            ns: c.ns + b.ns,
            allocs: c.allocs + b.allocs,
            ok: c.ok + b.ok,
        }
    };

    let builds: Vec<(u64, u64)> = rec
        .spans
        .iter()
        .filter(|s| (s.layer, s.op) == (Layer::Setup, Op::Build))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let place_ns: u64 = rec
        .spans
        .iter()
        .filter(|s| (s.layer, s.op) == (Layer::Setup, Op::Construct))
        .map(|s| uncovered_ns((s.start_ns, s.end_ns), builds.iter().copied()))
        .sum();

    let (advance, dispatch, release) = (
        get(Layer::Core, Op::Advance),
        get(Layer::Core, Op::Dispatch),
        get(Layer::Core, Op::Release),
    );
    let (probe, withdraw) = (get(Layer::Core, Op::Probe), get(Layer::Core, Op::Withdraw));
    let all_advance = both(Op::Advance);
    let released = rep.offered;
    let f = &rep.fleet;
    let values: [(&'static str, &'static str, f64); 39] = [
        ("core.advance.calls", "count", advance.calls as f64),
        ("core.advance.busy_ms", "ms", ms(advance.ns)),
        ("core.advance.allocs_per_event", "allocs/event", ratio(advance.allocs, rep.events)),
        ("gpu.events", "count", rep.events as f64),
        ("gpu.events_per_advance", "events/call", ratio(rep.events, all_advance.calls)),
        ("gpu.ns_per_event", "ns", ratio(all_advance.ns, rep.events)),
        ("gpu.busy_streams_mean", "streams", ratio(rec.busy_stream_sum, rec.busy_stream_samples)),
        ("core.dispatch.calls", "count", dispatch.calls as f64),
        ("core.dispatch.busy_ms", "ms", ms(dispatch.ns)),
        ("core.dispatch.allocs", "count", dispatch.allocs as f64),
        ("core.release.calls", "count", release.calls as f64),
        ("core.release.busy_ms", "ms", ms(release.ns)),
        ("core.release.admit_ratio", "ratio", ratio(release.ok, release.calls)),
        ("core.probe.calls", "count", probe.calls as f64),
        ("core.probe.busy_ms", "ms", ms(probe.ns)),
        ("core.withdraw.calls", "count", withdraw.calls as f64),
        ("core.withdraw.ok_ratio", "ratio", ratio(withdraw.ok, withdraw.calls)),
        ("cluster.rounds", "count", f.rounds as f64),
        ("cluster.span_ms", "ms", ms(f.span_ns)),
        ("cluster.retry_ms", "ms", ms(f.retry_ns)),
        ("cluster.migration_ms", "ms", ms(f.migration_ns)),
        ("cluster.merge_ms", "ms", ms(f.merge_ns)),
        ("cluster.self_ms", "ms", ms(self_time_ns(&rec.spans, (Layer::Cluster, Op::Run)))),
        ("cluster.pool_efficiency", "ratio", ratio(pool_busy_ns, f.span_ns * f.workers as u64)),
        ("cluster.cluster_admissions", "count", f.cluster_admissions as f64),
        ("cluster.migrations", "count", f.migrations as f64),
        ("telemetry.events", "count", rec.sink_events as f64),
        ("telemetry.merge_ms", "ms", ms(get(Layer::Telemetry, Op::Record).ns)),
        ("telemetry.events_per_job", "events/job", ratio(rec.sink_events, released)),
        ("metrics.finish_ms", "ms", ms(both(Op::Finish).ns)),
        ("metrics.bytes_per_job", "bytes/job", ratio_f(rep.retained_bytes as f64, released as f64)),
        ("workload.next_job_busy_ms", "ms", ms(get(Layer::Workload, Op::NextJob).ns)),
        ("workload.generate_ms", "ms", ms(get(Layer::Workload, Op::Generate).ns)),
        ("baselines.advance.busy_ms", "ms", ms(get(Layer::Baselines, Op::Advance).ns)),
        ("baselines.dispatch.busy_ms", "ms", ms(get(Layer::Baselines, Op::Dispatch).ns)),
        ("baselines.release.busy_ms", "ms", ms(get(Layer::Baselines, Op::Release).ns)),
        ("setup.place_ms", "ms", ms(place_ns)),
        ("setup.build_ms", "ms", ms(get(Layer::Setup, Op::Build).ns)),
        (
            "load.releases_per_sim_s_per_device",
            "releases/s/dev",
            ratio_f(released as f64, rep.device_sim_s),
        ),
    ];
    values.into_iter().map(|(name, unit, value)| Metric { name, unit, value }).collect()
}

/// Process peak resident set size in bytes (`VmHWM`; 0 where unavailable).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::json::{parse, Value};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "fleet_bursty",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Workload::FleetBursty);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10, true));
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "single_mixed", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "single_mixed",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    /// The metric names and units the code emits are exactly the ones
    /// `BENCHMARK.json` defines.
    #[test]
    fn metrics_match_the_benchmark_definition() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let def = parse(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Arr(items)) = def.get(key) else { panic!("{key} is a list") };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("{key} entries have a name and a unit"),
                })
                .collect()
        };
        let emitted = |metrics: Vec<Metric>| -> Vec<(String, String)> {
            metrics.into_iter().map(|m| (m.name.to_owned(), m.unit.to_owned())).collect()
        };
        assert_eq!(listed("end_to_end"), emitted(end_to_end(&[Rep::default()], 0)));
        let mut per_layer = emitted(layer_metrics(&Rep::default(), &Recording::default(), 0));
        per_layer.push(("trace.overhead_ratio".into(), "ratio".into()));
        assert_eq!(listed("per_layer"), per_layer);
        let Some(Value::Arr(workloads)) = def.get("workloads") else { panic!("workloads") };
        let names: Vec<&Value> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let expected: Vec<Value> =
            Workload::ALL.iter().map(|w| Value::Str(w.name().to_owned())).collect();
        assert_eq!(names, expected.iter().collect::<Vec<_>>());
    }

    #[test]
    fn timings_are_rescaled_by_their_own_calibration() {
        // The calibration loop took twice the reference time: the host ran
        // at half speed, so every time halves.
        let rep = Rep {
            setup_ns: 2_000_000,
            run_ns: 1_000_000_000,
            sim_ms: 500.0,
            events: 1_000,
            cal_ns: 10_000_000,
            ..Rep::default()
        };
        let metrics = end_to_end(&[rep], 0);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("setup_s"), 0.001);
        assert_eq!(value("sim_ms_per_wall_s"), 1_000.0);
        assert_eq!(value("wall_ns_per_event"), 500_000.0);
    }

    #[test]
    fn per_layer_metrics_follow_the_spans() {
        use trace::Span;
        let span = |layer, op, thread, start_ns, end_ns, ok| Span {
            layer,
            op,
            thread,
            start_ns,
            end_ns,
            allocs: 2,
            ok,
        };
        let rec = Recording {
            spans: vec![
                span(Layer::Setup, Op::Construct, 0, 0, 1_000_000, true),
                span(Layer::Setup, Op::Build, 1, 200_000, 900_000, true),
                span(Layer::Cluster, Op::Run, 0, 1_000_000, 5_000_000, true),
                span(Layer::Core, Op::Release, 0, 1_100_000, 1_600_000, true),
                span(Layer::Core, Op::Release, 0, 1_600_000, 2_100_000, false),
                span(Layer::Core, Op::Advance, 1, 2_000_000, 4_000_000, true),
            ],
            busy_stream_sum: 10,
            busy_stream_samples: 4,
            sink_events: 0,
        };
        let mut rep = Rep { events: 100, offered: 50, device_sim_s: 2.0, ..Rep::default() };
        rep.fleet.span_ns = 2_000_000;
        rep.fleet.workers = 2;
        let metrics = layer_metrics(&rep, &rec, 0);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("setup.place_ms"), 0.3);
        assert_eq!(value("setup.build_ms"), 0.7);
        // The run's self time excludes only its own thread's calls.
        assert_eq!(value("cluster.self_ms"), 3.0);
        assert_eq!(value("core.release.admit_ratio"), 0.5);
        assert_eq!(value("gpu.ns_per_event"), 20_000.0);
        assert_eq!(value("core.advance.allocs_per_event"), 0.02);
        assert_eq!(value("gpu.busy_streams_mean"), 2.5);
        assert_eq!(value("cluster.pool_efficiency"), 0.5);
        assert_eq!(value("load.releases_per_sim_s_per_device"), 25.0);
    }
}
