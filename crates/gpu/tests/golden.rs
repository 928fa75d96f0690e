//! Golden-trace equivalence tests for the GPU engine.
//!
//! Three seeded workloads were run on the *seed* (scan-everything) engine
//! before the event-calendar refactor, and their full [`Completion`] streams
//! were committed under `tests/golden/`. The tests here replay the same
//! workloads on the current engine and assert the completion streams match
//! **exactly** (nanosecond timestamps included), pinning the refactored
//! engine to the original behaviour.
//!
//! The engine's [`WorkCounters`] on the same three workloads are pinned in
//! `tests/golden/work_counters.txt`, so a change to how much work the engine
//! does per event shows up as an exact diff. Re-bless that file whenever a
//! performance change moves the counts (completion streams must not move).
//!
//! To regenerate (only legitimate after an *intentional* change):
//!
//! ```sh
//! DARIS_REGEN_GOLDEN=1 cargo test -p daris-gpu --test golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use daris_gpu::{
    Completion, Gpu, GpuSpec, KernelDesc, SimTime, WorkCounters, WorkItem, XorShiftRng,
};

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file)
}

fn serialize(completions: &[Completion]) -> String {
    let mut out = String::new();
    out.push_str("# tag item stream context submitted_ns started_ns finished_ns\n");
    for c in completions {
        writeln!(
            out,
            "{} {} {} {} {} {} {}",
            c.tag,
            c.item,
            c.stream,
            c.context,
            c.submitted_at.as_nanos(),
            c.started_at.as_nanos(),
            c.finished_at.as_nanos()
        )
        .expect("writing to a String cannot fail");
    }
    out
}

fn check_or_regen(name: &str, completions: &[Completion]) {
    check_or_regen_file(&format!("{name}.trace"), &serialize(completions));
}

/// Compares `actual` with the committed golden `file`, or rewrites the file
/// under `DARIS_REGEN_GOLDEN`.
fn check_or_regen_file(file: &str, actual: &str) {
    let path = golden_path(file);
    if std::env::var_os("DARIS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {path:?} ({e}); regenerate with \
             DARIS_REGEN_GOLDEN=1 cargo test -p daris-gpu --test golden"
        )
    });
    if expected != actual {
        let diverging = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a)
            .map(|(i, (e, a))| {
                format!("first divergence at line {i}:\n  golden: {e}\n  actual: {a}")
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: golden {} vs actual {}",
                    expected.lines().count(),
                    actual.lines().count()
                )
            });
        panic!("output diverged from golden file {file}: {diverging}");
    }
}

/// A golden workload's completion stream and the engine work it took.
type GoldenRun = (Vec<Completion>, WorkCounters);

/// A pseudo-random work item: 1–3 kernels, varying work/parallelism, and
/// (for some items) host/device copies.
fn random_item(rng: &mut XorShiftRng, tag: u64) -> WorkItem {
    let count = 1 + (rng.next_u64() % 3) as usize;
    let kernels: Vec<KernelDesc> = (0..count)
        .map(|_| {
            let work = rng.uniform(50.0, 4_000.0);
            let parallelism = 4 + (rng.next_u64() % 64) as u32;
            KernelDesc::new(work, parallelism)
        })
        .collect();
    let mut item = WorkItem::new(tag, kernels);
    if rng.next_u64() % 2 == 0 {
        item = item.with_h2d_bytes(1_000 + rng.next_u64() % 200_000);
    }
    if rng.next_u64() % 3 == 0 {
        item = item.with_d2h_bytes(500 + rng.next_u64() % 50_000);
    }
    item
}

/// Workload 1: a t=0 burst of 48 mixed items over 3 quota-limited contexts
/// with the default jitter + interference model, drained with run_to_idle.
fn burst_multi_context() -> GoldenRun {
    let mut rng = XorShiftRng::new(0xB0B5_0001);
    let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
    let mut streams = Vec::new();
    for _ in 0..3 {
        let ctx = gpu.add_context(34).unwrap();
        for _ in 0..2 {
            streams.push(gpu.add_stream(ctx).unwrap());
        }
    }
    for tag in 0..48u64 {
        let stream = streams[(rng.next_u64() % streams.len() as u64) as usize];
        gpu.submit(stream, random_item(&mut rng, tag)).unwrap();
    }
    let done = gpu.run_to_idle();
    assert_eq!(done.len(), 48);
    (done, gpu.work_counters())
}

#[test]
fn golden_burst_multi_context() {
    check_or_regen("burst_multi_context", &burst_multi_context().0);
}

/// Workload 2: staggered submissions — batches arrive at random times while
/// earlier work is still in flight, advancing in uneven steps.
fn staggered_arrivals() -> GoldenRun {
    let mut rng = XorShiftRng::new(0xB0B5_0002);
    let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
    let mut streams = Vec::new();
    for quota in [68u32, 24] {
        let ctx = gpu.add_context(quota).unwrap();
        for _ in 0..3 {
            streams.push(gpu.add_stream(ctx).unwrap());
        }
    }
    let mut all = Vec::new();
    let mut tag = 0u64;
    let mut t = SimTime::ZERO;
    for _ in 0..24 {
        t += daris_gpu::SimDuration::from_micros_f64(rng.uniform(3.0, 120.0));
        all.extend(gpu.advance_to(t));
        let batch = 1 + rng.next_u64() % 4;
        for _ in 0..batch {
            let stream = streams[(rng.next_u64() % streams.len() as u64) as usize];
            gpu.submit(stream, random_item(&mut rng, tag)).unwrap();
            tag += 1;
        }
    }
    all.extend(gpu.run_to_idle());
    assert_eq!(all.len(), tag as usize);
    (all, gpu.work_counters())
}

#[test]
fn golden_staggered_arrivals() {
    check_or_regen("staggered_arrivals", &staggered_arrivals().0);
}

/// Workload 3: heavy oversubscription — 4 full-width contexts fighting for
/// the device, drained through many small advance_to steps.
fn oversubscribed_small_steps() -> GoldenRun {
    let mut rng = XorShiftRng::new(0xB0B5_0003);
    let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
    let mut streams = Vec::new();
    for _ in 0..4 {
        let ctx = gpu.add_context(68).unwrap();
        streams.push(gpu.add_stream(ctx).unwrap());
        streams.push(gpu.add_stream(ctx).unwrap());
    }
    for tag in 0..40u64 {
        let stream = streams[(rng.next_u64() % streams.len() as u64) as usize];
        gpu.submit(stream, random_item(&mut rng, tag)).unwrap();
    }
    let mut all = Vec::new();
    let mut t = SimTime::ZERO;
    while gpu.pending_items() > 0 {
        t += daris_gpu::SimDuration::from_micros_f64(rng.uniform(0.5, 40.0));
        all.extend(gpu.advance_to(t));
    }
    assert_eq!(all.len(), 40);
    (all, gpu.work_counters())
}

#[test]
fn golden_oversubscribed_small_steps() {
    check_or_regen("oversubscribed_small_steps", &oversubscribed_small_steps().0);
}

/// The engine's work on the three golden workloads, pinned exactly: one
/// test (not three) because all rows share one file.
#[test]
fn golden_work_counters() {
    let mut out = String::new();
    out.push_str("# workload transitions replans scans\n");
    let rows = [
        ("burst_multi_context", burst_multi_context().1),
        ("staggered_arrivals", staggered_arrivals().1),
        ("oversubscribed_small_steps", oversubscribed_small_steps().1),
    ];
    for (name, c) in rows {
        writeln!(out, "{name} {} {} {}", c.transitions, c.replans, c.scans)
            .expect("writing to a String cannot fail");
    }
    check_or_regen_file("work_counters.txt", &out);
}

/// FNV-1a over the serialized completion stream: a stable digest for
/// comparing whole runs without committing another fixture.
fn trace_hash(completions: &[Completion]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in serialize(completions).bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The engine's per-item state (the `running` and per-context `computing`
/// sets) lives in ordered containers precisely so that two runs of the same
/// workload are byte-identical. Each fresh engine would get fresh
/// (per-process-random) hasher state if those sets ever regressed to
/// `HashSet` and iteration order leaked into the results — this repeated-run
/// hash test is the dynamic pin for determinism rule D001 (the
/// `disallowed-types` ban in `clippy.toml`).
#[test]
fn repeated_runs_hash_identically() {
    let run_once = || {
        // Oversubscribed multi-context burst: maximum pressure on the
        // water-filling rates and the copy-engine queue.
        let mut rng = XorShiftRng::new(0xD1CE_0006);
        let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
        let mut streams = Vec::new();
        for _ in 0..4 {
            let ctx = gpu.add_context(40).unwrap();
            streams.push(gpu.add_stream(ctx).unwrap());
            streams.push(gpu.add_stream(ctx).unwrap());
        }
        for tag in 0..64u64 {
            let stream = streams[(rng.next_u64() % streams.len() as u64) as usize];
            gpu.submit(stream, random_item(&mut rng, tag)).unwrap();
        }
        let done = gpu.run_to_idle();
        assert_eq!(done.len(), 64);
        trace_hash(&done)
    };
    let first = run_once();
    for rep in 1..5 {
        assert_eq!(run_once(), first, "run {rep} diverged from run 0");
    }
}
