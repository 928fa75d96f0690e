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
//! `tests/golden/random_workloads.txt` pins 32 seeded device workloads with
//! one line each: the work counters and an FNV-1a digest of everything the
//! engine reports (completions, drained events, `completed_work()` read
//! mid-run and `average_utilization()`). They cover 1–10 contexts with
//! oversubscribed quotas, zero and non-zero launch overheads and copies,
//! and submits between `advance_into` and `advance_until_completion` steps.
//!
//! To regenerate (only legitimate after an *intentional* change):
//!
//! ```sh
//! DARIS_REGEN_GOLDEN=1 cargo test -p daris-gpu --test golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use daris_gpu::{
    Completion, Gpu, GpuSpec, KernelDesc, SimDuration, SimTime, WorkCounters, WorkItem, XorShiftRng,
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
        t += SimDuration::from_micros_f64(rng.uniform(3.0, 120.0));
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
        t += SimDuration::from_micros_f64(rng.uniform(0.5, 40.0));
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

/// 64-bit FNV-1a, written out so a digest never depends on the standard
/// library's hasher.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }
}

/// FNV-1a over the serialized completion stream: a stable digest for
/// comparing whole runs without committing another fixture.
fn trace_hash(completions: &[Completion]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(serialize(completions).as_bytes());
    h.0
}

/// The engine's per-kernel state (the `launching` and `computing` tables)
/// lives in sorted containers precisely so that two runs of the same
/// workload are byte-identical. Each fresh engine would get fresh
/// (per-process-random) hasher state if those tables ever regressed to a
/// `HashMap` and iteration order leaked into the results — this repeated-run
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

/// A work item for [`random_workload`]: 1–4 kernels, each with the device's
/// default, a zero or an explicit launch overhead, and no, tiny or large
/// copies. A tiny copy is zero-length on a device with no copy latency.
/// `coarse` draws work and widths from a few values, launch overheads from
/// the default and zero, and copies from none and tiny ones, and labels
/// every kernel: equal kernels started together in different contexts then
/// finish at the same instant.
fn random_device_item(rng: &mut XorShiftRng, tag: u64, sm_count: u32, coarse: bool) -> WorkItem {
    let count = 1 + rng.next_below(4);
    let kernels: Vec<KernelDesc> = (0..count)
        .map(|k| {
            let kernel = if coarse {
                let work = 68.0 * (1 + rng.next_below(3)) as f64;
                let parallelism = [4, 8][rng.next_below(2) as usize];
                KernelDesc::new(work, parallelism).with_label(format!("k{k}"))
            } else {
                let work = rng.uniform(1.0, 3_000.0);
                KernelDesc::new(work, 1 + rng.next_below(u64::from(sm_count) + 16) as u32)
            };
            match rng.next_below(3) {
                0 => kernel.with_launch_overhead(SimDuration::ZERO),
                1 if !coarse => kernel
                    .with_launch_overhead(SimDuration::from_micros_f64(rng.uniform(0.5, 12.0))),
                _ => kernel,
            }
        })
        .collect();
    let copies = if coarse { 2 } else { 3 };
    let mut copy_bytes = || match rng.next_below(copies) {
        0 => 0,
        1 => 1 + rng.next_below(8),
        _ => 1_000 + rng.next_below(200_000),
    };
    let (h2d, d2h) = (copy_bytes(), copy_bytes());
    WorkItem::new(tag, kernels).with_h2d_bytes(h2d).with_d2h_bytes(d2h)
}

/// One seeded device workload, recorded, as its `random_workloads.txt`
/// line: the seed, the work counters and a digest of the completions, the
/// drained events, `completed_work()` after every step and the final
/// `average_utilization()`.
fn random_workload(seed: u64) -> String {
    let mut rng = XorShiftRng::new(0x5EED_6000 + seed);
    let presets = [GpuSpec::rtx_2080_ti, GpuSpec::a100, GpuSpec::h100, GpuSpec::orin];
    let mut spec = presets[rng.next_below(4) as usize]().with_seed(seed);
    // Every fourth workload runs coarse kernels on an ideal device, where
    // equal kernels finish at equal instants.
    let coarse = seed % 4 == 0;
    if coarse {
        spec = spec.without_interference();
    }
    if coarse || rng.next_below(3) == 0 {
        spec.copy_latency = SimDuration::ZERO;
    }
    let sm_count = spec.sm_count;
    let mut gpu = Gpu::new(spec);
    gpu.record_events();
    let mut streams = Vec::new();
    for _ in 0..1 + rng.next_below(10) {
        // Quotas range over the whole device, so several busy contexts
        // usually oversubscribe it. Coarse quotas are half or all of it.
        let quota = match coarse {
            true => sm_count / (1 + rng.next_below(2) as u32),
            false => 1 + rng.next_below(u64::from(sm_count)) as u32,
        };
        let context = gpu.add_context(quota).unwrap();
        for _ in 0..1 + rng.next_below(3) {
            streams.push(gpu.add_stream(context).unwrap());
        }
    }
    let mut digest = Fnv1a::new();
    let mut done = Vec::new();
    let mut tag = 0;
    fn digest_step(gpu: &mut Gpu, digest: &mut Fnv1a) {
        digest.u64(gpu.now().as_nanos());
        digest.u64(gpu.completed_work().to_bits());
        for (at, event) in gpu.drain_events() {
            digest.u64(at.as_nanos());
            digest.write(format!("{event:?}").as_bytes());
        }
    }
    for _ in 0..48 {
        for _ in 0..rng.next_below(if coarse { 6 } else { 4 }) {
            let stream = streams[rng.next_below(streams.len() as u64) as usize];
            gpu.submit(stream, random_device_item(&mut rng, tag, sm_count, coarse)).unwrap();
            tag += 1;
        }
        let bound = gpu.now() + SimDuration::from_micros_f64(rng.uniform(0.0, 60.0));
        match rng.next_below(3) {
            0 => gpu.advance_into(bound, &mut done),
            1 => _ = gpu.advance_until_completion(bound, &mut done),
            _ => _ = gpu.advance_until_completion(SimTime::MAX, &mut done),
        }
        digest_step(&mut gpu, &mut digest);
    }
    while gpu.advance_until_completion(SimTime::MAX, &mut done) {}
    digest_step(&mut gpu, &mut digest);
    assert_eq!(done.len(), tag as usize, "seed {seed}: every item completes");
    for c in &done {
        digest.u64(c.tag);
        digest.write(format!("{} {} {}", c.item, c.stream, c.context).as_bytes());
        for at in [c.submitted_at, c.started_at, c.finished_at] {
            digest.u64(at.as_nanos());
        }
    }
    digest.u64(gpu.average_utilization().to_bits());
    let c = gpu.work_counters();
    format!("{seed} {} {} {} {:016x}\n", c.transitions, c.replans, c.scans, digest.0)
}

/// The 32 random workloads, pinned exactly: a change to the engine's
/// bookkeeping must leave every line, and so every float operation's order,
/// as it was.
#[test]
fn golden_random_workloads() {
    let mut out = String::from("# seed transitions replans scans digest\n");
    for seed in 0..32 {
        out.push_str(&random_workload(seed));
    }
    check_or_regen_file("random_workloads.txt", &out);
}
