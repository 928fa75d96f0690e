//! Property-based tests of the GPU simulator's core invariants.

use std::collections::BTreeMap;

use daris_gpu::{
    ceil_even, sm_quota, Completion, DeviceEvent, Gpu, GpuSpec, KernelDesc, SimDuration, SimTime,
    Slab, StreamId, WorkItem, XorShiftRng,
};
use proptest::prelude::*;

fn quiet() -> GpuSpec {
    GpuSpec::rtx_2080_ti().without_interference()
}

/// A device with jitter and interference on, and two streams in each of
/// two contexts.
fn two_by_two() -> (Gpu, Vec<StreamId>) {
    let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
    let mut streams = Vec::new();
    for quota in [34u32, 68] {
        let ctx = gpu.add_context(quota).unwrap();
        streams.push(gpu.add_stream(ctx).unwrap());
        streams.push(gpu.add_stream(ctx).unwrap());
    }
    (gpu, streams)
}

/// `n_items` submissions `(time, stream index, item)` in time order. Gaps
/// range from a fraction of a kernel to more than a whole item, so items
/// land on busy and idle streams alike; copies go both ways and some
/// kernels launch with no overhead.
fn mid_run_submissions(seed: u64, n_items: usize) -> Vec<(SimTime, usize, WorkItem)> {
    let mut rng = XorShiftRng::new(seed);
    let mut t = SimTime::ZERO;
    (0..n_items as u64)
        .map(|tag| {
            t += SimDuration::from_micros_f64(rng.uniform(0.0, 60.0));
            let mut kernel =
                KernelDesc::new(rng.uniform(40.0, 3_000.0), 8 + (rng.next_u64() % 60) as u32);
            if rng.next_u64() % 4 == 0 {
                kernel = kernel.with_launch_overhead(SimDuration::ZERO);
            }
            let mut item = WorkItem::new(tag, vec![kernel]);
            if rng.next_u64() % 2 == 0 {
                item = item.with_h2d_bytes(1 + rng.next_u64() % 100_000);
            }
            if rng.next_u64() % 3 == 0 {
                item = item.with_d2h_bytes(1 + rng.next_u64() % 50_000);
            }
            (t, (rng.next_u64() % 4) as usize, item)
        })
        .collect()
}

/// Advances to `target`, which must lie before the next event instant, and
/// asserts that no transition fired on the way.
fn advance_firing_nothing(gpu: &mut Gpu, target: SimTime) {
    let fired = gpu.events_processed();
    let next = gpu.next_event_time();
    gpu.advance_to(target);
    assert_eq!(gpu.events_processed(), fired, "a transition fired before {next:?} (at {target})");
}

/// Advances to the next event instant `next` after checking that nothing
/// fires 1 ns before it.
fn step_to(gpu: &mut Gpu, next: SimTime, done: &mut Vec<Completion>) {
    if next > gpu.now() {
        advance_firing_nothing(gpu, SimTime::from_nanos(next.as_nanos() - 1));
    }
    done.extend(gpu.advance_to(next));
}

/// The recorded `Replan`s as `(time, busy contexts, utilization bits)`,
/// drained from a recording device.
fn recorded_replans(gpu: &mut Gpu) -> Vec<(SimTime, u32, u64)> {
    gpu.drain_events()
        .filter_map(|(at, event)| match event {
            DeviceEvent::Replan { computing, utilization } => {
                Some((at, computing, utilization.to_bits()))
            }
            _ => None,
        })
        .collect()
}

/// A device with jitter and interference on, and two streams in each of
/// three contexts whose quotas together oversubscribe it.
fn three_by_two() -> (Gpu, Vec<StreamId>) {
    let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
    let streams = [24u32, 34, 68]
        .into_iter()
        .flat_map(|quota| gpu.add_contexts(1, quota, 2).unwrap())
        .collect();
    (gpu, streams)
}

/// `n_items` submissions `(time, stream index, item)` in time order for
/// [`three_by_two`]: one to three kernels per item, some launching with no
/// overhead, and copies either way.
fn multi_kernel_submissions(seed: u64, n_items: usize) -> Vec<(SimTime, usize, WorkItem)> {
    let mut rng = XorShiftRng::new(seed);
    let mut t = SimTime::ZERO;
    (0..n_items as u64)
        .map(|tag| {
            t += SimDuration::from_micros_f64(rng.uniform(0.0, 80.0));
            let kernels: Vec<_> = (0..1 + rng.next_u64() % 3)
                .map(|_| {
                    let kernel = KernelDesc::new(
                        rng.uniform(40.0, 2_000.0),
                        8 + (rng.next_u64() % 60) as u32,
                    );
                    if rng.next_u64() % 4 == 0 {
                        kernel.with_launch_overhead(SimDuration::ZERO)
                    } else {
                        kernel
                    }
                })
                .collect();
            let mut item = WorkItem::new(tag, kernels);
            if rng.next_u64() % 2 == 0 {
                item = item.with_h2d_bytes(1 + rng.next_u64() % 100_000);
            }
            if rng.next_u64() % 2 == 0 {
                item = item.with_d2h_bytes(1 + rng.next_u64() % 50_000);
            }
            (t, (rng.next_u64() % 6) as usize, item)
        })
        .collect()
}

/// The compute-finish formula the engine used before
/// [`SimDuration::from_nanos_f64_ceil`]: round `work / rate` µs to the
/// nearest ns, add 1 ns if that is early, and finish at least 1 ns after
/// `anchor`. It is kept as the oracle, with its overflows made explicit:
/// it returns `None` for an infinite quotient (which it finished 1 ns after
/// `anchor`) and where either of its additions overflows (a debug build
/// panicked there, and a release build wrapped to 1 ns after `anchor`).
fn parent_finish(anchor: SimTime, work: f64, rate: f64) -> Option<SimTime> {
    let us = work / rate;
    if us * 1e3 == f64::INFINITY {
        return None;
    }
    let nearest = SimDuration::from_micros_f64(us);
    let up = u64::from((nearest.as_nanos() as f64) < us * 1e3);
    let span = nearest.as_nanos().checked_add(up)?.max(1);
    anchor.as_nanos().checked_add(span).map(SimTime::from_nanos)
}

/// The engine's compute finish: one ceiling step, saturating.
fn ceiling_finish(anchor: SimTime, work: f64, rate: f64) -> SimTime {
    let span = SimDuration::from_nanos_f64_ceil(work / rate * 1e3);
    anchor.saturating_add(span.max(SimDuration::from_nanos(1)))
}

/// The ceiling finish equals the oracle bit for bit, and lands at
/// `SimTime::MAX` exactly where the oracle overflows.
fn assert_finish_matches_parent(anchor: SimTime, work: f64, rate: f64) {
    let expected = parent_finish(anchor, work, rate).unwrap_or(SimTime::MAX);
    assert_eq!(
        ceiling_finish(anchor, work, rate),
        expected,
        "anchor {anchor:?}, work {work:e}, rate {rate:e}, ns {:e}",
        work / rate * 1e3
    );
}

/// A `work` (at rate 1) whose finish is exactly `ns` ns: `ns / 1e3` or an
/// adjacent float, whichever multiplies back to `ns`.
fn work_for_nanos(ns: f64) -> f64 {
    let us = ns / 1e3;
    let bits = us.to_bits();
    [bits, bits.wrapping_sub(1), bits + 1]
        .into_iter()
        .map(f64::from_bits)
        .find(|&us| us * 1e3 == ns)
        .unwrap_or_else(|| panic!("no µs value gives exactly {ns} ns"))
}

#[test]
fn ceiling_finish_matches_the_parent_formula_on_edge_values() {
    let two = |e: i32| 2f64.powi(e);
    let exact_nanos = [
        0.0,
        1.0,
        10_000.0,
        123_456_789.0,
        0.5,
        2.5,
        1_234.5,
        1e6 + 0.5,
        two(51) + 0.5,
        two(53),
        two(53) + 2.0,
        two(60) + two(10),
        two(63) + two(11),
        two(64),
    ];
    let mut cases: Vec<(f64, f64)> =
        exact_nanos.iter().map(|&ns| (work_for_nanos(ns), 1.0)).collect();
    cases.extend([
        // Exact integers and halves from a real division.
        (680.0, 68.0),
        (680.0, 34.0),
        (1.0, 2_000.0),
        (3.0, 6_000.0),
        // Zero, negative zero, negative and NaN work or quotients.
        (-0.0, 1.0),
        (-1.0, 1.0),
        (0.0, 0.0),
        (f64::NAN, 1.0),
        // Subnormal quotients and products.
        (f64::from_bits(1), 1.0),
        (f64::MIN_POSITIVE, 1e3),
        (1.0, 1e308),
        // At and past 2^64 ns, up to +inf.
        (two(64) / 1e3 * 1.5, 1.0),
        (1e297, 1.0),
        (f64::MAX, 1.0),
        (1.0, 0.0),
        (1e308, 1e-10),
        (680.0, 3.4e-299),
    ]);
    for anchor in [0, 1, 1_000_000_000_000, u64::MAX - 1_000_000, u64::MAX] {
        for &(work, rate) in &cases {
            assert_finish_matches_parent(SimTime::from_nanos(anchor), work, rate);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over random anchors, work and rates spanning 40 decades, the
    /// ceiling finish is the parent formula's, bit for bit.
    #[test]
    fn ceiling_finish_matches_the_parent_formula(
        anchor in 0u64..u64::MAX,
        work_exp in -20.0f64..20.0,
        work_mantissa in 1.0f64..10.0,
        rate in 1e-6f64..200.0,
    ) {
        let work = work_mantissa * 10f64.powf(work_exp);
        for anchor in [anchor, anchor >> 24] {
            assert_finish_matches_parent(SimTime::from_nanos(anchor), work, rate);
        }
    }

    /// A whole number of µs at a whole-SM rate gives an exact integer ns,
    /// where a ceiling off by one would first show.
    #[test]
    fn ceiling_finish_matches_the_parent_formula_on_whole_nanos(
        anchor in 0u64..1 << 50,
        us in 0u64..1 << 40,
        sms in 1u32..137,
    ) {
        let rate = f64::from(sms);
        assert_finish_matches_parent(SimTime::from_nanos(anchor), us as f64 * rate, rate);
    }

    /// ceil_even always returns an even value that is >= the input.
    #[test]
    fn ceil_even_properties(v in 0.0f64..10_000.0) {
        let c = ceil_even(v);
        prop_assert_eq!(c % 2, 0);
        prop_assert!(f64::from(c) + 1e-9 >= v);
        prop_assert!(f64::from(c) < v + 2.0);
    }

    /// A `Slab` agrees with a `BTreeMap` oracle over random inserts and
    /// removes: lookups, removals, iteration order and the next key. Each op
    /// inserts (one in three) or removes a key that may be live, already
    /// removed or never handed out.
    #[test]
    fn slab_agrees_with_a_btreemap(ops in prop::collection::vec(0u64..1_000, 0..300)) {
        let mut slab = Slab::new();
        let mut oracle = BTreeMap::new();
        let mut next = 0u64;
        for &op in &ops {
            if op % 3 == 0 {
                prop_assert_eq!(slab.insert(op), next);
                oracle.insert(next, op);
                next += 1;
            } else {
                let key = op % (next + 2);
                prop_assert_eq!(slab.get(key), oracle.get(&key));
                prop_assert_eq!(slab.get_mut(key).copied(), oracle.get(&key).copied());
                prop_assert_eq!(slab.remove(key), oracle.remove(&key));
            }
            prop_assert_eq!(slab.next_key(), next);
            let live: Vec<(u64, &u64)> = slab.iter().collect();
            prop_assert_eq!(live, oracle.iter().map(|(k, v)| (*k, v)).collect::<Vec<_>>());
        }
    }

    /// Eq. 9 quotas are positive, never exceed the device, and are even
    /// unless they were clamped to an odd device width.
    #[test]
    fn sm_quota_properties(sm in 2u32..256, os in 1.0f64..8.0, nc in 1u32..12) {
        let q = sm_quota(sm, os, nc);
        prop_assert!(q % 2 == 0 || q == sm.max(2));
        prop_assert!(q >= 2);
        prop_assert!(q <= sm.max(2));
    }

    /// A kernel running alone never finishes faster than its ideal time and
    /// never slower than its parallelism-limited time plus launch overhead.
    #[test]
    fn isolated_kernel_time_bounds(work in 10.0f64..100_000.0, par in 1u32..200) {
        let mut gpu = Gpu::new(quiet());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(s, WorkItem::new(0, vec![KernelDesc::new(work, par)])).unwrap();
        let done = gpu.run_to_idle();
        prop_assert_eq!(done.len(), 1);
        let t = done[0].execution_time().as_micros_f64();
        let ideal = work / 68.0 + 5.0;
        let limit = work / f64::from(par.min(68)) + 5.0;
        prop_assert!(t + 1e-3 >= ideal, "t={} ideal={}", t, ideal);
        prop_assert!(t <= limit + 1.0, "t={} limit={}", t, limit);
    }

    /// Work is conserved: total completed work equals the sum of submitted
    /// kernel work (no interference, no jitter).
    #[test]
    fn work_conservation(works in prop::collection::vec(10.0f64..5_000.0, 1..20)) {
        let mut gpu = Gpu::new(quiet());
        let ctx = gpu.add_context(68).unwrap();
        let s1 = gpu.add_stream(ctx).unwrap();
        let s2 = gpu.add_stream(ctx).unwrap();
        let mut total = 0.0;
        for (i, w) in works.iter().enumerate() {
            total += *w;
            let stream = if i % 2 == 0 { s1 } else { s2 };
            gpu.submit(stream, WorkItem::new(i as u64, vec![KernelDesc::new(*w, 32)])).unwrap();
        }
        let done = gpu.run_to_idle();
        prop_assert_eq!(done.len(), works.len());
        prop_assert!((gpu.completed_work() - total).abs() < 1e-3 * total.max(1.0));
    }

    /// More SMs in the context quota never makes an isolated work item slower.
    #[test]
    fn more_quota_never_slower(work in 100.0f64..50_000.0, q1 in 2u32..68, extra in 0u32..66) {
        let q2 = (q1 + extra).min(68);
        let run = |quota: u32| {
            let mut gpu = Gpu::new(quiet());
            let ctx = gpu.add_context(quota).unwrap();
            let s = gpu.add_stream(ctx).unwrap();
            gpu.submit(s, WorkItem::new(0, vec![KernelDesc::new(work, 68)])).unwrap();
            gpu.run_to_idle()[0].execution_time().as_micros_f64()
        };
        let t1 = run(q1);
        let t2 = run(q2);
        prop_assert!(t2 <= t1 + 1e-3, "quota {} -> {}, time {} -> {}", q1, q2, t1, t2);
    }

    /// Advancing in arbitrary random split points yields the *identical*
    /// completion stream (same order, same nanosecond timestamps) as one
    /// all-at-once advance: the engine must be insensitive to how
    /// callers slice time.
    #[test]
    fn random_advance_splits_never_change_completions(seed in 0u64..1_000_000, n_items in 1usize..24) {
        let build = || {
            // Jitter + interference on: the hardest setting for exactness.
            let (mut gpu, streams) = two_by_two();
            let mut rng = XorShiftRng::new(seed);
            for tag in 0..n_items as u64 {
                let stream = streams[(rng.next_u64() % streams.len() as u64) as usize];
                let mut kernels =
                    vec![KernelDesc::new(rng.uniform(40.0, 3_000.0), 8 + (rng.next_u64() % 60) as u32)];
                if rng.next_u64() % 2 == 0 {
                    kernels.push(KernelDesc::new(rng.uniform(40.0, 1_000.0), 16));
                }
                let mut item = WorkItem::new(tag, kernels);
                if rng.next_u64() % 2 == 0 {
                    item = item.with_h2d_bytes(1 + rng.next_u64() % 100_000);
                }
                gpu.submit(stream, item).unwrap();
            }
            gpu
        };

        // Reference: drain with run_to_idle.
        let mut reference = build();
        let expected = reference.run_to_idle();
        let end = reference.now();

        // Same workload, advanced over random split points.
        let mut split = build();
        let mut split_rng = daris_gpu::XorShiftRng::new(seed ^ 0x5911_77ed);
        let mut got = Vec::new();
        let mut t = SimTime::ZERO;
        while split.pending_items() > 0 {
            t += daris_gpu::SimDuration::from_micros_f64(split_rng.uniform(0.1, 25.0));
            got.extend(split.advance_to(t));
        }
        prop_assert_eq!(&expected, &got, "completion streams must be split-invariant");
        prop_assert!(split.now() >= end);
    }

    /// `next_event_time` is exactly the next transition while work arrives
    /// mid-run: stepping event by event (checking 1 ns before each instant,
    /// and at each submission, that nothing has fired yet) gives the same
    /// completions as advancing to each submission and one `run_to_idle`.
    #[test]
    fn next_event_time_is_the_next_transition_under_mid_run_submits(
        seed in 0u64..1_000_000,
        n_items in 1usize..24,
    ) {
        let submissions = mid_run_submissions(seed, n_items);

        let (mut reference, streams) = two_by_two();
        let mut expected = Vec::new();
        for (at, s, item) in submissions.iter().cloned() {
            expected.extend(reference.advance_to(at));
            reference.submit(streams[s], item).unwrap();
        }
        expected.extend(reference.run_to_idle());

        let (mut gpu, streams) = two_by_two();
        let mut got = Vec::new();
        for (at, s, item) in submissions {
            while let Some(next) = gpu.next_event_time().filter(|&next| next <= at) {
                step_to(&mut gpu, next, &mut got);
            }
            advance_firing_nothing(&mut gpu, at);
            gpu.submit(streams[s], item).unwrap();
        }
        while let Some(next) = gpu.next_event_time() {
            step_to(&mut gpu, next, &mut got);
        }
        prop_assert_eq!(gpu.pending_items(), 0, "work left with no next event");
        prop_assert_eq!(got.len(), n_items);
        prop_assert_eq!(&expected, &got);
    }

    /// A recorded `Replan` marks an allocation change: none repeats its
    /// predecessor (the first differs from the idle `(0, 0.0)`), and the
    /// stream is the same however the advances between submissions are
    /// split, so no event depends on where a caller stopped time.
    #[test]
    fn recorded_replans_mark_changes_and_ignore_advance_splits(
        seed in 0u64..1_000_000,
        n_items in 1usize..24,
    ) {
        let submissions = mid_run_submissions(seed, n_items);

        let (mut reference, streams) = two_by_two();
        reference.record_events();
        for (at, s, item) in submissions.iter().cloned() {
            reference.advance_to(at);
            reference.submit(streams[s], item).unwrap();
        }
        reference.run_to_idle();
        let expected = recorded_replans(&mut reference);

        let (mut split, streams) = two_by_two();
        split.record_events();
        let mut split_rng = XorShiftRng::new(seed ^ 0x5911_77ed);
        let mut t = SimTime::ZERO;
        for (at, s, item) in submissions {
            loop {
                t += SimDuration::from_micros_f64(split_rng.uniform(0.1, 25.0));
                if t >= at {
                    break;
                }
                split.advance_to(t);
            }
            split.advance_to(at);
            t = at;
            split.submit(streams[s], item).unwrap();
        }
        while split.pending_items() > 0 {
            t += SimDuration::from_micros_f64(split_rng.uniform(0.1, 25.0));
            split.advance_to(t);
        }
        let got = recorded_replans(&mut split);

        let idle = (SimTime::ZERO, 0, 0.0f64.to_bits());
        for (prev, next) in std::iter::once(&idle).chain(&expected).zip(&expected) {
            prop_assert!(
                (prev.1, prev.2) != (next.1, next.2),
                "the Replan at {} repeats the allocation recorded at {}", next.0, prev.0
            );
        }
        prop_assert!(!expected.is_empty());
        prop_assert_eq!(&expected, &got, "the Replan stream must be split-invariant");
    }

    /// Every step to the next event instant fires at least one transition:
    /// a compute finish is rounded up to the ns, so the kernel's work is done
    /// when its instant arrives, and no step is spent on rounding residue.
    #[test]
    fn every_step_to_the_next_event_fires_a_transition(
        seed in 0u64..1_000_000,
        n_items in 1usize..24,
    ) {
        let (mut gpu, streams) = two_by_two();
        let mut submissions = mid_run_submissions(seed, n_items).into_iter().peekable();
        loop {
            let submit_at = submissions.peek().map(|&(at, _, _)| at);
            let step = gpu.next_event_time().filter(|&t| submit_at.map_or(true, |at| t <= at));
            if let Some(next) = step {
                let fired = gpu.events_processed();
                gpu.advance_to(next);
                prop_assert!(gpu.events_processed() > fired, "the step to {} fired nothing", next);
            } else if let Some((at, s, item)) = submissions.next() {
                gpu.advance_to(at);
                gpu.submit(streams[s], item).unwrap();
            } else {
                break;
            }
        }
        prop_assert_eq!(gpu.pending_items(), 0, "work left with no next event");
    }

    /// Stepping with `advance_until_completion` (bounded by each submission
    /// instant, landing there with `advance_to` only when it stopped short
    /// of a completion) is one-pass-per-call `advance_into` in fewer calls:
    /// the same completions, the same event stream in one drain as in one
    /// drain per pass, the same work counters, and after every call a clock
    /// on the last pass it ran, never past it.
    #[test]
    fn stepping_to_completions_matches_one_pass_per_call(
        seed in 0u64..1_000_000,
        n_items in 1usize..24,
    ) {
        let submissions = multi_kernel_submissions(seed, n_items);

        // The reference steps one pass per call and drains after each; it
        // notes each pass's instant and whether it completed an item, one
        // list per stretch between submissions (the last one up to idle).
        let (mut reference, streams) = three_by_two();
        reference.record_events();
        let (mut expected, mut expected_events) = (Vec::new(), Vec::new());
        let mut stretches: Vec<Vec<(SimTime, bool)>> = Vec::new();
        let mut one_pass = |gpu: &mut Gpu, target: SimTime, done: &mut Vec<Completion>| {
            let before = done.len();
            gpu.advance_into(target, done);
            expected_events.extend(gpu.drain_events());
            done.len() > before
        };
        let mut stretch = |gpu: &mut Gpu, bound: SimTime, done: &mut Vec<Completion>| {
            let mut passes = Vec::new();
            while let Some(t) = gpu.next_event_time().filter(|&t| t <= bound) {
                passes.push((t, one_pass(gpu, t, done)));
            }
            if bound < SimTime::MAX {
                one_pass(gpu, bound, done);
            }
            stretches.push(passes);
        };
        for (at, s, item) in submissions.iter().cloned() {
            stretch(&mut reference, at, &mut expected);
            reference.submit(streams[s], item).unwrap();
        }
        stretch(&mut reference, SimTime::MAX, &mut expected);

        let (mut gpu, streams) = three_by_two();
        gpu.record_events();
        let mut got = Vec::new();
        let mut calls = 0usize;
        // Runs one stretch's calls; each must run the reference's passes up
        // to and including the next completing one, or all that are left,
        // and leave the clock on the last of them.
        let mut run_stretch = |gpu: &mut Gpu,
                               bound: SimTime,
                               passes: &[(SimTime, bool)],
                               got: &mut Vec<Completion>| {
            let mut left = passes;
            loop {
                let next_completing = left.iter().position(|&(_, completed)| completed);
                let ran = next_completing.map_or(left.len(), |i| i + 1);
                let expected_now = left[..ran].last().map_or(gpu.now(), |&(t, _)| t);
                let completed = gpu.advance_until_completion(bound, got);
                calls += 1;
                prop_assert_eq!(completed, ran > 0 && left[ran - 1].1);
                prop_assert_eq!(gpu.now(), expected_now, "the clock is not on the last pass run");
                left = &left[ran..];
                if !completed {
                    prop_assert!(left.is_empty(), "stopped with passes left by {}", bound);
                    return;
                }
            }
        };
        let mut stretches = stretches.iter();
        for (at, s, item) in submissions {
            run_stretch(&mut gpu, at, stretches.next().unwrap(), &mut got);
            gpu.advance_into(at, &mut got);
            gpu.submit(streams[s], item).unwrap();
        }
        run_stretch(&mut gpu, SimTime::MAX, stretches.next().unwrap(), &mut got);

        prop_assert_eq!(gpu.pending_items(), 0, "work left with no completion to stop at");
        prop_assert_eq!(&expected, &got);
        let events: Vec<_> = gpu.drain_events().collect();
        prop_assert_eq!(&expected_events, &events, "one drain differs from per-pass drains");
        prop_assert_eq!(reference.work_counters(), gpu.work_counters());
        prop_assert_eq!(reference.now(), gpu.now());
        let most = got.len() + n_items + 1;
        prop_assert!(calls <= most, "{} calls for {} completions", calls, got.len());
    }

    /// Completions are never reported before the submission time and the
    /// device clock never runs backwards.
    #[test]
    fn time_monotonicity(count in 1usize..15, work in 50.0f64..2_000.0) {
        let mut gpu = Gpu::new(quiet());
        let ctx = gpu.add_context(34).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        for i in 0..count {
            gpu.submit(s, WorkItem::new(i as u64, vec![KernelDesc::new(work, 16)])).unwrap();
        }
        let mut last = SimTime::ZERO;
        let mut step = SimTime::from_micros(10);
        let mut all = Vec::new();
        while gpu.pending_items() > 0 {
            let done = gpu.advance_to(step);
            prop_assert!(gpu.now() >= last);
            last = gpu.now();
            all.extend(done);
            step += daris_gpu::SimDuration::from_micros(10);
        }
        prop_assert_eq!(all.len(), count);
        for c in &all {
            prop_assert!(c.finished_at >= c.started_at);
            prop_assert!(c.started_at >= c.submitted_at);
        }
    }
}
