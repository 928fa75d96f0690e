//! Deterministic seeded arrival generators: bursty, diurnal and correlated
//! traffic shapes for the trace-driven workload path.
//!
//! Each generator derives an independent per-task release sequence from a
//! `(seed, stream key)` pair through a splitmix64 finalizer, so:
//!
//! * the same seed always produces byte-identical traces, and different
//!   seeds diverge (pinned by tests);
//! * a task keeps its release sequence when a cluster placement sub-sets the
//!   task set, as long as the task keeps its **stream key** — the dispatcher
//!   passes each task's *global* index as its key, which is the generator
//!   analogue of [`TaskSet::preserving_phases`] preserving release phases.
//!
//! Per-task sequences are strictly monotone in time, so generated traces
//! have a zero out-of-order lookahead (see the trace module docs); jittered
//! *recordings* are where non-zero lookaheads come from.
//!
//! # Generator math
//!
//! * [`Bursty`](GenSpec::Bursty) — a two-state (on/off) Markov-modulated
//!   process, the classic MMPP-style burst model: dwell times are drawn per
//!   segment as `mean · clamp(-ln(1-u), 0.1, 6)` (an exponential variate
//!   with clamped tails), and during *on* segments the task releases every
//!   `period / burst_rate`. With the defaults (on 20 ms, off 40 ms, rate
//!   ×3) the long-run offered load matches the periodic plan while peak load
//!   is 3× — the overload shape admission control earns its keep on.
//! * [`Diurnal`](GenSpec::Diurnal) — a sinusoid-modulated rate: the
//!   inter-release gap after a release at `t` is
//!   `period / (1 + amplitude · sin(2π·t/cycle + φ))`, with `φ` drawn once
//!   per task and scaled by `phase_spread` (at the default `1.0` tasks are
//!   mutually desynchronized; at `0.0` the whole fleet crests together). A
//!   first-order time-warp of the nominal rate: load swings between `(1−a)`
//!   and `(1+a)` times nominal over each cycle (a compressed "day" of
//!   traffic).
//! * [`Correlated`](GenSpec::Correlated) — co-release groups across tasks:
//!   tasks are assigned to `groups` groups by stream key, and every task in
//!   a group releases at the group's shared instants (a fan-out of one user
//!   request to several models). Group instants start staggered and advance
//!   by `group_period · uniform(1±gap_jitter)`, drawn from the *group's* RNG
//!   so every member reproduces the same instants independently.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::f64::consts::TAU;

use daris_gpu::{SimDuration, SimTime, XorShiftRng};

use crate::{ArrivalSource, Job, JobId, TaskId, TaskSet, TaskSpec, Trace};

/// Configuration of the bursty (on/off MMPP-style) generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstyConfig {
    /// RNG seed (kept explicit for reproducibility).
    pub seed: u64,
    /// Mean dwell time of *on* (bursting) segments.
    pub on_mean: SimDuration,
    /// Mean dwell time of *off* (silent) segments.
    pub off_mean: SimDuration,
    /// Rate multiplier during bursts: releases every `period / burst_rate`.
    pub burst_rate: f64,
}

impl Default for BurstyConfig {
    fn default() -> Self {
        BurstyConfig {
            seed: 0xB425_7000,
            on_mean: SimDuration::from_millis(20),
            off_mean: SimDuration::from_millis(40),
            burst_rate: 3.0,
        }
    }
}

/// Configuration of the diurnal (sinusoid-modulated rate) generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalConfig {
    /// RNG seed (kept explicit for reproducibility).
    pub seed: u64,
    /// Length of one rate cycle (a compressed "day").
    pub cycle: SimDuration,
    /// Rate swing around nominal, in `[0, 1)`.
    pub amplitude: f64,
    /// How far per-task phases `φ` spread across the cycle, in `[0, 1]`.
    ///
    /// At `1.0` (the default) each task draws `φ ∈ [0, 2π)` independently,
    /// so task cycles are mutually desynchronized and the *aggregate* fleet
    /// rate stays near nominal. At `0.0` every task shares `φ = 0` and the
    /// whole fleet crests and troughs together — the shape fleet-level
    /// controllers (autoscalers) are exercised against.
    pub phase_spread: f64,
}

impl Default for DiurnalConfig {
    fn default() -> Self {
        DiurnalConfig {
            seed: 0xD142_7000,
            cycle: SimDuration::from_millis(250),
            amplitude: 0.6,
            phase_spread: 1.0,
        }
    }
}

/// Configuration of the correlated (co-release groups) generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatedConfig {
    /// RNG seed (kept explicit for reproducibility).
    pub seed: u64,
    /// Number of co-release groups tasks are hashed into.
    pub groups: u32,
    /// Nominal gap between a group's release instants.
    pub group_period: SimDuration,
    /// Half-width of the uniform jitter on the gap, in `[0, 0.95]`.
    pub gap_jitter: f64,
}

impl Default for CorrelatedConfig {
    fn default() -> Self {
        CorrelatedConfig {
            seed: 0xC0_4E17,
            groups: 4,
            group_period: SimDuration::from_millis(25),
            gap_jitter: 0.4,
        }
    }
}

/// A deterministic seeded arrival generator (the module docs of
/// `generators.rs` give the math of each shape).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GenSpec {
    /// On/off MMPP-style bursts.
    Bursty(BurstyConfig),
    /// Sinusoid-modulated (diurnal) rate.
    Diurnal(DiurnalConfig),
    /// Co-release groups across tasks.
    Correlated(CorrelatedConfig),
}

impl GenSpec {
    /// A short stable label for tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            GenSpec::Bursty(_) => "bursty",
            GenSpec::Diurnal(_) => "diurnal",
            GenSpec::Correlated(_) => "correlated",
        }
    }

    /// Builds the lazy arrival stream of this generator over `tasks`, with
    /// each task keyed by its own id (the standalone single-device case).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range configuration (see
    /// [`stream_keyed`](Self::stream_keyed)).
    pub fn stream<'a>(&self, tasks: &'a TaskSet, horizon: SimTime) -> GeneratedStream<'a> {
        let keys: Vec<u64> = (0..tasks.len() as u64).collect();
        self.stream_keyed(tasks, horizon, &keys)
    }

    /// Builds the lazy arrival stream with an explicit **stream key** per
    /// task: `keys[i]` seeds task `i`'s release sequence. A cluster
    /// dispatcher passes each task's global index so device-local streams
    /// reproduce the global trace phases exactly (the generator analogue of
    /// [`TaskSet::preserving_phases`]).
    ///
    /// # Panics
    ///
    /// Panics when `keys.len() != tasks.len()`, or on an out-of-range
    /// configuration: a non-positive `burst_rate`, an `amplitude` outside
    /// `[0, 1)`, zero `groups`, a zero dwell mean, cycle or group period —
    /// all of which would make the release sequence degenerate (the loud
    /// rejection mirrors `ArrivalStream::with_jitter`).
    pub fn stream_keyed<'a>(
        &self,
        tasks: &'a TaskSet,
        horizon: SimTime,
        keys: &[u64],
    ) -> GeneratedStream<'a> {
        assert_eq!(keys.len(), tasks.len(), "stream_keyed needs exactly one stream key per task");
        self.validate();
        let mut heap = BinaryHeap::with_capacity(tasks.len());
        let mut states = Vec::with_capacity(tasks.len());
        for (task, &key) in tasks.tasks().iter().zip(keys) {
            let mut state = self.init_state(task, key);
            if let Some(first) = state.next_release(horizon) {
                heap.push(Reverse((first, task.id, 0u64)));
            }
            states.push(state);
        }
        GeneratedStream { tasks, horizon, heap, states }
    }

    /// Materializes the full trace of this generator over `tasks`: exactly
    /// the releases [`stream`](Self::stream) would emit, validated and ready
    /// to encode, replay or commit as a fixture.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range configuration (see
    /// [`stream_keyed`](Self::stream_keyed)).
    pub fn generate(&self, tasks: &TaskSet, horizon: SimTime) -> Trace {
        let mut stream = self.stream(tasks, horizon);
        Trace::record(&mut stream, horizon)
            .expect("generated sequences are monotone per task and bounded by the horizon")
    }

    fn validate(&self) {
        match *self {
            GenSpec::Bursty(c) => {
                assert!(c.burst_rate > 0.0, "burst_rate must be positive, got {}", c.burst_rate);
                assert!(
                    !c.on_mean.is_zero() && !c.off_mean.is_zero(),
                    "bursty dwell means must be non-zero"
                );
            }
            GenSpec::Diurnal(c) => {
                assert!(
                    (0.0..1.0).contains(&c.amplitude),
                    "diurnal amplitude must lie in [0, 1), got {}",
                    c.amplitude
                );
                assert!(!c.cycle.is_zero(), "diurnal cycle must be non-zero");
                assert!(
                    (0.0..=1.0).contains(&c.phase_spread),
                    "diurnal phase_spread must lie in [0, 1], got {}",
                    c.phase_spread
                );
            }
            GenSpec::Correlated(c) => {
                assert!(c.groups >= 1, "correlated generator needs at least one group");
                assert!(!c.group_period.is_zero(), "group_period must be non-zero");
                assert!(
                    (0.0..=0.95).contains(&c.gap_jitter),
                    "gap_jitter must lie in [0, 0.95], got {}",
                    c.gap_jitter
                );
            }
        }
    }

    fn init_state(&self, task: &TaskSpec, key: u64) -> GenState {
        match *self {
            GenSpec::Bursty(c) => {
                let mut rng = stream_rng(c.seed, key);
                let fast_period =
                    SimDuration::from_micros_f64(task.period.as_micros_f64() / c.burst_rate)
                        .max(SimDuration::from_nanos(1));
                let seg_start = SimTime::ZERO + task.phase;
                let seg_end = seg_start + dwell(&mut rng, c.on_mean);
                GenState::Bursty {
                    rng,
                    on_mean: c.on_mean,
                    off_mean: c.off_mean,
                    fast_period,
                    seg_start,
                    seg_end,
                    in_on: true,
                    next_slot: 0,
                }
            }
            GenSpec::Diurnal(c) => {
                let mut rng = stream_rng(c.seed, key);
                // `phase_spread == 1.0` multiplies the draw by exactly 1.0,
                // so the default reproduces the historical phase bit for bit.
                GenState::Diurnal {
                    cycle_ns: c.cycle.as_nanos() as f64,
                    amplitude: c.amplitude,
                    period: task.period,
                    phase0: rng.uniform(0.0, TAU) * c.phase_spread,
                    next: SimTime::ZERO + task.phase,
                }
            }
            GenSpec::Correlated(c) => {
                let group = key % u64::from(c.groups);
                // The group RNG: every member derives the identical instant
                // sequence independently of which device it lands on.
                let rng = stream_rng(c.seed ^ 0x9209_55ED_C077_E147, group);
                let next = SimTime::ZERO + c.group_period * group / u64::from(c.groups);
                GenState::Correlated {
                    rng,
                    group_period: c.group_period,
                    gap_jitter: c.gap_jitter,
                    next,
                }
            }
        }
    }
}

/// Per-task generator state: a cursor through one task's release sequence.
#[derive(Debug, Clone)]
enum GenState {
    Bursty {
        rng: XorShiftRng,
        on_mean: SimDuration,
        off_mean: SimDuration,
        fast_period: SimDuration,
        seg_start: SimTime,
        seg_end: SimTime,
        in_on: bool,
        next_slot: u64,
    },
    Diurnal {
        cycle_ns: f64,
        amplitude: f64,
        period: SimDuration,
        phase0: f64,
        next: SimTime,
    },
    Correlated {
        rng: XorShiftRng,
        group_period: SimDuration,
        gap_jitter: f64,
        next: SimTime,
    },
}

/// An exponential-ish dwell sample: `mean · clamp(-ln(1-u), 0.1, 6)`, never
/// zero so segment walks always make progress.
fn dwell(rng: &mut XorShiftRng, mean: SimDuration) -> SimDuration {
    let u = rng.next_f64();
    let factor = (-(1.0 - u).ln()).clamp(0.1, 6.0);
    mean.mul_f64(factor).max(SimDuration::from_nanos(1))
}

/// The per-task stream RNG: `seed` mixed with the task's stream key through
/// a splitmix64 finalizer (the same derivation shape as the jitter RNG in
/// `arrivals`, keyed by an explicit u64 so keys can outlive local task ids).
fn stream_rng(seed: u64, key: u64) -> XorShiftRng {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(key.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    XorShiftRng::new(z ^ (z >> 31))
}

impl GenState {
    /// The task's next release strictly before `horizon`, or `None` once the
    /// sequence has passed it. Strictly monotone per task.
    fn next_release(&mut self, horizon: SimTime) -> Option<SimTime> {
        match self {
            GenState::Bursty {
                rng,
                on_mean,
                off_mean,
                fast_period,
                seg_start,
                seg_end,
                in_on,
                next_slot,
            } => loop {
                if *in_on {
                    let candidate = *seg_start + *fast_period * *next_slot;
                    if candidate < *seg_end {
                        *next_slot += 1;
                        // Later slots and segments only move forward, so the
                        // first past-horizon candidate ends the sequence.
                        return (candidate < horizon).then_some(candidate);
                    }
                    *in_on = false;
                    *seg_start = *seg_end;
                    *seg_end = *seg_start + dwell(rng, *off_mean);
                } else {
                    *in_on = true;
                    *seg_start = *seg_end;
                    *seg_end = *seg_start + dwell(rng, *on_mean);
                    *next_slot = 0;
                }
                if *seg_start >= horizon {
                    return None;
                }
            },
            GenState::Diurnal { cycle_ns, amplitude, period, phase0, next } => {
                let release = *next;
                if release >= horizon {
                    return None;
                }
                let angle = TAU * (release.as_nanos() as f64 / *cycle_ns) + *phase0;
                let factor = 1.0 + *amplitude * angle.sin();
                let gap = SimDuration::from_micros_f64(period.as_micros_f64() / factor)
                    .max(SimDuration::from_nanos(1));
                *next = release + gap;
                Some(release)
            }
            GenState::Correlated { rng, group_period, gap_jitter, next } => {
                let release = *next;
                if release >= horizon {
                    return None;
                }
                let gap = group_period
                    .mul_f64(rng.uniform(1.0 - *gap_jitter, 1.0 + *gap_jitter))
                    .max(SimDuration::from_nanos(1));
                *next = release + gap;
                Some(release)
            }
        }
    }
}

/// The lazy merged arrival stream of a [`GenSpec`] over a task set: one
/// pending release per task in a k-way heap ordered by `(release, task,
/// index)` — the same tie-break as [`crate::ArrivalPlan`] — with memory
/// O(tasks) however long the run is. Job deadlines anchor to the *actual*
/// release (`release + relative_deadline`): a generated arrival is a fresh
/// request, not a delayed periodic one.
#[derive(Debug, Clone)]
pub struct GeneratedStream<'a> {
    tasks: &'a TaskSet,
    horizon: SimTime,
    heap: BinaryHeap<Reverse<(SimTime, TaskId, u64)>>,
    states: Vec<GenState>,
}

impl GeneratedStream<'_> {
    /// Release time of the next job, without consuming it.
    pub fn next_release(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((release, _, _))| *release)
    }
}

impl ArrivalSource for GeneratedStream<'_> {
    fn next_release(&self) -> Option<SimTime> {
        GeneratedStream::next_release(self)
    }

    fn next_job(&mut self) -> Option<Job> {
        let Reverse((release, task_id, index)) = self.heap.pop()?;
        let spec = self.tasks.task(task_id).expect("stream tasks outlive the iterator");
        if let Some(next) = self.states[task_id.index()].next_release(self.horizon) {
            self.heap.push(Reverse((next, task_id, index + 1)));
        }
        Some(Job {
            id: JobId { task: task_id, release_index: index },
            model: spec.model,
            priority: spec.priority,
            batch_size: spec.batch_size,
            release,
            absolute_deadline: release + spec.relative_deadline,
        })
    }
}

impl Iterator for GeneratedStream<'_> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        self.next_job()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TracePlayer;
    use daris_models::DnnKind;

    fn specs(seed: u64) -> [GenSpec; 3] {
        [
            GenSpec::Bursty(BurstyConfig { seed, ..Default::default() }),
            GenSpec::Diurnal(DiurnalConfig { seed, ..Default::default() }),
            GenSpec::Correlated(CorrelatedConfig { seed, ..Default::default() }),
        ]
    }

    #[test]
    fn same_seed_is_identical_and_different_seeds_diverge() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let horizon = SimTime::from_millis(200);
        for (a, b) in specs(7).into_iter().zip(specs(7)) {
            assert_eq!(a.generate(&ts, horizon), b.generate(&ts, horizon), "{}", a.label());
        }
        for (a, b) in specs(7).into_iter().zip(specs(8)) {
            assert_ne!(a.generate(&ts, horizon), b.generate(&ts, horizon), "{}", a.label());
        }
    }

    #[test]
    fn generated_traces_satisfy_the_contract_and_replay_exactly() {
        let ts = TaskSet::mixed();
        let horizon = SimTime::from_millis(150);
        for spec in specs(3) {
            let trace = spec.generate(&ts, horizon);
            assert!(!trace.is_empty(), "{} generated nothing", spec.label());
            assert_eq!(
                trace.lookahead(),
                SimDuration::ZERO,
                "{}: per-task sequences are monotone",
                spec.label()
            );
            assert!(trace.offered_jps() > 0.0);
            // The lazy stream and the materialized trace agree byte for byte.
            let live: Vec<Job> = spec.stream(&ts, horizon).collect();
            let replayed: Vec<Job> = TracePlayer::new(&ts, &trace).unwrap().collect();
            assert_eq!(live, replayed, "{}", spec.label());
            for job in &live {
                assert!(job.release < horizon);
                assert_eq!(
                    job.absolute_deadline,
                    job.release + ts.task(job.id.task).unwrap().relative_deadline,
                    "deadlines anchor to the actual release"
                );
            }
        }
    }

    #[test]
    fn bursty_load_is_bursty_but_comparable_on_average() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let horizon = SimTime::from_millis(400);
        let spec = GenSpec::Bursty(BurstyConfig::default());
        let trace = spec.generate(&ts, horizon);
        // Per-task gaps: bursts pack releases at period/3, silences stretch
        // far beyond one period (somewhere in the set — dwells are random).
        let period = ts.tasks()[0].period;
        let mut packed = false;
        let mut stretched = false;
        for task in ts.tasks() {
            let releases: Vec<SimTime> =
                trace.events().iter().filter(|e| e.task == task.id).map(|e| e.release).collect();
            for gap in releases.windows(2).map(|w| w[1].duration_since(w[0])) {
                packed |= gap.as_nanos() * 2 < period.as_nanos();
                stretched |= gap.as_nanos() > period.as_nanos() * 2;
            }
        }
        assert!(packed, "bursts must pack releases tighter than the period");
        assert!(stretched, "off segments must stretch gaps beyond the period");
        // Long-run average load stays comparable to the periodic plan
        // (duty 1/3 at 3x rate), so bursty-vs-periodic comparisons are fair.
        let ratio = trace.offered_jps() / ts.offered_jps();
        assert!((0.5..2.0).contains(&ratio), "offered ratio {ratio}");
    }

    #[test]
    fn diurnal_rate_swings_with_the_cycle() {
        let ts: TaskSet = TaskSet::preserving_phases(
            TaskSet::table2(DnnKind::UNet).tasks().iter().take(1).cloned(),
        );
        let spec = GenSpec::Diurnal(DiurnalConfig { amplitude: 0.8, ..Default::default() });
        let horizon = SimTime::from_millis(500);
        let trace = spec.generate(&ts, horizon);
        let gaps: Vec<f64> = trace
            .events()
            .windows(2)
            .map(|w| w[1].release.duration_since(w[0].release).as_micros_f64())
            .collect();
        let min = gaps.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = gaps.iter().cloned().fold(0.0, f64::max);
        // (1+a)/(1-a) = 9 at a=0.8; demand a healthy fraction of that swing.
        assert!(max > 3.0 * min, "diurnal gaps must swing with the cycle: {min}..{max}");
    }

    #[test]
    fn coherent_diurnal_phases_swing_the_aggregate_rate() {
        // With phase_spread = 0 every task shares φ = 0, so the *fleet*
        // release rate oscillates; with the default spread the per-task
        // cycles cancel and the aggregate stays near flat. Compare the
        // busiest and quietest cycle-half under each.
        let ts = TaskSet::table2(DnnKind::ResNet18);
        let cycle = SimDuration::from_millis(100);
        let horizon = SimTime::from_millis(400);
        let half_ratio = |spread: f64| -> f64 {
            let spec = GenSpec::Diurnal(DiurnalConfig {
                amplitude: 0.9,
                cycle,
                phase_spread: spread,
                ..Default::default()
            });
            let trace = spec.generate(&ts, horizon);
            let mut halves = [0usize; 8];
            for e in trace.events() {
                let half = e.release.as_nanos() / (cycle.as_nanos() / 2);
                halves[(half as usize).min(7)] += 1;
            }
            let busiest = *halves.iter().max().unwrap() as f64;
            let quietest = *halves.iter().min().unwrap() as f64;
            busiest / quietest.max(1.0)
        };
        let coherent = half_ratio(0.0);
        let spread = half_ratio(1.0);
        assert!(coherent > 2.0, "coherent phases must beat a 2:1 half-cycle swing: {coherent}");
        assert!(
            coherent > spread,
            "spread phases must flatten the aggregate: {coherent} vs {spread}"
        );
    }

    #[test]
    fn correlated_groups_co_release_and_differ_across_groups() {
        let ts = TaskSet::mixed();
        let cfg = CorrelatedConfig::default();
        let spec = GenSpec::Correlated(cfg);
        let horizon = SimTime::from_millis(200);
        let trace = spec.generate(&ts, horizon);
        let instants_of = |task: TaskId| -> Vec<SimTime> {
            trace.events().iter().filter(|e| e.task == task).map(|e| e.release).collect()
        };
        let groups = u64::from(cfg.groups);
        // Tasks 0 and 0+groups share a group; 0 and 1 do not.
        let same_a = instants_of(TaskId(0));
        let same_b = instants_of(TaskId(cfg.groups));
        let other = instants_of(TaskId(1));
        assert_eq!(0 % groups, u64::from(cfg.groups) % groups);
        assert!(!same_a.is_empty());
        assert_eq!(same_a, same_b, "group members must co-release");
        assert_ne!(same_a, other, "different groups release at different instants");
    }

    #[test]
    fn global_keys_preserve_sequences_under_sub_setting() {
        // The cluster-placement contract: a task keeps its release sequence
        // when moved into a device-local set, as long as it keeps its global
        // stream key — exactly like `preserving_phases` keeps phases.
        let ts = TaskSet::table2(DnnKind::UNet);
        let horizon = SimTime::from_millis(150);
        let picked: Vec<usize> = vec![2, 5, 11];
        let local = TaskSet::preserving_phases(picked.iter().map(|&i| ts.tasks()[i].clone()));
        let keys: Vec<u64> = picked.iter().map(|&i| i as u64).collect();
        for spec in specs(42) {
            let global: Vec<Job> = spec.stream(&ts, horizon).collect();
            let subset: Vec<Job> = spec.stream_keyed(&local, horizon, &keys).collect();
            // Filter the global stream down to the picked tasks and remap ids
            // to the local space: the sequences must match exactly.
            let expected: Vec<Job> = global
                .into_iter()
                .filter_map(|mut job| {
                    let local_index = picked.iter().position(|&g| g == job.id.task.index())?;
                    job.id.task = TaskId(local_index as u32);
                    Some(job)
                })
                .collect();
            assert_eq!(expected, subset, "{}", spec.label());
        }
    }

    #[test]
    #[should_panic(expected = "amplitude must lie in [0, 1)")]
    fn out_of_range_amplitude_is_rejected_loudly() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let spec = GenSpec::Diurnal(DiurnalConfig { amplitude: 1.0, ..Default::default() });
        let _ = spec.stream(&ts, SimTime::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "one stream key per task")]
    fn key_count_mismatch_is_rejected_loudly() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let spec = GenSpec::Bursty(BurstyConfig::default());
        let _ = spec.stream_keyed(&ts, SimTime::from_millis(10), &[1, 2, 3]);
    }

    #[test]
    fn peek_is_consistent_with_next() {
        let ts = TaskSet::mixed();
        for spec in specs(5) {
            let mut stream = spec.stream(&ts, SimTime::from_millis(60));
            let mut last = SimTime::ZERO;
            while let Some(peeked) = GeneratedStream::next_release(&stream) {
                let job = stream.next_job().expect("peeked release implies a job");
                assert_eq!(job.release, peeked);
                assert!(job.release >= last, "{} must stay time-ordered", spec.label());
                last = job.release;
            }
            assert!(stream.next_job().is_none());
        }
    }
}
