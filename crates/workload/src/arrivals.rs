//! Job arrival generation: the eager [`ArrivalPlan`] and the one lazy
//! source, [`ArrivalStream`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use daris_gpu::{SimDuration, SimTime, XorShiftRng};

use crate::generators::GenState;
use crate::{Job, TaskId, TaskSet, TaskSpec, Trace, TraceError};

/// Optional jitter applied to nominal periodic release times, modelling
/// client-side timing noise. Deadlines remain anchored to the *nominal*
/// release (the paper's tasks are strictly periodic; jitter is an extension
/// used in robustness tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReleaseJitter {
    /// Strictly periodic releases.
    None,
    /// Releases are delayed by a uniform random amount in `[0, max)`.
    Uniform {
        /// Maximum delay.
        max: SimDuration,
        /// RNG seed (kept explicit for reproducibility).
        seed: u64,
    },
}

impl ReleaseJitter {
    /// Checks that an [`ArrivalStream`] can reproduce this jitter *lazily* up
    /// to `horizon`.
    ///
    /// # Errors
    ///
    /// Returns the reason for a [`ReleaseJitter::Uniform`] whose `max` delay
    /// reaches a non-zero horizon span: a jittered cursor would then buffer
    /// every release of its task, so the max delay must stay below the
    /// horizon span.
    pub fn validate(&self, horizon: SimTime) -> Result<(), String> {
        let span = horizon.duration_since(SimTime::ZERO);
        match *self {
            ReleaseJitter::Uniform { max, .. } if !span.is_zero() && max >= span => Err(format!(
                "ArrivalStream cannot lazily reproduce ReleaseJitter::Uniform with a max delay \
                 of {:.3} ms at a {:.3} ms horizon: the max delay must stay below the horizon \
                 span",
                max.as_millis_f64(),
                span.as_millis_f64(),
            )),
            _ => Ok(()),
        }
    }
}

/// The generator of one keyed random *stream*: `seed` mixed with the stream
/// key through a splitmix64 finalizer. Release jitter and the seeded
/// generators both draw from it. Each stream draws independently, so the
/// eager [`ArrivalPlan`] (task-major generation) and the lazy
/// [`ArrivalStream`] (time-ordered generation) produce byte-identical delays
/// without sharing generator state across tasks — and a cluster dispatcher
/// can key a device-local task by its *global* index to reproduce the exact
/// stream a single device would draw (see
/// [`GenSpec::stream_keyed`](crate::GenSpec::stream_keyed)).
pub(crate) fn keyed_rng(seed: u64, key: u64) -> XorShiftRng {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(key.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    XorShiftRng::new(z ^ (z >> 31))
}

/// The uniform delay drawn for one release. Inclusion of a job is decided on
/// its *nominal* release (strictly before the horizon); the jittered release
/// may land past the horizon — consumers stop pulling once their clock
/// reaches it.
fn draw_delay(rng: &mut XorShiftRng, max: SimDuration) -> SimDuration {
    let delay_us = rng.uniform(0.0, max.as_micros_f64().max(1e-9));
    SimDuration::from_micros_f64(delay_us)
}

/// A fully materialized, time-ordered job release plan for a task set.
///
/// ```
/// use daris_workload::{ArrivalPlan, TaskSet, ReleaseJitter};
/// use daris_models::DnnKind;
/// use daris_gpu::SimTime;
///
/// let ts = TaskSet::table2(DnnKind::UNet);
/// let plan = ArrivalPlan::generate(&ts, SimTime::from_millis(500), ReleaseJitter::None);
/// // 15 tasks × 24 jobs/s × 0.5 s ≈ 180 releases.
/// assert!(plan.len() >= 165 && plan.len() <= 195);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalPlan {
    jobs: Vec<Job>,
    horizon: SimTime,
}

impl ArrivalPlan {
    /// Generates all job releases of `tasks` with nominal release strictly
    /// before `horizon`, sorted by release time (ties broken by task id,
    /// then release index).
    pub fn generate(tasks: &TaskSet, horizon: SimTime, jitter: ReleaseJitter) -> Self {
        let mut jobs = Vec::new();
        for task in tasks.tasks() {
            let mut rng = match jitter {
                ReleaseJitter::Uniform { seed, .. } => Some(keyed_rng(seed, u64::from(task.id.0))),
                ReleaseJitter::None => None,
            };
            let mut index = 0u64;
            loop {
                let mut job = task.job(index);
                if job.release >= horizon {
                    break;
                }
                if let (ReleaseJitter::Uniform { max, .. }, Some(rng)) = (jitter, rng.as_mut()) {
                    job.release += draw_delay(rng, max);
                }
                jobs.push(job);
                index += 1;
            }
        }
        jobs.sort_by(|a, b| a.release.cmp(&b.release).then(a.id.task.cmp(&b.id.task)));
        ArrivalPlan { jobs, horizon }
    }

    /// The jobs in release order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of releases in the plan.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan contains no releases.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The generation horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Average offered load over the horizon, in jobs per second.
    pub fn offered_jps(&self) -> f64 {
        if self.horizon == SimTime::ZERO {
            return 0.0;
        }
        self.jobs.len() as f64 / self.horizon.as_secs_f64()
    }

    /// Iterates over the jobs in release order.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }
}

impl IntoIterator for ArrivalPlan {
    type Item = Job;
    type IntoIter = std::vec::IntoIter<Job>;

    fn into_iter(self) -> Self::IntoIter {
        self.jobs.into_iter()
    }
}

/// Per-task state of a jittered [`Cursor`]: the task's delay generator plus
/// a bounded lookahead of drawn-but-unemitted releases.
///
/// Jitter can reorder a task's releases (a job delayed past its successor's
/// draw), so the cursor draws ahead until the earliest buffered release is
/// provably final: once `buffer.min <= next nominal release`, every undrawn
/// job jitters to at least its nominal, hence at least `buffer.min`. The
/// lookahead is bounded by `max / period + 1` entries per task.
#[derive(Debug, Clone)]
pub(crate) struct TaskJitterState {
    rng: XorShiftRng,
    max: SimDuration,
    /// Next nominal release index not yet drawn.
    next_index: u64,
    /// Drawn releases not yet handed to the stream's heap: `(release, index)`.
    buffer: BinaryHeap<Reverse<(SimTime, u64)>>,
}

impl TaskJitterState {
    /// Draws releases until the earliest buffered one is provably the task's
    /// next (or nominal generation passes the horizon): the task's undrawn
    /// jobs all jitter to at least the next nominal release.
    fn refill(&mut self, task: &TaskSpec, horizon: SimTime) {
        loop {
            let nominal = task.job(self.next_index).release;
            if nominal >= horizon {
                break;
            }
            if let Some(Reverse((buffered_min, _))) = self.buffer.peek() {
                if *buffered_min <= nominal {
                    break;
                }
            }
            let release = nominal + draw_delay(&mut self.rng, self.max);
            self.buffer.push(Reverse((release, self.next_index)));
            self.next_index += 1;
        }
    }
}

/// One task's position in its release sequence. Each kind of cursor knows
/// its own deadlines: nominal-anchored (periodic, jittered), `release +
/// relative_deadline` (generated) or recorded (replayed).
#[derive(Debug, Clone)]
pub(crate) enum Cursor {
    /// Strictly periodic; holds the next release index.
    Periodic(u64),
    /// Periodic releases with seeded jitter.
    Jittered(TaskJitterState),
    /// A seeded generator's sequence and the index of its next release.
    Generated(GenState, u64),
    /// The task's recorded `(release, index, deadline)` events, in time order.
    Replayed(std::vec::IntoIter<(SimTime, u64, SimTime)>),
}

impl Cursor {
    /// Advances past the task's next release and returns its `(release,
    /// release_index, absolute_deadline)`, or `None` once the sequence is
    /// exhausted.
    fn pull(&mut self, task: &TaskSpec, horizon: SimTime) -> Option<(SimTime, u64, SimTime)> {
        match self {
            Cursor::Periodic(next_index) => {
                let job = task.job(*next_index);
                if job.release >= horizon {
                    return None;
                }
                *next_index += 1;
                Some((job.release, job.id.release_index, job.absolute_deadline))
            }
            Cursor::Jittered(state) => {
                state.refill(task, horizon);
                let Reverse((release, index)) = state.buffer.pop()?;
                Some((release, index, task.job(index).absolute_deadline))
            }
            Cursor::Generated(state, next_index) => {
                let release = state.next_release(horizon)?;
                *next_index += 1;
                // A generated arrival is a fresh request, not a delayed
                // periodic one.
                Some((release, *next_index - 1, release + task.relative_deadline))
            }
            Cursor::Replayed(events) => events.next(),
        }
    }
}

/// The **lazy** arrival source: a k-way merge over one *cursor* per task,
/// holding one heap entry per task ordered by `(release, task, index)` — the
/// exact tie-break of the eager plan's stable sort and of a [`Trace`].
///
/// Each task's cursor is periodic, jittered ([`with_jitter`]), generated
/// ([`GenSpec::stream`](crate::GenSpec::stream)) or replayed ([`replay`]).
/// Periodic and generated cursors hold O(1) state and a jittered one a
/// bounded lookahead, so their memory stays O(tasks) however long the run
/// is; a replayed cursor holds its task's recorded events.
///
/// A periodic or jittered stream yields the same jobs, in the same order, as
/// [`ArrivalPlan::generate`] with the same [`ReleaseJitter`]:
///
/// ```
/// use daris_workload::{ArrivalPlan, ArrivalStream, TaskSet, ReleaseJitter};
/// use daris_models::DnnKind;
/// use daris_gpu::{SimDuration, SimTime};
///
/// let ts = TaskSet::table2(DnnKind::UNet);
/// let horizon = SimTime::from_millis(100);
/// let eager: Vec<_> = ArrivalPlan::generate(&ts, horizon, ReleaseJitter::None).into_iter().collect();
/// let lazy: Vec<_> = ArrivalStream::new(&ts, horizon).collect();
/// assert_eq!(eager, lazy);
///
/// // The jittered stream replays the jittered plan exactly, too.
/// let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(3), seed: 11 };
/// let eager: Vec<_> = ArrivalPlan::generate(&ts, horizon, jitter).into_iter().collect();
/// let lazy: Vec<_> = ArrivalStream::with_jitter(&ts, horizon, jitter).collect();
/// assert_eq!(eager, lazy);
/// ```
///
/// [`with_jitter`]: Self::with_jitter
/// [`replay`]: Self::replay
#[derive(Debug, Clone)]
pub struct ArrivalStream<'a> {
    tasks: &'a TaskSet,
    horizon: SimTime,
    /// Next emittable release of each task, ordered by `(release, task,
    /// index)`, with its deadline.
    heap: BinaryHeap<Reverse<(SimTime, TaskId, u64, SimTime)>>,
    /// One cursor per task, indexed by task.
    cursors: Vec<Cursor>,
}

impl<'a> ArrivalStream<'a> {
    /// Builds a lazy, strictly periodic arrival stream over `tasks` with
    /// nominal releases strictly before `horizon`.
    pub fn new(tasks: &'a TaskSet, horizon: SimTime) -> Self {
        Self::with_jitter(tasks, horizon, ReleaseJitter::None)
    }

    /// Builds a lazy arrival stream applying `jitter`, yielding byte-identical
    /// jobs in byte-identical order to `ArrivalPlan::generate(tasks, horizon,
    /// jitter)`.
    ///
    /// # Panics
    ///
    /// Panics on a jitter configuration the stream cannot reproduce lazily
    /// (see [`ReleaseJitter::validate`]).
    pub fn with_jitter(tasks: &'a TaskSet, horizon: SimTime, jitter: ReleaseJitter) -> Self {
        let keys: Vec<u64> = (0..tasks.len() as u64).collect();
        Self::with_jitter_keyed(tasks, horizon, jitter, &keys)
    }

    /// Builds a lazy jittered arrival stream with an explicit **stream key**
    /// per task: `keys[i]` selects the delay stream of task `i`. A cluster
    /// dispatcher passes each task's *global* index so device-local streams
    /// draw exactly the delays a single device would — the jitter analogue
    /// of [`GenSpec::stream_keyed`](crate::GenSpec::stream_keyed) and of
    /// [`TaskSet::preserving_phases`] preserving release phases.
    ///
    /// # Panics
    ///
    /// Panics when `keys.len() != tasks.len()`, or on a jitter
    /// configuration the stream cannot reproduce lazily (see
    /// [`ReleaseJitter::validate`]).
    pub fn with_jitter_keyed(
        tasks: &'a TaskSet,
        horizon: SimTime,
        jitter: ReleaseJitter,
        keys: &[u64],
    ) -> Self {
        if let Err(reason) = jitter.validate(horizon) {
            panic!("{reason}");
        }
        let cursors = keys.iter().map(|&key| match jitter {
            ReleaseJitter::None => Cursor::Periodic(0),
            ReleaseJitter::Uniform { max, seed } => Cursor::Jittered(TaskJitterState {
                rng: keyed_rng(seed, key),
                max,
                next_index: 0,
                buffer: BinaryHeap::new(),
            }),
        });
        Self::from_cursors(tasks, horizon, cursors.collect())
    }

    /// Replays `trace` against `tasks`: each event becomes the job of the
    /// task it names, with the recorded release and deadline. Replaying a
    /// trace recorded from a live run reproduces that run's arrival sequence
    /// byte for byte.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownTask`] for an event naming a task the
    /// set does not contain.
    pub fn replay(tasks: &'a TaskSet, trace: &Trace) -> Result<Self, TraceError> {
        if let Some(ev) = trace.events().iter().find(|ev| ev.task.index() >= tasks.len()) {
            return Err(TraceError::UnknownTask { task: ev.task, tasks: tasks.len() });
        }
        let keys: Vec<u64> = (0..tasks.len() as u64).collect();
        Ok(Self::replay_keyed(tasks, trace, &keys))
    }

    /// Replays the events of trace task `keys[i]` as task `i` of `tasks`,
    /// skipping the events of every task `keys` does not name (a cluster
    /// dispatcher passes each device's global task indices, so each device
    /// replays its own tasks' events).
    ///
    /// # Panics
    ///
    /// Panics when `keys.len() != tasks.len()`.
    pub fn replay_keyed(tasks: &'a TaskSet, trace: &Trace, keys: &[u64]) -> Self {
        // `local[t]` is the local index of trace task `t`.
        let trace_tasks = trace.events().iter().map(|ev| ev.task.index() + 1).max().unwrap_or(0);
        let mut local: Vec<Option<usize>> = vec![None; trace_tasks];
        for (i, &key) in keys.iter().enumerate() {
            if let Some(slot) = usize::try_from(key).ok().and_then(|key| local.get_mut(key)) {
                *slot = Some(i);
            }
        }
        let mut events = vec![Vec::new(); keys.len()];
        for ev in trace.events() {
            if let Some(&Some(i)) = local.get(ev.task.index()) {
                events[i].push((ev.release, ev.release_index, ev.deadline));
            }
        }
        let cursors = events.into_iter().map(|events| Cursor::Replayed(events.into_iter()));
        Self::from_cursors(tasks, trace.horizon(), cursors.collect())
    }

    /// Primes the heap with every task's first release — the one path all
    /// constructors share.
    pub(crate) fn from_cursors(tasks: &'a TaskSet, horizon: SimTime, cursors: Vec<Cursor>) -> Self {
        assert_eq!(
            cursors.len(),
            tasks.len(),
            "ArrivalStream needs exactly one stream key per task"
        );
        let mut stream =
            ArrivalStream { tasks, horizon, heap: BinaryHeap::with_capacity(tasks.len()), cursors };
        for task in tasks.tasks() {
            stream.advance(task.id);
        }
        stream
    }

    /// Pulls the next release of `task` into the heap, if it has one.
    fn advance(&mut self, task: TaskId) {
        let spec = &self.tasks.tasks()[task.index()];
        if let Some((release, index, deadline)) =
            self.cursors[task.index()].pull(spec, self.horizon)
        {
            self.heap.push(Reverse((release, task, index, deadline)));
        }
    }

    /// Release time of the next job, without consuming it.
    pub fn next_release(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((release, ..))| *release)
    }
}

impl Iterator for ArrivalStream<'_> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        let Reverse((release, task, index, absolute_deadline)) = self.heap.pop()?;
        let job = Job { release, absolute_deadline, ..self.tasks.tasks()[task.index()].job(index) };
        self.advance(task);
        Some(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Priority;
    use daris_models::DnnKind;

    #[test]
    fn plan_is_sorted_and_complete() {
        let ts = TaskSet::table2(DnnKind::ResNet18);
        let horizon = SimTime::from_millis(200);
        let plan = ArrivalPlan::generate(&ts, horizon, ReleaseJitter::None);
        // 51 tasks at 30 jobs/s for 0.2 s ≈ 306 jobs.
        assert!(plan.len() >= 280 && plan.len() <= 330, "{}", plan.len());
        for w in plan.jobs().windows(2) {
            assert!(w[0].release <= w[1].release);
        }
        for j in plan.iter() {
            assert!(j.release < horizon);
            assert_eq!(j.absolute_deadline.duration_since(j.release).as_millis_f64().round(), 33.0);
        }
        assert!((plan.offered_jps() - ts.offered_jps()).abs() / ts.offered_jps() < 0.1);
    }

    #[test]
    fn jitter_perturbs_releases_but_not_deadlines() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let horizon = SimTime::from_millis(300);
        let crisp = ArrivalPlan::generate(&ts, horizon, ReleaseJitter::None);
        let jittered = ArrivalPlan::generate(
            &ts,
            horizon,
            ReleaseJitter::Uniform { max: SimDuration::from_millis(2), seed: 7 },
        );
        assert_eq!(crisp.len(), jittered.len());
        // Same seeds give identical plans.
        let again = ArrivalPlan::generate(
            &ts,
            horizon,
            ReleaseJitter::Uniform { max: SimDuration::from_millis(2), seed: 7 },
        );
        assert_eq!(jittered, again);
        // Deadlines are anchored to nominal releases, so the jittered job's
        // deadline matches the crisp one for the same job id.
        for j in jittered.iter() {
            let nominal = crisp.iter().find(|c| c.id == j.id).unwrap();
            assert_eq!(j.absolute_deadline, nominal.absolute_deadline);
            assert!(j.release >= nominal.release);
        }
    }

    #[test]
    fn lazy_stream_matches_eager_plan_exactly() {
        for ts in
            [TaskSet::table2(DnnKind::ResNet18), TaskSet::table2(DnnKind::UNet), TaskSet::mixed()]
        {
            let horizon = SimTime::from_millis(150);
            let eager: Vec<Job> =
                ArrivalPlan::generate(&ts, horizon, ReleaseJitter::None).into_iter().collect();
            let stream = ArrivalStream::new(&ts, horizon);
            assert_eq!(stream.next_release(), eager.first().map(|j| j.release));
            let lazy: Vec<Job> = stream.collect();
            assert_eq!(eager, lazy, "lazy arrivals must replicate the eager plan");
        }
    }

    #[test]
    fn jittered_lazy_stream_matches_jittered_eager_plan_exactly() {
        // Jitter wider than the period exercises within-task release
        // reordering and therefore the lookahead buffer; sweep several seeds
        // so ties and orderings vary.
        let horizon = SimTime::from_millis(150);
        for ts in [TaskSet::table2(DnnKind::UNet), TaskSet::mixed()] {
            for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
                for max_ms in [1u64, 2, 60, 120] {
                    let jitter =
                        ReleaseJitter::Uniform { max: SimDuration::from_millis(max_ms), seed };
                    let eager: Vec<Job> =
                        ArrivalPlan::generate(&ts, horizon, jitter).into_iter().collect();
                    let stream = ArrivalStream::with_jitter(&ts, horizon, jitter);
                    assert_eq!(stream.next_release(), eager.first().map(|j| j.release));
                    let lazy: Vec<Job> = stream.collect();
                    assert_eq!(
                        eager, lazy,
                        "jittered lazy arrivals must replicate the eager plan \
                         (seed {seed}, max {max_ms} ms)"
                    );
                }
            }
        }
    }

    #[test]
    fn jittered_stream_peek_is_consistent_with_next() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(10), seed: 3 };
        let mut stream = ArrivalStream::with_jitter(&ts, SimTime::from_millis(80), jitter);
        let mut last = SimTime::ZERO;
        while let Some(peeked) = stream.next_release() {
            let job = stream.next().expect("peeked release implies a job");
            assert_eq!(job.release, peeked);
            assert!(job.release >= last, "stream must stay time-ordered");
            last = job.release;
        }
        assert!(stream.next().is_none());
    }

    #[test]
    fn global_keys_preserve_jitter_streams_under_sub_setting() {
        // The cluster-placement contract: a task keeps its jitter delay
        // stream when moved into a device-local set, as long as it keeps its
        // global stream key — the jitter analogue of the generators'
        // `global_keys_preserve_sequences_under_sub_setting`.
        let ts = TaskSet::table2(DnnKind::UNet);
        let horizon = SimTime::from_millis(150);
        let picked: Vec<usize> = vec![2, 5, 11];
        let local = TaskSet::preserving_phases(picked.iter().map(|&i| ts.tasks()[i].clone()));
        let keys: Vec<u64> = picked.iter().map(|&i| i as u64).collect();
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            for max_ms in [2u64, 60] {
                let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(max_ms), seed };
                let global: Vec<Job> = ArrivalStream::with_jitter(&ts, horizon, jitter).collect();
                let subset: Vec<Job> =
                    ArrivalStream::with_jitter_keyed(&local, horizon, jitter, &keys).collect();
                // Filter the global stream down to the picked tasks and remap
                // ids to the local space: the sequences must match exactly.
                let expected: Vec<Job> = global
                    .into_iter()
                    .filter_map(|mut job| {
                        let local_index = picked.iter().position(|&g| g == job.id.task.index())?;
                        job.id.task = TaskId(local_index as u32);
                        Some(job)
                    })
                    .collect();
                assert_eq!(expected, subset, "seed {seed}, max {max_ms} ms");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one stream key per task")]
    fn jitter_key_count_mismatch_is_rejected_loudly() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(1), seed: 1 };
        let _ = ArrivalStream::with_jitter_keyed(&ts, SimTime::from_millis(10), jitter, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot lazily reproduce")]
    fn jitter_wider_than_the_horizon_is_rejected_loudly() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(100), seed: 1 };
        let _ = ArrivalStream::with_jitter(&ts, SimTime::from_millis(100), jitter);
    }

    #[test]
    fn lazy_stream_peek_is_consistent_with_next() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let mut stream = ArrivalStream::new(&ts, SimTime::from_millis(50));
        while let Some(peeked) = stream.next_release() {
            let job = stream.next().expect("peeked release implies a job");
            assert_eq!(job.release, peeked);
        }
        assert!(stream.next().is_none());
    }

    #[test]
    fn empty_horizon_gives_empty_plan() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let plan = ArrivalPlan::generate(&ts, SimTime::ZERO, ReleaseJitter::None);
        assert!(plan.is_empty());
        assert_eq!(plan.offered_jps(), 0.0);
        // A zero-span jittered stream is empty rather than rejected.
        let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(1), seed: 1 };
        assert!(ArrivalStream::with_jitter(&ts, SimTime::ZERO, jitter).next().is_none());
    }

    #[test]
    fn both_priorities_appear_in_plan() {
        let ts = TaskSet::table2(DnnKind::InceptionV3);
        let plan = ArrivalPlan::generate(&ts, SimTime::from_millis(100), ReleaseJitter::None);
        assert!(plan.iter().any(|j| j.priority == Priority::High));
        assert!(plan.iter().any(|j| j.priority == Priority::Low));
    }
}
