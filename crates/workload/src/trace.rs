//! Trace-driven workloads: record/replay of job release sequences.
//!
//! Everything the scheduler consumes is a stream of job releases, so this
//! module splits the *source* of those releases from the machinery that runs
//! them:
//!
//! * [`ArrivalSource`] — the trait every release source implements. The
//!   strictly periodic (optionally jittered) [`ArrivalStream`] is one impl;
//!   the seeded generators in [`crate::GenSpec`] and the trace player below
//!   are others. `daris-core`'s `Scheduler::run_span` and the
//!   `daris-cluster` dispatcher consume it.
//! * [`Trace`] / [`TraceEvent`] — a validated, fully materialized release
//!   sequence with a versioned plain-text codec ([`Trace::encode`] /
//!   [`Trace::decode`]; no external dependencies, the build is offline).
//! * [`TracePlayer`] — replays a [`Trace`] against a [`TaskSet`] as an
//!   [`ArrivalSource`].
//! * [`TraceRecorder`] — wraps any source and captures the release sequence
//!   a live run actually consumed, so the run can be replayed *exactly*
//!   ([`TraceRecorder::into_trace`]). Round trip is byte-identical: replaying
//!   a recorded trace yields the same [`Job`]s in the same order, hence the
//!   same scheduler decisions, completions and metrics.
//!
//! # The lookahead contract
//!
//! Sources emit jobs in time order, but a task's *release indices* may be
//! reordered in time (client-side jitter can delay one release past its
//! successor). A lazy merger replaying such a sequence must buffer every
//! release that can still be overtaken, so the reorder window must be
//! bounded: a [`Trace`] declares a `lookahead` — an upper bound on how far
//! (in simulated time) a lower-index release of a task may trail behind a
//! higher-index one — and validation rejects traces whose measured reorder
//! width exceeds the declared bound, or whose bound reaches the horizon
//! (the trace-path extension of [`ArrivalStream::with_jitter`]'s
//! jitter-versus-horizon rejection: such a trace would force a replayer to
//! buffer the entire sequence).

use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use daris_gpu::{SimDuration, SimTime};

use crate::{ArrivalStream, Job, JobId, TaskId, TaskSet, TaskSpec};

/// A source of job releases in non-decreasing release order.
///
/// The contract mirrors [`ArrivalStream`]: [`next_release`] peeks the release
/// time of the job that the next [`next_job`] call will return (and `None`
/// exactly when the source is exhausted), and emitted releases never
/// decrease. `daris-core`'s `Scheduler::run_span` takes any impl, so
/// periodic plans, seeded generators and recorded traces all drive a
/// scheduler or a whole cluster through the same loop.
///
/// [`next_release`]: ArrivalSource::next_release
/// [`next_job`]: ArrivalSource::next_job
pub trait ArrivalSource {
    /// Release time of the next job, without consuming it.
    fn next_release(&self) -> Option<SimTime>;

    /// Consumes and returns the next job.
    fn next_job(&mut self) -> Option<Job>;
}

impl ArrivalSource for ArrivalStream<'_> {
    fn next_release(&self) -> Option<SimTime> {
        ArrivalStream::next_release(self)
    }

    fn next_job(&mut self) -> Option<Job> {
        self.next()
    }
}

/// One recorded job release: the task it belongs to, its per-task release
/// index, and the (possibly jittered or generated) release and absolute
/// deadline instants. The model/priority/batch-size of the job are *not*
/// stored — they come from the [`TaskSet`] a trace is replayed against, which
/// is what makes a trace a pure arrival shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The owning task.
    pub task: TaskId,
    /// Zero-based release index within the task.
    pub release_index: u64,
    /// Release instant.
    pub release: SimTime,
    /// Absolute deadline instant.
    pub deadline: SimTime,
}

impl TraceEvent {
    /// The sort key every trace is ordered by — the exact tie-break of the
    /// eager [`crate::ArrivalPlan`]'s stable sort.
    fn key(&self) -> (SimTime, TaskId, u64) {
        (self.release, self.task, self.release_index)
    }

    /// Materializes the job this event describes for `spec` (the task the
    /// event is bound to in the set it is replayed against): workload shape
    /// from the spec, timing from the event. The job's task id is `spec.id`,
    /// so remapped (device-local) traces produce locally valid jobs.
    pub fn job_for(&self, spec: &TaskSpec) -> Job {
        Job {
            id: JobId { task: spec.id, release_index: self.release_index },
            model: spec.model,
            priority: spec.priority,
            batch_size: spec.batch_size,
            release: self.release,
            absolute_deadline: self.deadline,
        }
    }
}

/// Errors from trace validation, parsing, or binding to a task set.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceError {
    /// Events are not strictly ordered by `(release, task, release_index)`.
    Unsorted {
        /// Index (into the event list) of the first out-of-order event.
        position: usize,
    },
    /// A task releases the same index twice.
    DuplicateIndex {
        /// The offending task.
        task: TaskId,
    },
    /// An event's release lies at or past the trace horizon.
    PastHorizon {
        /// Index of the offending event.
        position: usize,
    },
    /// The measured reorder width exceeds the declared lookahead bound.
    LookaheadExceeded {
        /// Largest observed reorder width.
        measured: SimDuration,
        /// The declared bound.
        declared: SimDuration,
    },
    /// The declared lookahead reaches the horizon: a replayer would have to
    /// buffer the entire trace (the trace-path analogue of the
    /// jitter-versus-horizon rejection).
    LookaheadNotBelowHorizon {
        /// The declared bound.
        lookahead: SimDuration,
        /// The trace horizon.
        horizon: SimTime,
    },
    /// An event refers to a task the bound task set does not contain.
    UnknownTask {
        /// The unresolvable task id.
        task: TaskId,
        /// Number of tasks in the set the trace was bound against.
        tasks: usize,
    },
    /// The text form could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Unsorted { position } => {
                write!(
                    f,
                    "trace events are not sorted by (release, task, index) at event {position}"
                )
            }
            TraceError::DuplicateIndex { task } => {
                write!(f, "{task} releases the same index twice")
            }
            TraceError::PastHorizon { position } => {
                write!(f, "event {position} releases at or past the trace horizon")
            }
            TraceError::LookaheadExceeded { measured, declared } => write!(
                f,
                "trace reorders releases by up to {measured}, beyond its declared lookahead \
                 bound of {declared}"
            ),
            TraceError::LookaheadNotBelowHorizon { lookahead, horizon } => write!(
                f,
                "a lookahead bound of {lookahead} at a {horizon} horizon would force a replayer \
                 to buffer the entire trace; re-record with a tighter bound"
            ),
            TraceError::UnknownTask { task, tasks } => {
                write!(f, "trace refers to {task} but the bound task set has {tasks} tasks")
            }
            TraceError::Parse { line, reason } => {
                write!(f, "trace parse error at line {line}: {reason}")
            }
        }
    }
}

impl Error for TraceError {}

/// A validated, fully materialized release sequence: the serializable unit of
/// the trace-driven workload path. The module docs of `trace.rs` give the
/// format and the lookahead contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    horizon: SimTime,
    lookahead: SimDuration,
    events: Vec<TraceEvent>,
}

/// The version tag the plain-text codec writes and accepts.
const FORMAT_HEADER: &str = "daris-trace v1";

impl Trace {
    /// Builds a trace from `events`, validating the full contract: events
    /// strictly ordered by `(release, task, release_index)`, per-task indices
    /// unique, releases strictly before `horizon`, the measured reorder
    /// width within `lookahead`, and `lookahead` strictly below the horizon
    /// span (unless the span is zero, in which case the trace must be empty
    /// anyway). Deadlines are free-form — a jittered recording may
    /// legitimately contain releases past their (nominal-anchored)
    /// deadlines — and index gaps are legal (recordings drop releases
    /// jittered past their horizon).
    ///
    /// # Errors
    ///
    /// Returns the first violated rule as a [`TraceError`].
    pub fn new(
        horizon: SimTime,
        lookahead: SimDuration,
        events: Vec<TraceEvent>,
    ) -> Result<Self, TraceError> {
        for (position, pair) in events.windows(2).enumerate() {
            if pair[0].key() >= pair[1].key() {
                return Err(TraceError::Unsorted { position: position + 1 });
            }
        }
        if let Some(position) = events.iter().position(|ev| ev.release >= horizon) {
            return Err(TraceError::PastHorizon { position });
        }
        let measured = measured_lookahead(&events)?;
        if measured > lookahead {
            return Err(TraceError::LookaheadExceeded { measured, declared: lookahead });
        }
        let span = horizon.duration_since(SimTime::ZERO);
        if !span.is_zero() && lookahead >= span {
            return Err(TraceError::LookaheadNotBelowHorizon { lookahead, horizon });
        }
        Ok(Trace { horizon, lookahead, events })
    }

    /// Drains `source` and records every release strictly before `horizon`
    /// into a trace whose declared lookahead is the exact measured reorder
    /// width. Releases at or past the horizon are discarded — a live run
    /// bounded by `horizon` never consumes them, so dropping them is what
    /// makes the recorded trace replay that run exactly.
    ///
    /// # Errors
    ///
    /// Returns an error if the drained sequence violates the trace contract
    /// (e.g. the source's reorder width reaches the horizon).
    pub fn record(source: &mut impl ArrivalSource, horizon: SimTime) -> Result<Self, TraceError> {
        let mut recorder = TraceRecorder::new(source);
        while recorder.next_job().is_some() {}
        recorder.into_trace(horizon)
    }

    /// The recorded events, in `(release, task, release_index)` order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded releases.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace contains no releases.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The horizon the trace was recorded against; replays run to exactly
    /// this instant.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The declared out-of-order bound (the lookahead contract in the module
    /// docs of `trace.rs`).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Average offered load over the horizon, in jobs per second. A
    /// zero-length horizon offers no load (rather than dividing by zero).
    pub fn offered_jps(&self) -> f64 {
        if self.horizon == SimTime::ZERO {
            return 0.0;
        }
        self.events.len() as f64 / self.horizon.duration_since(SimTime::ZERO).as_secs_f64()
    }

    /// Serializes the trace in the versioned plain-text format:
    ///
    /// ```text
    /// daris-trace v1
    /// horizon_ns <u64>
    /// lookahead_ns <u64>
    /// events <count>
    /// <task> <release_index> <release_ns> <deadline_ns>   (one line per event)
    /// ```
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(FORMAT_HEADER);
        out.push('\n');
        let _ = writeln!(out, "horizon_ns {}", self.horizon.as_nanos());
        let _ = writeln!(out, "lookahead_ns {}", self.lookahead.as_nanos());
        let _ = writeln!(out, "events {}", self.events.len());
        for ev in &self.events {
            let _ = writeln!(
                out,
                "{} {} {} {}",
                ev.task.0,
                ev.release_index,
                ev.release.as_nanos(),
                ev.deadline.as_nanos()
            );
        }
        out
    }

    /// Parses the plain-text format written by [`encode`](Self::encode) and
    /// re-validates the full trace contract.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError::Parse`] for malformed text (wrong version,
    /// missing headers, bad numbers, wrong event count) and the usual
    /// validation errors for a well-formed but contract-violating trace.
    pub fn decode(text: &str) -> Result<Self, TraceError> {
        let parse_err =
            |line: usize, reason: &str| TraceError::Parse { line, reason: reason.to_owned() };
        // 1-based position of the first *missing* line, for truncation errors.
        let after_end = text.lines().count() + 1;
        let mut lines = text.lines().enumerate();
        let mut next_line = |expect: &str| {
            lines.next().ok_or_else(|| parse_err(after_end, &format!("missing {expect} line")))
        };
        let (n, version) = next_line("version")?;
        if version.trim() != FORMAT_HEADER {
            return Err(parse_err(n + 1, &format!("expected header {FORMAT_HEADER:?}")));
        }
        let mut header_u64 = |key: &str| -> Result<u64, TraceError> {
            let (n, line) = next_line(key)?;
            let value = line
                .strip_prefix(key)
                .map(str::trim)
                .ok_or_else(|| parse_err(n + 1, &format!("expected `{key} <u64>`")))?;
            value.parse().map_err(|_| parse_err(n + 1, &format!("`{key}` is not a u64")))
        };
        let horizon = SimTime::from_nanos(header_u64("horizon_ns")?);
        let lookahead = SimDuration::from_nanos(header_u64("lookahead_ns")?);
        let count = header_u64("events")? as usize;
        // The declared count is untrusted input: cap the preallocation so a
        // corrupt header returns a Parse error (below) instead of aborting
        // on an absurd allocation.
        let mut events = Vec::with_capacity(count.min(64 * 1024));
        for _ in 0..count {
            let (n, line) = lines
                .next()
                .ok_or_else(|| parse_err(after_end, &format!("expected {count} event lines")))?;
            let mut fields = line.split_whitespace().map(str::parse::<u64>);
            let mut field = |what: &str| -> Result<u64, TraceError> {
                fields
                    .next()
                    .and_then(Result::ok)
                    .ok_or_else(|| parse_err(n + 1, &format!("bad event field `{what}`")))
            };
            let task = TaskId(
                u32::try_from(field("task")?)
                    .map_err(|_| parse_err(n + 1, "task id does not fit in u32"))?,
            );
            events.push(TraceEvent {
                task,
                release_index: field("release_index")?,
                release: SimTime::from_nanos(field("release_ns")?),
                deadline: SimTime::from_nanos(field("deadline_ns")?),
            });
            if fields.next().is_some() {
                return Err(parse_err(n + 1, "event line has more than four fields"));
            }
        }
        for (n, line) in lines {
            if !line.trim().is_empty() {
                return Err(parse_err(n + 1, "trailing content after the declared event count"));
            }
        }
        Trace::new(horizon, lookahead, events)
    }
}

/// The measured reorder width of a sorted event sequence: the largest amount
/// by which a lower-index release of a task trails behind a higher-index one
/// (0 when every task's releases are in index order). Index gaps are legal —
/// a recording of a jittered run drops releases jittered past its horizon —
/// but a repeated index is not (two jobs would share an identity); the width
/// scan catches that for free.
fn measured_lookahead(events: &[TraceEvent]) -> Result<SimDuration, TraceError> {
    use std::collections::BTreeMap;
    let mut per_task: BTreeMap<TaskId, Vec<(u64, SimTime)>> = BTreeMap::new();
    for ev in events {
        per_task.entry(ev.task).or_default().push((ev.release_index, ev.release));
    }
    let mut widest = SimDuration::ZERO;
    for (task, mut releases) in per_task {
        releases.sort_unstable_by_key(|(index, _)| *index);
        if releases.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(TraceError::DuplicateIndex { task });
        }
        let mut prefix_max = SimTime::ZERO;
        for (i, (_, release)) in releases.iter().enumerate() {
            if i > 0 && prefix_max > *release {
                widest = widest.max(prefix_max.duration_since(*release));
            }
            prefix_max = prefix_max.max(*release);
        }
    }
    Ok(widest)
}

/// Replays a [`Trace`] against a [`TaskSet`] as an [`ArrivalSource`]: each
/// event is materialized into the [`Job`] of the spec it refers to, with the
/// recorded release and deadline. Replaying a trace recorded from a live run
/// reproduces that run's arrival sequence byte for byte.
#[derive(Debug, Clone)]
pub struct TracePlayer<'a> {
    tasks: &'a TaskSet,
    events: Cow<'a, [TraceEvent]>,
    next: usize,
}

impl<'a> TracePlayer<'a> {
    /// Binds `trace` to `tasks`, validating that every event refers to a
    /// task of the set.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownTask`] for an event the set cannot
    /// resolve.
    pub fn new(tasks: &'a TaskSet, trace: &'a Trace) -> Result<Self, TraceError> {
        Self::bind(tasks, Cow::Borrowed(trace.events()))
    }

    /// [`new`](Self::new) for a trace the player takes ownership of — a
    /// per-device slice split off a global trace, for instance.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownTask`] for an event the set cannot
    /// resolve.
    pub fn owned(tasks: &'a TaskSet, trace: Trace) -> Result<Self, TraceError> {
        Self::bind(tasks, Cow::Owned(trace.events))
    }

    fn bind(tasks: &'a TaskSet, events: Cow<'a, [TraceEvent]>) -> Result<Self, TraceError> {
        if let Some(ev) = events.iter().find(|ev| tasks.task(ev.task).is_none()) {
            return Err(TraceError::UnknownTask { task: ev.task, tasks: tasks.len() });
        }
        Ok(TracePlayer { tasks, events, next: 0 })
    }

    /// Number of events not yet replayed.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }
}

impl ArrivalSource for TracePlayer<'_> {
    fn next_release(&self) -> Option<SimTime> {
        self.events.get(self.next).map(|ev| ev.release)
    }

    fn next_job(&mut self) -> Option<Job> {
        let ev = self.events.get(self.next)?;
        self.next += 1;
        let spec = self.tasks.task(ev.task).expect("validated at construction");
        Some(ev.job_for(spec))
    }
}

impl Iterator for TracePlayer<'_> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        self.next_job()
    }
}

/// Wraps any [`ArrivalSource`] and captures the releases a live run actually
/// consumed, so [`into_trace`](Self::into_trace) can turn the run into an
/// exactly replayable [`Trace`]. The wrapper is transparent: it forwards
/// peeks and pulls unchanged, so recording never perturbs the run.
#[derive(Debug, Clone)]
pub struct TraceRecorder<S> {
    inner: S,
    events: Vec<TraceEvent>,
}

impl<S: ArrivalSource> TraceRecorder<S> {
    /// Wraps `inner`, recording every job it emits.
    pub fn new(inner: S) -> Self {
        TraceRecorder { inner, events: Vec::new() }
    }

    /// Number of releases recorded so far.
    pub fn recorded(&self) -> usize {
        self.events.len()
    }

    /// Finishes recording: validates the captured sequence against `horizon`
    /// and returns the trace, declaring the exact measured reorder width as
    /// its lookahead. Releases at or past the horizon (which a run bounded by
    /// `horizon` never consumes) are dropped.
    ///
    /// # Errors
    ///
    /// Returns an error when the captured sequence violates the trace
    /// contract (see [`Trace::new`]).
    pub fn into_trace(self, horizon: SimTime) -> Result<Trace, TraceError> {
        let events: Vec<TraceEvent> =
            self.events.into_iter().filter(|ev| ev.release < horizon).collect();
        let lookahead = measured_lookahead(&events)?;
        Trace::new(horizon, lookahead, events)
    }
}

impl<S: ArrivalSource> ArrivalSource for TraceRecorder<S> {
    fn next_release(&self) -> Option<SimTime> {
        self.inner.next_release()
    }

    fn next_job(&mut self) -> Option<Job> {
        let job = self.inner.next_job()?;
        self.events.push(TraceEvent {
            task: job.id.task,
            release_index: job.id.release_index,
            release: job.release,
            deadline: job.absolute_deadline,
        });
        Some(job)
    }
}

/// Forwarding impl: a `&mut S` — including `&mut dyn ArrivalSource` — is
/// itself a source, which lets trait-object run loops (the `Scheduler`
/// trait in `daris-core` takes `&mut dyn ArrivalSource`) reuse code written
/// against `impl ArrivalSource`.
impl<S: ArrivalSource + ?Sized> ArrivalSource for &mut S {
    fn next_release(&self) -> Option<SimTime> {
        (**self).next_release()
    }

    fn next_job(&mut self) -> Option<Job> {
        (**self).next_job()
    }
}

/// Forwarding impl for boxed sources, such as the per-shard sources
/// `daris-core` builds for a workload.
impl<S: ArrivalSource + ?Sized> ArrivalSource for Box<S> {
    fn next_release(&self) -> Option<SimTime> {
        (**self).next_release()
    }

    fn next_job(&mut self) -> Option<Job> {
        (**self).next_job()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrivalPlan, ReleaseJitter};
    use daris_models::DnnKind;

    fn periodic_trace(horizon_ms: u64) -> (TaskSet, Trace) {
        let ts = TaskSet::table2(DnnKind::UNet);
        let horizon = SimTime::from_millis(horizon_ms);
        let trace = Trace::record(&mut ArrivalStream::new(&ts, horizon), horizon)
            .expect("periodic streams record cleanly");
        (ts, trace)
    }

    #[test]
    fn recording_a_periodic_stream_replays_byte_identically() {
        let (ts, trace) = periodic_trace(150);
        let expected: Vec<Job> = ArrivalStream::new(&ts, SimTime::from_millis(150)).collect();
        assert_eq!(trace.len(), expected.len());
        assert_eq!(trace.lookahead(), SimDuration::ZERO, "periodic releases are in order");
        let replayed: Vec<Job> =
            TracePlayer::new(&ts, &trace).expect("trace binds to its own set").collect();
        assert_eq!(expected, replayed, "round trip must be byte-identical");
    }

    #[test]
    fn recording_a_jittered_stream_replays_byte_identically() {
        // Jitter wider than the period forces within-task reordering, so the
        // recorded trace carries a non-zero lookahead.
        let ts = TaskSet::table2(DnnKind::UNet);
        let horizon = SimTime::from_millis(150);
        let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(60), seed: 9 };
        let expected: Vec<Job> = ArrivalStream::with_jitter(&ts, horizon, jitter).collect();
        let trace =
            Trace::record(&mut ArrivalStream::with_jitter(&ts, horizon, jitter), horizon).unwrap();
        assert!(trace.lookahead() > SimDuration::ZERO, "wide jitter must reorder releases");
        assert!(trace.lookahead() < SimDuration::from_millis(60), "width is bounded by max");
        let replayed: Vec<Job> = TracePlayer::new(&ts, &trace).unwrap().collect();
        // The eager drain includes jobs jittered past the horizon, which a
        // horizon-bounded run never consumes and a trace therefore drops.
        let expected: Vec<Job> = expected.into_iter().filter(|j| j.release < horizon).collect();
        assert_eq!(expected, replayed);
    }

    #[test]
    fn recorder_wrapper_is_transparent() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let horizon = SimTime::from_millis(80);
        let mut recorder = TraceRecorder::new(ArrivalStream::new(&ts, horizon));
        let mut seen = Vec::new();
        while let Some(peek) = recorder.next_release() {
            let job = recorder.next_job().expect("peeked release implies a job");
            assert_eq!(job.release, peek);
            seen.push(job);
        }
        assert_eq!(recorder.recorded(), seen.len());
        let trace = recorder.into_trace(horizon).unwrap();
        let direct: Vec<Job> = ArrivalStream::new(&ts, horizon).collect();
        assert_eq!(seen, direct);
        assert_eq!(trace.len(), direct.len());
    }

    #[test]
    fn codec_round_trips_exactly() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let horizon = SimTime::from_millis(120);
        let jitter = ReleaseJitter::Uniform { max: SimDuration::from_millis(50), seed: 3 };
        let trace =
            Trace::record(&mut ArrivalStream::with_jitter(&ts, horizon, jitter), horizon).unwrap();
        let text = trace.encode();
        assert!(text.starts_with("daris-trace v1\n"));
        let decoded = Trace::decode(&text).expect("encoded traces decode");
        assert_eq!(trace, decoded);
        // Jobs replayed from the decoded trace match too.
        let a: Vec<Job> = TracePlayer::new(&ts, &trace).unwrap().collect();
        let b: Vec<Job> = TracePlayer::new(&ts, &decoded).unwrap().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn decode_rejects_malformed_text_loudly() {
        let (_, trace) = periodic_trace(60);
        let good = trace.encode();
        // Wrong version.
        let bad = good.replacen("daris-trace v1", "daris-trace v9", 1);
        assert!(matches!(Trace::decode(&bad), Err(TraceError::Parse { line: 1, .. })));
        // Truncated event list.
        let truncated: String =
            good.lines().take(good.lines().count() - 1).collect::<Vec<_>>().join("\n");
        assert!(matches!(Trace::decode(&truncated), Err(TraceError::Parse { .. })));
        // Garbage field.
        let garbled = good.replacen("horizon_ns", "horizon_ms", 1);
        assert!(matches!(Trace::decode(&garbled), Err(TraceError::Parse { line: 2, .. })));
        // Trailing junk after the declared count — even hidden behind blank
        // lines (e.g. two concatenated traces).
        let mut extra = good.clone();
        extra.push_str("1 2 3 4\n");
        assert!(matches!(Trace::decode(&extra), Err(TraceError::Parse { .. })));
        let mut sneaky = good.clone();
        sneaky.push_str("\n\n1 2 3 4\n");
        assert!(matches!(Trace::decode(&sneaky), Err(TraceError::Parse { .. })));
        // Truncation errors report the 1-based first missing line, never 0.
        let err = Trace::decode("daris-trace v1\nhorizon_ns 5");
        assert!(matches!(err, Err(TraceError::Parse { line: 3, .. })), "{err:?}");
        // Extra fields on an event line are as loud as extra lines.
        let first_event = good.lines().nth(4).expect("trace has events");
        let five_fields = good.replacen(first_event, &format!("{first_event} 999"), 1);
        assert!(matches!(Trace::decode(&five_fields), Err(TraceError::Parse { .. })));
        // A hostile event count fails with a Parse error instead of aborting
        // on an absurd preallocation.
        let hostile =
            good.replacen(&format!("events {}", trace.len()), &format!("events {}", u64::MAX), 1);
        assert!(matches!(Trace::decode(&hostile), Err(TraceError::Parse { .. })));
        // Empty input.
        assert!(matches!(Trace::decode(""), Err(TraceError::Parse { .. })));
    }

    #[test]
    fn validation_rejects_contract_violations_loudly() {
        let ev = |task: u32, index: u64, rel_us: u64| TraceEvent {
            task: TaskId(task),
            release_index: index,
            release: SimTime::from_micros(rel_us),
            deadline: SimTime::from_micros(rel_us + 100),
        };
        let horizon = SimTime::from_millis(10);
        // Unsorted events.
        let err = Trace::new(horizon, SimDuration::ZERO, vec![ev(0, 0, 500), ev(0, 1, 400)]);
        assert!(matches!(err, Err(TraceError::Unsorted { position: 1 })), "{err:?}");
        // An index gap is legal (a jittered recording drops past-horizon
        // releases mid-sequence), but a repeated index is not.
        assert!(Trace::new(horizon, SimDuration::ZERO, vec![ev(0, 0, 100), ev(0, 2, 200)]).is_ok());
        let err = Trace::new(horizon, SimDuration::ZERO, vec![ev(0, 1, 100), ev(0, 1, 200)]);
        assert!(matches!(err, Err(TraceError::DuplicateIndex { task: TaskId(0) })));
        // Release past the horizon.
        let err = Trace::new(horizon, SimDuration::ZERO, vec![ev(0, 0, 10_000)]);
        assert!(matches!(err, Err(TraceError::PastHorizon { position: 0 })));
        // A deadline before the release is *legal*: jitter can delay a
        // request past its nominal-anchored deadline.
        let mut late = ev(0, 0, 500);
        late.deadline = SimTime::from_micros(400);
        assert!(Trace::new(horizon, SimDuration::ZERO, vec![late]).is_ok());
        // Reordered beyond the declared bound: index 0 trails index 1 by
        // 300 µs but only 100 µs is declared.
        let reordered = vec![ev(0, 1, 200), ev(0, 0, 500)];
        let err = Trace::new(horizon, SimDuration::from_micros(100), reordered.clone());
        assert!(matches!(err, Err(TraceError::LookaheadExceeded { .. })), "{err:?}");
        // The same events pass with an honest bound…
        assert!(Trace::new(horizon, SimDuration::from_micros(300), reordered.clone()).is_ok());
        // …but a bound at or past the horizon is rejected like jitter ≥
        // horizon on the lazy stream.
        let err = Trace::new(horizon, SimDuration::from_millis(10), reordered);
        assert!(matches!(err, Err(TraceError::LookaheadNotBelowHorizon { .. })), "{err:?}");
    }

    #[test]
    fn player_rejects_traces_for_unknown_tasks() {
        let (big_set, trace) = periodic_trace(80);
        let small: TaskSet = TaskSet::preserving_phases(big_set.tasks().iter().take(3).cloned());
        let err = TracePlayer::new(&small, &trace);
        assert!(matches!(err, Err(TraceError::UnknownTask { tasks: 3, .. })), "{err:?}");
        for e in [
            TraceError::Unsorted { position: 1 },
            TraceError::UnknownTask { task: TaskId(9), tasks: 3 },
            TraceError::Parse { line: 2, reason: "nope".into() },
            TraceError::LookaheadNotBelowHorizon {
                lookahead: SimDuration::from_millis(1),
                horizon: SimTime::from_millis(1),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn offered_jps_handles_a_zero_horizon() {
        // The satellite bugfix contract: no NaN from a zero-length horizon.
        let empty = Trace::new(SimTime::ZERO, SimDuration::ZERO, Vec::new()).unwrap();
        assert_eq!(empty.offered_jps(), 0.0);
        assert!(empty.is_empty());
        let (_, trace) = periodic_trace(200);
        let expected = trace.len() as f64 / 0.2;
        assert!((trace.offered_jps() - expected).abs() < 1e-9);
        // The eager plan keeps the same guarantee (pinned since the seed).
        let plan = ArrivalPlan::generate(
            &TaskSet::table2(DnnKind::UNet),
            SimTime::ZERO,
            ReleaseJitter::None,
        );
        assert_eq!(plan.offered_jps(), 0.0);
    }

    #[test]
    fn arrival_stream_implements_the_source_trait() {
        let ts = TaskSet::table2(DnnKind::UNet);
        let mut stream = ArrivalStream::new(&ts, SimTime::from_millis(40));
        let peek = ArrivalSource::next_release(&stream);
        assert!(peek.is_some());
        let job = stream.next_job().unwrap();
        assert_eq!(Some(job.release), peek);
        // The blanket &mut impl forwards peeks and pulls unchanged, so a
        // mutable borrow can be handed to a generic consumer.
        fn pull(mut source: impl ArrivalSource) -> Option<Job> {
            let peek = source.next_release();
            let job = source.next_job();
            assert_eq!(job.map(|j| j.release), peek);
            job
        }
        assert!(pull(&mut stream).is_some());
    }
}
