//! The sanctioned worker pool: every thread the cluster crate ever spawns
//! is spawned here. Determinism rule D004 bans `std::thread` spawns in
//! `clippy.toml`, so the two `std::thread::scope` calls below carry
//! reasoned allows.
//!
//! Two fan-out shapes live behind this module's API, and in both the
//! calling thread is worker 0 beside `workers − 1` spawned helpers (one
//! worker is the same code with no helpers): [`build_striped`], a one-shot
//! fan-out for scheduler construction, and [`drive_rounds`], the
//! **persistent pool** the round loop runs on, whose helpers are spawned
//! once per run and wait between rounds.
//!
//! # Affinity and determinism
//!
//! Worker `w` owns exactly the devices `d` with `d % workers == w`, both
//! while they are built and for the whole run, so a device's state stays in
//! one worker's cache and its heap in that thread's allocator arena (a
//! device built on one thread and spanned on another raises peak RSS).
//! Each device's state lives in its own [`Mutex`]-guarded [`DeviceCell`];
//! during a round the owning worker holds the only claim on its cells, and
//! between rounds — while every helper waits for the next one — the
//! dispatcher's boundary phases (retry, migration, merge) lock cells from
//! the calling thread, uncontended. Since every span simulates a disjoint
//! device over a fixed `[t0, t1)` window, wall-clock interleaving of
//! workers cannot reorder any simulated outcome: results are collected in
//! device-index order, so the output is byte-identical at any worker count.
//!
//! # Round protocol
//!
//! The caller publishes a round by bumping `round` (with the span end in
//! `until_ns`) and unparking every helper, spans its own stripe, then waits
//! for each helper to span its stripe and increment `done`; the last one
//! unparks the caller. Both sides wait actively before parking: through a
//! short round's boundary work when each worker has a core of its own, and
//! only briefly in an oversubscribed pool (see [`wait_limit`]). A span panic
//! on any worker is re-raised from the round with its own payload once the
//! helpers are done, and every exit, unwinding included, stops and wakes
//! the helpers, so the scope's join never waits on a parked one.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;

use daris_core::Scheduler;
use daris_gpu::SimTime;
use daris_workload::{ArrivalSource, Job};

/// `spin_loop` iterations a waiter runs before it yields or parks, on both
/// sides of the protocol. In an oversubscribed pool (more workers than
/// cores) it parks right after them: a busy waiter there would take the
/// core from the thread it waits for.
const SPINS: u32 = 128;

/// Wait iterations, spins then `yield_now`s, before parking when every
/// worker has a core of its own. A short round's boundary work (retry,
/// migration, telemetry merge) fits in this budget, so a helper waiting for
/// the next round and the caller waiting for `done` are not woken by a
/// futex every round; a longer wait still parks. Yielding instead of
/// spinning hands the core to any other runnable thread, such as another
/// pool in the same process.
const ACTIVE_WAIT_BUDGET: u32 = 1 << 10;

/// The wait limit of a pool of `workers`: the active budget only when the
/// machine has a core for each worker.
fn wait_limit(workers: usize) -> u32 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if workers <= cores {
        ACTIVE_WAIT_BUDGET
    } else {
        SPINS
    }
}

/// One device's run state, shared between the owning worker (span phase)
/// and the calling thread (boundary phases). Generic over the per-device
/// scheduler — anything implementing the `daris-core` [`Scheduler`] trait
/// fans out identically. The scheduler is `None` for a device the placement
/// left idle.
#[derive(Debug)]
pub(crate) struct DeviceCell<Sch, S> {
    pub scheduler: Option<Sch>,
    pub stream: S,
    /// Set by the caller's pre-round pass; consumed by the span.
    pub due: bool,
    /// Releases the device's admission test rejected during its span,
    /// collected by the caller at the boundary.
    pub rejected: Vec<Job>,
}

/// The fleet's per-device cells. Indexing is fleet device order.
#[derive(Debug)]
pub(crate) struct FleetCells<Sch, S> {
    cells: Vec<Mutex<DeviceCell<Sch, S>>>,
}

impl<Sch, S> FleetCells<Sch, S> {
    pub fn new(cells: Vec<DeviceCell<Sch, S>>) -> Self {
        FleetCells { cells: cells.into_iter().map(Mutex::new).collect() }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Locks one device's cell. Uncontended on every path: workers only
    /// lock their own stripe during a round, the caller only locks boundary
    /// cells while every helper waits for the next round.
    pub fn cell(&self, device: usize) -> MutexGuard<'_, DeviceCell<Sch, S>> {
        self.cells[device].lock().expect("device cell lock poisoned")
    }

    /// Tears the fleet back down into plain cells (end of run).
    pub fn into_cells(self) -> Vec<DeviceCell<Sch, S>> {
        self.cells.into_iter().map(|m| m.into_inner().expect("device cell lock poisoned")).collect()
    }
}

/// One-shot scoped fan-out over `0..n`, dealing index `i` to worker
/// `i % workers` and collecting the results in index order. The caller
/// builds stripe 0 itself. Used for scheduler construction, whose
/// per-device profiling cost dwarfs the spawn cost.
pub(crate) fn build_striped<T: Send>(
    n: usize,
    workers: usize,
    build: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = workers.clamp(1, n.max(1));
    let build_stripe = |w| (w..n).step_by(workers).map(|i| (i, build(i))).collect::<Vec<_>>();
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    #[allow(clippy::disallowed_methods)] // sanctioned spawn site: results land by index
    std::thread::scope(|scope| {
        let build_stripe = &build_stripe;
        let helpers: Vec<_> = (1..workers).map(|w| scope.spawn(move || build_stripe(w))).collect();
        let own = build_stripe(0);
        let theirs =
            helpers.into_iter().flat_map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
        for (i, value) in own.into_iter().chain(theirs) {
            out[i] = Some(value);
        }
    });
    out.into_iter().map(|v| v.expect("every index was built")).collect()
}

/// Shared state of the round protocol.
struct PoolCtl {
    /// Round counter; a bump is the "go" signal.
    round: AtomicU64,
    /// Span end of the published round, as integer nanoseconds.
    until_ns: AtomicU64,
    /// Helpers finished with the published round.
    done: AtomicUsize,
    /// The payload of the round's first helper span panic; the caller
    /// re-raises it.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Shutdown signal (checked after every round wake-up).
    stop: AtomicBool,
    /// The calling thread, unparked by the last helper to finish a round.
    caller: Thread,
    /// Iterations every waiter runs before parking ([`wait_limit`]).
    wait_limit: u32,
}

/// The caller's handle on the spawned helpers. Dropping it, unwinding
/// included, stops and wakes every helper.
struct Helpers<'a> {
    ctl: &'a PoolCtl,
    threads: Vec<Thread>,
}

impl Helpers<'_> {
    /// Publishes the next round (or the stop signal) to every helper.
    fn wake(&self) {
        self.ctl.round.fetch_add(1, Ordering::AcqRel);
        for t in &self.threads {
            t.unpark();
        }
    }
}

impl Drop for Helpers<'_> {
    fn drop(&mut self) {
        self.ctl.stop.store(true, Ordering::Release);
        self.wake();
    }
}

/// Waits until `ready` holds: [`SPINS`] spins, then yields, then parks once
/// `limit` checks have failed. The counterpart `unpark` may arrive before
/// the `park` call; `park` consumes the stashed token immediately, and
/// spurious wake-ups just re-check.
fn wait_until(limit: u32, ready: impl Fn() -> bool) {
    let mut waits = 0u32;
    while !ready() {
        waits += 1;
        if waits < SPINS {
            std::hint::spin_loop();
        } else if waits < limit {
            std::thread::yield_now();
        } else {
            std::thread::park();
        }
    }
}

/// Runs one worker's fixed stripe of the published round: every due device
/// `d ≡ w (mod workers)` spans `[its clock, until)` on its own scheduler
/// and stream, leaving rejected releases in its cell.
fn span_stripe<Sch: Scheduler, S: ArrivalSource>(
    fleet: &FleetCells<Sch, S>,
    w: usize,
    workers: usize,
    until: SimTime,
) {
    for d in (w..fleet.len()).step_by(workers) {
        let mut cell = fleet.cell(d);
        if !cell.due {
            continue;
        }
        cell.due = false;
        let DeviceCell { scheduler, stream, rejected, .. } = &mut *cell;
        let scheduler = scheduler.as_mut().expect("due device has a scheduler");
        scheduler.run_span(stream, until, rejected);
    }
}

fn helper_loop<Sch: Scheduler, S: ArrivalSource>(
    fleet: &FleetCells<Sch, S>,
    ctl: &PoolCtl,
    w: usize,
    workers: usize,
) {
    let mut seen = 0u64;
    loop {
        wait_until(ctl.wait_limit, || ctl.round.load(Ordering::Acquire) != seen);
        seen = ctl.round.load(Ordering::Acquire);
        if ctl.stop.load(Ordering::Acquire) {
            return;
        }
        let until = SimTime::from_nanos(ctl.until_ns.load(Ordering::Acquire));
        if let Err(payload) =
            catch_unwind(AssertUnwindSafe(|| span_stripe(fleet, w, workers, until)))
        {
            ctl.panic.lock().expect("panic slot lock poisoned").get_or_insert(payload);
        }
        if ctl.done.fetch_add(1, Ordering::AcqRel) + 1 == workers - 1 {
            ctl.caller.unpark();
        }
    }
}

/// Runs `body` with a persistent worker pool. `body` receives a
/// `run_round(until)` callback: each call spans every cell whose `due` flag
/// the caller set, in parallel across `workers` threads (the caller and
/// `workers − 1` helpers) with stable `d % workers` affinity, and returns
/// once all spans are complete. Every worker count issues the identical
/// per-device call sequence, which is what makes results thread-count
/// invariant. A span panic is re-raised from `run_round` with its original
/// payload.
#[allow(clippy::disallowed_methods)] // sanctioned spawn site: the scope is this function's tail
pub(crate) fn drive_rounds<Sch: Scheduler + Send, S: ArrivalSource + Send, R>(
    fleet: &FleetCells<Sch, S>,
    workers: usize,
    body: impl FnOnce(&mut dyn FnMut(SimTime)) -> R,
) -> R {
    let workers = workers.clamp(1, fleet.len().max(1));
    let ctl = &PoolCtl {
        round: AtomicU64::new(0),
        until_ns: AtomicU64::new(0),
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
        stop: AtomicBool::new(false),
        caller: std::thread::current(),
        wait_limit: wait_limit(workers),
    };
    std::thread::scope(|scope| {
        // The guard exists before the first spawn, so a failed spawn also
        // releases the helpers already running.
        let mut helpers = Helpers { ctl, threads: Vec::with_capacity(workers - 1) };
        for w in 1..workers {
            let helper = scope.spawn(move || helper_loop(fleet, ctl, w, workers));
            helpers.threads.push(helper.thread().clone());
        }
        let mut run_round = |until: SimTime| {
            ctl.done.store(0, Ordering::Release);
            ctl.until_ns.store(until.as_nanos(), Ordering::Release);
            helpers.wake();
            let own = catch_unwind(AssertUnwindSafe(|| span_stripe(fleet, 0, workers, until)));
            wait_until(ctl.wait_limit, || ctl.done.load(Ordering::Acquire) == workers - 1);
            let theirs = ctl.panic.lock().expect("panic slot lock poisoned").take();
            if let Some(payload) = own.err().or(theirs) {
                resume_unwind(payload);
            }
        };
        body(&mut run_round)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use daris_workload::{ArrivalStream, TaskSet, TaskSetBuilder};
    use std::thread;

    /// An empty stream per device: the pool only ever forwards it to
    /// `run_span`, which these tests never reach (no schedulers).
    fn idle_fleet(
        tasks: &TaskSet,
        n: usize,
    ) -> FleetCells<daris_core::DarisScheduler, ArrivalStream<'_>> {
        FleetCells::new(
            (0..n)
                .map(|_| DeviceCell {
                    scheduler: None,
                    stream: ArrivalStream::new(tasks, SimTime::ZERO),
                    due: false,
                    rejected: Vec::new(),
                })
                .collect(),
        )
    }

    #[test]
    fn build_striped_collects_in_index_order() {
        for workers in [1, 2, 3, 8] {
            let built = build_striped(10, workers, |i| i * i);
            assert_eq!(built, (0..10).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn drive_rounds_runs_many_rounds_on_one_pool() {
        // No device is ever due, so rounds are pure protocol: this pins the
        // publish/wait handshake over many rounds. Two workers fit any
        // multi-core machine, so they wait actively through the boundary;
        // one more worker than cores oversubscribes the pool, so it parks.
        let tasks = TaskSetBuilder::new().build();
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(wait_limit(cores + 1), SPINS);
        for workers in [1usize, 2, 4, cores + 1] {
            let fleet = idle_fleet(&tasks, workers.max(6));
            let rounds = drive_rounds(&fleet, workers, |run_round| {
                for r in 0..100u64 {
                    run_round(SimTime::from_micros(r + 1));
                }
                100u64
            });
            assert_eq!(rounds, 100);
        }
    }

    #[test]
    fn drive_rounds_serial_never_blocks_on_empty_fleet() {
        let tasks = TaskSetBuilder::new().build();
        let fleet = idle_fleet(&tasks, 0);
        let out = drive_rounds(&fleet, 8, |run_round| {
            run_round(SimTime::from_micros(1));
            42
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn build_striped_builds_stripe_zero_on_the_callers_thread() {
        let caller = thread::current().id();
        let built = build_striped(9, 2, |i| (i, thread::current().id()));
        for (i, (index, builder)) in built.into_iter().enumerate() {
            assert_eq!(index, i);
            assert_eq!(builder == caller, i % 2 == 0, "index {i} built on the wrong thread");
        }
    }

    /// The message of a caught panic, whether it was raised with a literal
    /// or a formatted string.
    fn panic_message(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string payload>")
    }

    /// Runs one round on two workers with device `due` marked due but left
    /// without a scheduler, so that device's span panics.
    fn round_with_failing_span(due: usize) -> thread::Result<()> {
        let tasks = TaskSetBuilder::new().build();
        let fleet = idle_fleet(&tasks, 4);
        fleet.cell(due).due = true;
        catch_unwind(AssertUnwindSafe(|| {
            drive_rounds(&fleet, 2, |run_round| run_round(SimTime::from_micros(1)))
        }))
    }

    #[test]
    fn span_panic_on_the_callers_stripe_is_reraised() {
        let payload = round_with_failing_span(0).expect_err("the span panic must propagate");
        assert_eq!(panic_message(&*payload), "due device has a scheduler");
    }

    #[test]
    fn span_panic_on_a_helpers_stripe_is_reraised() {
        let payload = round_with_failing_span(1).expect_err("the span panic must propagate");
        assert_eq!(panic_message(&*payload), "due device has a scheduler");
    }

    #[test]
    fn body_panic_between_rounds_releases_the_helpers() {
        let tasks = TaskSetBuilder::new().build();
        let fleet = idle_fleet(&tasks, 4);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            drive_rounds(&fleet, 2, |run_round| {
                run_round(SimTime::from_micros(1));
                panic!("boundary phase failed");
            })
        }))
        .expect_err("the body panic must propagate");
        assert_eq!(panic_message(&*payload), "boundary phase failed");
    }
}
