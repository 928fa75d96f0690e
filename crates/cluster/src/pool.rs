//! The sanctioned worker pool: every thread the cluster crate ever spawns
//! is spawned here. Determinism rule D004 bans `std::thread` spawns in
//! `clippy.toml`, so the two `std::thread::scope` calls below carry
//! reasoned allows.
//!
//! Two fan-out shapes live behind this module's API:
//!
//! * [`build_striped`] — a one-shot scoped fan-out used for scheduler
//!   construction, dealing indices to workers in fixed stripes and
//!   collecting results in index order;
//! * [`drive_rounds`] — the **persistent spin/park pool** the round loop
//!   runs on. One `std::thread::scope` spans the *entire* run: workers are
//!   spawned once, then parked between rounds, instead of the old
//!   spawn-per-round pattern whose fork/join cost grew with round count.
//!
//! # Affinity and determinism
//!
//! Worker `w` owns exactly the devices `d` with `d % workers == w` for the
//! whole run (stable device→worker affinity: a device's scheduler state is
//! touched by one worker's cache for every span). Each device's state lives
//! in its own [`Mutex`]-guarded [`DeviceCell`]; during a round the owning
//! worker holds the only claim on its cells, and between rounds — while all
//! workers are parked — the dispatcher's boundary phases (retry, migration,
//! merge) lock cells from the main thread, uncontended. Since every span
//! simulates a disjoint device over a fixed `[t0, t1)` window, wall-clock
//! interleaving of workers cannot reorder any simulated outcome: results
//! are collected in device-index order by the main thread, so the output is
//! byte-identical at any worker count.
//!
//! # Round protocol
//!
//! The main thread publishes a round by bumping `round` (with the span end
//! in `until_ns`) and unparking every worker; each worker spans its stripe,
//! then increments `done`, and the last one unparks the main thread. Both
//! sides spin briefly before parking, so back-to-back rounds — the common
//! case in a saturated sweep — never enter the kernel.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;

use daris_core::Scheduler;
use daris_gpu::SimTime;
use daris_workload::{ArrivalSource, Job};

/// Iterations to spin before parking, on both sides of the protocol. Spans
/// in a loaded round take far longer than this, so the limit only matters
/// for near-empty rounds, where parking is the right call anyway.
const SPIN_LIMIT: u32 = 128;

/// One device's run state, shared between the owning worker (span phase)
/// and the main thread (boundary phases). Generic over the per-device
/// scheduler — anything implementing the `daris-core` [`Scheduler`] trait
/// fans out identically. The scheduler is `None` for a device the placement
/// left idle.
#[derive(Debug)]
pub(crate) struct DeviceCell<Sch, S> {
    pub scheduler: Option<Sch>,
    pub stream: S,
    /// Set by the main thread's pre-round pass; consumed by the span.
    pub due: bool,
    /// Releases the device's admission test rejected during its span,
    /// collected by the main thread at the boundary.
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
    /// lock their own stripe during a round, the main thread only locks
    /// while workers are parked.
    pub fn cell(&self, device: usize) -> MutexGuard<'_, DeviceCell<Sch, S>> {
        self.cells[device].lock().expect("device cell lock poisoned")
    }

    /// Tears the fleet back down into plain cells (end of run).
    pub fn into_cells(self) -> Vec<DeviceCell<Sch, S>> {
        self.cells.into_iter().map(|m| m.into_inner().expect("device cell lock poisoned")).collect()
    }
}

/// One-shot scoped fan-out over `0..n`, dealing index `i` to worker
/// `i % workers` and collecting the results in index order. Runs on the
/// caller's thread when `workers <= 1`. Used for scheduler construction,
/// whose per-device profiling cost dwarfs the spawn cost.
pub(crate) fn build_striped<T: Send>(
    n: usize,
    workers: usize,
    build: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(build).collect();
    }
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(n, || None);
    #[allow(clippy::disallowed_methods)] // sanctioned spawn site: results land by index
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let build = &build;
                scope.spawn(move || {
                    (w..n).step_by(workers).map(|i| (i, build(i))).collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("build worker panicked") {
                out[i] = Some(value);
            }
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
    /// Workers finished with the published round.
    done: AtomicUsize,
    /// A worker's span panicked; the main thread re-raises.
    panicked: AtomicBool,
    /// Shutdown signal (checked after every round wake-up).
    stop: AtomicBool,
    /// The main thread, unparked by the last worker to finish a round.
    main: Thread,
}

/// Spin-then-park until `ready` holds. The counterpart `unpark` may arrive
/// before the `park` call; `park` consumes the stashed token immediately,
/// and spurious wake-ups just re-check.
fn wait_until(ready: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !ready() {
        spins += 1;
        if spins < SPIN_LIMIT {
            std::hint::spin_loop();
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

fn worker_loop<Sch: Scheduler, S: ArrivalSource>(
    fleet: &FleetCells<Sch, S>,
    ctl: &PoolCtl,
    w: usize,
    workers: usize,
) {
    let mut seen = 0u64;
    loop {
        wait_until(|| ctl.round.load(Ordering::Acquire) != seen);
        seen = ctl.round.load(Ordering::Acquire);
        if ctl.stop.load(Ordering::Acquire) {
            return;
        }
        let until = SimTime::from_nanos(ctl.until_ns.load(Ordering::Acquire));
        // Contain a panicking span so the main thread is never left waiting
        // on a `done` count that cannot be reached; the panic is re-raised
        // on the main thread after the round completes.
        let ok = catch_unwind(AssertUnwindSafe(|| span_stripe(fleet, w, workers, until))).is_ok();
        if !ok {
            ctl.panicked.store(true, Ordering::Release);
        }
        if ctl.done.fetch_add(1, Ordering::AcqRel) + 1 == workers {
            ctl.main.unpark();
        }
        if !ok {
            return;
        }
    }
}

/// Runs `body` with a persistent worker pool. `body` receives a
/// `run_round(until)` callback: each call spans every cell whose `due` flag
/// the caller set, in parallel across `workers` threads with stable
/// `d % workers` affinity, and returns once all spans are complete. With
/// `workers <= 1` no thread is ever spawned and spans run inline on the
/// caller's thread — the serial and parallel paths issue the identical
/// per-device call sequence, which is what makes results thread-count
/// invariant.
#[allow(clippy::disallowed_methods)] // sanctioned spawn site: the scope is this function's tail
pub(crate) fn drive_rounds<Sch: Scheduler + Send, S: ArrivalSource + Send, R>(
    fleet: &FleetCells<Sch, S>,
    workers: usize,
    body: impl FnOnce(&mut dyn FnMut(SimTime)) -> R,
) -> R {
    let workers = workers.max(1).min(fleet.len().max(1));
    if workers <= 1 {
        let mut run_round = |until: SimTime| span_stripe(fleet, 0, 1, until);
        return body(&mut run_round);
    }

    let ctl = PoolCtl {
        round: AtomicU64::new(0),
        until_ns: AtomicU64::new(0),
        done: AtomicUsize::new(workers),
        panicked: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        main: std::thread::current(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let ctl = &ctl;
                scope.spawn(move || worker_loop(fleet, ctl, w, workers))
            })
            .collect();
        let worker_threads: Vec<Thread> = handles.iter().map(|h| h.thread().clone()).collect();

        let mut run_round = |until: SimTime| {
            ctl.done.store(0, Ordering::Release);
            ctl.until_ns.store(until.as_nanos(), Ordering::Release);
            ctl.round.fetch_add(1, Ordering::AcqRel);
            for t in &worker_threads {
                t.unpark();
            }
            wait_until(|| ctl.done.load(Ordering::Acquire) >= workers);
            if ctl.panicked.load(Ordering::Acquire) {
                panic!("span worker panicked");
            }
        };
        let out = body(&mut run_round);

        ctl.stop.store(true, Ordering::Release);
        ctl.round.fetch_add(1, Ordering::AcqRel);
        for t in &worker_threads {
            t.unpark();
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use daris_workload::{ArrivalStream, TaskSet, TaskSetBuilder};

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
        // publish/park handshake over many rounds and both worker counts.
        let tasks = TaskSetBuilder::new().build();
        for workers in [1usize, 4] {
            let fleet = idle_fleet(&tasks, 6);
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
}
