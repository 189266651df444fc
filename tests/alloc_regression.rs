//! Allocation regression guard for the engine hot loop.
//!
//! The `Engine` → dispatch → substrate pipeline is allocation-free on the
//! steady-state path: handlers fill a caller-owned [`ActionSink`] instead
//! of returning fresh `Vec<Action>`s, task frames are recycled in a
//! per-engine slab, wave evaluation runs on pooled scratch, and a
//! functional checkpoint is a field of the recycled child record, not a
//! copy of the packet. A new demand's argument list is allocated once and
//! shared by the call cache, the child record, the spawn packet and the
//! child frame. What remains is genuinely new data (spawn packets, values,
//! message boxes). This test pins that property with a counting global
//! allocator:
//! a full fault-free fib(12) simulation must stay under a fixed allocation
//! budget, and checkpointing must not add a single allocation over the same
//! run with recovery off. The pipeline without pooled sinks and frames
//! performed ~15,000 allocations on this run, with them ~8,100 while
//! checkpoints still copied the packet, ~6,900 while every frame kept a
//! second by-demand map, 6,211 while frames sat inline in a hash map,
//! 5,983 while every spawn copied its argument vector into the call cache,
//! the child record, the packet and the frame, and 3,702 now. The ceiling
//! sits just above the measured count, so the guard trips on systematic
//! regressions (a reintroduced argument copy, a per-handler `Vec`, a lost
//! pool), not on noise — and the copying pipeline would fail it.
//!
//! The allocator also tracks live requested bytes, so the same run pins
//! its peak heap: task frames dominate it, and a frame that grows (an
//! inline vote group, a second per-child map) or a store that keeps idle
//! capacity (frames inline in hash-map buckets, every calendar day
//! keeping its high-water buffer) shows up here first.

// A counting GlobalAlloc cannot be written without `unsafe`; the workspace
// denies it by default, so this test opts out locally.
#![allow(unsafe_code)]

use splice::lang::Workload;
use splice::sim::machine::{run_workload, MachineConfig};
use splice::simnet::fault::FaultPlan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Requested bytes currently allocated, tracked at all times.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `LIVE`, raised only while counting.
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    if COUNTING.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method delegates to `System` with the caller's layout
// unchanged; the only extra behaviour is relaxed counter updates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout contract as our caller's.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

/// Runs `f` with counting on. Returns its output, the allocations it
/// made and its peak live heap above the level at its start.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed),
        PEAK.load(Ordering::Relaxed) - start,
    )
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The steady-state pump of a fault-free fib(12) run (4 processors,
/// deterministic DES) must allocate below a pinned ceiling.
///
/// This file must hold exactly one `#[test]` (libtest runs tests on
/// concurrent threads, and the counting allocator is process-global —
/// a sibling test's allocations would land in the measured window), so
/// the `size_of::<Action>` companion pin lives at the end of this test.
#[test]
fn steady_state_pump_stays_under_allocation_ceiling() {
    const CEILING: u64 = 4_500;
    // Peak live bytes above the run's start: 577,136 with shared demand
    // arguments, 617,188 with frames in a chunked slab and recycled
    // calendar day buffers, 970,496 with frames
    // inline in the task map and every day keeping its buffer, 1,256,576
    // before one children map per frame and boxed vote groups.
    const PEAK_CEILING: u64 = 700_000;

    let w = Workload::fib(12);
    let mut cfg = MachineConfig::new(4);
    cfg.recovery.load_beacon_period = 200;
    // Machine construction (engines, queues, placers) is outside the
    // steady-state claim; count only the run itself.
    let machine = splice::sim::machine::Machine::new(cfg, &w);
    let (report, allocs, peak) = counted(|| machine.run(&FaultPlan::none()));

    assert!(report.completed, "run must complete");
    assert_eq!(report.result, Some(w.reference_result().unwrap()));
    assert!(
        allocs < CEILING,
        "steady-state pump allocated {allocs} times (ceiling {CEILING}); \
         a hot-path allocation crept back in"
    );
    assert!(
        peak <= PEAK_CEILING,
        "steady-state pump peaked {peak} bytes above its start \
         (ceiling {PEAK_CEILING}); a task frame grew"
    );
    // Checkpointing must allocate nothing: the same run with recovery off
    // (no checkpoints stored or retired) allocates exactly as often.
    let mut cfg = MachineConfig::new(4);
    cfg.recovery.load_beacon_period = 200;
    cfg.recovery.mode = splice::core::RecoveryMode::None;
    let machine = splice::sim::machine::Machine::new(cfg, &w);
    let (bare_report, bare_allocs, bare_peak) = counted(|| machine.run(&FaultPlan::none()));
    assert!(bare_report.completed, "recovery-off run must complete");
    assert_eq!(bare_report.result, report.result);
    assert_eq!(
        allocs, bare_allocs,
        "checkpointing allocated: {allocs} with splice recovery vs \
         {bare_allocs} with recovery off"
    );
    assert_eq!(
        peak, bare_peak,
        "checkpointing raised the peak heap: {peak} bytes with splice \
         recovery vs {bare_peak} with recovery off"
    );
    // Checksum-only tracing must ride the hot loop for free: the
    // `ChecksumSink` folds every canonical event into two u64 digests
    // with no retained storage, and the digest helpers hash by field.
    // The same run with tracing on must therefore add ZERO heap
    // allocations over the untraced run just measured.
    let mut cfg = MachineConfig::new(4);
    cfg.recovery.load_beacon_period = 200;
    cfg.trace = splice::simnet::trace::TraceMode::Checksum;
    let machine = splice::sim::machine::Machine::new(cfg, &w);
    let (traced_report, traced_allocs, _) = counted(|| machine.run(&FaultPlan::none()));
    assert!(traced_report.completed, "traced run must complete");
    assert!(traced_report.trace.events > 0, "checksum mode must trace");
    assert!(
        traced_allocs <= allocs,
        "checksum tracing allocated: {traced_allocs} with tracing vs \
         {allocs} without — the trace path must not touch the heap"
    );

    // A second run on a fresh machine must not allocate more than the
    // first (the DES is deterministic, so drift here means a leak of
    // determinism, not load).
    let mut cfg = MachineConfig::new(4);
    cfg.recovery.load_beacon_period = 200;
    let (again, allocs_again, _) = counted(|| run_workload(cfg, &w, &FaultPlan::none()));
    assert!(again.completed);
    // The second measurement includes machine construction; allow it a
    // small constant on top of the run ceiling.
    assert!(
        allocs_again < CEILING + 4_000,
        "second run allocated {allocs_again} times"
    );

    // `Action` must stay small enough to move by value through sinks,
    // queues and channels (the companion pin to the `Msg` size test).
    assert!(
        std::mem::size_of::<splice::core::engine::Action>() <= 32,
        "Action grew past 32 bytes: {}",
        std::mem::size_of::<splice::core::engine::Action>()
    );

    // The reactor pump must inherit the allocation-free hot loop: one
    // reusable `ActionSink` per `DriverLoop`, recycled task frames and
    // evaluator pools, mailbox/ready/wheel storage that reaches steady
    // state. Same workload, same claim, own ceiling (the reactor has no
    // DES event queue and delivers without latency, so it allocates less
    // than the simulator run above).
    const REACTOR_CEILING: u64 = 9_000;
    let mut cfg = MachineConfig::new(4);
    cfg.recovery.load_beacon_period = 200;
    let machine = splice::sim::reactor::ReactorMachine::new(cfg, &w);
    let (report, reactor_allocs, _) = counted(|| machine.run(&FaultPlan::none()));
    assert!(report.completed, "reactor run must complete");
    assert_eq!(report.result, Some(w.reference_result().unwrap()));
    assert!(
        reactor_allocs < REACTOR_CEILING,
        "reactor steady-state pump allocated {reactor_allocs} times \
         (ceiling {REACTOR_CEILING}); a hot-path allocation crept in"
    );

    // Asking the parallel reactor for two pumps changes nothing: it runs
    // the same single pump on the caller's thread, so it reports one
    // thread and stays under the same ceiling.
    let mut cfg = MachineConfig::new(4);
    cfg.recovery.load_beacon_period = 200;
    cfg.threads = 2;
    let machine = splice::sim::parallel::ParallelReactorMachine::new(cfg, &w);
    let (report, parallel_allocs, _) = counted(|| machine.run(&FaultPlan::none()));
    assert!(report.completed, "parallel reactor run must complete");
    assert_eq!(report.result, Some(w.reference_result().unwrap()));
    assert_eq!(report.threads, 1);
    assert!(
        parallel_allocs < REACTOR_CEILING,
        "parallel-reactor steady-state pump allocated {parallel_allocs} \
         times (ceiling {REACTOR_CEILING}); a hot-path allocation crept in"
    );
}
