//! Allocation accounting for the array engine with instrumentation off.
//!
//! The observability layer (PR 7) and the timeline trace / partition
//! telemetry (this PR) promise that a *disabled* instrumentation site costs
//! one relaxed atomic load and never allocates. The circuit-level guard in
//! `crates/circuit/tests/alloc.rs` proves the single-cell transient loop;
//! this one pins the promise at array scale: a warm 64-cell (8×8) array
//! write performs exactly the same number of allocations as the previous
//! identical write — no per-step, per-cell, or per-telemetry-site heap
//! traffic sneaks in when tracing is off.
//!
//! Lives in an integration test because it installs a counting global
//! allocator, which needs `unsafe` (the library itself forbids it).
//!
//! The allocator is process-wide but the tests in this file run
//! concurrently, so counting is armed per thread: only allocations made on
//! an armed thread are tallied. [`count`] arms the calling thread and, on
//! request, every thread first touched while it runs — the array engine's
//! device-evaluation workers — so worker-side allocations are covered too.
//! Counting windows are serialized by a lock. That keeps the inheriting
//! window sound: the other test spawns no threads and runs entirely inside
//! its own window, and the harness's threads exist before any window opens.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use tfet_sram::prelude::*;

struct CountingAlloc;

/// Allocations made on armed threads.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Whether an inheriting [`count`] window is open; a thread first touched
/// inside one starts armed.
static ARM_SPAWNED: AtomicBool = AtomicBool::new(false);
/// Serializes [`count`] windows across the concurrently running tests.
static WINDOW: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread's allocations are tallied.
    static ARMED: Cell<bool> = Cell::new(ARM_SPAWNED.load(Ordering::Relaxed));
}

/// Tallies one allocation if the current thread is armed. `try_with`
/// keeps allocations during thread teardown (after the thread-locals are
/// gone) from panicking inside the allocator.
fn tally() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `tally` only touches an atomic and a thread-local `Cell<bool>`
// (no destructor, initialised without allocating), so it never allocates
// or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made while `f` runs on the calling thread and, when
/// `with_spawned`, on every thread spawned meanwhile.
fn count(with_spawned: bool, f: impl FnOnce()) -> usize {
    let _window = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARM_SPAWNED.store(with_spawned, Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ARM_SPAWNED.store(false, Ordering::Relaxed);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_array_write_alloc_count_is_repeatable_with_tracing_off() {
    assert!(!tfet_obs::enabled(), "instrumentation must be opt-in");
    assert!(!tfet_obs::trace::enabled(), "timeline trace must be opt-in");

    let mut cell = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
    cell.sim.dt = 4e-12;
    let mut array = ArrayNetlist::build(ArraySpec::new(8, 8, cell)).unwrap();

    // Warm-up: sizes the thread-local workspace, the sparse pattern, the
    // latency state and every waveform binding for this operation shape.
    array.set_bit(2, 3, false);
    let w = array.write_transient(2, 3, true, 1.5e-9).unwrap();
    assert!(w.success);

    // Two identical warm writes: with every instrumentation site disabled
    // (spans, counters, partition telemetry, timeline trace, forensics
    // context), the only allocations left on the calling thread and its
    // device-evaluation workers are the per-run result buffers and the
    // worker spawns — so the counts must match exactly. Any drift means a
    // disabled-path site started allocating.
    array.set_bit(2, 3, false);
    let first = count(true, || {
        assert!(array.write_transient(2, 3, true, 1.5e-9).unwrap().success);
    });
    array.set_bit(2, 3, false);
    let second = count(true, || {
        assert!(array.write_transient(2, 3, true, 1.5e-9).unwrap().success);
    });
    assert_eq!(
        first, second,
        "disabled-instrumentation array write must have a stable alloc count"
    );
}

#[test]
fn disabled_instrumentation_sites_do_not_allocate() {
    assert!(!tfet_obs::enabled());
    let allocs = count(false, || {
        for i in 0..1024u64 {
            let _span = tfet_obs::span("array_alloc.guard");
            let _ctx = tfet_obs::forensics::context("cell", tfet_obs::Value::UInt(i));
            tfet_obs::counter("array_alloc.guard", 1);
            tfet_obs::partition_cell(
                "array_alloc",
                (i / 8) as u32,
                (i % 8) as u32,
                &[("decisions", 1)],
            );
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled spans/context/partition telemetry must not allocate"
    );
}
