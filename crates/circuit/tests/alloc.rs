//! Allocation accounting for the transient hot loop.
//!
//! The reusable-workspace refactor promises that, once buffers are warm, the
//! per-timestep inner loop performs **zero** heap allocations: doubling the
//! number of steps must not change the allocation count at all (the result
//! storage is pre-sized from the step count, and every solver buffer lives
//! in the `NewtonWorkspace`).
//!
//! This lives in an integration test because it installs a counting global
//! allocator, which needs `unsafe` (the library itself forbids it).
//!
//! The allocator is process-wide but the tests in this file run
//! concurrently, so counting is armed per thread: [`count`] tallies only
//! the allocations made on the thread that calls it, and a sibling test's
//! allocations never leak into another test's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tfet_circuit::transient::InitialState;
use tfet_circuit::{Circuit, NewtonWorkspace, TransientSpec, Waveform};

struct CountingAlloc;

thread_local! {
    /// Whether this thread is inside [`count`].
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made while armed.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Tallies one allocation if the current thread is armed. `try_with`
/// keeps allocations during thread teardown (after the thread-locals are
/// gone) from panicking inside the allocator.
fn tally() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `tally` only touches const-initialised thread-locals without
// destructors, so it never allocates or re-enters the allocator.
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

/// Allocations made on the calling thread while `f` runs.
fn count<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    ARMED.with(|armed| armed.set(true));
    let value = f();
    ARMED.with(|armed| armed.set(false));
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// A driven RC chain — nonlinear-free, but it exercises the full transient
/// loop: companion rebuild, assemble, LU, Newton update, result push.
fn rc_chain() -> Circuit {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let a = c.node("a");
    let b = c.node("b");
    c.vsource(
        "V1",
        vin,
        Circuit::GND,
        Waveform::pulse(0.0, 1.0, 1e-11, 2e-10, 1e-11),
    );
    c.resistor(vin, a, 1e3);
    c.capacitor(a, Circuit::GND, 1e-12);
    c.resistor(a, b, 1e3);
    c.capacitor(b, Circuit::GND, 1e-12);
    c
}

fn run(c: &Circuit, steps: usize, ws: &mut NewtonWorkspace) -> usize {
    let spec = TransientSpec::fixed(steps as f64 * 1e-12, 1e-12);
    let (result, allocs) = count(|| {
        c.transient_with(&spec, &InitialState::Uic(vec![]), &[], ws)
            .unwrap()
    });
    assert_eq!(result.len(), steps + 1);
    allocs
}

fn run_adaptive(c: &Circuit, t_stop: f64, ws: &mut NewtonWorkspace) -> usize {
    let spec = TransientSpec::new(t_stop, 1e-12);
    let (_, allocs) = count(|| {
        c.transient_with(&spec, &InitialState::Uic(vec![]), &[], ws)
            .unwrap()
    });
    allocs
}

#[test]
fn tracing_is_disabled_by_default_and_its_off_path_never_allocates() {
    // The instrumentation contract: tracing is opt-in, and every
    // instrumentation site on the disabled path is one relaxed atomic load —
    // no branch may reach the registry, so no allocation can happen. The
    // transient tests below then prove the instrumented hot loop as a whole
    // stays allocation-free with tracing off.
    assert!(!tfet_obs::enabled(), "tracing must be opt-in");
    let ((), allocs) = count(|| {
        for i in 0..1024 {
            let _span = tfet_obs::span("hot");
            let _root = tfet_obs::root_span("hot-root");
            tfet_obs::counter("alloc.guard", 1);
            tfet_obs::work("alloc.guard_work", 1);
            tfet_obs::record_u64("alloc.guard_hist", i);
            tfet_obs::record_f64("alloc.guard_dist", i as f64);
            tfet_obs::record_series("alloc.guard_series", &[i as f64]);
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled instrumentation sites must not allocate"
    );
}

#[test]
fn transient_inner_loop_allocates_nothing_per_step() {
    let c = rc_chain();
    let mut ws = NewtonWorkspace::new();
    // Warm-up sizes every workspace buffer.
    run(&c, 64, &mut ws);

    let short = run(&c, 200, &mut ws);
    let long = run(&c, 400, &mut ws);
    // With a warm workspace the only allocations left are per-*run* (the
    // returned TransientResult's two pre-sized Vecs and MNA setup), so the
    // count must be independent of the step count.
    assert_eq!(
        long, short,
        "per-step allocations detected: {short} allocs at 200 steps vs {long} at 400"
    );
}

#[test]
fn adaptive_loop_allocates_nothing_per_step() {
    let c = rc_chain();
    let mut ws = NewtonWorkspace::new();
    // Warm-up sizes every workspace buffer, including the adaptive trial
    // and breakpoint buffers.
    run_adaptive(&c, 1e-9, &mut ws);

    let short = run_adaptive(&c, 2e-9, &mut ws);
    let long = run_adaptive(&c, 4e-9, &mut ws);
    // Doubling the simulated horizon multiplies the number of accepted
    // steps but must not change the allocation count: all trial-step
    // scratch lives in the workspace and the waveform store is pre-sized.
    assert_eq!(
        long, short,
        "per-step allocations detected in adaptive path: {short} vs {long}"
    );
}
