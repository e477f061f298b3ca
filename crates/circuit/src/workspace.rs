//! Reusable solver buffers for repeated Newton solves.
//!
//! A transient run performs one damped Newton solve per time step, and a
//! Monte-Carlo study performs thousands of transient runs. Before this
//! module every Newton call allocated its Jacobian, residual and update
//! vectors, and every iteration allocated an LU factorization — hundreds of
//! small heap allocations per time step that dominated the profile for the
//! ≤ ~20-unknown SRAM systems this workspace solves.
//!
//! [`NewtonWorkspace`] owns all of those buffers plus the transient
//! integrator's companion-model scratch. One workspace serves any circuit
//! (buffers grow on demand and are reused thereafter), so a worker thread
//! sweeping Monte-Carlo samples performs O(1) allocations for the whole
//! sweep. Workers get one automatically through the crate-internal
//! thread-local (`with_workspace`); callers that want explicit control —
//! e.g. to hold buffers across many
//! [`transient_with`](crate::netlist::Circuit) calls — can own one
//! directly.
//!
//! The buffers also host the two linear-solve backends the single Newton
//! loop (`dc::newton`) drives: a `DenseState` (n×n matrix + dense LU) and
//! a `SparseState` (pattern-backed matrix + sparse LU + factor reuse),
//! each built lazily on the first solve under its [`SolverStrategy`], so a
//! sparse run never sizes an n² matrix.

use crate::dc::{NewtonMode, SolverStrategy};
use crate::latency::{partition_signature, DeviceLatency, LatencyState};
use crate::mna::{AssemblyStats, CompanionCaps, DeviceLin, IncrementalJac, Mna};
use crate::probe::SolveStats;
use crate::transient::CapBranch;
use std::cell::Cell;
use tfet_numerics::matrix::{LuWorkspace, SolveError};
use tfet_numerics::{Matrix, SparseLu, SparseMatrix, SparsityPattern};

/// Fixed capacity of [`SolverBufs::res_history`], reserved once when the
/// buffers are first sized so per-iteration pushes can never reallocate
/// (the counting-allocator regression pins step-count-independent allocs).
/// Larger than the Newton iteration limit (200), so a full history is kept
/// for every solve.
pub(crate) const RES_HISTORY_CAP: usize = 256;

/// Monotone counters of solver effort since a workspace was created.
/// Consumers measure a run by differencing two snapshots
/// ([`Effort::since`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Effort {
    /// Newton solves started.
    pub(crate) newton_solves: u64,
    /// Newton iterations (Jacobian assemblies).
    pub(crate) newton_iters: u64,
    /// Jacobian factorizations performed (dense or sparse).
    pub(crate) jac_refactored: u64,
    /// Newton iterations that reused a previous factorization.
    pub(crate) jac_reused: u64,
    /// Full transistor model evaluations during assembly.
    pub(crate) device_evals: u64,
    /// Transistor stamps served from the bypass cache.
    pub(crate) devices_bypassed: u64,
    /// Sparse symbolic analyses performed.
    pub(crate) sparse_analyses: u64,
    /// Triangular solves performed (dense or sparse).
    pub(crate) trisolves: u64,
    /// Transistor stamps replayed for devices inside a dormant latency
    /// partition.
    pub(crate) devices_dormant: u64,
    /// Latency partitions refreshed — all member devices re-evaluated in
    /// one assembly.
    pub(crate) cells_refreshed: u64,
    /// Partition refreshes forced by guard-node movement alone.
    pub(crate) guard_refreshes: u64,
}

impl Effort {
    /// Accumulates one assembly's transistor-section breakdown.
    fn add_assembly(&mut self, s: &AssemblyStats) {
        self.device_evals += s.evals;
        self.devices_bypassed += s.bypassed;
        self.devices_dormant += s.dormant;
        self.cells_refreshed += s.cells_refreshed;
        self.guard_refreshes += s.guard_refreshes;
    }

    /// The effort spent between snapshot `earlier` and this one.
    pub(crate) fn since(&self, earlier: &Effort) -> Effort {
        Effort {
            newton_solves: self.newton_solves - earlier.newton_solves,
            newton_iters: self.newton_iters - earlier.newton_iters,
            jac_refactored: self.jac_refactored - earlier.jac_refactored,
            jac_reused: self.jac_reused - earlier.jac_reused,
            device_evals: self.device_evals - earlier.device_evals,
            devices_bypassed: self.devices_bypassed - earlier.devices_bypassed,
            sparse_analyses: self.sparse_analyses - earlier.sparse_analyses,
            trisolves: self.trisolves - earlier.trisolves,
            devices_dormant: self.devices_dormant - earlier.devices_dormant,
            cells_refreshed: self.cells_refreshed - earlier.cells_refreshed,
            guard_refreshes: self.guard_refreshes - earlier.guard_refreshes,
        }
    }

    /// Copies the counters [`SolveStats`] reports into `stats`.
    pub(crate) fn record_into(&self, stats: &mut SolveStats) {
        stats.newton_solves = self.newton_solves;
        stats.newton_iters = self.newton_iters;
        stats.jac_refactored = self.jac_refactored;
        stats.jac_reused = self.jac_reused;
        stats.device_evals = self.device_evals;
        stats.devices_bypassed = self.devices_bypassed;
        stats.devices_dormant = self.devices_dormant;
        stats.cells_refreshed = self.cells_refreshed;
        stats.guard_refreshes = self.guard_refreshes;
    }
}

/// Buffers for one damped-Newton solve: residual, negated RHS, update
/// vector, the lazily built linear-solve backends — plus the lifetime
/// [`Effort`] counters that the transient engine snapshots to report
/// per-run statistics.
#[derive(Debug, Default)]
pub(crate) struct SolverBufs {
    pub(crate) f: Vec<f64>,
    pub(crate) rhs: Vec<f64>,
    pub(crate) dx: Vec<f64>,
    /// Mat-vec scratch for the reused-factor consistency check
    /// ([`Self::sparse_update_consistent`]).
    pub(crate) scratch: Vec<f64>,
    /// Solver effort since this workspace was created (monotone).
    pub(crate) effort: Effort,
    /// Residual infinity-norm after each iteration of the most recent
    /// Newton attempt (cleared per attempt; capped at
    /// [`RES_HISTORY_CAP`]). Feeds [`SimError::NoConvergence`]'s
    /// `residual_norm` and the failure-forensics bundle.
    ///
    /// [`SimError::NoConvergence`]: crate::SimError::NoConvergence
    pub(crate) res_history: Vec<f64>,
    /// Dense solver state, built on first use under the dense strategy and
    /// resized when the unknown count changes.
    pub(crate) dense: Option<DenseState>,
    /// Sparse solver state (pattern-backed Jacobian + factorization engine),
    /// built on first use under the sparse strategy and keyed on the MNA
    /// pattern signature so same-topology runs reuse the symbolic analysis.
    pub(crate) sparse: Option<SparseState>,
    /// Per-transistor linearization cache for device-evaluation bypass
    /// (sparse strategy only; invalidated at every run entry and rebind).
    pub(crate) device_cache: Vec<DeviceLin>,
    /// Quiescent-partition latency state, built on first sparse solve of a
    /// circuit with registered partitions and keyed on the combined
    /// topology + partition signature; `None` for unpartitioned circuits.
    pub(crate) latency: Option<LatencyState>,
}

/// The numeric solver state a transient carries from one step to the next
/// — the retained modified-Newton factor and the device-bypass cache — as a
/// checkpoint holds it. Everything else in [`SolverBufs`] is rebuilt by the
/// next solve before it is read. The dense backend keeps no state.
#[derive(Debug, Default)]
pub(crate) struct SolverSnapshot {
    /// Whether the sparse backend held a reusable (`gmin = 0`) factor.
    has_factor: bool,
    /// Its factor values; meaningful only with `has_factor`.
    factor: Vec<f64>,
    device_cache: Vec<DeviceLin>,
}

impl SolverSnapshot {
    /// Heap bytes held (for the prefix cache's footprint).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.factor.capacity() * std::mem::size_of::<f64>()
            + self.device_cache.capacity() * std::mem::size_of::<DeviceLin>()
    }
}

/// Dense linear-solve state: the n×n Jacobian and its LU workspace. The
/// dense backend refactorizes every iteration and never keeps a factor.
#[derive(Debug)]
pub(crate) struct DenseState {
    pub(crate) j: Matrix,
    pub(crate) lu: LuWorkspace,
}

/// Sparse linear-solve state: the pattern-backed Jacobian the MNA stamps
/// into, the analyze-once/refactorize-many LU engine, and the validity flag
/// driving modified-Newton factorization reuse.
#[derive(Debug)]
pub(crate) struct SparseState {
    /// [`Mna::pattern_signature`] of the topology this state was built for.
    pub(crate) sig: u64,
    pub(crate) jac: SparseMatrix,
    pub(crate) lu: SparseLu,
    /// True while the stored factors correspond to a recent `gmin = 0`
    /// Jacobian of this topology — the precondition for modified-Newton
    /// reuse. Cleared at run entry, on rebind, after gmin-laddered solves,
    /// and on factorization failure.
    pub(crate) factor_valid: bool,
    /// Incremental assembly state for the latency-tier transient path
    /// ([`Mna::assemble_sparse_latent`]): linear/transistor value split and
    /// per-device stamp slots over `jac`'s pattern.
    pub(crate) inc: IncrementalJac,
}

impl SolverBufs {
    /// Sizes every vector for an `n`-unknown system; a no-op when already
    /// at that size. The backends' matrices are sized by [`Self::prepare`].
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.f.len() != n {
            self.f = vec![0.0; n];
            self.rhs = vec![0.0; n];
            self.dx = vec![0.0; n];
            self.scratch = vec![0.0; n];
            if self.res_history.capacity() < RES_HISTORY_CAP {
                self.res_history
                    .reserve_exact(RES_HISTORY_CAP - self.res_history.len());
            }
        }
    }

    /// Sizes the vectors and builds (or keeps) the backend `strategy`
    /// solves `mna` with: the dense matrix, or the sparse pattern plus the
    /// latency-tier state.
    pub(crate) fn prepare(&mut self, mna: &Mna<'_>, strategy: SolverStrategy) {
        self.ensure(mna.unknown_count());
        match strategy {
            SolverStrategy::Dense => self.ensure_dense(mna.unknown_count()),
            SolverStrategy::Sparse => {
                self.ensure_sparse(mna);
                self.ensure_latency(mna);
            }
        }
    }

    /// Invalidates every state-carrying cache: the device-bypass
    /// linearizations and the modified-Newton factor validity. Called at
    /// every run/DC entry and on parameter rebinds, so stale operating
    /// points or factors can never leak across runs or circuits.
    pub(crate) fn invalidate_caches(&mut self) {
        for e in &mut self.device_cache {
            e.valid = false;
        }
        if let Some(s) = &mut self.sparse {
            s.factor_valid = false;
        }
        if let Some(l) = &mut self.latency {
            l.invalidate();
        }
    }

    /// Copies the numeric state the next step reads into `snap`, reusing
    /// its buffers.
    pub(crate) fn save(&self, snap: &mut SolverSnapshot) {
        let reusable = self
            .sparse
            .as_ref()
            .filter(|s| s.factor_valid && s.lu.is_factored());
        snap.has_factor = reusable.is_some();
        snap.factor.clear();
        if let Some(s) = reusable {
            snap.factor.extend_from_slice(s.lu.factor_values());
        }
        snap.device_cache.clone_from(&self.device_cache);
    }

    /// Puts back a state taken by [`Self::save`] on this workspace, under
    /// the same sparse analysis.
    pub(crate) fn restore(&mut self, snap: &SolverSnapshot) {
        if let Some(s) = &mut self.sparse {
            s.factor_valid = snap.has_factor;
            if snap.has_factor {
                s.lu.restore_factors(&snap.factor);
            }
        }
        self.device_cache.clone_from(&snap.device_cache);
    }

    /// Ensures an `n × n` dense state exists, allocating only when the
    /// dimension changed.
    pub(crate) fn ensure_dense(&mut self, n: usize) {
        if self.dense.as_ref().is_some_and(|d| d.j.rows() == n) {
            return;
        }
        self.dense = Some(DenseState {
            j: Matrix::zeros(n, n),
            lu: LuWorkspace::new(n),
        });
    }

    /// Ensures sparse state matching `mna`'s topology exists, building the
    /// pattern (allocating) only when the signature changed. Same-topology
    /// runs — every sweep and Monte-Carlo loop — hit the cheap signature
    /// check and keep their symbolic analysis.
    pub(crate) fn ensure_sparse(&mut self, mna: &Mna<'_>) {
        let sig = mna.pattern_signature();
        if self.sparse.as_ref().is_some_and(|s| s.sig == sig) {
            return;
        }
        let pattern = SparsityPattern::from_entries(mna.unknown_count(), &mna.pattern_entries());
        let inc = IncrementalJac::build(mna, &pattern);
        self.sparse = Some(SparseState {
            sig,
            jac: SparseMatrix::new(pattern),
            lu: SparseLu::new(),
            factor_valid: false,
            inc,
        });
    }

    /// Ensures latency-tier state matching `mna`'s circuit exists: `None`
    /// when the circuit registered no partitions (the overwhelmingly common
    /// case — a cheap emptiness check and no allocation), otherwise built
    /// or rebuilt only when the combined topology + partition signature
    /// changed, so same-topology runs (sweeps, bisection searches) keep
    /// their state across solves.
    pub(crate) fn ensure_latency(&mut self, mna: &Mna<'_>) {
        let parts = mna.circuit().latency_partitions();
        if parts.is_empty() {
            self.latency = None;
            return;
        }
        let sig = partition_signature(mna.pattern_signature(), parts);
        if self.latency.as_ref().is_some_and(|l| l.sig == sig) {
            return;
        }
        self.latency = Some(LatencyState::build(mna.circuit(), sig));
    }

    /// Assembles the residual into `f` and the Jacobian into the backend
    /// `mode.strategy` selects, accumulating the assembly's effort.
    ///
    /// Dense assembly always evaluates every device. Sparse assembly
    /// bypasses settled devices — and, for partitioned circuits, skips
    /// dormant cells and maintains the Jacobian incrementally
    /// ([`Mna::assemble_sparse_latent`]) — but only in transient solves
    /// under [`DeviceLatency::On`]: those solves are LTE-controlled, so the
    /// (second-order) extrapolation error stays far inside the
    /// step-acceptance budget. DC operating points are solved with full
    /// evaluations — they are rare, and they anchor accuracy contracts (VTC
    /// sweeps, SNM extraction) at the Newton tolerance itself.
    /// `DeviceLatency::Off` gives the clean full-evaluation baseline the
    /// figure-identity gate compares against.
    #[allow(clippy::too_many_arguments)] // solver-internal
    pub(crate) fn assemble(
        &mut self,
        mna: &Mna<'_>,
        x: &[f64],
        t: f64,
        gmin: f64,
        anchor: Option<&[f64]>,
        caps: Option<&CompanionCaps>,
        mode: NewtonMode,
    ) {
        let stats = match mode.strategy {
            SolverStrategy::Dense => {
                let d = self.dense.as_mut().expect("dense state prepared");
                mna.assemble_into(x, t, gmin, anchor, caps, &mut d.j, &mut self.f, None)
            }
            SolverStrategy::Sparse => {
                let s = self.sparse.as_mut().expect("sparse state prepared");
                let use_cache = caps.is_some() && mode.latency == DeviceLatency::On;
                match (use_cache, self.latency.as_mut(), caps) {
                    (true, Some(lat), Some(caps)) => mna.assemble_sparse_latent(
                        x,
                        t,
                        gmin,
                        anchor,
                        caps,
                        &mut s.jac,
                        &mut s.inc,
                        &mut self.f,
                        &mut self.device_cache,
                        lat,
                    ),
                    _ => {
                        let cache = use_cache.then_some(&mut self.device_cache);
                        mna.assemble_into(x, t, gmin, anchor, caps, &mut s.jac, &mut self.f, cache)
                    }
                }
            }
        };
        self.effort.add_assembly(&stats);
    }

    /// Whether the backend holds a factorization this iteration may reuse:
    /// only the sparse backend ever keeps one (a valid `gmin = 0` factor);
    /// the dense backend refactorizes every iteration.
    pub(crate) fn has_reusable_factor(&self, strategy: SolverStrategy) -> bool {
        strategy == SolverStrategy::Sparse
            && self
                .sparse
                .as_ref()
                .is_some_and(|s| s.factor_valid && s.lu.is_factored())
    }

    /// (Re)factorizes the Jacobian the last [`Self::assemble`] produced.
    ///
    /// Dense: a full LU of the matrix. Sparse: symbolic analysis on first
    /// use (or as a one-shot pivot-order refresh after a refactorization
    /// failure), the zero-alloc numeric replay otherwise; `gmin_zero` gates
    /// whether the resulting factors are eligible for modified-Newton
    /// reuse.
    pub(crate) fn refactor(
        &mut self,
        strategy: SolverStrategy,
        gmin_zero: bool,
    ) -> Result<(), SolveError> {
        self.effort.jac_refactored += 1;
        // No child spans for the analyze/replay split: each worker's
        // workspace analyzes lazily on first use, so the split is
        // scheduling-dependent — only the total (this span) belongs in the
        // deterministic span tree. `solver.sparse_analyses` lives in the
        // report's `work` section for the same reason.
        let _span = tfet_obs::span("refactor");
        if strategy == SolverStrategy::Dense {
            let d = self.dense.as_mut().expect("dense state prepared");
            return d.lu.factorize(&d.j);
        }
        let s = self.sparse.as_mut().expect("sparse state prepared");
        let r = if !s.lu.is_analyzed() {
            self.effort.sparse_analyses += 1;
            s.lu.analyze(&s.jac)
        } else {
            match s.lu.refactorize(&s.jac) {
                Ok(()) => Ok(()),
                Err(_) => {
                    self.effort.sparse_analyses += 1;
                    s.lu.analyze(&s.jac)
                }
            }
        };
        s.factor_valid = r.is_ok() && gmin_zero;
        r
    }

    /// Solves `J·dx = rhs` with the backend's current factors.
    pub(crate) fn solve(&mut self, strategy: SolverStrategy) {
        match strategy {
            SolverStrategy::Dense => {
                let d = self.dense.as_ref().expect("dense state prepared");
                d.lu.solve_into(&self.rhs, &mut self.dx);
            }
            SolverStrategy::Sparse => {
                let s = self.sparse.as_mut().expect("sparse state prepared");
                s.lu.solve_into(&self.rhs, &mut self.dx);
            }
        }
        self.effort.trisolves += 1;
    }

    /// Validates a Newton update computed from a *reused* factorization
    /// against the freshly assembled Jacobian: the linear solve is accepted
    /// only when `‖J·dx + f‖∞ ≤ 0.1·‖f‖∞`, i.e. the stale factor still
    /// solves the current system to within 10%. One sparse mat-vec — cheap
    /// relative to even a single device evaluation.
    ///
    /// This is what makes factor reuse *safe* rather than heuristic: a
    /// factor carried across a step-size change (companion `C/Δt` terms
    /// moved) or from a synthetic system (the UIC hold solve pins every
    /// node with a huge conductance) produces updates that pass the
    /// `|Δv| < v_tol` test vacuously while solving the wrong system. The
    /// check catches exactly that and forces a refactorization.
    pub(crate) fn sparse_update_consistent(&mut self) -> bool {
        let s = self.sparse.as_ref().expect("sparse state prepared");
        s.jac.mul_vec(&self.dx, &mut self.scratch);
        let mut err = 0.0f64;
        for (r, v) in self.scratch.iter().zip(&self.f) {
            err = err.max((r + v).abs());
        }
        let fmax = self.f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        err <= 0.1 * fmax + 1e-30
    }
}

/// Number of `(time, step)` entries [`StepTrace`] retains.
pub(crate) const STEP_TRACE_CAP: usize = 64;

/// Fixed-size ring buffer of the transient engine's most recent step
/// attempts — `(target time, signed step)` with rejected trials carrying a
/// negative step. Recording is two stores and an index update, cheap enough
/// to stay on unconditionally; the buffer is only read (and only allocates,
/// via `to_vec`) on the failure-forensics path.
#[derive(Debug, Clone)]
pub(crate) struct StepTrace {
    entries: [(f64, f64); STEP_TRACE_CAP],
    head: usize,
    len: usize,
}

impl Default for StepTrace {
    fn default() -> Self {
        StepTrace {
            entries: [(0.0, 0.0); STEP_TRACE_CAP],
            head: 0,
            len: 0,
        }
    }
}

impl StepTrace {
    pub(crate) fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Records one step attempt: `h > 0` accepted, `h < 0` rejected at
    /// `|h|`.
    pub(crate) fn record(&mut self, t: f64, h: f64) {
        self.entries[self.head] = (t, h);
        self.head = (self.head + 1) % STEP_TRACE_CAP;
        self.len = (self.len + 1).min(STEP_TRACE_CAP);
    }

    /// The retained attempts in chronological order (oldest first).
    pub(crate) fn to_vec(&self) -> Vec<(f64, f64)> {
        let start = (self.head + STEP_TRACE_CAP - self.len) % STEP_TRACE_CAP;
        (0..self.len)
            .map(|i| self.entries[(start + i) % STEP_TRACE_CAP])
            .collect()
    }
}

/// Reusable scratch space for DC and transient solves.
///
/// All buffers grow on first use and are retained across calls, so repeated
/// solves of same-sized circuits — the shape of every sweep and Monte-Carlo
/// loop in this workspace — run allocation-free after warm-up.
///
/// [`Circuit::transient`](crate::netlist::Circuit::transient) borrows a
/// thread-local workspace transparently;
/// [`Circuit::transient_with`](crate::netlist::Circuit::transient_with)
/// accepts one explicitly.
#[derive(Debug, Default)]
pub struct NewtonWorkspace {
    pub(crate) bufs: SolverBufs,
    /// Snapshot of the initial guess that the g_min ladder anchors to.
    pub(crate) anchor: Vec<f64>,
    /// Companion-model capacitor stamps for the current transient step.
    pub(crate) companions: CompanionCaps,
    /// Capacitive branches linearized at the start of the current step.
    pub(crate) branches: Vec<CapBranch>,
    /// Double buffer for re-linearizing branches at the end of a step.
    pub(crate) branches_next: Vec<CapBranch>,
    /// Branches re-linearized at the midpoint of an adaptive trial step.
    pub(crate) branches_mid: Vec<CapBranch>,
    /// Coarse (single full-step) solution of an adaptive trial step.
    pub(crate) x_coarse: Vec<f64>,
    /// Fine (two half-steps) solution of an adaptive trial step.
    pub(crate) x_fine: Vec<f64>,
    /// Sorted source-edge times for the adaptive breakpoint schedule.
    pub(crate) breakpoints: Vec<f64>,
    /// Ring buffer of the most recent transient step attempts, read by the
    /// failure-forensics path.
    pub(crate) step_trace: StepTrace,
}

impl NewtonWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        NewtonWorkspace::default()
    }
}

thread_local! {
    /// Per-thread workspace shared by every solve on this thread. Stored in
    /// a `Cell<Option<…>>` and *taken* for the duration of a solve: if a
    /// solve re-enters (a transient whose initial state runs a DC solve
    /// through the public API), the inner call finds the slot empty and
    /// works on a fresh temporary instead of aliasing the outer buffers.
    static WORKSPACE: Cell<Option<Box<NewtonWorkspace>>> = const { Cell::new(None) };
}

/// Runs `f` with this thread's reusable workspace.
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut NewtonWorkspace) -> R) -> R {
    WORKSPACE.with(|slot| {
        let mut ws = slot.take().unwrap_or_default();
        let out = f(&mut ws);
        slot.set(Some(ws));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_is_idempotent_at_fixed_size() {
        let mut bufs = SolverBufs::default();
        bufs.ensure(5);
        let ptr = bufs.f.as_ptr();
        bufs.ensure(5);
        assert_eq!(bufs.f.as_ptr(), ptr, "same-size ensure must not reallocate");
        bufs.ensure(7);
        assert_eq!(bufs.f.len(), 7);
        // Vectors only: the n×n matrix belongs to the dense backend.
        assert!(bufs.dense.is_none(), "ensure must not build dense state");
        bufs.ensure_dense(7);
        let ptr: *const f64 = &bufs.dense.as_ref().unwrap().j[(0, 0)];
        bufs.ensure_dense(7);
        let d = bufs.dense.as_ref().unwrap();
        assert_eq!(d.j.rows(), 7);
        assert_eq!(
            &d.j[(0, 0)] as *const f64,
            ptr,
            "same-size dense state is kept"
        );
    }

    #[test]
    fn thread_local_workspace_is_reentrant() {
        with_workspace(|outer| {
            outer.bufs.ensure(4);
            let outer_ptr = outer.bufs.f.as_ptr();
            // A nested borrow must get a distinct workspace, not panic or
            // alias the outer one.
            with_workspace(|inner| {
                inner.bufs.ensure(4);
                assert_ne!(inner.bufs.f.as_ptr(), outer_ptr);
            });
            outer.bufs.f[0] = 1.0;
        });
    }

    #[test]
    fn step_trace_wraps_and_keeps_chronological_order() {
        let mut tr = StepTrace::default();
        assert!(tr.to_vec().is_empty());
        tr.record(1.0, 0.5);
        tr.record(2.0, -0.25);
        assert_eq!(tr.to_vec(), vec![(1.0, 0.5), (2.0, -0.25)]);
        // Overflow the ring: only the newest STEP_TRACE_CAP entries stay,
        // oldest first.
        for i in 0..STEP_TRACE_CAP {
            tr.record(i as f64, 1.0);
        }
        let v = tr.to_vec();
        assert_eq!(v.len(), STEP_TRACE_CAP);
        assert_eq!(v[0], (0.0, 1.0));
        assert_eq!(v[STEP_TRACE_CAP - 1], ((STEP_TRACE_CAP - 1) as f64, 1.0));
        tr.clear();
        assert!(tr.to_vec().is_empty());
    }

    #[test]
    fn thread_local_workspace_persists_across_calls() {
        let first = with_workspace(|ws| {
            ws.bufs.ensure(6);
            ws.bufs.f.as_ptr() as usize
        });
        let second = with_workspace(|ws| ws.bufs.f.as_ptr() as usize);
        assert_eq!(first, second, "buffers must be reused between solves");
    }
}
