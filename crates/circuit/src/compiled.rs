//! Compiled circuits: build once, bind parameters, re-run.
//!
//! Every experiment in the SRAM pipeline — a WL_crit bisection, a
//! Monte-Carlo sample, an array operation — re-runs the *same topology*
//! with only stimulus waveforms or device bindings changed. Rebuilding the
//! netlist for each run re-interns every node, re-validates the MNA
//! pattern, and re-instantiates every device evaluator, all to arrive at a
//! structurally identical system.
//!
//! [`CompiledCircuit`] splits that work into three stages:
//!
//! 1. **compile** — [`CompiledCircuit::compile`] freezes a [`Circuit`]:
//!    node ordering, element storage order (which fixes the float summation
//!    order of the MNA stamps, and therefore bit-exact reproducibility) and
//!    the MNA sparsity pattern are validated once and never change again.
//! 2. **bind** — [`bind_wave`](CompiledCircuit::bind_wave) swaps a source
//!    stimulus behind a typed [`ParamHandle`], and
//!    [`bind_device`](CompiledCircuit::bind_device) swaps a transistor's
//!    model/width in place. Binds never add or remove elements, so the
//!    sparsity pattern and unknown ordering survive every rebind.
//! 3. **run** — [`run`](CompiledCircuit::run) executes the transient engine
//!    against the frozen form with the owned, reusable [`NewtonWorkspace`],
//!    so repeated runs perform no solver-scratch allocation.
//!
//! Because a run's numbers depend only on the circuit *state* (topology +
//! current bindings) and never on how that state was reached, re-running a
//! bound compiled circuit is bit-identical to a fresh build per call — the
//! determinism regression suite pins this.
//!
//! The savings are observable, not asserted: every [`TransientResult`]
//! reports `circuit_builds`, `param_binds` and `runs` in its
//! [`SolveStats`], and the counters aggregate under
//! `absorb`, so a seeded sweep can prove it compiled once and ran many
//! times.
//!
//! # Prefix reuse
//!
//! A bisection over a pulse width re-runs one transient whose stimuli agree
//! up to the end of the shorter pulse, so every run repeats the same
//! trajectory up to there. After
//! [`enable_prefix_reuse`](CompiledCircuit::enable_prefix_reuse), a run
//! records checkpoints, and the next run resumes from the latest one it
//! shares instead of starting at `t = 0`. The invariant is that **every
//! stored checkpoint is a state the next run would reach bit for bit**. A
//! checkpoint holds the loop state (time, proposed step, solution, step
//! count, how far ahead the run has looked), the capacitor branches'
//! current history, and the solver numerics the next step reads: the
//! retained modified-Newton factor and the device-bypass cache. These rules
//! keep the invariant:
//!
//! * **Stimulus rebinds.** [`bind_wave`](CompiledCircuit::bind_wave) drops
//!   every checkpoint that looked at or past `s − ½·dt_min`, where `s` is
//!   [`Waveform::shared_until`] of the old and new stimulus. Beyond that
//!   the step schedule could differ. It also drops every checkpoint that
//!   depends on a solve time at which the two stimuli evaluate to
//!   different bits: a plateau whose end moved can round differently.
//! * **Device rebinds.** [`bind_device`](CompiledCircuit::bind_device)
//!   clears the cache.
//! * **Resume conditions.** A run resumes only under the same
//!   [`InitialState`], the same spec except for `t_stop`, and the same
//!   sparse pivot analysis. It resumes from a checkpoint before every
//!   armed stop event's `t_arm`, and one whose look-ahead stays a step
//!   floor short of the new `t_stop`.
//! * **Per-run stats.** A resumed result starts at `t = 0`: the cached
//!   rows are copied in. Its [`SolveStats`] count only the work done in
//!   that run, with the skipped steps in `resumed_steps`.
//!
//! The cache holds at most 64 checkpoints and thins by halving when full.
//! It reuses its buffers once warm. Circuits with latency partitions never
//! record, and circuits that do not opt in pay nothing.

use crate::dc::{DcResult, SolverStrategy};
use crate::error::SimError;
use crate::mna::Mna;
use crate::netlist::{Circuit, SourceId};
use crate::probe::{SolveStats, TransientResult};
use crate::transient::{InitialState, LoopState, StepControl, StopEvent, TransientSpec};
use crate::waveform::Waveform;
use crate::workspace::{NewtonWorkspace, SolverSnapshot};
use std::sync::Arc;
use tfet_devices::model::DeviceModel;

/// Typed handle to one bindable stimulus of a [`CompiledCircuit`].
///
/// Obtained from [`CompiledCircuit::param`]; passing it to
/// [`CompiledCircuit::bind_wave`] swaps the waveform of exactly the source
/// it was created for. Handles are plain indices into the frozen source
/// table, so they stay valid for the lifetime of the compiled circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamHandle {
    source: SourceId,
}

/// A circuit frozen for repeated execution: topology, node ordering and
/// MNA pattern fixed at compile time; stimuli and device bindings mutable
/// through typed binds; runs executed against an owned reusable
/// [`NewtonWorkspace`].
///
/// See the [module docs](self) for the compile/bind/run architecture.
#[derive(Debug)]
pub struct CompiledCircuit {
    circuit: Circuit,
    ws: NewtonWorkspace,
    /// Builds not yet attributed to a run (1 after compile, 0 after the
    /// first run reports it).
    pending_builds: u64,
    /// Binds applied since the last run, attributed to the next run.
    pending_binds: u64,
    /// Cumulative stats across every successful run of this compiled
    /// circuit (see [`lifetime_stats`](CompiledCircuit::lifetime_stats)).
    lifetime: SolveStats,
    /// Checkpoints of earlier runs, once opted in (see the
    /// [module docs](self#prefix-reuse)).
    prefix: Option<PrefixCache>,
}

impl CompiledCircuit {
    /// Compiles a circuit: validates the netlist and MNA pattern once and
    /// freezes the topology. Counts one `circuit_builds` toward the first
    /// subsequent [`run`](CompiledCircuit::run).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidCircuit`] for structurally bad netlists (no
    /// elements, no non-ground nodes).
    pub fn compile(circuit: Circuit) -> Result<Self, SimError> {
        let mut ws = NewtonWorkspace::new();
        {
            // Freeze the Jacobian sparsity pattern now: binds never change
            // topology, so every subsequent sparse run reuses this pattern
            // (and, after the first factorization, its symbolic analysis).
            let mna = Mna::new(&circuit)?;
            ws.bufs.ensure_sparse(&mna);
        }
        tfet_obs::work("compiled.compiles", 1);
        Ok(CompiledCircuit {
            circuit,
            ws,
            pending_builds: 1,
            pending_binds: 0,
            lifetime: SolveStats::default(),
            prefix: None,
        })
    }

    /// Opts in to prefix reuse: from now on every run records checkpoints
    /// and resumes from the latest one it shares with an earlier run (see
    /// the [module docs](self#prefix-reuse)). Results stay bit-identical to
    /// runs from `t = 0`.
    pub fn enable_prefix_reuse(&mut self) {
        self.prefix.get_or_insert_with(PrefixCache::default);
    }

    /// Heap bytes the prefix cache holds (0 unless opted in).
    pub fn prefix_cache_bytes(&self) -> usize {
        self.prefix.as_ref().map_or(0, PrefixCache::heap_bytes)
    }

    /// The frozen netlist (read-only; mutation goes through binds).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// A typed handle to the stimulus of the given source.
    ///
    /// # Panics
    ///
    /// Panics if the source id does not belong to this circuit.
    pub fn param(&self, source: SourceId) -> ParamHandle {
        assert!(
            source.0 < self.circuit.vsource_count(),
            "stale source id for compiled circuit"
        );
        ParamHandle { source }
    }

    /// Binds a new stimulus waveform to a parameter — pulse widths, assist
    /// levels, drive targets. Never changes the sparsity pattern.
    pub fn bind_wave(&mut self, param: ParamHandle, wave: Waveform) {
        if let Some(p) = &mut self.prefix {
            p.keep_shared(&self.circuit.vsource_info(param.source).wave, &wave);
        }
        self.circuit.set_vsource_wave(param.source, wave);
        self.pending_binds += 1;
    }

    /// Binds a device model and gate width to the transistor at `index`
    /// (netlist insertion order) — how Monte-Carlo variation samples and β
    /// re-sizings reach a compiled cell. Terminals stay frozen, so the
    /// sparsity pattern is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `width_um <= 0`.
    pub fn bind_device(&mut self, index: usize, model: Arc<dyn DeviceModel>, width_um: f64) {
        self.circuit.set_transistor_device(index, model, width_um);
        // The cached linearization (and any retained factorization) was
        // computed with the old model/width.
        self.ws.bufs.invalidate_caches();
        if let Some(p) = &mut self.prefix {
            p.clear();
        }
        self.pending_binds += 1;
    }

    /// Runs the transient engine against the compiled form using the owned
    /// workspace. The result's [`SolveStats`] carry the
    /// compile (first run only) and the binds applied since the previous
    /// run, so aggregated stats expose the build/bind/run ratio.
    ///
    /// # Errors
    ///
    /// Propagates DC/Newton failures ([`SimError::NoConvergence`],
    /// [`SimError::SingularMatrix`]).
    pub fn run(
        &mut self,
        spec: &TransientSpec,
        initial: &InitialState,
        events: &[StopEvent],
    ) -> Result<TransientResult, SimError> {
        let run =
            self.circuit
                .run_transient(spec, initial, events, &mut self.ws, self.prefix.as_mut());
        let mut result = match run {
            Ok(result) => result,
            Err(e) => {
                // A failed run leaves the cache half-updated.
                if let Some(p) = &mut self.prefix {
                    p.clear();
                }
                return Err(e);
            }
        };
        result.stats.circuit_builds = std::mem::take(&mut self.pending_builds);
        result.stats.param_binds = std::mem::take(&mut self.pending_binds);
        self.lifetime.absorb(&result.stats);
        if tfet_obs::enabled() {
            tfet_obs::counter("compiled.runs", 1);
            // Builds and binds are attributed per compiled instance; under a
            // thread-pool each worker compiles its own copy (fewer binds,
            // more builds), so both are scheduling-dependent `work` metrics,
            // not counters.
            tfet_obs::work("compiled.binds", result.stats.param_binds);
            tfet_obs::work("compiled.builds", result.stats.circuit_builds);
        }
        Ok(result)
    }

    /// Cumulative [`SolveStats`] across every successful
    /// [`run`](CompiledCircuit::run) of this compiled circuit.
    ///
    /// Where a result's [`TransientResult::stats`] are **per-run**
    /// (snapshot-differenced around that run alone), this accessor is the
    /// **lifetime** view: each run's per-run stats absorbed in order. Use it
    /// to prove a sweep compiled once and ran many times without collecting
    /// every intermediate result.
    pub fn lifetime_stats(&self) -> &SolveStats {
        &self.lifetime
    }

    /// Solves the DC operating point of the compiled form from voltage
    /// hints (the hints select the basin for bistable circuits), reusing
    /// the owned workspace. Build/bind counters stay pending for the next
    /// transient run — DC results carry no stats.
    ///
    /// # Errors
    ///
    /// Propagates Newton failures ([`SimError::NoConvergence`],
    /// [`SimError::SingularMatrix`]).
    pub fn dc_op(&mut self, guess: &[(crate::NodeId, f64)]) -> Result<DcResult, SimError> {
        tfet_obs::counter("compiled.dc_ops", 1);
        let mna = Mna::new(&self.circuit)?;
        let x = self
            .circuit
            .dc_state_with(&mna, guess, &mut self.ws, SolverStrategy::default())?;
        Ok(DcResult {
            x,
            n_v: mna.voltage_count(),
            source_volts: self
                .circuit
                .vsources
                .iter()
                .map(|v| v.wave.initial())
                .collect(),
        })
    }
}

/// Most checkpoints a [`PrefixCache`] holds; recording halves them past it.
const MAX_CHECKPOINTS: usize = 64;

/// A run's state after an accepted step, as the prefix cache stores it. The
/// capacitor branches are a function of the solution except for their
/// current history, so only that is kept.
#[derive(Debug, Default)]
struct Checkpoint {
    state: LoopState,
    /// Each capacitor branch's current history (`CapBranch::i_prev`).
    branch_currents: Vec<f64>,
    solver: SolverSnapshot,
    /// Entries of the stimulus-time log this state depends on.
    evals: usize,
}

/// The checkpoints a compiled circuit resumes runs from, with the waveform
/// rows and stimulus times they depend on (see the
/// [module docs](self#prefix-reuse) for the invariant).
#[derive(Debug, Default)]
pub(crate) struct PrefixCache {
    /// The spec (with `t_stop` zeroed) and initial state the checkpoints
    /// were recorded under; `None` until the first run.
    key: Option<(TransientSpec, InitialState)>,
    /// The workspace's sparse-analysis count when they were recorded: a new
    /// pivot order changes every later factor.
    analyses: u64,
    /// The first `live` entries are the checkpoints, in time order, each
    /// after an accepted step whose index is a multiple of `stride`. The
    /// rest are buffers kept for reuse.
    slots: Vec<Checkpoint>,
    live: usize,
    stride: usize,
    /// Every time a Newton solve of the recorded runs evaluated the
    /// stimuli at, in solve order.
    evals: Vec<f64>,
    /// Waveform rows `0..=` the last checkpoint's step: times and the
    /// flattened node voltages.
    times: Vec<f64>,
    data: Vec<f64>,
    /// Whether the current run still records.
    recording: bool,
    /// The current run's `t_stop` and step floor (`dt_min`, or `dt` on the
    /// fixed grid).
    t_stop: f64,
    floor: f64,
}

/// The smallest step `spec` can take: `dt_min`, or `dt` on the fixed grid.
fn step_floor(spec: &TransientSpec) -> f64 {
    match spec.control {
        StepControl::Fixed => spec.dt,
        StepControl::Adaptive(a) => a.dt_min,
    }
}

impl PrefixCache {
    fn checkpoints(&self) -> &[Checkpoint] {
        &self.slots[..self.live]
    }

    /// Drops every checkpoint.
    pub(crate) fn clear(&mut self) {
        self.live = 0;
    }

    /// Keeps only the checkpoints that binding `new` in place of `old` on
    /// one source cannot reach.
    pub(crate) fn keep_shared(&mut self, old: &Waveform, new: &Waveform) {
        let (Some((spec, _)), Some(last)) = (&self.key, self.checkpoints().last()) else {
            return;
        };
        let half = 0.5 * step_floor(spec);
        let s = old.shared_until(new);
        let differs = self.evals[..last.evals]
            .iter()
            .position(|&t| old.value(t).to_bits() != new.value(t).to_bits())
            .unwrap_or(usize::MAX);
        self.live = self
            .checkpoints()
            .iter()
            .position(|c| c.state.reach + half >= s || c.evals > differs)
            .unwrap_or(self.live);
    }

    /// The latest checkpoint a run of `spec` from `initial` with `events`
    /// would pass through, on a workspace whose analysis count is
    /// `analyses`.
    pub(crate) fn resume_point(
        &self,
        spec: &TransientSpec,
        initial: &InitialState,
        events: &[StopEvent],
        analyses: u64,
    ) -> Option<usize> {
        let (key_spec, key_initial) = self.key.as_ref()?;
        let spec0 = TransientSpec {
            t_stop: 0.0,
            ..*spec
        };
        if analyses != self.analyses || *key_spec != spec0 || key_initial != initial {
            return None;
        }
        let t_arm = events.iter().fold(f64::INFINITY, |m, e| m.min(e.t_arm));
        let floor = step_floor(spec);
        self.checkpoints()
            .iter()
            .rposition(|c| c.state.t < t_arm && c.state.reach + floor < spec.t_stop)
    }

    /// Restores checkpoint `i` into `ws` and copies its rows into `result`;
    /// returns the loop state to continue from. `ws.branches` must already
    /// hold the branches linearized at that state's solution; this puts
    /// back their current history.
    pub(crate) fn seed(
        &self,
        i: usize,
        ws: &mut NewtonWorkspace,
        result: &mut TransientResult,
    ) -> LoopState {
        let c = &self.checkpoints()[i];
        for (b, &i_prev) in ws.branches.iter_mut().zip(&c.branch_currents) {
            b.i_prev = i_prev;
        }
        ws.bufs.restore(&c.solver);
        let rows = c.state.step + 1;
        let stride = self.data.len() / self.times.len();
        result.extend_rows(&self.times[..rows], &self.data[..rows * stride]);
        result.stats.resumed_steps = c.state.step as u64;
        c.state.clone()
    }

    /// The solution at checkpoint `i`.
    pub(crate) fn solution(&self, i: usize) -> &[f64] {
        &self.checkpoints()[i].state.x
    }

    /// Starts recording a run: after resuming from checkpoint `resume`, or
    /// from scratch (dropping everything) after a fresh initial solve.
    pub(crate) fn begin(
        &mut self,
        spec: &TransientSpec,
        initial: &InitialState,
        resume: Option<usize>,
        analyses: u64,
    ) {
        match resume {
            Some(i) => {
                self.live = i + 1;
                self.evals.truncate(self.slots[i].evals);
            }
            None => {
                self.live = 0;
                self.stride = 1;
                self.evals.clear();
                // The initial state is solved at t = 0.
                self.evals.push(0.0);
                self.key = Some((
                    TransientSpec {
                        t_stop: 0.0,
                        ..*spec
                    },
                    initial.clone(),
                ));
                self.analyses = analyses;
            }
        }
        self.recording = true;
        self.t_stop = spec.t_stop;
        self.floor = step_floor(spec);
    }

    /// Logs that the run is about to solve at time `t`.
    pub(crate) fn log(&mut self, t: f64) {
        if self.recording {
            self.evals.push(t);
        }
    }

    /// Stops recording for the rest of the run.
    pub(crate) fn stop(&mut self) {
        self.recording = false;
    }

    /// Offers the state after an accepted step as a checkpoint.
    pub(crate) fn record(&mut self, st: &LoopState, ws: &NewtonWorkspace) {
        if !self.recording {
            return;
        }
        if ws.bufs.effort.sparse_analyses != self.analyses || st.reach + self.floor >= self.t_stop {
            // A new pivot order, or a step that looked at the run's end:
            // no later state is one the next run reaches.
            self.recording = false;
            return;
        }
        if !st.step.is_multiple_of(self.stride) {
            return;
        }
        if self.live == MAX_CHECKPOINTS {
            self.stride *= 2;
            let mut kept = 0;
            for k in 0..self.live {
                if self.slots[k].state.step.is_multiple_of(self.stride) {
                    self.slots.swap(kept, k);
                    kept += 1;
                }
            }
            self.live = kept;
            if !st.step.is_multiple_of(self.stride) {
                return;
            }
        }
        if self.live == self.slots.len() {
            self.slots.push(Checkpoint::default());
        }
        let c = &mut self.slots[self.live];
        c.state.copy_from(st);
        c.branch_currents.clear();
        c.branch_currents
            .extend(ws.branches.iter().map(|b| b.i_prev));
        ws.bufs.save(&mut c.solver);
        c.evals = self.evals.len();
        self.live += 1;
    }

    /// Ends the run: keeps its rows up to the last checkpoint.
    pub(crate) fn finish(&mut self, result: &TransientResult) {
        self.recording = false;
        if let Some(last) = self.checkpoints().last() {
            let (times, data) = result.rows(last.state.step + 1);
            self.times.clear();
            self.times.extend_from_slice(times);
            self.data.clear();
            self.data.extend_from_slice(data);
        }
    }

    /// Heap bytes held: every checkpoint slot, the stimulus log and the
    /// rows.
    fn heap_bytes(&self) -> usize {
        let f64s = |v: &Vec<f64>| v.capacity() * std::mem::size_of::<f64>();
        let slot = |c: &Checkpoint| {
            std::mem::size_of::<Checkpoint>()
                + f64s(&c.state.x)
                + f64s(&c.branch_currents)
                + c.solver.heap_bytes()
        };
        self.slots.iter().map(slot).sum::<usize>()
            + f64s(&self.evals)
            + f64s(&self.times)
            + f64s(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NodeId;
    use tfet_devices::NTfet;

    fn rc(level: f64) -> (Circuit, SourceId, NodeId) {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        let v = c.vsource(
            "V",
            inp,
            Circuit::GND,
            Waveform::step(0.0, level, 0.0, 1e-12),
        );
        c.resistor(inp, out, 1e3);
        c.capacitor(out, Circuit::GND, 1e-12);
        (c, v, out)
    }

    #[test]
    fn rebind_and_rerun_matches_fresh_builds() {
        let spec = TransientSpec::new(3e-9, 2e-12);
        let initial = InitialState::Uic(vec![]);
        let (c, v, out) = rc(1.0);
        let mut compiled = CompiledCircuit::compile(c).unwrap();
        let h = compiled.param(v);

        for level in [1.0, 0.5, 1.0, 0.25] {
            compiled.bind_wave(h, Waveform::step(0.0, level, 0.0, 1e-12));
            let reused = compiled.run(&spec, &initial, &[]).unwrap();
            let (fresh_c, _, fresh_out) = rc(level);
            let fresh = fresh_c.transient(&spec, &initial).unwrap();
            assert_eq!(reused.times(), fresh.times(), "level {level}");
            assert_eq!(reused.trace(out), fresh.trace(fresh_out), "level {level}");
        }
    }

    #[test]
    fn build_bind_run_counters() {
        let spec = TransientSpec::new(1e-9, 2e-12);
        let initial = InitialState::Uic(vec![]);
        let (c, v, _) = rc(1.0);
        let mut compiled = CompiledCircuit::compile(c).unwrap();
        let h = compiled.param(v);

        let first = compiled.run(&spec, &initial, &[]).unwrap();
        assert_eq!(first.stats.circuit_builds, 1, "compile counted once");
        assert_eq!(first.stats.param_binds, 0);
        assert_eq!(first.stats.runs, 1);

        compiled.bind_wave(h, Waveform::step(0.0, 0.5, 0.0, 1e-12));
        compiled.bind_wave(h, Waveform::step(0.0, 0.7, 0.0, 1e-12));
        let second = compiled.run(&spec, &initial, &[]).unwrap();
        assert_eq!(second.stats.circuit_builds, 0, "no rebuild on re-run");
        assert_eq!(second.stats.param_binds, 2);
        assert_eq!(second.stats.runs, 1);

        // Both plain one-shot forms report rebuild-per-run.
        let (c2, _, _) = rc(1.0);
        let plain = c2.transient(&spec, &initial).unwrap();
        assert_eq!(plain.stats.circuit_builds, 1);
        assert_eq!(plain.stats.runs, 1);
        let mut ws = crate::NewtonWorkspace::new();
        let full = c2.transient_with(&spec, &initial, &[], &mut ws).unwrap();
        assert_eq!(full.stats.circuit_builds, 1);
        assert_eq!(full.stats.runs, 1);

        // Aggregation: 1 build, 2 binds, 3 runs across the compiled pair +
        // plain run.
        let mut total = first.stats;
        total.absorb(&second.stats);
        assert_eq!(
            (total.circuit_builds, total.param_binds, total.runs),
            (1, 2, 2)
        );
    }

    #[test]
    fn lifetime_stats_accumulate_while_results_stay_per_run() {
        let spec = TransientSpec::new(1e-9, 2e-12);
        let initial = InitialState::Uic(vec![]);
        let (c, v, _) = rc(1.0);
        let mut compiled = CompiledCircuit::compile(c).unwrap();
        let h = compiled.param(v);

        let first = compiled.run(&spec, &initial, &[]).unwrap();
        compiled.bind_wave(h, Waveform::step(0.0, 0.5, 0.0, 1e-12));
        let second = compiled.run(&spec, &initial, &[]).unwrap();

        // Each result is per-run: the second run's counters must not
        // include the first run's effort.
        assert_eq!(second.stats.runs, 1);
        assert!(
            second.stats.newton_solves < first.stats.newton_solves + second.stats.newton_solves
        );

        // The lifetime view is exactly the absorbed sum of the per-run
        // views.
        let mut expected = first.stats;
        expected.absorb(&second.stats);
        assert_eq!(*compiled.lifetime_stats(), expected);
        assert_eq!(compiled.lifetime_stats().runs, 2);
        assert_eq!(compiled.lifetime_stats().circuit_builds, 1);
        assert_eq!(compiled.lifetime_stats().param_binds, 1);
    }

    #[test]
    fn bind_device_swaps_model_in_place() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        c.vsource("VD", d, Circuit::GND, Waveform::dc(0.8));
        c.vsource("VG", g, Circuit::GND, Waveform::dc(0.8));
        c.transistor("M", Arc::new(NTfet::nominal()), d, g, Circuit::GND, 0.1);
        let mut compiled = CompiledCircuit::compile(c).unwrap();
        compiled.bind_device(0, Arc::new(NTfet::nominal()), 0.2);
        assert_eq!(compiled.circuit().transistors()[0].width_um, 0.2);
        let op = compiled.dc_op(&[]).unwrap();
        assert!(op.total_power() > 0.0);
    }

    #[test]
    fn compile_rejects_empty_circuit() {
        assert!(CompiledCircuit::compile(Circuit::new()).is_err());
    }

    #[test]
    #[should_panic(expected = "stale source id")]
    fn stale_param_handle_rejected() {
        let (c, _, _) = rc(1.0);
        let compiled = CompiledCircuit::compile(c).unwrap();
        compiled.param(SourceId(99));
    }
}
