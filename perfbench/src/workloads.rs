//! The three workloads, their output checks and their metrics.
//!
//! * `cell_mc` — the 256-sample seeded WL_crit Monte-Carlo of the proposed
//!   cell (β = 0.6, inward-p, paper ±5 % t_ox), then a DRNM Monte-Carlo of
//!   the same cell: single-cell transients, bisection and MC fan-out.
//! * `array_rw` — seeded writes and reads at generated addresses on one
//!   16×16 `ArrayNetlist`: latency tier, parallel device evaluation and
//!   large sparse solves on a fixed time grid, no bisection.
//! * `paper_quick` — every quick-grid figure and table `figures --quick`
//!   renders, each checked byte for byte against the committed CSV.
//!
//! Every workload reports the same end-to-end metrics, so a change can be
//! compared on all three. "Write side" and "read side" name each
//! workload's write and read calls: the WL_crit and DRNM studies, array
//! writes and reads, and the paper's write-assist (Figs. 6, 9) and
//! read-assist (Figs. 7, 10) figures.

use crate::ledger::{self, Extra, Ledger};
use crate::{devices, Metric, Outcome, Settings};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use tfet_bench::experiments as exp;
use tfet_bench::{ps, Table};
use tfet_numerics::Summary;
use tfet_sram::array_netlist::{ArrayNetlist, ArraySpec};
use tfet_sram::metrics::{read_metrics_compiled, wl_crit_compiled};
use tfet_sram::montecarlo::{mc_drnm_with, mc_wl_crit_with, McDrnm, McWlCrit};
use tfet_sram::prelude::*;

/// Monte-Carlo samples per study in `cell_mc`.
pub const MC_SAMPLES: usize = 256;
/// Set-ups per run, at least: `setup_s` is their median. Cheap set-ups
/// repeat until `SETUP_MIN_S` of host time is spent on them.
const SETUP_REPS: usize = 9;
const SETUP_MIN_S: f64 = 0.5;
/// Nominal WL_crit of the proposed cell, as `figures` prints it.
const NOMINAL_WL_CRIT_PS: &str = "430.8";
/// Array dimension and write pulse of `array_rw`.
const ARRAY_N: usize = 16;
const ARRAY_WRITE_PULSE: f64 = 1.5e-9;
/// Write/read pairs in one traced `array_rw` block (on a fresh array, so
/// its counts repeat exactly).
const TRACED_ARRAY_PAIRS: usize = 4;

/// The machine's available parallelism: every worker pool is sized to it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of a non-empty sample (sorts in place).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// SplitMix64: the benchmark's input generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The Monte-Carlo seed `cell_mc` hands the program for a workload seed.
pub fn mc_seed(seed: u64) -> u64 {
    let mut s = seed;
    splitmix64(&mut s)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// CPU seconds this process has used on all its threads, user + system.
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in USER_HZ (100 Hz) ticks.
    let rest = &stat[stat.rfind(')').ok_or("malformed /proc/self/stat")? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => Ok((u + s) / 100.0),
        _ => Err("malformed /proc/self/stat".into()),
    }
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The proposed cell: inward-p TFET 6T at β = 0.6 with the figure suite's
/// simulation settings.
pub fn proposed_cell() -> CellParams {
    exp::fast(CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6))
}

fn array_spec() -> ArraySpec {
    let mut cell = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
    cell.sim.dt = 4e-12;
    ArraySpec::new(ARRAY_N, ARRAY_N, cell)
}

/// The proposed cell's write and read experiments.
fn compile_cell() -> Result<(WriteExperiment, ReadExperiment), String> {
    let base = proposed_cell();
    let write = WriteExperiment::compile(&base, None).map_err(|e| e.to_string())?;
    let read = ReadExperiment::compile(&base, None).map_err(|e| e.to_string())?;
    Ok((write, read))
}

/// Median host nanoseconds of [`compile_cell`] over `SETUP_REPS` calls.
fn compile_ns() -> Result<f64, String> {
    let mut ns = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        compile_cell()?;
        ns.push(secs(t) * 1e9);
    }
    Ok(median(&mut ns))
}

/// Set-up shared by `cell_mc` and `paper_quick`: the proposed cell's
/// experiments and its nominal WL_crit and DRNM, checked against the
/// paper-reproduction headline.
fn checked_cell_setup(o: &mut Outcome) -> Result<(), String> {
    let (mut write, mut read) = compile_cell()?;
    let wl = wl_crit_compiled(&mut write, None).map_err(|e| e.to_string())?;
    let drnm = read_metrics_compiled(&mut read).map_err(|e| e.to_string())?;
    let wl = wl.value.as_finite().map_or("none".to_string(), ps);
    let ok = wl == NOMINAL_WL_CRIT_PS && drnm.drnm > 0.0;
    if !ok {
        eprintln!(
            "check failed: nominal WL_crit {wl} ps (expected {NOMINAL_WL_CRIT_PS} ps), DRNM {} V",
            drnm.drnm
        );
    }
    o.op(ok);
    Ok(())
}

/// What one measured pass of a workload took, at reference speed.
#[derive(Debug, Default)]
struct Pass {
    /// All timed calls of the pass.
    total_s: f64,
    /// The write-side and read-side calls.
    write_s: f64,
    read_s: f64,
    /// CPU seconds of the pass, all threads.
    cpu_s: f64,
}

/// A workload: set-up, one measured pass, and one fixed block for traced
/// runs (its counts must repeat exactly for the same seed).
trait Workload {
    fn name(&self) -> &'static str;
    /// Threads the workload's timed calls keep busy.
    fn threads(&self, _s: &Settings) -> usize {
        1
    }
    /// One set-up: everything built before the first timed call.
    fn setup(&mut self, o: &mut Outcome) -> Result<(), String>;
    /// One measured pass, checking every output; times its calls on `clock`.
    fn pass(&mut self, o: &mut Outcome, clock: &mut Clock) -> Result<Pass, String>;
    /// Fixed work for a traced block, run inside the benchmark's root span.
    /// Returns fixed-grid transient steps it observed.
    fn block(&mut self, o: &mut Outcome) -> Result<u64, String>;
    /// Prepares the next block (e.g. a fresh array), outside any timing.
    fn prepare_block(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Host seconds the calibration kernel takes on a quiet machine: the speed
/// the end-to-end times are scaled to.
const CALIBRATION_REF_S: f64 = 0.025;

/// Host seconds of a fixed kernel that does not depend on the program, run
/// on `threads` threads at once (mean per thread): the machine's current
/// speed at the parallelism of the workload's timed calls.
fn calibrate(threads: usize) -> f64 {
    use std::hint::black_box;
    let kernel = || {
        let t = Instant::now();
        let mut v = [0.0f64; 64];
        for (i, x) in v.iter_mut().enumerate() {
            *x = 1.0 + i as f64 * 1e-3;
        }
        for r in 0..24_000usize {
            for i in 0..64 {
                let b = v[(i * 7 + r) % 64];
                v[i] = (v[i] * 0.999 + b.ln_1p().exp() * 1e-3).sqrt() + 0.5;
            }
        }
        black_box(v);
        secs(t)
    };
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(kernel)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .sum()
    });
    total / threads as f64
}

/// Times calls at a reference machine speed. The shared host's speed
/// drifts by tens of percent over minutes, so each call's host seconds are
/// scaled by `CALIBRATION_REF_S` over the mean of the calibrations taken
/// just before and just after it.
pub struct Clock {
    threads: usize,
    /// Every calibration so far; empty times without scaling.
    cals: Vec<f64>,
    /// Unscaled host seconds of every timed call so far.
    raw_s: f64,
}

impl Clock {
    fn calibrated(threads: usize) -> Clock {
        Clock {
            threads,
            cals: vec![calibrate(threads)],
            raw_s: 0.0,
        }
    }

    /// A clock that reports host seconds as measured.
    pub fn raw() -> Clock {
        Clock {
            threads: 0,
            cals: Vec::new(),
            raw_s: 0.0,
        }
    }

    /// Runs `f`; returns its result and its (scaled) host seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let value = f();
        let dt = secs(t);
        self.raw_s += dt;
        let Some(&before) = self.cals.last() else {
            return (value, dt);
        };
        let after = calibrate(self.threads);
        self.cals.push(after);
        (value, dt * 2.0 * CALIBRATION_REF_S / (before + after))
    }

    /// Scale from host seconds to reference speed over the whole run, for
    /// work too short to calibrate around one by one.
    fn run_scale(&self) -> f64 {
        if self.cals.is_empty() {
            return 1.0;
        }
        CALIBRATION_REF_S / median(&mut self.cals.clone())
    }
}

/// Whether another unit of work as long as the last one still ends within
/// the run's `seconds` (the first unit always runs).
fn another(start: Instant, last_s: Option<f64>, seconds: f64) -> bool {
    last_s.is_none_or(|last| secs(start) + last <= seconds)
}

/// Runs passes while the next one is expected to end within `seconds`.
fn measure(
    w: &mut dyn Workload,
    s: &Settings,
    o: &mut Outcome,
    clock: &mut Clock,
) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut last_s = None;
    while another(start, last_s, s.seconds) {
        let t = Instant::now();
        let cpu0 = cpu_seconds()?;
        let raw0 = clock.raw_s;
        let mut p = w.pass(o, clock)?;
        // CPU time is scaled like the pass's calls.
        p.cpu_s = (cpu_seconds()? - cpu0) * p.total_s / (clock.raw_s - raw0);
        passes.push(p);
        last_s = Some(secs(t));
    }
    Ok(passes)
}

pub fn run(workload: &str, s: &Settings) -> Result<Outcome, String> {
    let mut w: Box<dyn Workload> = match workload {
        "cell_mc" => Box::new(CellMc::new(s)?),
        "array_rw" => Box::new(ArrayRw::new(s.seed)),
        "paper_quick" => Box::new(PaperQuick::new(s)),
        other => return Err(format!("unknown workload {other}")),
    };
    let mut o = Outcome {
        workers: vec![
            ("mc_threads", s.workers),
            (
                "default_pool_threads",
                tfet_numerics::parallel::default_threads(),
            ),
        ],
        ..Outcome::default()
    };
    let mut clock = if s.trace {
        Clock::raw()
    } else {
        Clock::calibrated(w.threads(s))
    };
    // Set-ups are scaled by the whole run's calibrations: a calibration
    // around each would cost more than a cheap set-up itself.
    let start = Instant::now();
    let mut setup_s = Vec::new();
    while setup_s.len() < SETUP_REPS || secs(start) < SETUP_MIN_S {
        let t = Instant::now();
        w.setup(&mut o)?;
        setup_s.push(secs(t));
    }
    let setups = setup_s.len();
    if s.trace {
        traced(w.as_mut(), s, &mut o)?;
        return Ok(o);
    }
    let passes = measure(w.as_mut(), s, &mut o, &mut clock)?;
    let n = passes.len();
    let col = |f: fn(&Pass) -> f64| median(&mut passes.iter().map(f).collect::<Vec<_>>());
    o.push(
        "setup_s",
        median(&mut setup_s) * clock.run_scale(),
        "s",
        setups,
    );
    o.push("pass_s", col(|p| p.total_s), "s", n);
    o.push("write_s_p50", col(|p| p.write_s), "s", n);
    o.push("read_s_p50", col(|p| p.read_s), "s", n);
    o.push("cpu_s", col(|p| p.cpu_s), "s", n);
    o.push("peak_rss_mb", peak_rss_mb()?, "MB", 1);
    let ok = (o.attempted - o.failed) as f64 / o.attempted.max(1) as f64;
    let attempted = o.attempted as usize;
    o.push("ok_frac", ok, "ratio", attempted);
    let scaled: f64 = passes.iter().map(|p| p.total_s).sum();
    eprintln!(
        "{}: {n} passes, {} ops, {} failed; passes took {:.3} s as measured, {scaled:.3} s at reference speed",
        w.name(),
        o.attempted,
        o.failed,
        clock.raw_s
    );
    for m in &o.metrics {
        eprintln!(
            "  {:<14} {:>14.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    Ok(o)
}

/// Traced run: alternating untraced and traced blocks of fixed work while
/// the next pair is expected to end within `seconds`. Counts come from the
/// first traced block (later blocks must repeat them); timings are medians
/// over blocks, as measured.
fn traced(w: &mut dyn Workload, s: &Settings, o: &mut Outcome) -> Result<(), String> {
    let (ids_ns, cond_ns) = devices::eval_costs();
    let compile_ns = compile_ns()?;
    let start = Instant::now();
    let mut blocks: Vec<Vec<Metric>> = Vec::new();
    let mut last_s = None;
    while another(start, last_s, s.seconds) {
        let block_start = Instant::now();
        w.prepare_block()?;
        let t = Instant::now();
        w.block(o)?;
        let plain_s = secs(t);

        w.prepare_block()?;
        tfet_obs::reset();
        tfet_obs::set_timings(true);
        tfet_obs::enable();
        let t = Instant::now();
        let fixed_steps = {
            let _root = tfet_obs::span(ledger::ROOT);
            w.block(o)
        };
        let traced_s = secs(t);
        tfet_obs::disable();
        tfet_obs::set_timings(false);
        let fixed_steps = fixed_steps?;
        let report = tfet_obs::RunReport::capture();
        let l = Ledger::of(&report)?;
        if blocks.is_empty() {
            l.print(w.name());
        }
        let extra = Extra {
            workers: s.workers,
            fixed_steps,
            compile_ns,
            ids_ns,
            cond_ns,
            overhead_ratio: traced_s / plain_s,
        };
        blocks.push(ledger::layer_metrics(&l, &report, &extra));
        last_s = Some(secs(block_start));
    }
    let first = &blocks[0];
    for (k, m) in first.iter().enumerate() {
        let mut values: Vec<f64> = blocks.iter().map(|b| b[k].value).collect();
        let value = if ledger::is_count(m) {
            if values.iter().any(|v| *v != m.value) {
                eprintln!("note: {} differs between traced blocks: {values:?}", m.name);
            }
            m.value
        } else {
            median(&mut values)
        };
        o.metrics
            .push(Metric::new(m.name, value, m.unit, blocks.len()));
    }
    eprintln!("{}: {} traced blocks", w.name(), blocks.len());
    for m in &o.metrics {
        eprintln!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    Ok(())
}

// --- cell_mc ---------------------------------------------------------------

/// Exact fingerprint of a Monte-Carlo study: counts, summary statistics at
/// full precision and an FNV-1a hash of every value's bits.
fn mc_digest(values: &[f64], infinite: usize, quarantined: &[QuarantinedSample]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let q: Vec<usize> = quarantined.iter().map(|q| q.index).collect();
    let stats = Summary::try_of(values).map_or("-".to_string(), |s| {
        format!(
            "mean={:e} sd={:e} min={:e} max={:e}",
            s.mean, s.std_dev, s.min, s.max
        )
    });
    format!(
        "n={} infinite={infinite} quarantined={q:?} {stats} fnv={h:016x}",
        values.len()
    )
}

fn write_digest(mc: &McWlCrit) -> String {
    mc_digest(&mc.values, mc.failures, &mc.quarantined)
}

fn read_digest(mc: &McDrnm) -> String {
    mc_digest(&mc.values, 0, &mc.quarantined)
}

/// Runs the two studies of `cell_mc` for a Monte-Carlo seed and worker
/// count; returns their digests and host seconds.
pub fn mc_studies(
    mc_seed: u64,
    threads: usize,
    clock: &mut Clock,
) -> Result<[(String, f64, usize); 2], String> {
    let base = proposed_cell();
    let cfg = McConfig::new(mc_seed).with_threads(threads);
    let (write, write_s) = clock.time(|| mc_wl_crit_with(&base, None, MC_SAMPLES, cfg));
    let write = write.map_err(|e| e.to_string())?;
    let (read, read_s) = clock.time(|| mc_drnm_with(&base, None, MC_SAMPLES, cfg));
    let read = read.map_err(|e| e.to_string())?;
    Ok([
        (write_digest(&write), write_s, write.quarantined.len()),
        (read_digest(&read), read_s, read.quarantined.len()),
    ])
}

/// Reference digests of `cell_mc`, by workload seed.
fn load_reference(path: &Path) -> Result<BTreeMap<u64, [String; 2]>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut table = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        let [seed, write, read] = f[..] else {
            return Err(format!("malformed reference line: {line}"));
        };
        let seed = seed.parse().map_err(|e| format!("reference seed: {e}"))?;
        table.insert(seed, [write.to_string(), read.to_string()]);
    }
    Ok(table)
}

struct CellMc {
    mc_seed: u64,
    threads: usize,
    /// Digests every pass must reproduce: the reference for this seed, or
    /// else the first pass's.
    expected: Option<[String; 2]>,
}

impl CellMc {
    fn new(s: &Settings) -> Result<Self, String> {
        let table = load_reference(&s.reference.join("cell_mc.tsv"))?;
        let expected = table.get(&s.seed).cloned();
        if expected.is_none() {
            eprintln!(
                "cell_mc: no reference digest for seed {}; checking passes against each other",
                s.seed
            );
        }
        Ok(CellMc {
            mc_seed: mc_seed(s.seed),
            threads: s.workers,
            expected,
        })
    }

    fn studies(&mut self, o: &mut Outcome, clock: &mut Clock) -> Result<(f64, f64), String> {
        let studies = mc_studies(self.mc_seed, self.threads, clock)?;
        let expected = self
            .expected
            .get_or_insert_with(|| [studies[0].0.clone(), studies[1].0.clone()])
            .clone();
        for ((digest, _, quarantined), want) in studies.iter().zip(&expected) {
            let matches = digest == want;
            if !matches {
                eprintln!("check failed: MC digest\n  got  {digest}\n  want {want}");
            }
            for i in 0..MC_SAMPLES {
                o.op(matches && i >= *quarantined);
            }
        }
        Ok((studies[0].1, studies[1].1))
    }
}

impl Workload for CellMc {
    fn name(&self) -> &'static str {
        "cell_mc"
    }

    fn threads(&self, s: &Settings) -> usize {
        s.workers
    }

    fn setup(&mut self, o: &mut Outcome) -> Result<(), String> {
        checked_cell_setup(o)
    }

    fn pass(&mut self, o: &mut Outcome, clock: &mut Clock) -> Result<Pass, String> {
        let (write_s, read_s) = self.studies(o, clock)?;
        Ok(Pass {
            total_s: write_s + read_s,
            write_s,
            read_s,
            ..Pass::default()
        })
    }

    fn block(&mut self, o: &mut Outcome) -> Result<u64, String> {
        let _call = tfet_obs::span("pb_cell_mc");
        self.studies(o, &mut Clock::raw()).map(|_| 0)
    }
}

/// `perfbench reference --seeds A-B --ref DIR`: prints the `cell_mc`
/// reference table for a seed range (tab-separated, one seed a line).
pub fn print_reference(args: &[String]) -> ExitCode {
    let range = args
        .iter()
        .position(|a| a == "--seeds")
        .and_then(|i| args.get(i + 1))
        .and_then(|r| r.split_once('-'))
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)));
    let Some((lo, hi)) = range else {
        eprintln!("usage: perfbench reference --seeds A-B");
        return ExitCode::from(2);
    };
    println!("# workload seed\tWL_crit MC digest\tDRNM MC digest ({MC_SAMPLES} samples each)");
    for seed in lo..=hi {
        match mc_studies(mc_seed(seed), nproc(), &mut Clock::raw()) {
            Ok([w, r]) => println!("{seed}\t{}\t{}", w.0, r.0),
            Err(e) => {
                eprintln!("seed {seed}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

// --- array_rw --------------------------------------------------------------

/// The seeded address sequence: each step writes at a random address, then
/// reads at a random address. Every write stores the complement of the
/// addressed bit, so each one flips a cell and costs the same whatever the
/// seed.
struct OpStream {
    state: u64,
}

impl OpStream {
    fn new(seed: u64) -> Self {
        OpStream {
            state: mc_seed(seed ^ 0x5eed_a77a),
        }
    }

    fn addr(&mut self) -> (usize, usize) {
        let r = splitmix64(&mut self.state);
        (
            (r % ARRAY_N as u64) as usize,
            ((r >> 32) % ARRAY_N as u64) as usize,
        )
    }

    fn next(&mut self) -> ((usize, usize), (usize, usize)) {
        (self.addr(), self.addr())
    }
}

struct ArrayRw {
    seed: u64,
    array: Option<ArrayNetlist>,
    /// The bits the benchmark has written, row-major.
    image: Vec<bool>,
    ops: OpStream,
}

impl ArrayRw {
    fn new(seed: u64) -> Self {
        ArrayRw {
            seed,
            array: None,
            image: Vec::new(),
            ops: OpStream::new(seed),
        }
    }

    fn fresh(&mut self) -> Result<(), String> {
        let array = ArrayNetlist::build(array_spec()).map_err(|e| e.to_string())?;
        self.image = (0..ARRAY_N * ARRAY_N)
            .map(|k| array.bit(k / ARRAY_N, k % ARRAY_N) == Some(true))
            .collect();
        self.array = Some(array);
        self.ops = OpStream::new(self.seed);
        Ok(())
    }

    /// One write/read pair: returns the two host times and the fixed-grid
    /// steps both transients took.
    fn pair(&mut self, o: &mut Outcome, clock: &mut Clock) -> Result<(f64, f64, u64), String> {
        let ((wr, wc), (rr, rc)) = self.ops.next();
        let v = !self.image[wr * ARRAY_N + wc];
        let array = self.array.as_mut().ok_or("array not built")?;
        let (w, write_s) = clock.time(|| array.write_transient(wr, wc, v, ARRAY_WRITE_PULSE));
        let w = w.map_err(|e| e.to_string())?;
        let ok = w.success && w.disturbed.is_empty();
        if !ok {
            eprintln!(
                "check failed: write {v} at ({wr},{wc}) success={} disturbed={:?}",
                w.success, w.disturbed
            );
        }
        o.op(ok);
        array.commit(&w.finals);
        self.image[wr * ARRAY_N + wc] = v;

        let (r, read_s) = clock.time(|| array.read_transient(rr, rc));
        let r = r.map_err(|e| e.to_string())?;
        let want = self.image[rr * ARRAY_N + rc];
        let ok = r.value == want && !r.destructive;
        if !ok {
            eprintln!(
                "check failed: read at ({rr},{rc}) gave {} (stored {want}), destructive={}",
                r.value, r.destructive
            );
        }
        o.op(ok);
        Ok((
            write_s,
            read_s,
            w.stats.accepted_steps + r.stats.accepted_steps,
        ))
    }
}

impl Workload for ArrayRw {
    fn name(&self) -> &'static str {
        "array_rw"
    }

    fn setup(&mut self, _o: &mut Outcome) -> Result<(), String> {
        self.fresh()
    }

    fn pass(&mut self, o: &mut Outcome, clock: &mut Clock) -> Result<Pass, String> {
        let (write_s, read_s, _) = self.pair(o, clock)?;
        Ok(Pass {
            total_s: write_s + read_s,
            write_s,
            read_s,
            ..Pass::default()
        })
    }

    fn prepare_block(&mut self) -> Result<(), String> {
        self.fresh()
    }

    fn block(&mut self, o: &mut Outcome) -> Result<u64, String> {
        let mut steps = 0;
        for _ in 0..TRACED_ARRAY_PAIRS {
            let _call = tfet_obs::span("pb_array_pair");
            steps += self.pair(o, &mut Clock::raw())?.2;
        }
        Ok(steps)
    }
}

// --- paper_quick -----------------------------------------------------------

/// Which side of the paper's assist study a figure belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Write,
    Read,
    Other,
}

type Figure = (&'static str, Side, fn() -> Table);

/// Every figure and table of `figures --quick`, with its quick grids.
const FIGURES: &[Figure] = &[
    ("pb_fig02a", Side::Other, || exp::fig02a()),
    ("pb_fig02b", Side::Other, || exp::fig02b()),
    ("pb_fig04", Side::Other, || exp::fig04(&[0.6, 1.0, 2.0])),
    ("pb_fig06", Side::Write, || exp::fig06(&[1.2, 2.0])),
    ("pb_fig07", Side::Read, || exp::fig07(&[0.4, 0.8])),
    ("pb_fig08", Side::Other, || {
        exp::fig08(&[1.2, 2.0], &[0.4, 0.8])
    }),
    ("pb_fig09", Side::Write, || exp::fig09(8, 2011)),
    ("pb_fig10", Side::Read, || exp::fig10(8, 2011)),
    ("pb_fig11", Side::Other, || exp::fig11(&[0.6, 0.8])),
    ("pb_fig12", Side::Other, || exp::fig12(&[0.6, 0.8])),
    ("pb_table_power", Side::Other, || {
        exp::table_static_power(&[0.6, 0.8])
    }),
    ("pb_table_area", Side::Other, || exp::table_area()),
    ("pb_fig_array", Side::Other, || exp::fig_array(&[8])),
    ("pb_fig_yield", Side::Other, || {
        exp::fig_yield(48, 2011, &[1.0, 2.5])
    }),
];

/// The CSV file name `figures` gives a table.
fn slug(t: &Table) -> String {
    t.id.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .to_lowercase()
}

struct PaperQuick {
    reference: std::path::PathBuf,
    out: std::path::PathBuf,
}

impl PaperQuick {
    fn new(s: &Settings) -> Self {
        PaperQuick {
            reference: s.reference.join("paper_quick"),
            out: s.out.join("paper_quick"),
        }
    }

    /// Checks one rendered CSV against the benchmark's reference copy and,
    /// where the repository has it, the committed `results/` copy.
    fn check(&self, t: &Table) -> Result<bool, String> {
        let name = format!("{}.csv", slug(t));
        let csv = t.to_csv();
        let mut ok = true;
        for dir in [self.reference.as_path(), Path::new("results")] {
            let path = dir.join(&name);
            let want = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(_) if dir == Path::new("results") => continue,
                Err(e) => return Err(format!("{}: {e}", path.display())),
            };
            if csv.as_bytes() != want.as_slice() {
                ok = false;
                std::fs::create_dir_all(&self.out).map_err(|e| e.to_string())?;
                let got = self.out.join(&name);
                std::fs::write(&got, &csv).map_err(|e| e.to_string())?;
                eprintln!(
                    "check failed: {} differs from {}",
                    got.display(),
                    path.display()
                );
            }
        }
        Ok(ok)
    }

    fn figures(&self, o: &mut Outcome, clock: &mut Clock) -> Result<Pass, String> {
        let mut p = Pass::default();
        for &(span, side, figure) in FIGURES {
            let (table, dt) = clock.time(|| {
                let _call = tfet_obs::span(span);
                figure()
            });
            p.total_s += dt;
            match side {
                Side::Write => p.write_s += dt,
                Side::Read => p.read_s += dt,
                Side::Other => {}
            }
            o.op(self.check(&table)?);
        }
        Ok(p)
    }
}

impl Workload for PaperQuick {
    fn name(&self) -> &'static str {
        "paper_quick"
    }

    fn setup(&mut self, o: &mut Outcome) -> Result<(), String> {
        checked_cell_setup(o)
    }

    fn pass(&mut self, o: &mut Outcome, clock: &mut Clock) -> Result<Pass, String> {
        self.figures(o, clock)
    }

    fn block(&mut self, o: &mut Outcome) -> Result<u64, String> {
        self.figures(o, &mut Clock::raw()).map(|_| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mc_digests_do_not_depend_on_worker_count() {
        let seed = mc_seed(1);
        let serial = mc_studies(seed, 1, &mut Clock::raw()).expect("serial studies");
        let parallel =
            mc_studies(seed, nproc().max(2), &mut Clock::raw()).expect("parallel studies");
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.0, b.0);
        }
    }

    #[test]
    fn op_stream_is_seeded() {
        let take = |seed| {
            let mut s = OpStream::new(seed);
            (0..8).map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
    }
}
