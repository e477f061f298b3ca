//! The traced-run ledger: every span path the program emits is mapped to a
//! layer, self time is span time minus child spans, and the per-layer
//! metrics are derived from those self times plus the program's counters.
//!
//! Spans come from two kinds of tree. The caller tree is rooted at the
//! benchmark's own `perfbench` span and holds everything that ran on the
//! benchmark's thread. Work items a pool runs on other threads open *root*
//! spans (`mc_sample_wl_crit`, ...), so each forms a tree of its own whose
//! time overlaps the caller's. Self times therefore sum to each root's
//! total, tree by tree, and time in benchmark spans that no program span
//! covers is the `unattributed` row.

use crate::Metric;
use std::collections::BTreeMap;
use tfet_obs::RunReport;

/// The benchmark's own root span and the prefix of its per-call spans.
pub const ROOT: &str = "perfbench";
pub const CALL_PREFIX: &str = "pb_";

/// Layer of every span name the program emits. A name missing here fails
/// the run and the test `every_emitted_span_name_is_mapped`, instead of
/// landing silently in `unattributed`.
const SPAN_LAYERS: &[(&str, &str)] = &[
    ("eval", "tfet-devices"),
    ("lin", "tfet-circuit mna"),
    ("stamp", "tfet-circuit mna"),
    ("compose", "tfet-circuit mna"),
    ("assemble", "tfet-circuit mna"),
    ("decide", "tfet-circuit latency"),
    ("newton", "tfet-circuit newton"),
    ("transient", "tfet-circuit transient"),
    ("rescue", "tfet-circuit transient"),
    ("refactor", "tfet-numerics sparse"),
    ("trisolve", "tfet-numerics sparse"),
    ("bisection", "tfet-numerics roots"),
    ("write", "tfet-sram ops"),
    ("read", "tfet-sram ops"),
    ("wl_crit", "tfet-sram metrics"),
    ("read_metrics", "tfet-sram metrics"),
    ("static_power", "tfet-sram metrics"),
    ("drv", "tfet-sram metrics"),
    // A fan-out study's own span runs on the caller's thread while its
    // items run on the pool, so its self time is the caller waiting.
    ("mc_wl_crit", "tfet-numerics parallel"),
    ("mc_drnm", "tfet-numerics parallel"),
    ("yield_write", "tfet-numerics parallel"),
    ("yield_read", "tfet-numerics parallel"),
    ("mc_sample_wl_crit", "tfet-sram montecarlo"),
    ("mc_sample_drnm", "tfet-sram montecarlo"),
    ("yield_sample_write", "tfet-sram rare_event"),
    ("yield_sample_read", "tfet-sram rare_event"),
    ("array_netlist_build", "tfet-sram array_netlist"),
    ("array_netlist_op", "tfet-sram array_netlist"),
    ("array_wl_crit", "tfet-sram array_netlist"),
    ("array_op", "tfet-sram array"),
    ("scorecard", "tfet-sram compare"),
];

/// Layers in table order.
const LAYERS: &[&str] = &[
    "tfet-devices",
    "tfet-circuit mna",
    "tfet-circuit latency",
    "tfet-circuit newton",
    "tfet-circuit transient",
    "tfet-numerics sparse",
    "tfet-numerics roots",
    "tfet-numerics parallel",
    "tfet-sram ops",
    "tfet-sram metrics",
    "tfet-sram montecarlo",
    "tfet-sram rare_event",
    "tfet-sram array_netlist",
    "tfet-sram array",
    "tfet-sram compare",
    UNATTRIBUTED,
];

const UNATTRIBUTED: &str = "unattributed";

/// Fan-out studies: the caller-side span and the root span each of its
/// pool work items opens.
const FANOUTS: &[(&str, &str)] = &[
    ("mc_wl_crit", "mc_sample_wl_crit"),
    ("mc_drnm", "mc_sample_drnm"),
    ("yield_write", "yield_sample_write"),
    ("yield_read", "yield_sample_read"),
];

fn layer_of(name: &str) -> Option<&'static str> {
    if name == ROOT || name.starts_with(CALL_PREFIX) {
        return Some(UNATTRIBUTED);
    }
    SPAN_LAYERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, layer)| layer)
}

/// Count, total and self time of one span name, summed over every path
/// that ends in it.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanSum {
    pub count: u64,
    pub total_ns: u128,
    pub self_ns: u128,
}

/// Span times of one traced pass, by name and by layer.
#[derive(Debug)]
pub struct Ledger {
    pub by_name: BTreeMap<String, SpanSum>,
    pub by_layer: BTreeMap<&'static str, SpanSum>,
    /// Total of the benchmark's root span (caller wall time).
    pub root_ns: u128,
    /// Total of every other root span (time on pool threads).
    pub worker_ns: u128,
    /// Span guards dropped in the pass.
    pub span_entries: u64,
}

fn last_segment(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn parent(path: &str) -> Option<&str> {
    path.rfind('/').map(|i| &path[..i])
}

impl Ledger {
    /// Builds the ledger of one captured report (timings must have been on).
    ///
    /// # Errors
    ///
    /// A span name with no layer, a path whose parent span is missing, or a
    /// child span longer than its parent.
    pub fn of(report: &RunReport) -> Result<Ledger, String> {
        let total = |p: &str| report.timings_ns.get(p).copied().unwrap_or(0);
        let mut child_ns: BTreeMap<&str, u128> = BTreeMap::new();
        for path in report.spans.keys() {
            if let Some(up) = parent(path) {
                if !report.spans.contains_key(up) {
                    return Err(format!("span path {path} has no parent span {up}"));
                }
                *child_ns.entry(up).or_insert(0) += total(path);
            }
        }
        let mut by_name: BTreeMap<String, SpanSum> = BTreeMap::new();
        let mut by_layer: BTreeMap<&'static str, SpanSum> = BTreeMap::new();
        let mut root_ns = 0;
        let mut worker_ns = 0;
        let mut span_entries = 0;
        for (path, &count) in &report.spans {
            let name = last_segment(path);
            let layer = layer_of(name)
                .ok_or_else(|| format!("span `{name}` (path {path}) is mapped to no layer"))?;
            let t = total(path);
            let children = child_ns.get(path.as_str()).copied().unwrap_or(0);
            let self_ns = t
                .checked_sub(children)
                .ok_or_else(|| format!("children of {path} outlast it ({children} > {t} ns)"))?;
            if parent(path).is_none() {
                if path == ROOT {
                    root_ns += t;
                } else {
                    worker_ns += t;
                }
            }
            span_entries += count;
            for slot in [
                by_name.entry(name.to_string()).or_default(),
                by_layer.entry(layer).or_default(),
            ] {
                slot.count += count;
                slot.total_ns += t;
                slot.self_ns += self_ns;
            }
        }
        // Self times telescope: within each root's tree they sum to the
        // root's total exactly. Checked, because a tree with a missing link
        // would silently drop time from every layer.
        let self_sum: u128 = by_layer.values().map(|s| s.self_ns).sum();
        if self_sum != root_ns + worker_ns {
            return Err(format!(
                "self times sum to {self_sum} ns, root spans to {} ns",
                root_ns + worker_ns
            ));
        }
        Ok(Ledger {
            by_name,
            by_layer,
            root_ns,
            worker_ns,
            span_entries,
        })
    }

    fn name(&self, name: &str) -> SpanSum {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Prints the per-layer table: count, self ns and ns per span entry.
    pub fn print(&self, workload: &str) {
        eprintln!(
            "ledger {workload}: caller {:.3} s, pool threads {:.3} s, {} span entries",
            self.root_ns as f64 * 1e-9,
            self.worker_ns as f64 * 1e-9,
            self.span_entries
        );
        eprintln!(
            "  {:<24} {:>12} {:>16} {:>12} {:>7}",
            "layer", "count", "self_ns", "ns/op", "share"
        );
        let all = (self.root_ns + self.worker_ns).max(1) as f64;
        for layer in LAYERS {
            let s = self.by_layer.get(layer).copied().unwrap_or_default();
            eprintln!(
                "  {:<24} {:>12} {:>16} {:>12.0} {:>6.1}%",
                layer,
                s.count,
                s.self_ns,
                s.self_ns as f64 / s.count.max(1) as f64,
                100.0 * s.self_ns as f64 / all
            );
        }
    }
}

/// Inputs of the per-layer metrics that spans and counters do not carry.
#[derive(Debug, Clone, Copy)]
pub struct Extra {
    /// Worker-pool size of the pass.
    pub workers: usize,
    /// Fixed-grid transient steps of calls the benchmark made directly
    /// (the step controller counts adaptive steps only).
    pub fixed_steps: u64,
    /// Bench-timed compile of the proposed cell's write and read
    /// experiments, ns.
    pub compile_ns: f64,
    /// Bench-timed device model calls, ns per call.
    pub ids_ns: f64,
    pub cond_ns: f64,
    /// Traced ÷ untraced wall time of the same work.
    pub overhead_ratio: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced pass. Counts are per pass; `_ns`
/// metrics are self time per pass unless the name says per operation.
pub fn layer_metrics(l: &Ledger, r: &RunReport, x: &Extra) -> Vec<Metric> {
    let c = |k: &str| r.counters.get(k).copied().unwrap_or(0) as f64;
    let w = |k: &str| r.work.get(k).copied().unwrap_or(0) as f64;
    let hist = |k: &str| {
        r.histograms
            .get(k)
            .map_or((0.0, 0.0), |h| (h.count as f64, h.sum as f64))
    };
    let self_ns = |k: &str| l.name(k).self_ns as f64;
    let per_op = |k: &str| {
        let s = l.name(k);
        ratio(s.total_ns as f64, s.count as f64)
    };

    let evals = c("devices.evals");
    let bypassed = c("devices.bypassed");
    let dormant = c("devices.dormant");
    let (solves, iters) = hist("newton.iters_per_solve");
    let (searches, probes) = hist("bisection.probes_per_search");
    let refactored = c("newton.jac_refactored");
    let reused = c("newton.jac_reused");
    let accepted = c("lte.accepted_steps") + x.fixed_steps as f64;
    let trials = accepted + c("lte.rejected_steps");

    let mut fanout_total = 0.0;
    let mut fanout_self = 0.0;
    let mut sample = SpanSum::default();
    for &(parent, item) in FANOUTS {
        fanout_total += l.name(parent).total_ns as f64;
        fanout_self += self_ns(parent);
        let s = l.name(item);
        sample.count += s.count;
        sample.total_ns += s.total_ns;
    }
    let sample_ns = sample.total_ns as f64;
    // With one worker the pool runs items inline, inside the caller's
    // study span: take their time back out of the study's self time.
    let wait_ns = if x.workers <= 1 {
        (fanout_self - sample_ns).max(0.0)
    } else {
        fanout_self
    };
    let unattributed = l
        .by_layer
        .get(UNATTRIBUTED)
        .map_or(0.0, |s| s.self_ns as f64);

    let m = |name, value, unit| Metric::new(name, value, unit, 1);
    vec![
        m("devices.evals", evals, "count"),
        m("devices.eval_ns", x.ids_ns + x.cond_ns, "ns"),
        m("devices.ids_ns", x.ids_ns, "ns"),
        m("devices.cond_ns", x.cond_ns, "ns"),
        m("devices.eval_self_ns", self_ns("eval"), "ns"),
        m(
            "devices.bypass_ratio",
            ratio(bypassed, evals + bypassed),
            "ratio",
        ),
        m("circuit.mna.stamp_ns", self_ns("stamp"), "ns"),
        m("circuit.mna.lin_ns", self_ns("lin"), "ns"),
        m("circuit.mna.compose_ns", self_ns("compose"), "ns"),
        m("circuit.mna.assemble_self_ns", self_ns("assemble"), "ns"),
        m("circuit.latency.decide_ns", self_ns("decide"), "ns"),
        m(
            "circuit.latency.dormant_ratio",
            ratio(dormant, evals + bypassed + dormant),
            "ratio",
        ),
        m(
            "circuit.latency.cells_refreshed",
            c("latency.cells_refreshed"),
            "count",
        ),
        m(
            "circuit.latency.guard_refreshes",
            c("latency.guard_refreshes"),
            "count",
        ),
        m("circuit.newton.solves", solves, "count"),
        m(
            "circuit.newton.iters_per_solve",
            ratio(iters, solves),
            "ratio",
        ),
        m(
            "circuit.newton.jac_reuse_ratio",
            ratio(reused, reused + refactored),
            "ratio",
        ),
        m("circuit.newton.self_ns", self_ns("newton"), "ns"),
        m("circuit.newton.failures", c("newton.failures"), "count"),
        m("circuit.transient.runs", c("transient.runs"), "count"),
        m(
            "circuit.transient.accept_ratio",
            ratio(accepted, trials),
            "ratio",
        ),
        m(
            "circuit.transient.solves_per_step",
            ratio(solves, trials),
            "ratio",
        ),
        m(
            "circuit.transient.ns_per_step",
            ratio(l.name("transient").total_ns as f64, accepted),
            "ns",
        ),
        m(
            "circuit.transient.self_ns",
            self_ns("transient") + self_ns("rescue"),
            "ns",
        ),
        m(
            "circuit.transient.rescue_attempts",
            c("transient.rescue_attempts"),
            "count",
        ),
        m("circuit.compiled.builds", w("compiled.builds"), "count"),
        m("circuit.compiled.binds", w("compiled.binds"), "count"),
        m("sram.ops.compile_ns", x.compile_ns, "ns"),
        m("numerics.sparse.solves", c("solver.sparse_solves"), "count"),
        m("numerics.sparse.solve_ns", per_op("trisolve"), "ns"),
        m(
            "numerics.sparse.refactorizations",
            c("solver.sparse_refactorizations"),
            "count",
        ),
        m("numerics.sparse.refactor_ns", per_op("refactor"), "ns"),
        m(
            "numerics.roots.oracle_calls_per_search",
            ratio(probes, searches),
            "ratio",
        ),
        m("numerics.roots.self_ns", self_ns("bisection"), "ns"),
        m(
            "numerics.parallel.busy_ratio",
            ratio(sample_ns, x.workers as f64 * fanout_total),
            "ratio",
        ),
        m("numerics.parallel.wait_ns", wait_ns, "ns"),
        m(
            "sram.montecarlo.sample_ns",
            ratio(sample_ns, sample.count as f64),
            "ns",
        ),
        m("sram.montecarlo.quarantined", c("mc.quarantined"), "count"),
        m("sram.array_netlist.op_ns", per_op("array_netlist_op"), "ns"),
        m("obs.overhead_ratio", x.overhead_ratio, "ratio"),
        m("obs.span_entries", l.span_entries as f64, "count"),
        m("unattributed_ns", unattributed, "ns"),
        m(
            "unattributed_ratio",
            ratio(unattributed, l.root_ns as f64),
            "ratio",
        ),
    ]
}

/// Whether a per-layer metric is a count that must repeat exactly between
/// passes over the same inputs (timings and timing ratios need not).
pub fn is_count(m: &Metric) -> bool {
    m.unit == "count"
        || matches!(
            m.name,
            "devices.bypass_ratio"
                | "circuit.latency.dormant_ratio"
                | "circuit.newton.iters_per_solve"
                | "circuit.newton.jac_reuse_ratio"
                | "circuit.transient.accept_ratio"
                | "circuit.transient.solves_per_step"
                | "numerics.roots.oracle_calls_per_search"
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};
    use tfet_obs::Value;

    fn repo() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    /// Every `span("…")` / `root_span("…")` literal in the library crates'
    /// sources. `tfet-obs` itself is skipped: its spans are test fixtures.
    fn emitted_span_names() -> Vec<String> {
        let mut files = Vec::new();
        for krate in ["circuit", "core", "devices", "numerics", "bench"] {
            rust_files(&repo().join("crates").join(krate).join("src"), &mut files);
        }
        let mut names = Vec::new();
        for file in files {
            let text = std::fs::read_to_string(&file).expect("readable source");
            for (i, _) in text.match_indices("span(\"") {
                let rest = &text[i + "span(\"".len()..];
                let end = rest.find('"').expect("closed literal");
                names.push(rest[..end].to_string());
            }
        }
        names.sort();
        names.dedup();
        names
    }

    #[test]
    fn every_emitted_span_name_is_mapped() {
        let names = emitted_span_names();
        assert!(names.len() > 20, "scan found only {names:?}");
        for name in &names {
            assert!(
                layer_of(name).is_some() && layer_of(name) != Some(UNATTRIBUTED),
                "span `{name}` has no layer in SPAN_LAYERS"
            );
        }
        for (name, _) in SPAN_LAYERS {
            assert!(
                names.iter().any(|n| n == name),
                "SPAN_LAYERS maps `{name}`, which no crate emits any more"
            );
        }
        for (_, layer) in SPAN_LAYERS {
            assert!(LAYERS.contains(layer), "layer {layer} missing from LAYERS");
        }
    }

    fn json(path: PathBuf) -> Value {
        let text = std::fs::read_to_string(&path).expect("readable json");
        Value::parse(&text).expect("valid json")
    }

    fn names_of(list: &Value, key: &str) -> Vec<String> {
        let mut names: Vec<String> = list
            .as_arr()
            .expect("array")
            .iter()
            .map(|m| m.get(key).and_then(Value::as_str).expect(key).to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn per_layer_metrics_match_benchmark_json_and_layer_map() {
        let report = RunReport::default();
        let ledger = Ledger::of(&report).expect("empty report is consistent");
        let extra = Extra {
            workers: 2,
            fixed_steps: 0,
            compile_ns: 0.0,
            ids_ns: 0.0,
            cond_ns: 0.0,
            overhead_ratio: 0.0,
        };
        let mut emitted: Vec<String> = layer_metrics(&ledger, &report, &extra)
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        emitted.sort();
        let bench = json(repo().join("BENCHMARK.json"));
        assert_eq!(
            names_of(bench.get("per_layer").expect("per_layer"), "name"),
            emitted
        );
        let map = json(repo().join("perfbench").join("layers.json"));
        assert_eq!(
            names_of(map.get("metrics").expect("metrics"), "metric"),
            emitted
        );
    }

    #[test]
    fn self_times_telescope_and_unmapped_spans_fail() {
        let mut report = RunReport::default();
        for (path, count, ns) in [
            ("perfbench", 1, 100u128),
            ("perfbench/pb_call", 1, 90),
            ("perfbench/pb_call/transient", 2, 70),
            ("perfbench/pb_call/transient/newton", 9, 50),
            ("mc_sample_drnm", 4, 40),
        ] {
            report.spans.insert(path.into(), count);
            report.timings_ns.insert(path.into(), ns);
        }
        let l = Ledger::of(&report).expect("consistent tree");
        assert_eq!(l.root_ns, 100);
        assert_eq!(l.worker_ns, 40);
        assert_eq!(l.by_layer[UNATTRIBUTED].self_ns, 30);
        assert_eq!(l.by_layer["tfet-circuit transient"].self_ns, 20);
        assert_eq!(l.span_entries, 17);

        report.spans.insert("perfbench/no_such_layer".into(), 1);
        assert!(Ledger::of(&report).unwrap_err().contains("no_such_layer"));
    }
}
