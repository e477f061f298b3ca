//! Wall-clock benchmark of the tfet-sram workspace: three named workloads,
//! end-to-end metrics measured with instrumentation off, and a traced run
//! that splits the same work into per-layer metrics.
//!
//! ```text
//! perfbench <cell_mc|array_rw|paper_quick> --seed N --seconds S --trace 0|1 \
//!           --out DIR --ref DIR
//! perfbench reference --seeds A-B --ref DIR
//! ```
//!
//! The benchmark drives the program only through public functions and
//! times its own calls. Deeper layers are read from the spans and counters
//! the program already emits (`tfet_obs`), opened around a traced pass.
//! The last stdout line is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`, `samples`, `provenance`); `perfbench/run.py` builds
//! this binary, adds the process-level metrics and prints the final result.

mod devices;
mod ledger;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// One reported metric: value, unit and the number of measurements the
/// value summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What one workload run produced: the operation tally and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Worker counts used, for provenance.
    pub workers: Vec<(&'static str, usize)>,
}

impl Outcome {
    /// Records one operation and whether it met its output check.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }
}

/// Command-line settings of one workload run.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for outputs the workload writes (figure CSVs,
    /// diagnostic bundles).
    pub out: PathBuf,
    /// Reference outputs (`perfbench/ref`).
    pub reference: PathBuf,
    /// Worker-pool size: the machine's available parallelism.
    pub workers: usize,
}

fn parse_settings(args: &[String]) -> Result<Settings, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Settings {
        seed,
        seconds,
        trace,
        out: PathBuf::from(value("--out")?),
        reference: PathBuf::from(value("--ref")?),
        workers: workloads::nproc(),
    })
}

/// Renders the raw result line read by `run.py`.
fn result_json(workload: &str, s: &Settings, o: &Outcome) -> String {
    use tfet_obs::Value;
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::text(m.unit)),
                ]),
            )
        })
        .collect();
    let samples = o
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), Value::UInt(m.samples as u64)))
        .collect();
    let workers = o
        .workers
        .iter()
        .map(|&(k, n)| (k.to_string(), Value::UInt(n as u64)))
        .collect();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(o.failed == 0)),
        ("attempted".into(), Value::UInt(o.attempted)),
        ("failed".into(), Value::UInt(o.failed)),
        ("metrics".into(), Value::Obj(metrics)),
        ("samples".into(), Value::Obj(samples)),
        (
            "provenance".into(),
            Value::Obj(vec![
                ("workload".into(), Value::text(workload)),
                ("seed".into(), Value::UInt(s.seed)),
                ("trace".into(), Value::Bool(s.trace)),
                ("nproc".into(), Value::UInt(s.workers as u64)),
                ("workers".into(), Value::Obj(workers)),
            ]),
        ),
    ])
    .to_json()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(workload) = args.get(1).map(String::as_str) else {
        eprintln!("usage: perfbench <cell_mc|array_rw|paper_quick|reference> ...");
        return ExitCode::from(2);
    };
    if workload == "reference" {
        return workloads::print_reference(&args);
    }
    let settings = match parse_settings(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&settings.out) {
        eprintln!("perfbench: cannot create {}: {e}", settings.out.display());
        return ExitCode::from(2);
    }
    tfet_obs::forensics::set_dir(settings.out.join("diagnostics"));
    let outcome = match workloads::run(workload, &settings) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", result_json(workload, &settings, &outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
