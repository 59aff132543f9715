//! The repository's benchmark: seven named workloads, ten end-to-end
//! metrics and an outside-in layer trace over the library, pool and daemon
//! paths. `BENCHMARK.json` at the repository root names every metric with
//! its unit, direction and bound; `README.md` beside this package says what
//! each one means and which layer should move it.
//!
//! ```text
//! pressio-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! pressio-benchmark --compare A.json B.json
//! ```

mod alloc;
mod json;
mod layers;
mod span;
mod stats;
mod verify;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;

use json::Json;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The contract this binary measures to, compiled in so that the names,
/// units, directions and bounds have one home.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// End-to-end metrics carry a regression bound; layer metrics do not.
    bound: Option<f64>,
}

struct Spec {
    workloads: Vec<String>,
    run_seconds: f64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

impl Spec {
    fn load() -> Result<Spec, String> {
        let doc = json::parse(SPEC)?;
        let field = |key: &str| doc.get(key).ok_or(format!("BENCHMARK.json lacks {key}"));
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            field(key)?
                .items()
                .iter()
                .map(|m| {
                    let text =
                        |k: &str| m.get(k).and_then(Json::str).ok_or(format!("{key}: no {k}"));
                    Ok(Metric {
                        name: text("name")?.to_string(),
                        unit: text("unit")?.to_string(),
                        higher_is_better: text("better")? == "higher",
                        bound: m.get("bound").and_then(Json::num),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: field("workloads")?
                .items()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::str).map(str::to_string))
                .collect(),
            run_seconds: field("run_seconds")?
                .num()
                .ok_or("run_seconds is not a number")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The values one run produced, by metric name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, Option<f64>>,
    notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), Some(value));
    }

    /// A metric that cannot be measured on this tree: printed as `null`.
    pub fn set_missing(&mut self, name: &str, why: &str) {
        self.values.insert(name.to_string(), None);
        self.note(format!("{name}: {why}"));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied().flatten()
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// A failed check that is not an op of the timed phase.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(format!("failed: {why}"));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 13,
        seconds: None,
        trace: false,
        out: None,
        compare: None,
    };
    let mut words = std::env::args().skip(1).peekable();
    while let Some(flag) = words.next() {
        let mut value = |what: &str| words.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--out" => args.out = Some(value("a file")?),
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            // Bare `--trace` switches tracing on; `--trace 0|1` says which.
            "--trace" => match words.next_if(|w| w == "0" || w == "1") {
                Some(word) => args.trace = word == "1",
                None => args.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Run one workload in this process and print its result. The last line of
/// standard output is the result object.
fn run_one(spec: &Spec, args: &Args) -> Result<bool, String> {
    let name = args.workload.as_str();
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let mut report = Report::default();
    let wanted = if args.trace {
        let mut tracer = span::Tracer::new();
        let overhead = workloads::Overhead {
            tracer: &mut tracer,
            report: &mut report,
        };
        workloads::dispatch(name, args.seed, overhead).ok_or(format!("no workload {name}"))??;
        layers::run(&mut tracer, &mut report, args.seed)?;
        let path = workloads::out_dir()?.join(format!("trace-{name}.json"));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        tracer
            .write_json(std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.note(format!("spans written to {}", path.display()));
        &spec.per_layer
    } else {
        let measure = workloads::Measure {
            seconds,
            report: &mut report,
        };
        workloads::dispatch(name, args.seed, measure).ok_or(format!("no workload {name}"))??;
        &spec.end_to_end
    };

    let undeclared: Vec<&String> = report
        .values
        .keys()
        .filter(|k| !wanted.iter().any(|m| &m.name == *k))
        .collect();
    let unmeasured: Vec<&str> = wanted
        .iter()
        .filter(|m| !report.values.contains_key(&m.name))
        .map(|m| m.name.as_str())
        .collect();
    if !undeclared.is_empty() || !unmeasured.is_empty() {
        return Err(format!(
            "BENCHMARK.json and the code disagree: undeclared {undeclared:?}, unmeasured {unmeasured:?}"
        ));
    }

    let correct = report.failed == 0;
    println!(
        "workload {name}  seed {}  seconds {seconds}  trace {}  T {}  available_parallelism {}",
        args.seed,
        u8::from(args.trace),
        workloads::threads(),
        workloads::nproc()
    );
    let mut fields = Vec::new();
    for metric in wanted {
        // A value that could not be measured, or that came out of no samples
        // at all, is `null`: the result line stays valid JSON.
        let value = report.get(&metric.name).filter(|v| v.is_finite());
        let shown = value.map_or("null".to_string(), |v| format!("{v}"));
        println!("  {:<36} {shown} {}", metric.name, metric.unit);
        fields.push(format!(
            "{}: {{\"value\": {shown}, \"unit\": {}}}",
            json::quote(&metric.name),
            json::quote(&metric.unit)
        ));
    }
    for note in &report.notes {
        println!("  # {note}");
    }
    let result = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            file,
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, {result}}}",
            json::quote(name),
            args.seed,
            u8::from(args.trace)
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{{{result}}}");
    Ok(correct)
}

/// Run every workload, each in a fresh child process of this binary.
fn run_all(spec: &Spec, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for name in &spec.workloads {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", name, "--seed", &args.seed.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seconds) = args.seconds {
            child.args(["--seconds", &seconds.to_string()]);
        }
        if let Some(out) = &args.out {
            child.args(["--out", out]);
        }
        let status = child
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

/// Every run in a result file: (workload, metric) -> values in file order.
fn read_runs(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let workload = run
            .get("workload")
            .and_then(Json::str)
            .ok_or(format!("{path}: a run without a workload"))?;
        let metrics = run.get("metrics").map_or(&[][..], Json::entries);
        for (metric, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Json::num) {
                runs.entry((workload.to_string(), metric.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

/// Apply each end-to-end metric's direction and bound to two result files
/// written with `--out`. True when no pair is worse.
fn compare(spec: &Spec, base: &str, change: &str) -> Result<bool, String> {
    let (a, b) = (read_runs(base)?, read_runs(change)?);
    println!(
        "{:<16} {:<20} {:>12} {:>8} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B worse", "bound"
    );
    let mut none_worse = true;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let key = (workload.clone(), metric.name.clone());
            let (Some(a), Some(b)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let bound = metric.bound.unwrap_or(0.0);
            let verdict = stats::verdict(a, b, metric.higher_is_better, bound);
            none_worse &= verdict != stats::Verdict::Worse;
            println!(
                "{workload:<16} {:<20} {:>12.5} {:>7.2}% {:>12.5} {:>7.2}% {:>7.2}% {:>6.1}%  {}",
                metric.name,
                stats::median(a),
                100.0 * stats::quartile_spread(a),
                stats::median(b),
                100.0 * stats::quartile_spread(b),
                100.0 * stats::worse_by(a, b, metric.higher_is_better),
                100.0 * bound,
                verdict.label()
            );
        }
    }
    Ok(none_worse)
}

fn main() -> ExitCode {
    let outcome = Spec::load().and_then(|spec| {
        let args = parse_args()?;
        match &args.compare {
            Some((base, change)) => compare(&spec, base, change),
            None if args.workload == "all" => run_all(&spec, &args),
            None => run_one(&spec, &args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("pressio-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's own limits on `BENCHMARK.json`, and the ones this
    /// package adds: ten end-to-end metrics, 91 layer metrics, seven
    /// workloads, `setup_s` with the largest bound.
    #[test]
    fn benchmark_json_meets_the_contract() {
        let doc = json::parse(SPEC).unwrap();
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let spec = Spec::load().unwrap();
        assert_eq!(spec.workloads.len(), 7);
        assert_eq!(spec.end_to_end.len(), 10);
        assert_eq!(spec.per_layer.len(), 91);
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        let mut names: Vec<&String> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| &m.name)
            .collect();
        names.extend(&spec.workloads);
        let allowed = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(allowed), "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 7 + 10 + 91, "a name is used twice");
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !metric.unit.is_empty() && metric.unit.len() <= 16,
                "{}",
                metric.name
            );
            assert!(metric.unit.chars().all(unit_ok), "{}", metric.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        for metric in &spec.end_to_end {
            let bound = metric.bound.unwrap();
            assert!(
                bound > 0.0 && bound <= setup.bound.unwrap() && bound <= 0.25,
                "{}",
                metric.name
            );
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        for workload in doc.get("workloads").unwrap().items() {
            let why = workload.get("why").unwrap().str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!(SPEC.len() <= 64 << 10);
    }

    #[test]
    fn every_declared_workload_dispatches() {
        struct Probe;
        impl workloads::Visitor for Probe {
            type Output = ();
            fn visit<P: workloads::Endpoint + Send, N: workloads::Endpoint>(
                self,
                _arm: impl Fn() -> Result<workloads::Rig<P, N>, String>,
            ) {
            }
        }
        for name in Spec::load().unwrap().workloads {
            assert!(workloads::dispatch(&name, 1, Probe).is_some(), "{name}");
        }
        assert!(workloads::dispatch("no_such_workload", 1, Probe).is_none());
    }
}
