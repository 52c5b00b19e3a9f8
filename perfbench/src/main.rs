//! The dslice benchmark: three single-process workloads, each run timed
//! from outside through public functions and checked for correct output.
//!
//! ```text
//! dslice_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--root DIR] [--rustc VERSION] [--commit SHA]
//! dslice_perfbench expect --workload <name> --seed <n> [--shards k]
//! ```
//!
//! A run prints a `{"run_record": …}` line and, last, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). It exits non-zero
//! when any output check fails. `expect` prints the expectation row that
//! `src/expected.rs` pins for a simulator workload and seed. See
//! `perfbench/README.md` for the workloads and metrics.

mod expected;
mod library;
mod measure;
mod sim;

use measure::{Metrics, Outcome};
use sim::SimSpec;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["steady-100k", "churn-modjk-20k", "scenario-library"];

#[derive(Debug)]
struct Args {
    expect: bool,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    shards: Option<usize>,
    root: PathBuf,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let expect = argv.next_if(|a| a == "expect").is_some();
    let mut args = Args {
        expect,
        workload: String::new(),
        seed: expected::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        shards: None,
        root: PathBuf::from("."),
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--shards" => args.shards = Some(value.parse().map_err(|e| bad(&e))?),
            "--root" => args.root = PathBuf::from(value),
            "--rustc" => args.rustc = value,
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(m: &Metrics) -> String {
    let fields: Vec<String> =
        m.0.iter()
            .map(|x| {
                // JSON has no NaN or infinity; such a value fails the run.
                let value = if x.value.is_finite() {
                    x.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(&x.name),
                    json_str(x.unit)
                )
            })
            .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Runs the workload; the metrics, or why the run could not measure.
fn run(args: &Args, out: &mut Outcome, info: &mut Metrics) -> Result<Metrics, String> {
    if args.workload == "scenario-library" {
        return if args.trace {
            library::run_traced(&args.root, out, info)
        } else {
            library::run_plain(&args.root, args.seconds, out, info)
        };
    }
    let spec = SimSpec::by_name(&args.workload, args.seed).expect("workload validated");
    if !args.trace {
        return sim::run_plain(&spec, args.seconds, out, info);
    }
    let mut m = sim::run_traced(&spec, args.seconds, out, info)?;
    // The scenario layer is measured over the library in every traced run,
    // so each traced run reports the same metric set.
    m.0.extend(library::scenario_layer(&args.root, out)?.0);
    Ok(m)
}

fn expect(args: &Args) -> ExitCode {
    let Some(mut spec) = SimSpec::by_name(&args.workload, args.seed) else {
        eprintln!("expect: {} has no pinned expectation", args.workload);
        return ExitCode::FAILURE;
    };
    if let Some(shards) = args.shards {
        spec.cfg.shards = shards;
    }
    let out = sim::horizon_output(&spec);
    println!(
        "{}",
        expected::Expected {
            workload: spec.name,
            seed: args.seed,
            horizon: spec.horizon,
            digest: out.digest,
            accuracy: out.accuracy,
            sdm: out.sdm,
        }
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dslice_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.expect {
        return expect(&args);
    }

    let mut out = Outcome::default();
    let mut info = Metrics::default();
    // A run that cannot finish (a replica panicked, the goldens are
    // missing) is one more failed operation, reported without metrics.
    let metrics = run(&args, &mut out, &mut info).unwrap_or_else(|e| {
        out.record(vec![e]);
        Metrics::default()
    });
    let not_finite: Vec<String> = metrics
        .0
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is {}", m.name, m.value))
        .collect();
    if !not_finite.is_empty() {
        out.record(not_finite);
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"run_record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"git_commit\": {}, \"rustc\": {}, \"profile\": {}, \"info\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&args.commit),
        json_str(&args.rustc),
        json_str(profile),
        json_metrics(&info),
    );
    for f in &out.failures {
        eprintln!("output check failed: {f}");
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
