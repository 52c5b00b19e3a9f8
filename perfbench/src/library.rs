//! The `scenario-library` workload: every committed library scenario, each
//! report checked byte for byte against its golden.

use crate::measure::{self, median, median_ns, push_counts, Counts, Metrics, Outcome};
use dslice_obs::{TraceConfig, TraceKind};
use dslice_scenario::{library, Scenario, ScenarioReport, Schedule};
use dslice_sim::Engine;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Where the goldens live, relative to the repository root.
pub const GOLDENS: &str = "docs/scenarios/goldens";

/// The `phase.*` span kinds, in `PhaseTimings::rows` order.
const PHASES: [(TraceKind, &str); 7] = [
    (TraceKind::PhaseChurn, "churn"),
    (TraceKind::PhaseDrain, "drain"),
    (TraceKind::PhaseMembership, "membership"),
    (TraceKind::PhaseRefresh, "refresh"),
    (TraceKind::PhaseActive, "active"),
    (TraceKind::PhaseDelivery, "delivery"),
    (TraceKind::PhaseMetrics, "metrics"),
];

/// One library scenario, compiled, with its golden report.
#[derive(Debug)]
pub struct Case {
    pub scenario: Scenario,
    pub label: &'static str,
    pub cycles: usize,
    /// Σ live population over the run, from the compiled projection.
    pub node_cycles: u64,
    pub golden: String,
}

/// Σ over cycles of the projected live population.
fn node_cycles(schedule: &Schedule) -> u64 {
    let mut n = schedule.initial_n as u64;
    let mut points = schedule.projection.iter().peekable();
    let mut total = 0;
    for cycle in 1..=schedule.cycles {
        while let Some(p) = points.next_if(|p| p.cycle <= cycle) {
            n = p.n as u64;
        }
        total += n;
    }
    total
}

/// The set-up: compiles every library scenario and loads its golden.
pub fn load(root: &Path) -> Result<Vec<Case>, String> {
    library::all()
        .into_iter()
        .map(|scenario| {
            let schedule = scenario
                .compile()
                .map_err(|e| format!("{}: does not compile: {e}", scenario.name()))?;
            let path = root.join(GOLDENS).join(format!("{}.json", scenario.name()));
            let golden = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            Ok(Case {
                label: scenario.protocol().label(),
                cycles: schedule.cycles,
                node_cycles: node_cycles(&schedule),
                golden,
                scenario,
            })
        })
        .collect()
}

/// One scenario run.
pub struct CaseRun {
    pub run_s: f64,
    pub json_ns: f64,
    pub report: Option<ScenarioReport>,
    /// Σ `phase.*` span durations per phase (traced runs only).
    pub spans_ns: [u64; 7],
}

/// Runs one case, traced or not, and checks its report against the golden.
pub fn run_case(case: &Case, traced: bool, out: &mut Outcome) -> CaseRun {
    let name = case.scenario.name();
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if traced {
            case.scenario
                .run_traced(TraceConfig::on())
                .map(|(r, rec)| (r, Some(rec)))
        } else {
            case.scenario.run().map(|r| (r, None))
        }
    }));
    let run_s = t.elapsed().as_secs_f64();
    let mut spans_ns = [0u64; 7];
    let mut failures = Vec::new();
    let mut json_ns = 0.0;
    let report = match result {
        Ok(Ok((report, recorder))) => {
            if let Some(rec) = recorder {
                if rec.dropped() > 0 {
                    failures.push(format!(
                        "{name}: flight recorder dropped {} events",
                        rec.dropped()
                    ));
                }
                for ev in rec.events() {
                    if let Some(i) = PHASES.iter().position(|&(k, _)| k == ev.kind) {
                        spans_ns[i] += ev.dur_ns;
                    }
                }
            }
            let t = Instant::now();
            let json = report.to_json();
            json_ns = t.elapsed().as_nanos() as f64;
            if json != case.golden {
                let line = json
                    .lines()
                    .zip(case.golden.lines())
                    .take_while(|(a, g)| a == g)
                    .count()
                    + 1;
                failures.push(format!(
                    "{name}: report differs from {GOLDENS}/{name}.json at line {line}"
                ));
            }
            Some(report)
        }
        Ok(Err(e)) => {
            failures.push(format!("{name}: run failed: {e}"));
            None
        }
        Err(_) => {
            failures.push(format!("{name}: run panicked"));
            None
        }
    };
    out.record(failures);
    CaseRun {
        run_s,
        json_ns,
        report,
        spans_ns,
    }
}

/// Concurrent workers, one thread each (at most `nproc`). Each runs the
/// whole library, worker 0 in library order and worker 1 in reverse, so
/// both cores stay busy for the whole section, both finish together, and
/// which scenarios overlap is the same in every run.
pub const WORKERS: usize = 2;

/// What one worker ran.
pub struct WorkerRun {
    pub runs: Vec<(usize, CaseRun)>,
    pub outcome: Outcome,
}

impl WorkerRun {
    pub fn run_s(&self) -> f64 {
        self.runs.iter().map(|(_, r)| r.run_s).sum()
    }
}

/// Runs the workers concurrently: worker `w` runs whole passes (traced if
/// `traced[w]`) until `seconds` have passed, at least one. Returns the
/// workers' runs, the section's wall time and its process CPU time.
pub fn workers(
    cases: &[Case],
    seconds: f64,
    traced: [bool; WORKERS],
) -> Result<(Vec<WorkerRun>, f64, f64), String> {
    let cpu0 = measure::process_cpu_us();
    let start = Instant::now();
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                s.spawn(move || {
                    let mut worker = WorkerRun {
                        runs: Vec::new(),
                        outcome: Outcome::default(),
                    };
                    let mut pass = 0u64;
                    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
                        let mut idx: Vec<usize> = (0..cases.len()).collect();
                        if w % 2 == 1 {
                            idx.reverse();
                        }
                        for i in idx {
                            let run = run_case(&cases[i], traced[w], &mut worker.outcome);
                            worker.runs.push((i, run));
                        }
                        pass += 1;
                    }
                    worker
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a library worker panicked".to_string())
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let wall = start.elapsed().as_secs_f64();
    Ok((runs, wall, measure::process_cpu_us() - cpu0))
}

/// Set-up repetitions timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 20;

/// The untraced run: both workers run whole passes until `seconds` have
/// passed.
pub fn run_plain(
    root: &Path,
    seconds: f64,
    out: &mut Outcome,
    info: &mut Metrics,
) -> Result<Metrics, String> {
    let mut setup_s = Vec::new();
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        cases = load(root)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let (ran, wall, cpu_us) = workers(&cases, seconds, [false; WORKERS])?;
    let mut per_cycle_ms = Vec::new();
    let mut node_cycles = 0u64;
    for worker in ran {
        for (i, run) in &worker.runs {
            per_cycle_ms.push(run.run_s * 1e3 / cases[*i].cycles as f64);
            node_cycles += cases[*i].node_cycles;
        }
        out.merge(worker.outcome);
    }

    let (tail_ms, tail_pct) = measure::tail(&per_cycle_ms);
    info.push("scenario_runs", per_cycle_ms.len() as f64, "count");
    info.push("cycle_ms_tail.percentile", tail_pct, "%");
    info.push("cycle_ms_tail.samples", per_cycle_ms.len() as f64, "count");
    info.push("shards", 1.0, "count");
    info.push("workers", WORKERS as f64, "count");

    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_s), "s");
    m.push("cycle_ms_p50", median(&per_cycle_ms), "ms");
    m.push("cycle_ms_tail", tail_ms, "ms");
    m.push("node_cycles_per_s", node_cycles as f64 / wall, "1/s");
    m.push("cpu_us_per_node_cycle", cpu_us / node_cycles as f64, "us");
    m.push("peak_rss_mb", measure::peak_rss_mb(), "MB");
    Ok(m)
}

/// The protocol labels the library uses, in report order.
pub const LABELS: [&str; 8] = [
    "ranking",
    "decay-ranking",
    "sliding-ranking",
    "robust-ranking",
    "trimmed-ranking",
    "fenced-trimmed-ranking",
    "mod-jk",
    "mod-jk-live",
];

/// Scenario-layer metrics from untraced runs covering `passes` whole
/// passes: `Scenario::run` time per protocol label, compile time and
/// report-serialization time, each per pass over the library.
fn layer_metrics(cases: &[Case], runs: &[&(usize, CaseRun)], passes: f64) -> Metrics {
    let mut by_label: BTreeMap<&str, f64> = LABELS.iter().map(|&l| (l, 0.0)).collect();
    for (i, run) in runs {
        *by_label.entry(cases[*i].label).or_default() += run.run_s;
    }
    let (compile_ns, _) = median_ns(5, || {
        cases
            .iter()
            .map(|c| c.scenario.compile().map_or(0, |s| s.cycles))
            .sum::<usize>()
    });
    let mut m = Metrics::default();
    for label in LABELS {
        m.push(
            format!("scenario.run_s.{label}"),
            by_label[label] / passes,
            "s",
        );
    }
    m.push("scenario.compile_ns", compile_ns, "ns");
    m.push(
        "scenario.report_json_ns",
        runs.iter().map(|(_, r)| r.json_ns).sum::<f64>() / passes,
        "ns",
    );
    m
}

/// The scenario layer alone: both workers run one untraced pass. Traced
/// runs of the simulator workloads report it, so every traced run reports
/// the same metric set.
pub fn scenario_layer(root: &Path, out: &mut Outcome) -> Result<Metrics, String> {
    let cases = load(root)?;
    let (ran, _, _) = workers(&cases, 0.0, [false; WORKERS])?;
    let runs: Vec<_> = ran.iter().flat_map(|w| &w.runs).collect();
    let m = layer_metrics(&cases, &runs, WORKERS as f64);
    for worker in ran {
        out.merge(worker.outcome);
    }
    Ok(m)
}

/// The traced run: worker 0 runs an untraced pass (scenario layer, counts,
/// registry export) while worker 1 runs a traced one
/// (`Scenario::run_traced`, phase spans from the flight recorder).
pub fn run_traced(root: &Path, out: &mut Outcome, info: &mut Metrics) -> Result<Metrics, String> {
    let cases = load(root)?;
    let (mut ran, _, _) = workers(&cases, 0.0, [false, true])?;
    let traced = ran.pop().expect("two workers");
    let plain = ran.pop().expect("two workers");

    let cycles: usize = cases.iter().map(|c| c.cycles).sum();
    let node_cycles: u64 = cases.iter().map(|c| c.node_cycles).sum();
    let traced_s = traced.run_s();
    let mut spans = [0u64; 7];
    for (_, r) in &traced.runs {
        for (s, v) in spans.iter_mut().zip(r.spans_ns) {
            *s += v;
        }
    }
    let span_total: u64 = spans.iter().sum();
    info.push("cycles", cycles as f64, "count");
    info.push("shards", 1.0, "count");
    info.push("workers", WORKERS as f64, "count");

    let mut m = Metrics::default();
    for ((_, phase), ns) in PHASES.iter().zip(spans) {
        m.push(format!("sim.{phase}_ns"), ns as f64 / cycles as f64, "ns");
    }
    m.push(
        "sim.step_ns_per_node",
        span_total as f64 / node_cycles as f64,
        "ns",
    );
    m.push(
        "sim.phase_gap_ratio",
        1.0 - span_total as f64 / (traced_s * 1e9),
        "ratio",
    );

    // The O(n) evaluation calls, on each scenario's initial population.
    let (mut sdm_ns, mut acc_ns) = (0.0, 0.0);
    for c in &cases {
        let engine = Engine::new(c.scenario.config().clone(), c.scenario.protocol())
            .map_err(|e| format!("{}: {e}", c.scenario.name()))?;
        sdm_ns += median_ns(5, || engine.sdm()).0;
        acc_ns += median_ns(5, || engine.accuracy()).0;
    }
    m.push("core.sdm_ns", sdm_ns / cases.len() as f64, "ns");
    m.push("core.accuracy_ns", acc_ns / cases.len() as f64, "ns");

    let reports: Vec<&ScenarioReport> = plain
        .runs
        .iter()
        .filter_map(|(_, r)| r.report.as_ref())
        .collect();
    let mut counts = Counts::default();
    for t in reports.iter().map(|r| &r.totals) {
        counts.swaps_applied += t.swaps_applied;
        counts.swaps_useless += t.swaps_useless;
        counts.samples_rejected += t.samples_rejected;
        counts.dropped_messages += t.dropped_messages;
        counts.churned_nodes += t.left + t.joined;
        counts.slice_changes += t.slice_changes;
    }
    push_counts(&mut m, counts);
    let (export_ns, _) = median_ns(5, || {
        reports
            .iter()
            .map(|r| dslice_obs::prom::render(&r.metrics_registry()).len())
            .sum::<usize>()
    });
    m.push("obs.registry_export_ns", export_ns, "ns");
    m.push(
        "obs.trace_overhead_ratio",
        plain.run_s() / traced_s,
        "ratio",
    );
    let runs: Vec<_> = plain.runs.iter().collect();
    m.0.extend(layer_metrics(&cases, &runs, 1.0).0);
    out.merge(plain.outcome);
    out.merge(traced.outcome);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_labels_are_all_reported() {
        for s in library::all() {
            assert!(LABELS.contains(&s.protocol().label()), "{}", s.name());
        }
    }

    #[test]
    fn a_wrong_golden_is_a_failed_operation() {
        let scenario = Scenario::new("tiny").population(60).slices(4).for_cycles(5);
        let schedule = scenario.compile().unwrap();
        let golden = scenario.run().unwrap().to_json();
        let mut case = Case {
            label: scenario.protocol().label(),
            cycles: schedule.cycles,
            node_cycles: node_cycles(&schedule),
            golden,
            scenario,
        };
        assert_eq!(case.node_cycles, 300);
        let mut out = Outcome::default();
        run_case(&case, false, &mut out);
        run_case(&case, true, &mut out);
        assert_eq!((out.attempted, out.failed), (2, 0), "{:?}", out.failures);
        case.golden = case.golden.replacen("\"seed\"", "\"seed \"", 1);
        run_case(&case, false, &mut out);
        assert_eq!((out.attempted, out.failed), (3, 1));
        assert!(out.failures[0].contains("differs"), "{:?}", out.failures);
    }
}
