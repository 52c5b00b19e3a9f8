//! The two simulator workloads: `steady-100k` and `churn-modjk-20k`.
//!
//! Each drives [`Engine::step`] directly and times every call from the
//! outside. The output gate digests every [`CycleStats`] field except the
//! wall-clock `timings` over the first `horizon` cycles, so the checked
//! output does not depend on how many cycles fit in the measured time.

use crate::expected::{self, Expected};
use crate::measure::{self, median, median_ns, push_counts, Counts, Fnv, Metrics, Outcome};
use dslice_core::Partition;
use dslice_obs::TraceConfig;
use dslice_sim::{
    ChurnSchedule, Concurrency, CycleStats, Engine, LatencyModel, PhaseTimings, ProtocolKind,
    RunRecord, SamplerKind, SimConfig, UncorrelatedChurn,
};
use std::time::Instant;

/// A simulator workload: engine configuration, protocol and churn, plus
/// how much of the run the output gate covers.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub name: &'static str,
    pub cfg: SimConfig,
    pub kind: ProtocolKind,
    /// Fraction of the population replaced every cycle (0 = no churn).
    pub churn_rate: f64,
    /// Cycles covered by the output digest; every run steps at least this
    /// many.
    pub horizon: usize,
    /// Set-up rounds timed for `setup_s`; each builds every replica (the
    /// median over all builds is reported).
    pub setup_reps: usize,
    /// Identical engines stepped concurrently, one thread each (at most
    /// `nproc`); their outputs must agree and their timings are pooled.
    pub replicas: usize,
}

impl SimSpec {
    /// Ranking at 100k nodes, no churn: the `BENCH_scale.json` n=100k row
    /// (view 10, 100 slices, Cyclon, metrics every 10th cycle) at 2 shards.
    pub fn steady_100k(seed: u64) -> Self {
        SimSpec {
            name: "steady-100k",
            cfg: SimConfig {
                n: 100_000,
                view_size: 10,
                partition: Partition::equal(100).expect("100 slices"),
                sampler: SamplerKind::Cyclon,
                seed,
                shards: 2,
                metrics_every: 10,
                ..SimConfig::default()
            },
            kind: ProtocolKind::Ranking,
            churn_rate: 0.0,
            horizon: 20,
            setup_reps: 3,
            replicas: 1,
        }
    }

    /// mod-JK at 20k nodes with half concurrency, 0–2 cycle latency and
    /// 0.1% uncorrelated churn every cycle, measured every cycle.
    pub fn churn_modjk_20k(seed: u64) -> Self {
        SimSpec {
            name: "churn-modjk-20k",
            cfg: SimConfig {
                n: 20_000,
                view_size: 20,
                partition: Partition::equal(100).expect("100 slices"),
                sampler: SamplerKind::Cyclon,
                concurrency: Concurrency::Half,
                latency: LatencyModel::Uniform { min: 0, max: 2 },
                seed,
                shards: 1,
                metrics_every: 1,
                ..SimConfig::default()
            },
            kind: ProtocolKind::ModJk,
            churn_rate: 0.001,
            horizon: 60,
            setup_reps: 5,
            replicas: 2,
        }
    }

    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        match name {
            "steady-100k" => Some(Self::steady_100k(seed)),
            "churn-modjk-20k" => Some(Self::churn_modjk_20k(seed)),
            _ => None,
        }
    }

    /// `Engine::new` plus `with_churn` — the timed set-up.
    pub fn build(&self, time_phases: bool) -> Engine {
        let cfg = SimConfig {
            time_phases,
            ..self.cfg.clone()
        };
        let engine = Engine::new(cfg, self.kind).expect("workload configuration is valid");
        if self.churn_rate > 0.0 {
            let schedule = ChurnSchedule {
                rate: self.churn_rate,
                period: 1,
                stop_after: None,
            };
            engine.with_churn(Box::new(UncorrelatedChurn::new(
                schedule,
                self.cfg.distribution,
            )))
        } else {
            engine
        }
    }

    /// Whether every message must arrive: no loss, no churn (messages to
    /// departed nodes count as dropped) and no network partition.
    fn lossless(&self) -> bool {
        self.cfg.loss_rate == 0.0 && self.churn_rate == 0.0
    }
}

/// The checked output of the first `horizon` cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HorizonOutput {
    pub digest: u64,
    pub accuracy: f64,
    pub sdm: f64,
}

/// Digest of every `CycleStats` field except `timings`.
pub fn digest(cycles: &[CycleStats]) -> u64 {
    let mut h = Fnv::default();
    for c in cycles {
        let e = &c.events;
        for v in [c.cycle as u64, c.n as u64] {
            h.u64(v);
        }
        h.f64(c.sdm);
        h.f64(c.gdm);
        for v in [
            e.swaps_proposed,
            e.swaps_applied,
            e.swaps_useless,
            e.updates_sent,
            e.samples_absorbed,
            e.swaps_abandoned,
            e.samples_rejected,
            c.dropped_messages,
            c.left as u64,
            c.joined as u64,
            c.slice_changes as u64,
        ] {
            h.u64(v);
        }
    }
    h.finish()
}

/// One engine driven for a while, every step timed.
pub struct EngineRun {
    pub engine: Engine,
    pub stats: Vec<CycleStats>,
    pub step_s: Vec<f64>,
    /// Σ live population over the stepped cycles.
    pub node_cycles: u64,
    /// Accuracy before the first cycle.
    pub initial_accuracy: f64,
    pub horizon: HorizonOutput,
}

impl EngineRun {
    pub fn step_total_s(&self) -> f64 {
        self.step_s.iter().sum()
    }

    pub fn node_cycles_per_s(&self) -> f64 {
        self.node_cycles as f64 / self.step_total_s()
    }
}

/// How long to keep stepping.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this many seconds of stepping have passed (and the horizon is
    /// covered).
    Seconds(f64),
    /// Exactly this many cycles (at least the horizon).
    Cycles(usize),
}

/// Steps `engine` under `budget`, timing each call to [`Engine::step`].
/// The horizon checkpoint (`accuracy()`/`sdm()` after cycle `horizon`)
/// is taken outside the timed calls.
pub fn drive(spec: &SimSpec, mut engine: Engine, budget: Budget) -> EngineRun {
    let initial_accuracy = engine.accuracy();
    let mut stats = Vec::new();
    let mut step_s = Vec::new();
    let mut node_cycles = 0u64;
    let mut horizon = None;
    let mut elapsed = 0.0;
    loop {
        let done = match budget {
            Budget::Seconds(s) => elapsed >= s,
            Budget::Cycles(c) => stats.len() >= c,
        };
        if done && horizon.is_some() {
            break;
        }
        let t = Instant::now();
        let s = engine.step();
        let dt = t.elapsed().as_secs_f64();
        elapsed += dt;
        step_s.push(dt);
        node_cycles += s.n as u64;
        stats.push(s);
        if stats.len() == spec.horizon {
            horizon = Some(HorizonOutput {
                digest: digest(&stats),
                accuracy: engine.accuracy(),
                sdm: engine.sdm(),
            });
        }
    }
    EngineRun {
        engine,
        stats,
        step_s,
        node_cycles,
        initial_accuracy,
        horizon: horizon.expect("the loop covers the horizon"),
    }
}

/// Drives each replica on its own thread under the same budget; also
/// returns the process CPU time the section used.
pub fn drive_all(
    spec: &SimSpec,
    engines: Vec<Engine>,
    budget: Budget,
) -> Result<(Vec<EngineRun>, f64), String> {
    let cpu0 = measure::process_cpu_us();
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = engines
            .into_iter()
            .map(|e| s.spawn(move || drive(spec, e, budget)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| format!("{}: a replica panicked", spec.name))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((runs, measure::process_cpu_us() - cpu0))
}

/// Checks one run's outputs; returns a message per failed check.
///
/// Any seed: the population adds up, accuracy lies in [0, 1] and rose
/// above its cycle-0 value, disorder is finite, and nothing is dropped
/// when nothing may be. With an expectation: the horizon output matches
/// it exactly.
pub fn check(spec: &SimSpec, run: &EngineRun, expected: Option<&Expected>) -> Vec<String> {
    let mut failures = Vec::new();
    let mut fail = |msg: String| failures.push(format!("{}: {msg}", spec.name));
    let mut population = spec.cfg.n as i64;
    for c in &run.stats {
        population += c.joined as i64 - c.left as i64;
        if c.n as i64 != population {
            fail(format!(
                "cycle {} reports {} live nodes, n0 + joined - left = {population}",
                c.cycle, c.n
            ));
            break;
        }
    }
    if run.engine.population() as i64 != population {
        fail(format!(
            "final population {} != n0 + joined - left = {population}",
            run.engine.population()
        ));
    }
    let accuracy = run.engine.accuracy();
    if !(0.0..=1.0).contains(&accuracy) || accuracy <= run.initial_accuracy {
        fail(format!(
            "final accuracy {accuracy} not in [0, 1] or not above the cycle-0 accuracy {}",
            run.initial_accuracy
        ));
    }
    let sdm = run.engine.sdm();
    if !sdm.is_finite() || sdm < 0.0 {
        fail(format!(
            "final SDM {sdm} is not a finite non-negative value"
        ));
    }
    let dropped: u64 = run.stats.iter().map(|c| c.dropped_messages).sum();
    if spec.lossless() && dropped > 0 {
        fail(format!("{dropped} messages dropped without loss or churn"));
    }
    if let Some(e) = expected {
        let got = run.horizon;
        if (e.digest, e.accuracy.to_bits(), e.sdm.to_bits())
            != (got.digest, got.accuracy.to_bits(), got.sdm.to_bits())
        {
            fail(format!(
                "seed {} horizon {}: expected digest {:#018x} accuracy {:?} sdm {:?}, \
                 got digest {:#018x} accuracy {:?} sdm {:?}",
                e.seed, e.horizon, e.digest, e.accuracy, e.sdm, got.digest, got.accuracy, got.sdm
            ));
        }
    }
    failures
}

/// Checks every replica, one operation each, and that each replica's
/// output equals `reference` (default: replica 0's).
fn check_all(
    spec: &SimSpec,
    runs: &[EngineRun],
    expected: Option<&Expected>,
    reference: Option<HorizonOutput>,
    out: &mut Outcome,
) {
    let reference = reference.unwrap_or(runs[0].horizon);
    for (r, run) in runs.iter().enumerate() {
        let mut failures = check(spec, run, expected);
        if run.horizon != reference {
            failures.push(format!(
                "{}: replica {r} output {:?} differs from {reference:?}",
                spec.name, run.horizon
            ));
        }
        out.record(failures);
    }
}

/// Σ over replicas of each replica's node-cycles per second of stepping.
fn throughput(runs: &[EngineRun]) -> f64 {
    runs.iter().map(EngineRun::node_cycles_per_s).sum()
}

/// The run-record fields every simulator run reports.
fn push_info(spec: &SimSpec, expected: Option<&Expected>, info: &mut Metrics) {
    info.push("shards", spec.cfg.shards as f64, "count");
    info.push("replicas", spec.replicas as f64, "count");
    info.push(
        "output_digest_checked",
        f64::from(u8::from(expected.is_some())),
        "bool",
    );
}

fn node_cycles(runs: &[EngineRun]) -> f64 {
    runs.iter().map(|r| r.node_cycles as f64).sum()
}

/// The untraced run: set-up time, per-step wall time and throughput.
pub fn run_plain(
    spec: &SimSpec,
    seconds: f64,
    out: &mut Outcome,
    info: &mut Metrics,
) -> Result<Metrics, String> {
    let expected = expected::lookup(spec.name, spec.cfg.seed, spec.horizon);
    // Each round builds every replica at once, one thread each, so set-up
    // is timed under the same core occupancy as the stepping.
    let mut setup_s = Vec::new();
    let mut engines = Vec::new();
    for _ in 0..spec.setup_reps {
        engines.clear();
        let built = std::thread::scope(|s| {
            let handles: Vec<_> = (0..spec.replicas)
                .map(|_| {
                    s.spawn(|| {
                        let t = Instant::now();
                        let e = spec.build(false);
                        (t.elapsed().as_secs_f64(), e)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join())
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|_| format!("{}: set-up panicked", spec.name))?;
        for (dt, e) in built {
            setup_s.push(dt);
            engines.push(e);
        }
    }
    let (runs, cpu_us) = drive_all(spec, engines, Budget::Seconds(seconds))?;
    check_all(spec, &runs, expected, None, out);

    let step_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.step_s.iter().map(|s| s * 1e3))
        .collect();
    let (tail_ms, tail_pct) = measure::tail(&step_ms);
    info.push("cycle_ms_tail.percentile", tail_pct, "%");
    info.push("cycle_ms_tail.samples", step_ms.len() as f64, "count");
    push_info(spec, expected, info);

    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_s), "s");
    m.push("cycle_ms_p50", median(&step_ms), "ms");
    m.push("cycle_ms_tail", tail_ms, "ms");
    m.push("node_cycles_per_s", throughput(&runs), "1/s");
    m.push("cpu_us_per_node_cycle", cpu_us / node_cycles(&runs), "us");
    m.push("peak_rss_mb", measure::peak_rss_mb(), "MB");
    Ok(m)
}

/// The traced run: untraced replicas step for half of `seconds`, then
/// traced ones (`time_phases` and a flight recorder) step the same number
/// of cycles; the traced ones give the per-phase breakdown, and every
/// replica passes the output gate.
pub fn run_traced(
    spec: &SimSpec,
    seconds: f64,
    out: &mut Outcome,
    info: &mut Metrics,
) -> Result<Metrics, String> {
    let expected = expected::lookup(spec.name, spec.cfg.seed, spec.horizon);
    let build = |traced: bool| -> Vec<Engine> {
        (0..spec.replicas)
            .map(|_| {
                let e = spec.build(traced);
                if traced {
                    e.with_tracer(TraceConfig::on())
                } else {
                    e
                }
            })
            .collect()
    };
    let (plain, _) = drive_all(spec, build(false), Budget::Seconds(seconds / 2.0))?;
    check_all(spec, &plain, expected, None, out);
    let cycles = plain.iter().map(|r| r.stats.len()).min().expect("replicas");
    let plain_rate = throughput(&plain);
    let plain_horizon = plain[0].horizon;
    drop(plain);

    // Tracing must not change the output: traced replicas are held to the
    // untraced one.
    let (traced, _) = drive_all(spec, build(true), Budget::Cycles(cycles))?;
    check_all(spec, &traced, expected, Some(plain_horizon), out);

    let phases_of = |stats: &[CycleStats]| {
        let mut p = PhaseTimings::default();
        for c in stats {
            p.accumulate(c.timings.as_ref().expect("time_phases is on"));
        }
        p
    };
    let mut phases = PhaseTimings::default();
    for r in &traced {
        phases.accumulate(&phases_of(&r.stats));
    }
    let n_cycles: f64 = traced.iter().map(|r| r.stats.len() as f64).sum();
    let step_ns: f64 = traced.iter().map(|r| r.step_total_s() * 1e9).sum();
    info.push("cycles", n_cycles, "count");
    push_info(spec, expected, info);

    let mut m = Metrics::default();
    for (phase, ns) in phases.rows() {
        m.push(format!("sim.{phase}_ns"), ns as f64 / n_cycles, "ns");
    }
    m.push("sim.step_ns_per_node", step_ns / node_cycles(&traced), "ns");
    m.push(
        "sim.phase_gap_ratio",
        1.0 - phases.total_ns() as f64 / step_ns,
        "ratio",
    );
    let first = &traced[0];
    m.push("core.sdm_ns", median_ns(5, || first.engine.sdm()).0, "ns");
    m.push(
        "core.accuracy_ns",
        median_ns(5, || first.engine.accuracy()).0,
        "ns",
    );

    let window = &first.stats[..spec.horizon];
    let sum = |f: fn(&CycleStats) -> u64| window.iter().map(f).sum::<u64>();
    push_counts(
        &mut m,
        Counts {
            swaps_applied: sum(|c| c.events.swaps_applied),
            swaps_useless: sum(|c| c.events.swaps_useless),
            samples_rejected: sum(|c| c.events.samples_rejected),
            dropped_messages: sum(|c| c.dropped_messages),
            churned_nodes: sum(|c| (c.left + c.joined) as u64),
            slice_changes: sum(|c| c.slice_changes as u64),
        },
    );

    let record = RunRecord {
        label: spec.kind.label().to_string(),
        seed: spec.cfg.seed,
        initial_n: spec.cfg.n,
        slices: spec.cfg.partition.len(),
        view_size: spec.cfg.view_size,
        cycles: first.stats.clone(),
        phase_ns: Some(phases_of(&first.stats)),
    };
    let (export_ns, _) = median_ns(5, || dslice_obs::prom::render(&record.metrics_registry()));
    m.push("obs.registry_export_ns", export_ns, "ns");
    m.push(
        "obs.trace_overhead_ratio",
        throughput(&traced) / plain_rate,
        "ratio",
    );
    Ok(m)
}

/// Runs the first `horizon` cycles and returns their checked output — the
/// source of the expectation table.
pub fn horizon_output(spec: &SimSpec) -> HorizonOutput {
    drive(spec, spec.build(false), Budget::Cycles(spec.horizon)).horizon
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload small enough for a debug-build test.
    fn tiny(seed: u64) -> SimSpec {
        let mut spec = SimSpec::churn_modjk_20k(seed);
        spec.name = "tiny";
        spec.cfg.n = 400;
        spec.cfg.partition = Partition::equal(10).unwrap();
        spec.horizon = 12;
        spec
    }

    fn expectation(spec: &SimSpec) -> Expected {
        let out = horizon_output(spec);
        Expected {
            workload: "tiny",
            seed: spec.cfg.seed,
            horizon: spec.horizon,
            digest: out.digest,
            accuracy: out.accuracy,
            sdm: out.sdm,
        }
    }

    fn failed_ops(spec: &SimSpec, expected: &Expected) -> (u64, Vec<String>) {
        let mut out = Outcome::default();
        let run = drive(spec, spec.build(false), Budget::Cycles(spec.horizon + 4));
        out.record(check(spec, &run, Some(expected)));
        assert_eq!(out.attempted, 1);
        (out.failed, out.failures)
    }

    #[test]
    fn matching_expectation_passes() {
        let spec = tiny(3);
        let (failed, msgs) = failed_ops(&spec, &expectation(&spec));
        assert_eq!(failed, 0, "{msgs:?}");
    }

    #[test]
    fn tampered_expectation_is_a_failed_operation() {
        let spec = tiny(3);
        let good = expectation(&spec);
        let tampered = [
            Expected {
                digest: good.digest ^ 1,
                ..good
            },
            Expected {
                accuracy: good.accuracy + 1e-12,
                ..good
            },
            Expected {
                sdm: good.sdm + 1.0,
                ..good
            },
        ];
        for bad in tampered {
            let (failed, msgs) = failed_ops(&spec, &bad);
            assert_eq!(failed, 1, "tampered {bad:?} passed");
            assert!(msgs[0].contains("expected digest"), "{msgs:?}");
        }
    }

    #[test]
    fn output_is_shard_invariant_and_untouched_by_tracing() {
        let spec = tiny(5);
        let base = horizon_output(&spec);
        let mut sharded = spec.clone();
        sharded.cfg.shards = 2;
        assert_eq!(horizon_output(&sharded), base);
        let traced = drive(
            &spec,
            spec.build(true).with_tracer(TraceConfig::on()),
            Budget::Cycles(spec.horizon),
        );
        assert_eq!(traced.horizon, base);
    }

    #[test]
    fn digest_ignores_timings_only() {
        let spec = tiny(9);
        let run = drive(&spec, spec.build(true), Budget::Cycles(3));
        let mut stats = run.stats.clone();
        let d = digest(&stats);
        for c in &mut stats {
            c.timings = None;
        }
        assert_eq!(digest(&stats), d);
        stats[1].slice_changes += 1;
        assert_ne!(digest(&stats), d);
    }
}
