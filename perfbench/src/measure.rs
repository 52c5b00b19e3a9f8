//! Measurement helpers: order statistics, process CPU time and peak RSS,
//! and the metric list every workload fills.

use std::time::Instant;

/// One reported metric: name, value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Counted operations and the messages of the failed ones.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Operations with at least one failure.
    pub failed: u64,
}

impl Outcome {
    /// Records one operation with its failure messages.
    pub fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        self.failures.extend(failures);
    }

    /// Adds another tally's operations.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Output counters that no performance change may move.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub swaps_applied: u64,
    pub swaps_useless: u64,
    pub samples_rejected: u64,
    pub dropped_messages: u64,
    pub churned_nodes: u64,
    pub slice_changes: u64,
}

/// Reports the counts as per-layer metrics.
pub fn push_counts(m: &mut Metrics, c: Counts) {
    let swaps = c.swaps_applied + c.swaps_useless;
    m.push("algorithms.swaps_applied", c.swaps_applied as f64, "count");
    m.push("algorithms.swaps_useless", c.swaps_useless as f64, "count");
    m.push(
        "algorithms.swap_useful_ratio",
        if swaps == 0 {
            0.0
        } else {
            c.swaps_applied as f64 / swaps as f64
        },
        "ratio",
    );
    m.push(
        "algorithms.samples_rejected",
        c.samples_rejected as f64,
        "count",
    );
    m.push("sim.dropped_messages", c.dropped_messages as f64, "count");
    m.push("sim.churned_nodes", c.churned_nodes as f64, "count");
    m.push("core.slice_changes", c.slice_changes as f64, "count");
}

/// Median of a sample (the mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples that must lie above the tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a sample: the highest order statistic that still has
/// [`TAIL_BEYOND`] samples above it, with the percentile it stands for.
/// A sample of at most `TAIL_BEYOND` values has no such statistic; its
/// maximum is returned at percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return (v[n - 1], 100.0);
    }
    let idx = n - 1 - TAIL_BEYOND;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Runs `f` `reps` times and returns the median wall time in ns together
/// with the last result.
pub fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        times.push(t.elapsed().as_nanos() as f64);
        out = Some(r);
    }
    (median(&times), out.expect("at least one repetition"))
}

/// User + system CPU time of the whole process (every thread, exited
/// ones included), in microseconds, from `/proc/self/stat`.
pub fn process_cpu_us() -> f64 {
    // Linux reports these fields in USER_HZ ticks, which is 100 on every
    // architecture the kernel supports for userspace ABI purposes.
    const TICK_US: f64 = 10_000.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) * TICK_US,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a, 64-bit: a small stable hash for output digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sample: Vec<f64> = (1..=40).map(f64::from).collect();
        // 40 samples: the 30th value has exactly ten above it.
        assert_eq!(tail(&sample), (30.0, 75.0));
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0));
    }

    #[test]
    fn process_readers_report_positive_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_us() >= 0.0);
    }
}
