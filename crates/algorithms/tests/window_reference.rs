//! The sorted-index `ValueWindow` against a clone-and-sort reference.
//!
//! The reference below is the straightforward implementation: keep the
//! freshest samples, and on every query clone them, sort by `total_cmp` and
//! read order statistics off the sorted copy. Every query of the real window
//! and every `RobustFilter::admit` decision must match it bit for bit
//! (`to_bits`), over streams built to stress the index: heavy ties, both
//! zeros, NaNs and infinities, windows that wrap many times, and `clear()`
//! mid-stream.

use dslice_algorithms::{RobustFilter, ValueWindow};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The freshest `cap` samples, queried by clone + sort.
struct Reference {
    values: VecDeque<f64>,
    cap: usize,
}

impl Reference {
    fn new(cap: usize) -> Self {
        Reference {
            values: VecDeque::new(),
            cap,
        }
    }

    fn push(&mut self, v: f64) {
        if self.values.len() == self.cap {
            self.values.pop_front();
        }
        self.values.push_back(v);
    }

    fn is_full(&self) -> bool {
        self.values.len() == self.cap
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted: Vec<f64> = self.values.iter().copied().collect();
        sorted.sort_unstable_by(f64::total_cmp);
        sorted
    }

    fn interpolate(sorted: &[f64], q: f64) -> f64 {
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(Self::interpolate(&self.sorted(), q))
    }

    fn tukey_fences(&self, k: f64) -> Option<(f64, f64)> {
        if self.values.is_empty() {
            return None;
        }
        let sorted = self.sorted();
        let q1 = Self::interpolate(&sorted, 0.25);
        let q3 = Self::interpolate(&sorted, 0.75);
        let iqr = q3 - q1;
        if iqr <= 0.0 {
            return None;
        }
        Some((q1 - k * iqr, q3 + k * iqr))
    }

    fn fenced_trim_cuts(&self, k: f64, pct: f64) -> Option<(f64, f64)> {
        if self.values.is_empty() {
            return None;
        }
        let sorted = self.sorted();
        let q1 = Self::interpolate(&sorted, 0.25);
        let q3 = Self::interpolate(&sorted, 0.75);
        let iqr = q3 - q1;
        let inliers = if iqr > 0.0 {
            let lo = q1 - k * iqr;
            let hi = q3 + k * iqr;
            let start = sorted.partition_point(|&v| v < lo);
            let end = sorted.partition_point(|&v| v <= hi);
            &sorted[start..end]
        } else {
            &sorted[..]
        };
        Some((
            Self::interpolate(inliers, pct),
            Self::interpolate(inliers, 1.0 - pct),
        ))
    }

    /// `RobustFilter::admit` over this window, then remembers `value`.
    fn admit(&mut self, fence_k: Option<f64>, trim_pct: Option<f64>, value: f64) -> bool {
        let admitted = if self.is_full() {
            let fence_ok = match fence_k.and_then(|k| self.tukey_fences(k)) {
                Some((lo, hi)) => value >= lo && value <= hi,
                None => true,
            };
            let trim_ok = match trim_pct {
                Some(pct) => {
                    let (lo, hi) = match fence_k {
                        Some(k) => self
                            .fenced_trim_cuts(k * RobustFilter::INNER_FENCE_RATIO, pct)
                            .unwrap(),
                        None => (
                            self.quantile(pct).unwrap(),
                            self.quantile(1.0 - pct).unwrap(),
                        ),
                    };
                    value >= lo && value <= hi
                }
                None => true,
            };
            fence_ok && trim_ok
        } else {
            true
        };
        self.push(value);
        admitted
    }
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

fn pair_bits(v: Option<(f64, f64)>) -> Option<(u64, u64)> {
    v.map(|(a, b)| (a.to_bits(), b.to_bits()))
}

/// One stream step: `None` clears the window, `Some(v)` pushes `v`.
fn step() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        // Heavy ties: a handful of small integers.
        (0u8..6).prop_map(|i| Some(i as f64)),
        (0u8..6).prop_map(|i| Some(i as f64)),
        Just(Some(0.0)),
        Just(Some(-0.0)),
        (-1e3f64..1e3).prop_map(Some),
        (-1e3f64..1e3).prop_map(Some),
        // Extremes: overflowing spreads, infinities, NaNs of both signs.
        prop_oneof![
            Just(f64::MAX),
            Just(-f64::MAX),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(-f64::NAN),
        ]
        .prop_map(Some),
        // A rare clear mid-stream.
        (0u8..40).prop_map(|i| if i == 0 { None } else { Some(7.5) }),
    ]
}

/// Capacities across 1..300, biased small so windows wrap many times.
fn capacity() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..8, 1usize..40, 1usize..300]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn window_queries_match_clone_and_sort(
        cap in capacity(),
        stream in proptest::collection::vec(step(), 0..700),
        k in prop_oneof![Just(0.75), Just(1.5), Just(3.0), 0.1f64..5.0],
        pct in prop_oneof![Just(0.1), 0.0f64..0.5],
    ) {
        let mut w = ValueWindow::new(cap);
        let mut r = Reference::new(cap);
        for (i, s) in stream.into_iter().enumerate() {
            match s {
                Some(v) => {
                    w.push(v);
                    r.push(v);
                }
                None => {
                    w.clear();
                    r.values.clear();
                }
            }
            prop_assert_eq!(w.len(), r.values.len());
            for q in [0.0, 0.25, 0.5, 0.75, 1.0, pct, 1.0 - pct] {
                prop_assert_eq!(bits(w.quantile(q)), bits(r.quantile(q)), "quantile {} at step {}", q, i);
            }
            prop_assert_eq!(pair_bits(w.tukey_fences(k)), pair_bits(r.tukey_fences(k)), "fences at step {}", i);
            prop_assert_eq!(
                pair_bits(w.fenced_trim_cuts(k, pct)),
                pair_bits(r.fenced_trim_cuts(k, pct)),
                "cuts at step {}", i
            );
        }
    }

    #[test]
    fn admit_matches_clone_and_sort(
        cap in prop_oneof![4usize..16, 4usize..300],
        stream in proptest::collection::vec(step(), 0..700),
        k in prop_oneof![Just(RobustFilter::DEFAULT_FENCE_K), 0.1f64..5.0],
        pct in prop_oneof![Just(0.1), 0.01f64..0.49],
    ) {
        let mut filters = [
            (RobustFilter::with_fence(cap, k), Some(k), None),
            (RobustFilter::trimmed(cap, pct), None, Some(pct)),
            (
                RobustFilter::fenced_trimmed(cap, pct),
                Some(RobustFilter::DEFAULT_FENCE_K),
                Some(pct),
            ),
        ]
        .map(|(f, fence_k, trim_pct)| (f, fence_k, trim_pct, Reference::new(cap)));
        // A filter never forgets, so a clear step pushes a tie instead.
        for (i, v) in stream.into_iter().map(|s| s.unwrap_or(0.0)).enumerate() {
            for (filter, fence_k, trim_pct, reference) in &mut filters {
                prop_assert_eq!(
                    filter.admit(v),
                    reference.admit(*fence_k, *trim_pct, v),
                    "admit({}) at step {} (fence {:?}, trim {:?})", v, i, fence_k, trim_pct
                );
            }
        }
    }

    #[test]
    fn serde_roundtrip_rebuilds_the_index(
        cap in capacity(),
        stream in proptest::collection::vec(step(), 0..400),
        tail in proptest::collection::vec(-1e3f64..1e3, 0..400),
    ) {
        let mut w = ValueWindow::new(cap);
        for s in stream {
            match s {
                // The JSON stand-in writes neither NaN nor infinity, and
                // reads `-0.0` back as `0.0` (the pattern matches both).
                Some(0.0) => w.push(0.0),
                Some(v) if v.is_finite() => w.push(v),
                Some(_) => w.push(1.0),
                None => w.clear(),
            }
        }
        let json = serde_json::to_string(&w).unwrap();
        prop_assert!(!json.contains("order"), "the index is not serialized: {}", json);
        let mut parsed: ValueWindow = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&parsed, &w);
        for v in tail {
            w.push(v);
            parsed.push(v);
            prop_assert_eq!(&parsed, &w);
        }
    }
}
