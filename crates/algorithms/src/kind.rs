//! Protocol selection: one enum naming the four algorithm variants.
//!
//! Runtimes (the cycle simulator, the network runtime, the benches) pick a
//! protocol by [`ProtocolKind`] and instantiate nodes through
//! [`ProtocolKind::build`], which hides the per-variant constructor details
//! behind `Box<dyn SliceProtocol>`.

use crate::ranking::RobustFilter;
use crate::{DecayRanking, Ordering, Ranking, SlidingRanking, ValueWindow};
use dslice_core::protocol::SliceProtocol;
use dslice_core::{Attribute, Error, NodeId, Partition, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which slicing protocol to run — the four algorithm variants the paper
/// evaluates plus the three hardened variants (sample aging, outlier-robust
/// absorption, swap liveness).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// The baseline JK ordering algorithm (random misplaced partner).
    Jk,
    /// The paper's improved ordering algorithm (gain-maximizing partner).
    ModJk,
    /// mod-JK with the swap-liveness defense: partners whose proposals go
    /// unresolved repeatedly are excluded from selection for a cooldown.
    ModJkLive {
        /// Consecutive unresolved proposals before a partner is banned.
        strike_limit: u32,
        /// Activations a banned partner stays excluded.
        cooldown: u32,
    },
    /// The ranking algorithm with unbounded counters (Fig. 5).
    Ranking,
    /// The ranking algorithm with both `UPD` targets uniformly random —
    /// the boundary-targeting ablation (no `j1` heuristic).
    RankingUniform,
    /// The sliding-window ranking algorithm (§5.3.4).
    SlidingRanking {
        /// Number of freshest samples retained.
        window: usize,
    },
    /// The ranking algorithm with exponential sample aging: evidence from
    /// `k` samples ago weighs `λ^k`. The decay factor is stored in parts
    /// per million (`λ = lambda_ppm / 1_000_000`) to keep the kind `Copy`
    /// and `Eq`.
    DecayRanking {
        /// Decay factor in parts per million, in `1..=999_999`.
        lambda_ppm: u32,
    },
    /// The counter-based ranking algorithm with outlier-robust sample
    /// admission: samples outside the Tukey fences of the recent raw-value
    /// window are rejected instead of absorbed.
    RobustRanking {
        /// Number of raw samples the admission filter remembers.
        window: usize,
    },
    /// The counter-based ranking algorithm with trimmed-mean sample
    /// admission: samples outside the symmetric `[pct, 1 − pct]` quantile
    /// band of the recent raw-value window are rejected. The trim fraction
    /// is stored in parts per million (`pct = trim_ppm / 1_000_000`) to keep
    /// the kind `Copy` and `Eq`.
    TrimmedRanking {
        /// Number of raw samples the admission filter remembers.
        window: usize,
        /// Symmetric trim fraction in parts per million, in `1..=499_999`.
        trim_ppm: u32,
    },
    /// The composed poisoning defense: a sample must pass the Tukey fences
    /// *and* fall inside the symmetric trim band.
    FencedTrimmedRanking {
        /// Number of raw samples the admission filter remembers.
        window: usize,
        /// Symmetric trim fraction in parts per million, in `1..=499_999`.
        trim_ppm: u32,
    },
}

impl ProtocolKind {
    /// The sample-aging kind for a decay factor `lambda ∈ (0, 1)`, rounded
    /// to the nearest part per million.
    ///
    /// # Panics
    /// Panics if `lambda` is outside `(0, 1)` (after ppm rounding).
    pub fn decay(lambda: f64) -> Self {
        let kind = ProtocolKind::DecayRanking {
            lambda_ppm: (lambda * 1e6).round() as u32,
        };
        kind.validate()
            .unwrap_or_else(|e| panic!("invalid decay factor {lambda}: {e}"));
        kind
    }

    /// The decay factor λ of a [`DecayRanking`](ProtocolKind::DecayRanking)
    /// kind, `None` for every other variant.
    pub fn lambda(&self) -> Option<f64> {
        match self {
            ProtocolKind::DecayRanking { lambda_ppm } => Some(*lambda_ppm as f64 / 1e6),
            _ => None,
        }
    }

    /// The trim-only kind for a fraction `pct ∈ (0, 0.5)`, rounded to the
    /// nearest part per million.
    ///
    /// # Panics
    /// Panics if `pct` is outside `(0, 0.5)` (after ppm rounding) or the
    /// window is degenerate.
    pub fn trimmed(window: usize, pct: f64) -> Self {
        let kind = ProtocolKind::TrimmedRanking {
            window,
            trim_ppm: (pct * 1e6).round() as u32,
        };
        kind.validate()
            .unwrap_or_else(|e| panic!("invalid trim fraction {pct}: {e}"));
        kind
    }

    /// The fence+trim kind for a fraction `pct ∈ (0, 0.5)`, rounded to the
    /// nearest part per million.
    ///
    /// # Panics
    /// Panics if `pct` is outside `(0, 0.5)` (after ppm rounding) or the
    /// window is degenerate.
    pub fn fenced_trimmed(window: usize, pct: f64) -> Self {
        let kind = ProtocolKind::FencedTrimmedRanking {
            window,
            trim_ppm: (pct * 1e6).round() as u32,
        };
        kind.validate()
            .unwrap_or_else(|e| panic!("invalid trim fraction {pct}: {e}"));
        kind
    }

    /// The symmetric trim fraction of a trimming kind, `None` for every
    /// other variant.
    pub fn trim_fraction(&self) -> Option<f64> {
        match self {
            ProtocolKind::TrimmedRanking { trim_ppm, .. }
            | ProtocolKind::FencedTrimmedRanking { trim_ppm, .. } => Some(*trim_ppm as f64 / 1e6),
            _ => None,
        }
    }

    /// Short label for output files and run records.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::Jk => "jk",
            ProtocolKind::ModJk => "mod-jk",
            ProtocolKind::ModJkLive { .. } => "mod-jk-live",
            ProtocolKind::Ranking => "ranking",
            ProtocolKind::RankingUniform => "ranking-uniform",
            ProtocolKind::SlidingRanking { .. } => "sliding-ranking",
            ProtocolKind::DecayRanking { .. } => "decay-ranking",
            ProtocolKind::RobustRanking { .. } => "robust-ranking",
            ProtocolKind::TrimmedRanking { .. } => "trimmed-ranking",
            ProtocolKind::FencedTrimmedRanking { .. } => "fenced-trimmed-ranking",
        }
    }

    /// Whether this is an ordering-family protocol (swaps random values).
    pub fn is_ordering(&self) -> bool {
        matches!(
            self,
            ProtocolKind::Jk | ProtocolKind::ModJk | ProtocolKind::ModJkLive { .. }
        )
    }

    /// Validates the variant's parameters — the checks `build` would
    /// otherwise hit as panics deep inside a constructor (a zero-capacity
    /// `BitWindow`, a decay factor outside `(0, 1)`).
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: String| Err(Error::InvalidProtocol(msg));
        match self {
            ProtocolKind::SlidingRanking { window } if *window == 0 => {
                bad("sliding-ranking window must be at least 1".into())
            }
            ProtocolKind::DecayRanking { lambda_ppm } if !(1..=999_999).contains(lambda_ppm) => {
                bad(format!(
                    "decay factor must lie strictly between 0 and 1, got {} ppm",
                    lambda_ppm
                ))
            }
            ProtocolKind::RobustRanking { window }
            | ProtocolKind::TrimmedRanking { window, .. }
            | ProtocolKind::FencedTrimmedRanking { window, .. }
                if !(4..=ValueWindow::MAX_CAPACITY).contains(window) =>
            {
                bad(format!(
                    "{} window must lie in 4..={} (quartiles need spread), got {window}",
                    self.label(),
                    ValueWindow::MAX_CAPACITY
                ))
            }
            ProtocolKind::TrimmedRanking { trim_ppm, .. }
            | ProtocolKind::FencedTrimmedRanking { trim_ppm, .. }
                if !(1..=499_999).contains(trim_ppm) =>
            {
                bad(format!(
                    "trim fraction must lie strictly between 0 and 0.5, got {trim_ppm} ppm"
                ))
            }
            ProtocolKind::ModJkLive {
                strike_limit,
                cooldown,
            } if *strike_limit == 0 || *cooldown == 0 => {
                bad("mod-jk-live strike limit and cooldown must be at least 1".into())
            }
            _ => Ok(()),
        }
    }

    /// Instantiates a protocol node. The initial random value (used directly
    /// by the ordering algorithms, and as the pre-sample fallback by the
    /// ranking ones) is drawn from `rng`.
    pub fn build<R: Rng + ?Sized>(
        &self,
        id: NodeId,
        attribute: Attribute,
        partition: &Partition,
        rng: &mut R,
    ) -> Box<dyn SliceProtocol> {
        let initial = 1.0 - rng.gen::<f64>(); // (0, 1]
        match *self {
            ProtocolKind::Jk => Box::new(Ordering::jk(id, attribute, initial)),
            ProtocolKind::ModJk => Box::new(Ordering::mod_jk(id, attribute, initial)),
            ProtocolKind::ModJkLive {
                strike_limit,
                cooldown,
            } => Box::new(Ordering::mod_jk_live(
                id,
                attribute,
                initial,
                strike_limit,
                cooldown as u64,
            )),
            ProtocolKind::Ranking => {
                Box::new(Ranking::new(id, attribute, initial, partition.clone()))
            }
            ProtocolKind::RankingUniform => Box::new(
                Ranking::new(id, attribute, initial, partition.clone())
                    .with_targeting(crate::ranking::Targeting::TwoRandom),
            ),
            ProtocolKind::SlidingRanking { window } => Box::new(SlidingRanking::with_window(
                id,
                attribute,
                initial,
                partition.clone(),
                window,
            )),
            ProtocolKind::DecayRanking { lambda_ppm } => Box::new(DecayRanking::with_lambda(
                id,
                attribute,
                initial,
                partition.clone(),
                lambda_ppm as f64 / 1e6,
            )),
            ProtocolKind::RobustRanking { window } => Box::new(
                Ranking::new(id, attribute, initial, partition.clone())
                    .with_filter(RobustFilter::new(window)),
            ),
            ProtocolKind::TrimmedRanking { window, trim_ppm } => Box::new(
                Ranking::new(id, attribute, initial, partition.clone())
                    .with_filter(RobustFilter::trimmed(window, trim_ppm as f64 / 1e6)),
            ),
            ProtocolKind::FencedTrimmedRanking { window, trim_ppm } => Box::new(
                Ranking::new(id, attribute, initial, partition.clone())
                    .with_filter(RobustFilter::fenced_trimmed(window, trim_ppm as f64 / 1e6)),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn labels() {
        assert_eq!(ProtocolKind::Jk.label(), "jk");
        assert_eq!(ProtocolKind::ModJk.label(), "mod-jk");
        assert_eq!(ProtocolKind::Ranking.label(), "ranking");
        assert_eq!(
            ProtocolKind::SlidingRanking { window: 100 }.label(),
            "sliding-ranking"
        );
        assert_eq!(
            ProtocolKind::DecayRanking {
                lambda_ppm: 995_000
            }
            .label(),
            "decay-ranking"
        );
        assert_eq!(
            ProtocolKind::RobustRanking { window: 64 }.label(),
            "robust-ranking"
        );
        assert_eq!(
            ProtocolKind::TrimmedRanking {
                window: 64,
                trim_ppm: 100_000
            }
            .label(),
            "trimmed-ranking"
        );
        assert_eq!(
            ProtocolKind::FencedTrimmedRanking {
                window: 64,
                trim_ppm: 100_000
            }
            .label(),
            "fenced-trimmed-ranking"
        );
        assert_eq!(
            ProtocolKind::ModJkLive {
                strike_limit: 2,
                cooldown: 16
            }
            .label(),
            "mod-jk-live"
        );
    }

    #[test]
    fn family_split() {
        assert!(ProtocolKind::Jk.is_ordering());
        assert!(ProtocolKind::ModJk.is_ordering());
        assert!(ProtocolKind::ModJkLive {
            strike_limit: 2,
            cooldown: 16
        }
        .is_ordering());
        assert!(!ProtocolKind::Ranking.is_ordering());
        assert!(!ProtocolKind::SlidingRanking { window: 1 }.is_ordering());
        assert!(!ProtocolKind::DecayRanking {
            lambda_ppm: 995_000
        }
        .is_ordering());
        assert!(!ProtocolKind::RobustRanking { window: 64 }.is_ordering());
        assert!(!ProtocolKind::TrimmedRanking {
            window: 64,
            trim_ppm: 100_000
        }
        .is_ordering());
        assert!(!ProtocolKind::FencedTrimmedRanking {
            window: 64,
            trim_ppm: 100_000
        }
        .is_ordering());
    }

    #[test]
    fn decay_constructor_rounds_to_ppm() {
        let kind = ProtocolKind::decay(0.995);
        assert_eq!(
            kind,
            ProtocolKind::DecayRanking {
                lambda_ppm: 995_000
            }
        );
        assert_eq!(kind.lambda(), Some(0.995));
        assert_eq!(ProtocolKind::Ranking.lambda(), None);
    }

    #[test]
    fn trim_constructors_round_to_ppm() {
        let kind = ProtocolKind::trimmed(64, 0.1);
        assert_eq!(
            kind,
            ProtocolKind::TrimmedRanking {
                window: 64,
                trim_ppm: 100_000
            }
        );
        assert_eq!(kind.trim_fraction(), Some(0.1));
        let kind = ProtocolKind::fenced_trimmed(32, 0.05);
        assert_eq!(
            kind,
            ProtocolKind::FencedTrimmedRanking {
                window: 32,
                trim_ppm: 50_000
            }
        );
        assert_eq!(kind.trim_fraction(), Some(0.05));
        assert_eq!(ProtocolKind::Ranking.trim_fraction(), None);
        assert_eq!(
            ProtocolKind::RobustRanking { window: 64 }.trim_fraction(),
            None
        );
    }

    #[test]
    fn validate_rejects_degenerate_parameters() {
        assert!(ProtocolKind::SlidingRanking { window: 0 }
            .validate()
            .is_err());
        assert!(ProtocolKind::DecayRanking { lambda_ppm: 0 }
            .validate()
            .is_err());
        assert!(ProtocolKind::DecayRanking {
            lambda_ppm: 1_000_000
        }
        .validate()
        .is_err());
        assert!(ProtocolKind::RobustRanking { window: 3 }
            .validate()
            .is_err());
        assert!(ProtocolKind::TrimmedRanking {
            window: 3,
            trim_ppm: 100_000
        }
        .validate()
        .is_err());
        assert!(ProtocolKind::TrimmedRanking {
            window: 64,
            trim_ppm: 0
        }
        .validate()
        .is_err());
        assert!(ProtocolKind::TrimmedRanking {
            window: 64,
            trim_ppm: 500_000
        }
        .validate()
        .is_err());
        assert!(ProtocolKind::FencedTrimmedRanking {
            window: 64,
            trim_ppm: 500_000
        }
        .validate()
        .is_err());
        // Admission windows are capped at the u16 sorted index's range.
        let max = ValueWindow::MAX_CAPACITY;
        for window in [max, max + 1] {
            for kind in [
                ProtocolKind::RobustRanking { window },
                ProtocolKind::TrimmedRanking {
                    window,
                    trim_ppm: 100_000,
                },
                ProtocolKind::FencedTrimmedRanking {
                    window,
                    trim_ppm: 100_000,
                },
            ] {
                assert_eq!(kind.validate().is_ok(), window == max, "{kind:?}");
            }
        }
        assert!(ProtocolKind::ModJkLive {
            strike_limit: 0,
            cooldown: 16
        }
        .validate()
        .is_err());
        assert!(ProtocolKind::ModJkLive {
            strike_limit: 2,
            cooldown: 0
        }
        .validate()
        .is_err());
        // The healthy parameterizations pass.
        assert!(ProtocolKind::SlidingRanking { window: 512 }
            .validate()
            .is_ok());
        assert!(ProtocolKind::decay(0.998).validate().is_ok());
        assert!(ProtocolKind::RobustRanking { window: 64 }
            .validate()
            .is_ok());
        assert!(ProtocolKind::trimmed(64, 0.1).validate().is_ok());
        assert!(ProtocolKind::fenced_trimmed(64, 0.1).validate().is_ok());
        assert!(ProtocolKind::ModJkLive {
            strike_limit: 2,
            cooldown: 16
        }
        .validate()
        .is_ok());
        assert!(ProtocolKind::Jk.validate().is_ok());
    }

    #[test]
    fn build_produces_working_protocols() {
        let part = Partition::equal(4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for kind in [
            ProtocolKind::Jk,
            ProtocolKind::ModJk,
            ProtocolKind::ModJkLive {
                strike_limit: 2,
                cooldown: 16,
            },
            ProtocolKind::Ranking,
            ProtocolKind::SlidingRanking { window: 64 },
            ProtocolKind::DecayRanking {
                lambda_ppm: 995_000,
            },
            ProtocolKind::RobustRanking { window: 64 },
            ProtocolKind::TrimmedRanking {
                window: 64,
                trim_ppm: 100_000,
            },
            ProtocolKind::FencedTrimmedRanking {
                window: 64,
                trim_ppm: 100_000,
            },
        ] {
            let p = kind.build(
                NodeId::new(7),
                Attribute::new(3.0).unwrap(),
                &part,
                &mut rng,
            );
            assert_eq!(p.id(), NodeId::new(7));
            assert_eq!(p.attribute().value(), 3.0);
            let e = p.estimate();
            assert!(e > 0.0 && e <= 1.0, "initial estimate {e} out of range");
        }
    }

    #[test]
    fn kind_serializes() {
        for kind in [
            ProtocolKind::SlidingRanking { window: 128 },
            ProtocolKind::DecayRanking {
                lambda_ppm: 998_000,
            },
            ProtocolKind::RobustRanking { window: 64 },
            ProtocolKind::TrimmedRanking {
                window: 64,
                trim_ppm: 100_000,
            },
            ProtocolKind::FencedTrimmedRanking {
                window: 32,
                trim_ppm: 50_000,
            },
            ProtocolKind::ModJkLive {
                strike_limit: 2,
                cooldown: 16,
            },
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            let parsed: ProtocolKind = serde_json::from_str(&json).unwrap();
            assert_eq!(parsed, kind);
        }
    }
}
