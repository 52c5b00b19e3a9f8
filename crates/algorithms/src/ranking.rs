//! The ranking algorithm (paper §5, Fig. 5).
//!
//! Instead of sorting random values, each node *estimates its rank* along the
//! attribute axis from the attribute values it observes: the estimate is the
//! fraction of observed values that were ≤ its own (`ℓ_i / g_i`). Gossip
//! provides the sample stream:
//!
//! * every cycle the node scans its (freshly shuffled) view and folds every
//!   neighbor's attribute into the estimate (Fig. 5 lines 5–11);
//! * it then pushes its own attribute to two neighbors (lines 12–14): `j1`,
//!   the neighbor whose published rank estimate is **closest to a slice
//!   boundary** — boundary nodes need the most samples (Theorem 5.1) — and
//!   `j2`, a uniformly random neighbor;
//! * received `UPD` messages are folded in on arrival (lines 17–21).
//!
//! Unlike the ordering algorithms, communication is one-way and payloads
//! (attribute values) never go stale, so concurrency cannot produce useless
//! messages (§5, "Concurrency side-effect") — and the estimate keeps
//! sharpening forever instead of plateauing at the accuracy of the initial
//! random spread.
//!
//! The generic parameter selects the accumulator: [`Ranking`] uses the
//! unbounded counters of Fig. 5, [`SlidingRanking`] the sliding-window
//! variant of §5.3.4.

use crate::estimator::{CounterEstimator, DecayEstimator, RankEstimator, WindowEstimator};
use crate::window::ValueWindow;
use dslice_core::protocol::{Context, Event, SliceProtocol};
use dslice_core::{Attribute, NodeId, Partition, ProtocolMsg, View};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How the two `UPD` targets of Fig. 5 lines 12–14 are chosen.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum Targeting {
    /// The paper's heuristic: `j1` = the neighbor whose published rank
    /// estimate is closest to a slice boundary (boundary nodes need the
    /// most samples, Theorem 5.1), `j2` = uniformly random.
    #[default]
    BoundaryPlusRandom,
    /// Ablation: both targets uniformly random. Isolates the value of the
    /// boundary bias (`bench/ablations` quantifies the difference).
    TwoRandom,
}

/// Outlier-robust sample admission for the ranking family.
///
/// A `Liar` poisons the sample stream by inflating its outgoing attribute
/// values far beyond the honest range, dragging every honest estimate
/// toward 0 without bound. The filter keeps a [`ValueWindow`] of the raw
/// attribute values recently offered to this node and judges each new
/// sample against order statistics of that window, via one or both of two
/// tests:
///
/// * **Tukey fences** ([`new`](RobustFilter::new) /
///   [`with_fence`](RobustFilter::with_fence)): reject a sample outside
///   `(q1 − k·IQR, q3 + k·IQR)` — a bounded-influence test: quartiles
///   tolerate up to a quarter of upper-tail contamination, so a minority of
///   naive liars cannot move the fences enough to smuggle their claims
///   through. An *adaptive* attacker, however, can aim just inside the
///   fences and still be admitted.
/// * **Symmetric trimming** ([`trimmed`](RobustFilter::trimmed)): reject a
///   sample outside the `[pct, 1 − pct]` quantile band of the window — the
///   admission-side equivalent of a trimmed mean over the window's order
///   statistics. Any coordinated minority smaller than `pct` of the stream
///   lands in the trimmed tail *wherever* it aims, at the cost of also
///   discarding the honest extremes (the ranking estimator rescales its raw
///   band ratio to undo that systematic cost — see
///   [`SliceProtocol::estimate`] on [`RankingProtocol`]).
///
/// Each test alone has a known hole. The fence admits fence-margin poison
/// by construction. Pure trimming rejects such poison from the *estimate*,
/// but the poison still sits in the window and drags the naive
/// whole-window `quantile(1 − pct)` cut upward in honest terms — the
/// admitted honest band shifts and every debiased estimate deflates by
/// ≈ `ε·r` for a poison stream fraction `ε`, which costs as much accuracy
/// as admitting the poison outright.
///
/// [`fenced_trimmed`](RobustFilter::fenced_trimmed) composes both and
/// closes that hole: a sample must pass the outer fences *and* sit inside
/// trim cuts computed over the window's inner-fence inliers
/// ([`ValueWindow::fenced_trim_cuts`] with
/// [`INNER_FENCE_RATIO`](RobustFilter::INNER_FENCE_RATIO) · `k`), so
/// fence-margin poison can neither enter the estimate nor steer the cuts.
///
/// Rejected samples are still *remembered* in the window (only excluded
/// from the estimate): the window must keep tracking the genuine stream so
/// honest distribution shifts widen the fences and re-admit the new range
/// within one window turnover. Filtering activates only once the window has
/// filled — before that there is no spread to judge against.
#[derive(Clone, Debug)]
pub struct RobustFilter {
    window: ValueWindow,
    /// Tukey-fence multiplier; `None` disables the fence test.
    fence_k: Option<f64>,
    /// Symmetric trim fraction in `(0, 0.5)`; `None` disables trimming.
    trim_pct: Option<f64>,
}

impl RobustFilter {
    /// Default Tukey multiplier: `k = 3` is the classical "far outlier"
    /// fence — wide enough that honest heavy-tailed streams (Pareto
    /// attributes) pass, tight enough to reject 10× inflation.
    pub const DEFAULT_FENCE_K: f64 = 3.0;

    /// Ratio of the admission fence multiplier used for the *inner* fences
    /// that sanitize the trim-cut evidence base (see
    /// [`ValueWindow::fenced_trim_cuts`]): with the default outer `k = 3`
    /// this is Tukey's classical inner fence at `1.5 × IQR`. Mis-excluding
    /// an honest tail sample from cut estimation only nudges the cuts;
    /// including fence-margin poison shifts them systematically.
    pub const INNER_FENCE_RATIO: f64 = 0.5;

    /// Creates a fence-only filter remembering the freshest `window` raw
    /// samples, with the default fence multiplier.
    pub fn new(window: usize) -> Self {
        Self::with_fence(window, Self::DEFAULT_FENCE_K)
    }

    /// Creates a fence-only filter with an explicit fence multiplier
    /// `k > 0`.
    ///
    /// # Panics
    /// Panics if `fence_k` is not positive and finite, or `window` is zero
    /// or above [`ValueWindow::MAX_CAPACITY`].
    pub fn with_fence(window: usize, fence_k: f64) -> Self {
        assert!(
            fence_k.is_finite() && fence_k > 0.0,
            "fence multiplier must be positive and finite, got {fence_k}"
        );
        RobustFilter {
            window: ValueWindow::new(window),
            fence_k: Some(fence_k),
            trim_pct: None,
        }
    }

    /// Creates a trim-only filter: admitted samples are those inside the
    /// `[pct, 1 − pct]` quantile band of the remembered window.
    ///
    /// # Panics
    /// Panics if `pct` is not strictly inside `(0, 0.5)`, or `window` is
    /// zero or above [`ValueWindow::MAX_CAPACITY`].
    pub fn trimmed(window: usize, pct: f64) -> Self {
        assert!(
            pct.is_finite() && pct > 0.0 && pct < 0.5,
            "trim fraction must lie strictly inside (0, 0.5), got {pct}"
        );
        RobustFilter {
            window: ValueWindow::new(window),
            fence_k: None,
            trim_pct: Some(pct),
        }
    }

    /// Creates the composed defense: a sample must pass the default Tukey
    /// fences *and* fall inside the `[pct, 1 − pct]` trim band.
    ///
    /// # Panics
    /// Panics if `pct` is not strictly inside `(0, 0.5)`, or `window` is
    /// zero or above [`ValueWindow::MAX_CAPACITY`].
    pub fn fenced_trimmed(window: usize, pct: f64) -> Self {
        let mut filter = Self::trimmed(window, pct);
        filter.fence_k = Some(Self::DEFAULT_FENCE_K);
        filter
    }

    /// Number of raw samples the filter remembers.
    pub fn window_capacity(&self) -> usize {
        self.window.capacity()
    }

    /// The symmetric trim fraction, if trimming is enabled.
    pub fn trim_fraction(&self) -> Option<f64> {
        self.trim_pct
    }

    /// Whether the Tukey-fence test is enabled.
    pub fn has_fence(&self) -> bool {
        self.fence_k.is_some()
    }

    /// Judges `value` against the enabled tests over the remembered stream,
    /// then remembers it either way. Returns `false` iff the sample is an
    /// outlier and should not enter the estimate.
    pub fn admit(&mut self, value: f64) -> bool {
        let admitted = if self.window.is_full() {
            // One set of quartiles serves both tests (O(1) reads of the
            // window's sorted index).
            let quartiles = self.window.quartiles().expect("window is full");
            let fence_ok = match self.fence_k.and_then(|k| quartiles.fences(k)) {
                Some((lo, hi)) => value >= lo && value <= hi,
                // Fence disabled, or zero spread: no basis to reject.
                None => true,
            };
            let trim_ok = match self.trim_pct {
                Some(pct) => {
                    // Composed with a fence, the trim cuts are computed over
                    // the window's *inner-fence* inliers (k/2, Tukey's
                    // classical inner/outer split). A naive whole-window
                    // quantile is itself poisonable: fence-margin samples
                    // sitting in the window drag `quantile(1 − pct)` upward
                    // in honest terms, deflating every debiased estimate by
                    // ≈ ε·r even though the poison never enters the
                    // estimate. Sanitizing the evidence base closes that
                    // channel; admission keeps the forgiving outer fences.
                    let (lo, hi) = match self.fence_k {
                        Some(k) => self.window.fenced_trim_cuts_from(
                            quartiles,
                            k * Self::INNER_FENCE_RATIO,
                            pct,
                        ),
                        None => (
                            self.window.quantile(pct).expect("window is full"),
                            self.window.quantile(1.0 - pct).expect("window is full"),
                        ),
                    };
                    value >= lo && value <= hi
                }
                None => true,
            };
            fence_ok && trim_ok
        } else {
            true // warmup: the window has not seen a full stream yet
        };
        self.window.push(value);
        admitted
    }
}

/// A ranking-algorithm node, generic over the sample accumulator.
#[derive(Clone, Debug)]
pub struct RankingProtocol<E: RankEstimator> {
    id: NodeId,
    attribute: Attribute,
    /// Initial estimate used before the first sample (Fig. 5 line 1 draws a
    /// random value in `(0, 1]`).
    initial: f64,
    estimator: E,
    partition: Partition,
    targeting: Targeting,
    /// Optional outlier-robust sample admission (off for the paper-faithful
    /// variants; every sample is absorbed unconditionally when `None`).
    /// Boxed so undefended nodes carry one pointer, not a whole window.
    filter: Option<Box<RobustFilter>>,
}

/// The ranking algorithm with unbounded counters (Fig. 5).
pub type Ranking = RankingProtocol<CounterEstimator>;

/// The sliding-window ranking algorithm (§5.3.4).
pub type SlidingRanking = RankingProtocol<WindowEstimator>;

/// The ranking algorithm with exponential sample aging.
pub type DecayRanking = RankingProtocol<DecayEstimator>;

impl Ranking {
    /// Creates a counter-based ranking node. `initial` is the provisional
    /// estimate before any sample arrives, drawn in `(0, 1]`.
    pub fn new(id: NodeId, attribute: Attribute, initial: f64, partition: Partition) -> Self {
        RankingProtocol {
            id,
            attribute,
            initial,
            estimator: CounterEstimator::new(),
            partition,
            targeting: Targeting::default(),
            filter: None,
        }
    }

    /// Creates a counter-based ranking node with an RNG-drawn initial value.
    pub fn with_rng<R: Rng + ?Sized>(
        id: NodeId,
        attribute: Attribute,
        partition: Partition,
        rng: &mut R,
    ) -> Self {
        let initial = 1.0 - rng.gen::<f64>();
        Self::new(id, attribute, initial, partition)
    }
}

impl SlidingRanking {
    /// Creates a sliding-window ranking node retaining the freshest
    /// `window` samples.
    pub fn with_window(
        id: NodeId,
        attribute: Attribute,
        initial: f64,
        partition: Partition,
        window: usize,
    ) -> Self {
        RankingProtocol {
            id,
            attribute,
            initial,
            estimator: WindowEstimator::new(window),
            partition,
            targeting: Targeting::default(),
            filter: None,
        }
    }
}

impl DecayRanking {
    /// Creates a sample-aging ranking node with decay factor
    /// `lambda ∈ (0, 1)` (see [`DecayEstimator`]).
    pub fn with_lambda(
        id: NodeId,
        attribute: Attribute,
        initial: f64,
        partition: Partition,
        lambda: f64,
    ) -> Self {
        RankingProtocol {
            id,
            attribute,
            initial,
            estimator: DecayEstimator::new(lambda),
            partition,
            targeting: Targeting::default(),
            filter: None,
        }
    }
}

impl<E: RankEstimator> RankingProtocol<E> {
    /// Overrides the `UPD` target-selection policy (builder style).
    pub fn with_targeting(mut self, targeting: Targeting) -> Self {
        self.targeting = targeting;
        self
    }

    /// Attaches outlier-robust sample admission (builder style): samples
    /// outside the filter's fences are rejected instead of absorbed.
    pub fn with_filter(mut self, filter: RobustFilter) -> Self {
        self.filter = Some(Box::new(filter));
        self
    }

    /// The robust-admission filter, if one is attached.
    pub fn filter(&self) -> Option<&RobustFilter> {
        self.filter.as_deref()
    }

    /// The target-selection policy in use.
    pub fn targeting(&self) -> Targeting {
        self.targeting
    }

    /// The number of samples currently contributing to the estimate.
    pub fn samples(&self) -> usize {
        self.estimator.samples()
    }

    /// Read access to the accumulator.
    pub fn estimator(&self) -> &E {
        &self.estimator
    }

    /// The partition this node slices against.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Folds one observed attribute value into the estimate
    /// (lines 6–7 / 18–19 of Fig. 5: `if a_j ≤ a_i then ℓ_i ← ℓ_i + 1`).
    ///
    /// Both sample channels — view scans in `on_active` and received `UPD`
    /// messages — funnel through here, so an attached [`RobustFilter`]
    /// covers every poisoning path.
    fn observe(&mut self, a: Attribute, ctx: &mut dyn Context) {
        if let Some(filter) = &mut self.filter {
            if !filter.admit(a.value()) {
                ctx.record(Event::SampleRejected);
                return;
            }
        }
        self.estimator.absorb(a <= self.attribute);
        ctx.record(Event::SampleAbsorbed);
    }
}

impl<E: RankEstimator> SliceProtocol for RankingProtocol<E> {
    fn id(&self) -> NodeId {
        self.id
    }

    fn attribute(&self) -> Attribute {
        self.attribute
    }

    /// `r_i ← ℓ_i / g_i` (line 15), falling back to the initial random value
    /// before the first sample.
    ///
    /// Under a trim filter the raw ratio is a *band* position: admitted
    /// samples span only the `[pct, 1 − pct]` quantile band of the stream,
    /// so a node seeing fraction `raw` of the band below itself sits at
    /// true rank `pct + raw·(1 − 2·pct)`. The rescaling undoes the
    /// systematic bias symmetric trimming would otherwise impose on nodes
    /// away from the median (its cost: estimates resolve no finer than
    /// `pct` at the extremes, so keep `pct` below half the narrowest slice
    /// width).
    fn estimate(&self) -> f64 {
        let Some(raw) = self.estimator.estimate() else {
            return self.initial;
        };
        match self.filter.as_ref().and_then(|f| f.trim_fraction()) {
            Some(pct) => pct + raw * (1.0 - 2.0 * pct),
            None => raw,
        }
    }

    /// Fig. 5 lines 2–16.
    fn on_active(&mut self, view: &View, ctx: &mut dyn Context) {
        // Lines 5–11: absorb every neighbor's attribute; track the neighbor
        // whose *published rank estimate* is closest to a slice boundary.
        let mut boundary: Option<(NodeId, f64)> = None;
        for entry in view.iter() {
            self.observe(entry.attribute, ctx);
            let dist = self.partition.boundary_distance(entry.value);
            match boundary {
                Some((_, best)) if dist >= best => {}
                _ => boundary = Some((entry.id, dist)),
            }
        }
        let j1 = match self.targeting {
            Targeting::BoundaryPlusRandom => boundary.map(|(id, _)| id),
            Targeting::TwoRandom => view.random(ctx.rng()).map(|e| e.id),
        };
        // Line 12: a uniformly random second target.
        let j2 = view.random(ctx.rng()).map(|e| e.id);

        // Lines 13–14: one-way attribute pushes.
        for target in [j1, j2].into_iter().flatten() {
            ctx.send(
                target,
                ProtocolMsg::Update {
                    from: self.id,
                    a: self.attribute,
                },
            );
            ctx.record(Event::UpdateSent);
        }
    }

    fn set_partition(&mut self, partition: &Partition) {
        self.partition = partition.clone();
    }

    /// Fig. 5 lines 17–21.
    fn on_message(&mut self, _view: &View, msg: ProtocolMsg, ctx: &mut dyn Context) {
        // A ranking node reacts only to UPD samples; swap proposals are
        // ignored (the families are not mixed within one experiment).
        if let ProtocolMsg::Update { a, .. } = msg {
            self.observe(a, ctx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dslice_core::protocol::MockContext;
    use dslice_core::ViewEntry;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn attr(v: f64) -> Attribute {
        Attribute::new(v).unwrap()
    }

    fn part(k: usize) -> Partition {
        Partition::equal(k).unwrap()
    }

    fn view_of(entries: &[(u64, f64, f64)]) -> View {
        let mut v = View::new(entries.len().max(1)).unwrap();
        for &(id, a, r) in entries {
            v.insert(ViewEntry::new(NodeId::new(id), attr(a), r));
        }
        v
    }

    fn ctx() -> MockContext<StdRng> {
        MockContext::new(StdRng::seed_from_u64(7))
    }

    #[test]
    fn initial_estimate_before_any_sample() {
        let node = Ranking::new(NodeId::new(1), attr(5.0), 0.42, part(10));
        assert_eq!(node.estimate(), 0.42);
        assert_eq!(node.samples(), 0);
    }

    #[test]
    fn active_step_absorbs_every_neighbor() {
        let mut node = Ranking::new(NodeId::new(1), attr(50.0), 0.5, part(10));
        // Two lower, one higher.
        let view = view_of(&[(2, 10.0, 0.1), (3, 20.0, 0.2), (4, 90.0, 0.9)]);
        let mut c = ctx();
        node.on_active(&view, &mut c);
        assert_eq!(node.samples(), 3);
        assert!((node.estimate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.count(Event::SampleAbsorbed), 3);
    }

    #[test]
    fn equal_attribute_counts_as_lower() {
        // Line 7 uses `a_j' ≤ a_i`.
        let mut node = Ranking::new(NodeId::new(1), attr(50.0), 0.5, part(10));
        let view = view_of(&[(2, 50.0, 0.5)]);
        let mut c = ctx();
        node.on_active(&view, &mut c);
        assert_eq!(node.estimate(), 1.0);
    }

    #[test]
    fn sends_to_boundary_closest_and_random_neighbor() {
        let mut node = Ranking::new(NodeId::new(1), attr(50.0), 0.5, part(10));
        // Boundaries at 0.1, 0.2, …; neighbor 3's estimate 0.199 is closest.
        let view = view_of(&[(2, 10.0, 0.55), (3, 20.0, 0.199), (4, 90.0, 0.74)]);
        let mut c = ctx();
        node.on_active(&view, &mut c);
        assert_eq!(c.count(Event::UpdateSent), 2);
        let targets: Vec<NodeId> = c.sent.iter().map(|(to, _)| *to).collect();
        assert_eq!(targets[0], NodeId::new(3), "j1 = boundary-closest");
        assert!(
            view.contains(targets[1]),
            "j2 must be a view member, got {:?}",
            targets[1]
        );
        for (_, msg) in &c.sent {
            assert!(matches!(
                msg,
                ProtocolMsg::Update { from, a } if *from == NodeId::new(1) && *a == attr(50.0)
            ));
        }
    }

    #[test]
    fn empty_view_sends_nothing() {
        let mut node = Ranking::new(NodeId::new(1), attr(50.0), 0.5, part(10));
        let view = View::new(4).unwrap();
        let mut c = ctx();
        node.on_active(&view, &mut c);
        assert!(c.sent.is_empty());
        assert_eq!(node.samples(), 0);
    }

    #[test]
    fn update_message_refines_estimate() {
        let mut node = Ranking::new(NodeId::new(1), attr(50.0), 0.5, part(10));
        let view = View::new(4).unwrap();
        let mut c = ctx();
        node.on_message(
            &view,
            ProtocolMsg::Update {
                from: NodeId::new(2),
                a: attr(10.0),
            },
            &mut c,
        );
        node.on_message(
            &view,
            ProtocolMsg::Update {
                from: NodeId::new(3),
                a: attr(99.0),
            },
            &mut c,
        );
        assert_eq!(node.samples(), 2);
        assert_eq!(node.estimate(), 0.5);
    }

    #[test]
    fn swap_messages_are_ignored() {
        let mut node = Ranking::new(NodeId::new(1), attr(50.0), 0.5, part(10));
        let view = View::new(4).unwrap();
        let mut c = ctx();
        node.on_message(
            &view,
            ProtocolMsg::SwapReq {
                from: NodeId::new(2),
                r: 0.4,
                a: attr(10.0),
            },
            &mut c,
        );
        assert!(c.sent.is_empty());
        assert_eq!(node.samples(), 0);
    }

    #[test]
    fn estimate_converges_to_true_normalized_rank() {
        // Node with attribute 70 in a population 0..99: true rank fraction
        // P(a ≤ 70) = 71/100. Stream uniform samples from the population.
        let mut node = Ranking::new(NodeId::new(1000), attr(70.0), 0.5, part(10));
        let view = View::new(4).unwrap();
        let mut c = ctx();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..5000 {
            let a = attr(rand::Rng::gen_range(&mut rng, 0..100) as f64);
            node.on_message(
                &view,
                ProtocolMsg::Update {
                    from: NodeId::new(2),
                    a,
                },
                &mut c,
            );
        }
        assert!((node.estimate() - 0.71).abs() < 0.03);
    }

    #[test]
    fn sliding_variant_tracks_distribution_shift() {
        let mut node = SlidingRanking::with_window(NodeId::new(1), attr(50.0), 0.5, part(10), 100);
        let view = View::new(4).unwrap();
        let mut c = ctx();
        // Phase 1: all samples lower → estimate 1.0.
        for _ in 0..200 {
            node.on_message(
                &view,
                ProtocolMsg::Update {
                    from: NodeId::new(2),
                    a: attr(1.0),
                },
                &mut c,
            );
        }
        assert_eq!(node.estimate(), 1.0);
        // Phase 2 (churn shifted the population upward): all samples higher.
        // The window forgets phase 1 entirely after 100 samples.
        for _ in 0..100 {
            node.on_message(
                &view,
                ProtocolMsg::Update {
                    from: NodeId::new(3),
                    a: attr(99.0),
                },
                &mut c,
            );
        }
        assert_eq!(node.estimate(), 0.0);
        assert_eq!(node.samples(), 100);
    }

    #[test]
    fn slice_uses_estimate() {
        let p = part(4);
        let mut node = Ranking::new(NodeId::new(1), attr(50.0), 0.9, p.clone());
        assert_eq!(node.slice(&p).as_usize(), 3, "initial estimate");
        let view = View::new(4).unwrap();
        let mut c = ctx();
        // One lower, three higher → estimate 0.25 → slice 0.
        for a in [10.0, 90.0, 95.0, 99.0] {
            node.on_message(
                &view,
                ProtocolMsg::Update {
                    from: NodeId::new(2),
                    a: attr(a),
                },
                &mut c,
            );
        }
        assert_eq!(node.slice(&p).as_usize(), 0);
    }

    #[test]
    fn ranking_refuses_atomic_swaps() {
        // Estimate-based protocols hold no swappable value: the simulator's
        // transactional hook must refuse and adopt_value must be inert.
        let mut node = Ranking::new(NodeId::new(1), attr(50.0), 0.42, part(10));
        assert_eq!(node.try_atomic_swap(attr(120.0), 0.1), None);
        node.adopt_value(0.99);
        assert_eq!(node.estimate(), 0.42, "adopt_value is a no-op for ranking");
    }

    #[test]
    fn decay_variant_forgets_a_regional_shock() {
        // Pre-shock: samples uniformly straddle the node (estimate ~0.5).
        // Shock: the whole upper half vanishes — every remaining sample is
        // lower. The aging estimate must race toward 1.0; a counter would
        // crawl harmonically.
        let mut node = DecayRanking::with_lambda(NodeId::new(1), attr(50.0), 0.5, part(10), 0.95);
        let view = View::new(4).unwrap();
        let mut c = ctx();
        let send = |node: &mut DecayRanking, a: f64, c: &mut MockContext<StdRng>| {
            node.on_message(
                &view,
                ProtocolMsg::Update {
                    from: NodeId::new(2),
                    a: attr(a),
                },
                c,
            );
        };
        for i in 0..200 {
            send(&mut node, if i % 2 == 0 { 10.0 } else { 90.0 }, &mut c);
        }
        assert!((node.estimate() - 0.5).abs() < 0.05);
        for _ in 0..100 {
            send(&mut node, 10.0, &mut c);
        }
        assert!(
            node.estimate() > 0.98,
            "aging estimate must track the shock, got {}",
            node.estimate()
        );
    }

    #[test]
    fn robust_filter_rejects_inflated_samples() {
        let mut node = Ranking::new(NodeId::new(1), attr(50.0), 0.5, part(10))
            .with_filter(RobustFilter::new(16));
        let view = View::new(4).unwrap();
        let mut c = ctx();
        let send = |node: &mut Ranking, a: f64, c: &mut MockContext<StdRng>| {
            node.on_message(
                &view,
                ProtocolMsg::Update {
                    from: NodeId::new(2),
                    a: attr(a),
                },
                c,
            );
        };
        // Warm the window with an honest spread around the node.
        for i in 0..32 {
            send(&mut node, 30.0 + (i % 8) as f64 * 10.0, &mut c);
        }
        let absorbed_before = c.count(Event::SampleAbsorbed);
        let estimate_before = node.estimate();
        assert_eq!(c.count(Event::SampleRejected), 0);
        // A liar's 10×-inflated attribute is far outside the fences.
        send(&mut node, 1000.0, &mut c);
        assert_eq!(c.count(Event::SampleRejected), 1);
        assert_eq!(c.count(Event::SampleAbsorbed), absorbed_before);
        assert_eq!(
            node.estimate(),
            estimate_before,
            "rejected samples must not move the estimate"
        );
        // Honest samples keep flowing.
        send(&mut node, 60.0, &mut c);
        assert_eq!(c.count(Event::SampleAbsorbed), absorbed_before + 1);
    }

    #[test]
    fn robust_filter_readmits_after_honest_shift() {
        // The attribute landscape genuinely moves (churn rotates the
        // population upward): rejected-but-remembered samples widen the
        // fences so the new range is accepted within one window turnover.
        let mut filter = RobustFilter::new(8);
        for i in 0..8 {
            assert!(filter.admit(10.0 + i as f64));
        }
        assert!(!filter.admit(1000.0), "the jump itself is an outlier");
        let mut admitted = 0;
        for _ in 0..16 {
            if filter.admit(1000.0) {
                admitted += 1;
            }
        }
        assert!(
            admitted >= 8,
            "a sustained shift must be re-admitted, got {admitted}/16"
        );
    }

    #[test]
    fn robust_filter_warmup_admits_everything() {
        let mut filter = RobustFilter::new(4);
        assert!(filter.admit(1.0));
        assert!(filter.admit(1e9), "no fences before the window fills");
        assert_eq!(filter.window_capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "fence multiplier")]
    fn robust_filter_rejects_bad_fence() {
        let _ = RobustFilter::with_fence(8, 0.0);
    }

    #[test]
    #[should_panic(expected = "trim fraction")]
    fn trimmed_filter_rejects_bad_fraction() {
        let _ = RobustFilter::trimmed(8, 0.5);
    }

    #[test]
    fn trimmed_filter_rejects_inside_fence_collusion() {
        // A colluder aims just inside the upper Tukey fence: the fence-only
        // filter admits the poison, the trim band does not.
        let honest: Vec<f64> = (0..16).map(|i| 30.0 + (i % 8) as f64 * 10.0).collect();
        let mut fenced = RobustFilter::new(16);
        let mut trimmed = RobustFilter::trimmed(16, 0.2);
        for &v in &honest {
            fenced.admit(v);
            trimmed.admit(v);
        }
        // Tukey fences over this spread: q1 ≈ 47.5, q3 ≈ 82.5, so the
        // k=3 upper fence sits near 187. Aim just inside it.
        let (_, hi) = {
            let mut probe = ValueWindow::new(16);
            for &v in &honest {
                probe.push(v);
            }
            probe.tukey_fences(RobustFilter::DEFAULT_FENCE_K).unwrap()
        };
        let poison = hi * 0.999;
        assert!(
            fenced.admit(poison),
            "fence-only admits the adaptive claim {poison}"
        );
        assert!(
            !trimmed.admit(poison),
            "the trim band rejects the same claim {poison}"
        );
        // The honest core still flows through the trimmed filter.
        assert!(trimmed.admit(60.0));
    }

    #[test]
    fn trimmed_estimate_is_debiased_to_true_rank() {
        // Node at rank 0.7 of a uniform 0..100 stream under a 20% trim:
        // admitted samples span only the [20, 80] quantile band, so the raw
        // ratio converges near (0.7 − 0.2)/0.6 ≈ 0.83. The published
        // estimate must be rescaled back to the true rank.
        let mut node = Ranking::new(NodeId::new(1), attr(70.0), 0.5, part(4))
            .with_filter(RobustFilter::trimmed(32, 0.2));
        let view = View::new(4).unwrap();
        let mut c = ctx();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..4000 {
            let a = attr(rand::Rng::gen_range(&mut rng, 0..100) as f64);
            node.on_message(
                &view,
                ProtocolMsg::Update {
                    from: NodeId::new(2),
                    a,
                },
                &mut c,
            );
        }
        assert!(
            (node.estimate() - 0.7).abs() < 0.05,
            "debiased trimmed estimate should track the true rank, got {}",
            node.estimate()
        );
        assert!(c.count(Event::SampleRejected) > 0, "the trim must be live");
    }

    #[test]
    fn fenced_trimmed_composes_both_tests() {
        let mut filter = RobustFilter::fenced_trimmed(8, 0.2);
        assert!(filter.has_fence());
        assert_eq!(filter.trim_fraction(), Some(0.2));
        for i in 0..8 {
            assert!(filter.admit(10.0 + i as f64));
        }
        // Far outside the fences: rejected.
        assert!(!filter.admit(1000.0));
        // Outside the trim band but inside the fences: still rejected.
        assert!(!filter.admit(25.0));
        // Inside both: admitted.
        assert!(filter.admit(13.5));
    }

    #[test]
    fn fenced_trimmed_cuts_resist_window_pollution() {
        // The cut-shift attack: rejected samples still enter the window (so
        // the filter can re-learn a shifted distribution), and a naive trim
        // band computes its cuts over that polluted window. Poison parked at
        // the fence margin therefore drags the whole-window `quantile(0.9)`
        // cut upward *without a single poison sample being admitted* — every
        // debiased honest estimate deflates. The composed filter computes
        // its cuts over the fence-sanitized inlier subset instead, so the
        // cuts stay put.
        let honest: Vec<f64> = (0..64).map(|i| (i as f64 + 0.5) / 64.0).collect();
        let poison = 2.25; // inside the k=3 admission fence of this stream
        let probe = 0.93; // honest top band, above the clean 0.9-quantile cut

        let mut clean = RobustFilter::trimmed(64, 0.1);
        for &v in &honest {
            clean.admit(v);
        }
        assert!(
            !clean.admit(probe),
            "clean trim band cuts the top decile: {probe} is rejected"
        );

        let mut naive = RobustFilter::trimmed(64, 0.1);
        let mut fenced = RobustFilter::fenced_trimmed(64, 0.1);
        for &v in &honest {
            naive.admit(v);
            fenced.admit(v);
        }
        for _ in 0..4 {
            assert!(!naive.admit(poison), "poison is never admitted");
            assert!(!fenced.admit(poison), "poison is never admitted");
        }
        // Naive cuts over the polluted window have shifted: the same probe
        // the clean filter rejected now slips through.
        assert!(
            naive.admit(probe),
            "naive trim cut was dragged up by unadmitted poison"
        );
        // Fence-sanitized cuts ignore the poison: the probe is still cut.
        assert!(
            !fenced.admit(probe),
            "sanitized trim cut must not move under pollution"
        );
        // And the honest core still flows.
        assert!(fenced.admit(0.5));
    }

    proptest! {
        #[test]
        fn degenerate_windows_never_panic_and_admit_zero_spread(
            w in 1usize..4,
            value in -1e6f64..1e6,
            probes in proptest::collection::vec(-1e6f64..1e6, 1..32),
        ) {
            // w < 4 leaves no room for a meaningful IQR, and an all-equal
            // window has zero spread: both must degrade to admit-everything
            // rather than panic or reject the (only) honest value.
            for mut filter in [
                RobustFilter::new(w),
                RobustFilter::trimmed(w, 0.25),
                RobustFilter::fenced_trimmed(w, 0.25),
            ] {
                for _ in 0..(w + 4) {
                    prop_assert!(filter.admit(value), "all-equal stream must pass");
                }
                for &p in &probes {
                    filter.admit(p); // must not panic, admission unspecified
                }
            }
        }

        #[test]
        fn all_equal_full_windows_admit_their_own_value(
            w in 4usize..32,
            value in -1e6f64..1e6,
        ) {
            let mut filter = RobustFilter::fenced_trimmed(w, 0.1);
            for _ in 0..(2 * w) {
                prop_assert!(
                    filter.admit(value),
                    "zero-spread window must keep admitting its own value"
                );
            }
        }

        #[test]
        fn estimate_is_always_a_probability(
            samples in proptest::collection::vec(-1e3f64..1e3, 0..200),
        ) {
            let mut node = Ranking::new(NodeId::new(1), attr(0.0), 0.5, part(5));
            let view = View::new(4).unwrap();
            let mut c = ctx();
            for a in samples {
                node.on_message(
                    &view,
                    ProtocolMsg::Update { from: NodeId::new(2), a: attr(a) },
                    &mut c,
                );
                let e = node.estimate();
                prop_assert!((0.0..=1.0).contains(&e));
            }
        }

        #[test]
        fn counter_estimate_equals_empirical_cdf(
            my_attr in -100f64..100.0,
            samples in proptest::collection::vec(-100f64..100.0, 1..100),
        ) {
            let mut node = Ranking::new(NodeId::new(1), attr(my_attr), 0.5, part(5));
            let view = View::new(4).unwrap();
            let mut c = ctx();
            for &a in &samples {
                node.on_message(
                    &view,
                    ProtocolMsg::Update { from: NodeId::new(2), a: attr(a) },
                    &mut c,
                );
            }
            let expect = samples.iter().filter(|&&a| a <= my_attr).count() as f64
                / samples.len() as f64;
            prop_assert!((node.estimate() - expect).abs() < 1e-12);
        }
    }
}
