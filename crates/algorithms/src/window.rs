//! A fixed-capacity FIFO window of bits.
//!
//! §5.3.4 of the paper observes that "the only necessary relevant
//! information of a message is simply whether it contains a lower attribute
//! value than the attribute value of `i`, or not. Consequently, a single bit
//! per message would be sufficient" — e.g. 10⁴ samples fit in
//! `10⁴ / 8 / 1000 = 1.25 kB`.
//!
//! [`BitWindow`] is that structure: a ring buffer of single bits packed into
//! `u64` words, with O(1) push and a running popcount so the rank estimate
//! `ones / len` is O(1) too.
//!
//! [`ValueWindow`] keeps the *raw* attribute samples (not just the
//! comparison bit) in the same FIFO discipline and answers order-statistic
//! queries over them — the evidence base for the outlier-robust absorption
//! defense, which needs quartiles of the recent sample stream to decide
//! whether a new sample is statistically plausible.
//!
//! The defense queries the window once per gossiped sample, so the window
//! stays sorted as samples arrive instead of being sorted per query. Its
//! cost model, for a window of `w` samples:
//!
//! * **push:** O(log w) compares to find the evicted and the new sample's
//!   ranks, plus one memmove of at most `2·w` bytes in a `u16` index; no
//!   allocation (both buffers are sized in [`ValueWindow::new`]);
//! * **quantile, quartiles, Tukey fences:** O(1);
//! * **fence-sanitized trim cuts:** O(log w) (two binary searches);
//! * **memory:** `10·w` bytes (8 per value, 2 per index entry), with `w` at
//!   most [`ValueWindow::MAX_CAPACITY`] = 2¹⁶ so a slot fits in a `u16`.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A fixed-capacity ring buffer of bits with a running count of ones.
///
/// Deserialization is validating: every structural invariant (`ones ≤ len ≤
/// capacity`, word-vector length, popcount agreement, no bits outside the
/// live region) is re-checked, so crafted JSON cannot materialize a window
/// whose running counters disagree with its bits.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct BitWindow {
    words: Vec<u64>,
    capacity: usize,
    /// Number of bits currently stored (≤ capacity).
    len: usize,
    /// Ring head: index of the slot the next push writes to.
    head: usize,
    /// Running number of set bits among the stored ones.
    ones: usize,
}

impl BitWindow {
    /// Creates a window holding up to `capacity ≥ 1` bits.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "BitWindow capacity must be at least 1");
        BitWindow {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
            len: 0,
            head: 0,
            ones: 0,
        }
    }

    /// The maximal number of bits retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of bits currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bits are stored yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the window has wrapped (old bits are being discarded).
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Number of set bits currently stored.
    pub fn ones(&self) -> usize {
        self.ones
    }

    /// Fraction of set bits, or `None` when empty.
    pub fn fraction(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            Some(self.ones as f64 / self.len as f64)
        }
    }

    /// Pushes a bit, evicting the oldest one if the window is full.
    pub fn push(&mut self, bit: bool) {
        let idx = self.head;
        let (word, mask) = (idx / 64, 1u64 << (idx % 64));
        if self.len == self.capacity {
            // Evict the bit currently stored in this slot.
            if self.words[word] & mask != 0 {
                self.ones -= 1;
            }
        } else {
            self.len += 1;
        }
        if bit {
            self.words[word] |= mask;
            self.ones += 1;
        } else {
            self.words[word] &= !mask;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Clears all stored bits.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
        self.head = 0;
        self.ones = 0;
    }

    /// Approximate heap footprint in bytes — the paper's 1.25 kB check.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Whether bit slot `idx` is set (callers guarantee `idx < capacity`).
    fn bit(words: &[u64], idx: usize) -> bool {
        words[idx / 64] & (1u64 << (idx % 64)) != 0
    }
}

impl Deserialize for BitWindow {
    /// Validating deserialization: the derived impl would happily accept
    /// `ones > len`, `len > capacity` or bits parked outside the live
    /// region, silently corrupting every later `fraction()` answer. Each
    /// invariant `push`/`clear` maintain is re-established here instead.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct BitWindow"))?;
        let field = |name: &str| serde::__field(m, name);
        let err = |msg: String| serde::Error::custom(format!("BitWindow: {msg}"));
        let words: Vec<u64> = Deserialize::from_value(field("words"))
            .map_err(|e| serde::Error::custom(format!("BitWindow.words: {e}")))?;
        let capacity: usize = Deserialize::from_value(field("capacity"))
            .map_err(|e| serde::Error::custom(format!("BitWindow.capacity: {e}")))?;
        let len: usize = Deserialize::from_value(field("len"))
            .map_err(|e| serde::Error::custom(format!("BitWindow.len: {e}")))?;
        let head: usize = Deserialize::from_value(field("head"))
            .map_err(|e| serde::Error::custom(format!("BitWindow.head: {e}")))?;
        let ones: usize = Deserialize::from_value(field("ones"))
            .map_err(|e| serde::Error::custom(format!("BitWindow.ones: {e}")))?;

        if capacity == 0 {
            return Err(err("capacity must be at least 1".into()));
        }
        if words.len() != capacity.div_ceil(64) {
            return Err(err(format!(
                "capacity {capacity} needs {} words, got {}",
                capacity.div_ceil(64),
                words.len()
            )));
        }
        if len > capacity {
            return Err(err(format!("len {len} exceeds capacity {capacity}")));
        }
        if head >= capacity {
            return Err(err(format!(
                "head {head} out of range for capacity {capacity}"
            )));
        }
        // Until the first wrap the head trails the push count exactly;
        // afterwards len stays pinned at capacity. Any other combination is
        // unreachable from `new`/`push`/`clear`.
        if len < capacity && head != len {
            return Err(err(format!(
                "head {head} inconsistent with unwrapped len {len}"
            )));
        }
        if ones > len {
            return Err(err(format!("ones {ones} exceeds len {len}")));
        }
        let popcount: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        if popcount != ones {
            return Err(err(format!(
                "running count {ones} disagrees with stored bits ({popcount} set)"
            )));
        }
        // Every set bit must lie in the live region (push clears evicted
        // slots, and bits beyond `capacity` in the last word never exist).
        // Unwrapped windows live in [0, len); full windows own every slot.
        for idx in 0..capacity {
            let live = len == capacity || idx < len;
            if !live && Self::bit(&words, idx) {
                return Err(err(format!("set bit at dead slot {idx} (len {len})")));
            }
        }
        for idx in capacity..words.len() * 64 {
            if Self::bit(&words, idx) {
                return Err(err(format!("set bit at {idx} beyond capacity {capacity}")));
            }
        }

        Ok(BitWindow {
            words,
            capacity,
            len,
            head,
            ones,
        })
    }
}

/// The first and third quartiles `(q1, q3)` of a [`ValueWindow`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Quartiles {
    /// The 0.25-quantile.
    pub(crate) q1: f64,
    /// The 0.75-quantile.
    pub(crate) q3: f64,
}

impl Quartiles {
    /// Tukey outlier fences `(q1 − k·IQR, q3 + k·IQR)`, or `None` when the
    /// interquartile range is zero (a degenerate stream carries no spread
    /// information to judge outliers against).
    pub(crate) fn fences(self, k: f64) -> Option<(f64, f64)> {
        let iqr = self.q3 - self.q1;
        if iqr <= 0.0 {
            return None;
        }
        Some((self.q1 - k * iqr, self.q3 + k * iqr))
    }
}

/// A fixed-capacity FIFO window of raw `f64` samples with order-statistic
/// queries.
///
/// Where [`BitWindow`] compresses each sample to one comparison bit, this
/// window retains the values themselves so their spread can be measured:
/// the robust-absorption defense asks "is this new sample an outlier versus
/// the recent stream?" via [`tukey_fences`](ValueWindow::tukey_fences).
///
/// Samples sit in a FIFO ring (`values`) and, beside it, an index `order`
/// of ring slots sorted by the key `(value.total_cmp, slot)`. The key is
/// unique, so a slot's rank is found by binary search. A push on a full
/// window moves the evicted slot to the new value's rank with one memmove
/// of at most `2·capacity` bytes (O(log w) compares, no allocation), and
/// every order statistic is a direct read of `values[order[r]]`. Samples
/// equal under `total_cmp` have identical bits, so the values read along
/// `order` are exactly the window sorted by `total_cmp`.
///
/// Deserialization is validating and rebuilds `order`, which is derived
/// state and never serialized.
#[derive(Debug, PartialEq)]
pub struct ValueWindow {
    values: Vec<f64>,
    capacity: usize,
    /// Index the next overwrite lands on once the window has filled.
    head: usize,
    /// Ring slots sorted by `(values[slot].total_cmp, slot)`.
    order: Vec<u16>,
}

impl ValueWindow {
    /// The largest capacity a window supports: ring slots are indexed by
    /// `u16` in the sorted order.
    pub const MAX_CAPACITY: usize = 1 << 16;

    /// Creates a window retaining the freshest `capacity` samples, with
    /// `1 ≤ capacity ≤` [`MAX_CAPACITY`](Self::MAX_CAPACITY). Both buffers
    /// are allocated here, so pushes never allocate.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or above `MAX_CAPACITY`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ValueWindow capacity must be at least 1");
        assert!(
            capacity <= Self::MAX_CAPACITY,
            "ValueWindow capacity must be at most {}, got {capacity}",
            Self::MAX_CAPACITY
        );
        ValueWindow {
            values: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            order: Vec::with_capacity(capacity),
        }
    }

    /// The maximal number of samples retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of samples currently stored.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples are stored yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the window has filled (old samples are being discarded).
    pub fn is_full(&self) -> bool {
        self.values.len() == self.capacity
    }

    /// Pushes a sample, evicting the oldest one if the window is full.
    pub fn push(&mut self, value: f64) {
        if self.values.len() < self.capacity {
            let slot = self.values.len();
            self.values.push(value);
            let rank = self.rank_in(0..slot, slot);
            self.order.insert(rank, slot as u16);
            return;
        }
        let slot = self.head;
        self.head = (slot + 1) % self.capacity;
        let old = self.rank_in(0..self.capacity, slot);
        let before = self.values[slot];
        self.values[slot] = value;
        // Every entry but `order[old]` is still sorted; find the new rank
        // on the side the key moved to and shift the entries in between.
        if value.total_cmp(&before).is_gt() {
            let rank = old + 1 + self.rank_in(old + 1..self.capacity, slot);
            self.order.copy_within(old + 1..rank, old);
            self.order[rank - 1] = slot as u16;
        } else {
            let rank = self.rank_in(0..old, slot);
            self.order.copy_within(rank..old, rank + 1);
            self.order[rank] = slot as u16;
        }
    }

    /// Discards all stored samples.
    pub fn clear(&mut self) {
        self.values.clear();
        self.order.clear();
        self.head = 0;
    }

    /// Whether slot `a` sorts before slot `b` under the key
    /// `(value.total_cmp, slot)`.
    fn key_lt(&self, a: usize, b: usize) -> bool {
        self.values[a]
            .total_cmp(&self.values[b])
            .then(a.cmp(&b))
            .is_lt()
    }

    /// Number of entries of `order[range]` whose key sorts before `slot`'s.
    fn rank_in(&self, range: Range<usize>, slot: usize) -> usize {
        self.order[range].partition_point(|&s| self.key_lt(s as usize, slot))
    }

    /// The `r`-th smallest stored sample.
    fn nth(&self, r: usize) -> f64 {
        self.values[self.order[r] as usize]
    }

    /// `q`-quantile with linear interpolation over the order statistics
    /// `start..end` (a non-empty rank range).
    fn interpolate(&self, start: usize, end: usize, q: f64) -> f64 {
        let pos = q.clamp(0.0, 1.0) * (end - start - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let (a, b) = (self.nth(start + lo), self.nth(start + hi));
        a + (b - a) * (pos - lo as f64)
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) of the stored samples with linear
    /// interpolation between order statistics, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.interpolate(0, self.len(), q))
    }

    /// The quartiles of the stored samples, or `None` when empty.
    pub(crate) fn quartiles(&self) -> Option<Quartiles> {
        Some(Quartiles {
            q1: self.quantile(0.25)?,
            q3: self.quantile(0.75)?,
        })
    }

    /// Tukey outlier fences `(q1 − k·IQR, q3 + k·IQR)` over the stored
    /// samples. `None` while the window is empty or the interquartile range
    /// is zero (a degenerate stream carries no spread information to judge
    /// outliers against).
    pub fn tukey_fences(&self, k: f64) -> Option<(f64, f64)> {
        self.quartiles()?.fences(k)
    }

    /// Trim cuts `(quantile(pct), quantile(1 − pct))` computed over the
    /// *fence-sanitized* subset of the window: samples outside the Tukey
    /// fences with multiplier `k` are excluded from the evidence base
    /// before the quantiles are taken.
    ///
    /// This is what makes a trim band robust to stream pollution: an
    /// attacker injecting a few huge values into the window cannot drag the
    /// naive `quantile(1 − pct)` cut up to its poison level, because those
    /// values never enter the cut computation. The IQR box always lies
    /// inside its own fences, so at least half the window survives the
    /// sanitization and the quantiles stay well-defined. When the fences
    /// are undefined (zero spread) the cuts fall back to whole-window
    /// quantiles. `None` while the window is empty.
    pub fn fenced_trim_cuts(&self, k: f64, pct: f64) -> Option<(f64, f64)> {
        Some(self.fenced_trim_cuts_from(self.quartiles()?, k, pct))
    }

    /// [`fenced_trim_cuts`](ValueWindow::fenced_trim_cuts) for a caller
    /// that already holds this window's [`quartiles`](ValueWindow::quartiles)
    /// (so a non-empty window).
    pub(crate) fn fenced_trim_cuts_from(
        &self,
        quartiles: Quartiles,
        k: f64,
        pct: f64,
    ) -> (f64, f64) {
        let (start, end) = match quartiles.fences(k) {
            // A NaN spread yields NaN fences; it sanitizes nothing.
            Some((lo, hi)) if quartiles.q3 - quartiles.q1 > 0.0 => (
                self.order
                    .partition_point(|&s| self.values[s as usize] < lo),
                self.order
                    .partition_point(|&s| self.values[s as usize] <= hi),
            ),
            _ => (0, self.len()),
        };
        (
            self.interpolate(start, end, pct),
            self.interpolate(start, end, 1.0 - pct),
        )
    }
}

impl Clone for ValueWindow {
    /// Keeps both buffers at full capacity (a derived clone would shrink
    /// them to the current length), so the clone's pushes never allocate.
    fn clone(&self) -> Self {
        let mut clone = ValueWindow::new(self.capacity);
        clone.values.extend_from_slice(&self.values);
        clone.order.extend_from_slice(&self.order);
        clone.head = self.head;
        clone
    }
}

impl Serialize for ValueWindow {
    /// The wire form is the ring alone, `{values, capacity, head}`: the
    /// sorted index is derived state and is rebuilt on load.
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("values".to_string(), self.values.to_value()),
            ("capacity".to_string(), self.capacity.to_value()),
            ("head".to_string(), self.head.to_value()),
        ])
    }
}

impl Deserialize for ValueWindow {
    /// Validating deserialization: a derived impl would accept `capacity: 0`
    /// or more values than the capacity, and the next `push` would index
    /// out of bounds. Each invariant `push`/`clear` maintain is re-checked
    /// here, and the sorted index is rebuilt from the ring.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct ValueWindow"))?;
        let field = |name: &str| serde::__field(m, name);
        let err = |msg: String| serde::Error::custom(format!("ValueWindow: {msg}"));
        let values: Vec<f64> = Deserialize::from_value(field("values"))
            .map_err(|e| serde::Error::custom(format!("ValueWindow.values: {e}")))?;
        let capacity: usize = Deserialize::from_value(field("capacity"))
            .map_err(|e| serde::Error::custom(format!("ValueWindow.capacity: {e}")))?;
        let head: usize = Deserialize::from_value(field("head"))
            .map_err(|e| serde::Error::custom(format!("ValueWindow.head: {e}")))?;

        if capacity == 0 || capacity > Self::MAX_CAPACITY {
            return Err(err(format!(
                "capacity {capacity} outside 1..={}",
                Self::MAX_CAPACITY
            )));
        }
        if values.len() > capacity {
            return Err(err(format!(
                "{} values exceed capacity {capacity}",
                values.len()
            )));
        }
        if head >= capacity {
            return Err(err(format!(
                "head {head} out of range for capacity {capacity}"
            )));
        }
        // The head only moves once the window has filled.
        if values.len() < capacity && head != 0 {
            return Err(err(format!(
                "head {head} inconsistent with unfilled len {}",
                values.len()
            )));
        }

        // Pushing the ring in slot order refills the same slots (an unfilled
        // window appends) and rebuilds the index.
        let mut window = ValueWindow::new(capacity);
        for v in values {
            window.push(v);
        }
        window.head = head;
        Ok(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = BitWindow::new(0);
    }

    #[test]
    fn push_and_count_before_wrap() {
        let mut w = BitWindow::new(8);
        assert!(w.is_empty());
        assert_eq!(w.fraction(), None);
        w.push(true);
        w.push(false);
        w.push(true);
        assert_eq!(w.len(), 3);
        assert_eq!(w.ones(), 2);
        assert!((w.fraction().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_evicts_oldest() {
        let mut w = BitWindow::new(3);
        w.push(true);
        w.push(true);
        w.push(false);
        assert!(w.is_full());
        assert_eq!(w.ones(), 2);
        w.push(false); // evicts the first `true`
        assert_eq!(w.len(), 3);
        assert_eq!(w.ones(), 1);
        w.push(false); // evicts the second `true`
        assert_eq!(w.ones(), 0);
        w.push(true); // evicts a `false`
        assert_eq!(w.ones(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut w = BitWindow::new(4);
        w.push(true);
        w.push(true);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.ones(), 0);
        assert_eq!(w.fraction(), None);
        w.push(false);
        assert_eq!(w.fraction(), Some(0.0));
    }

    #[test]
    fn paper_footprint_10k_samples() {
        // §5.3.4: 10⁴ bits ≈ 1.25 kB.
        let w = BitWindow::new(10_000);
        assert_eq!(w.size_bytes(), 10_000usize.div_ceil(64) * 8);
        assert!(w.size_bytes() <= 1256, "10k bits must fit in ~1.25 kB");
    }

    #[test]
    fn capacity_not_multiple_of_64() {
        let mut w = BitWindow::new(65);
        for i in 0..130 {
            w.push(i % 2 == 0);
        }
        assert_eq!(w.len(), 65);
        // Alternating bits: ceil or floor of half.
        assert!(w.ones() == 32 || w.ones() == 33);
    }

    #[test]
    fn serde_roundtrip_preserves_state() {
        let mut w = BitWindow::new(100);
        for i in 0..137 {
            w.push(i % 3 != 0);
        }
        let json = serde_json::to_string(&w).unwrap();
        let parsed: BitWindow = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, w);
        // And an unwrapped window too.
        let mut small = BitWindow::new(70);
        small.push(true);
        small.push(false);
        let parsed: BitWindow =
            serde_json::from_str(&serde_json::to_string(&small).unwrap()).unwrap();
        assert_eq!(parsed, small);
    }

    #[test]
    fn deserialize_rejects_inconsistent_state() {
        // A valid 8-bit window with 2 stored bits (both set) for reference:
        // {"words":[3],"capacity":8,"len":2,"head":2,"ones":2}
        let cases = [
            // ones > len
            (
                r#"{"words":[3],"capacity":8,"len":1,"head":1,"ones":2}"#,
                "exceeds len",
            ),
            // len > capacity
            (
                r#"{"words":[3],"capacity":8,"len":9,"head":0,"ones":2}"#,
                "exceeds capacity",
            ),
            // zero capacity
            (
                r#"{"words":[],"capacity":0,"len":0,"head":0,"ones":0}"#,
                "at least 1",
            ),
            // wrong word-vector length
            (
                r#"{"words":[3,0],"capacity":8,"len":2,"head":2,"ones":2}"#,
                "words",
            ),
            // head out of range
            (
                r#"{"words":[3],"capacity":8,"len":8,"head":8,"ones":2}"#,
                "head",
            ),
            // head disagrees with an unwrapped len
            (
                r#"{"words":[3],"capacity":8,"len":2,"head":5,"ones":2}"#,
                "inconsistent",
            ),
            // running count disagrees with the stored bits
            (
                r#"{"words":[7],"capacity":8,"len":4,"head":4,"ones":2}"#,
                "disagrees",
            ),
            // a set bit in a dead slot (len 2 but bit 2 set; popcount agrees)
            (
                r#"{"words":[5],"capacity":8,"len":2,"head":2,"ones":2}"#,
                "dead slot",
            ),
            // a set bit beyond capacity inside the last word
            (
                r#"{"words":[256],"capacity":8,"len":8,"head":0,"ones":1}"#,
                "beyond capacity",
            ),
        ];
        for (json, needle) in cases {
            let err = serde_json::from_str::<BitWindow>(json)
                .expect_err(&format!("must reject {json}"))
                .to_string();
            assert!(
                err.contains(needle),
                "error for {json} should mention `{needle}`, got: {err}"
            );
        }
        // The reference state itself parses.
        let ok: BitWindow =
            serde_json::from_str(r#"{"words":[3],"capacity":8,"len":2,"head":2,"ones":2}"#)
                .unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.ones(), 2);
    }

    #[test]
    fn value_window_fifo_and_quantiles() {
        let mut w = ValueWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.quantile(0.5), None);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        assert!(w.is_full());
        assert_eq!(w.quantile(0.0), Some(1.0));
        assert_eq!(w.quantile(1.0), Some(4.0));
        assert_eq!(w.quantile(0.5), Some(2.5));
        // Pushing evicts the oldest: window becomes {2, 3, 4, 10}.
        w.push(10.0);
        assert_eq!(w.quantile(1.0), Some(10.0));
        assert_eq!(w.quantile(0.0), Some(2.0));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 4);
    }

    #[test]
    fn value_window_tukey_fences() {
        let mut w = ValueWindow::new(8);
        assert_eq!(w.tukey_fences(1.5), None, "empty window has no fences");
        for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0] {
            w.push(v);
        }
        // q1 = 2.75, q3 = 6.25, IQR = 3.5.
        let (lo, hi) = w.tukey_fences(1.5).unwrap();
        assert!((lo - (2.75 - 5.25)).abs() < 1e-12);
        assert!((hi - (6.25 + 5.25)).abs() < 1e-12);
        // Degenerate stream: all equal → no spread → no fences.
        let mut flat = ValueWindow::new(8);
        for _ in 0..8 {
            flat.push(5.0);
        }
        assert_eq!(flat.tukey_fences(1.5), None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn value_window_zero_capacity_panics() {
        let _ = ValueWindow::new(0);
    }

    #[test]
    #[should_panic(expected = "at most 65536")]
    fn value_window_capacity_above_max_panics() {
        let _ = ValueWindow::new(ValueWindow::MAX_CAPACITY + 1);
    }

    #[test]
    fn value_window_max_capacity_indexes_every_slot() {
        // The last slot of a maximal window is u16::MAX. Descending pushes
        // insert at rank 0 and, once full, evict the top rank: the longest
        // shift the index ever makes.
        let cap = ValueWindow::MAX_CAPACITY;
        let mut w = ValueWindow::new(cap);
        for i in 0..cap + 3 {
            w.push(-(i as f64));
        }
        assert!(w.is_full());
        assert_eq!(w.quantile(0.0), Some(-((cap + 2) as f64)));
        assert_eq!(w.quantile(1.0), Some(-3.0));
    }

    #[test]
    fn value_window_serde_roundtrip() {
        let mut w = ValueWindow::new(5);
        for v in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0] {
            w.push(v);
        }
        let json = serde_json::to_string(&w).unwrap();
        assert_eq!(json, r#"{"values":[9,2,4,1,5],"capacity":5,"head":2}"#);
        let parsed: ValueWindow = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, w);
        assert_eq!(parsed.quantile(0.5), Some(4.0));
    }

    #[test]
    fn value_window_deserialize_rejects_inconsistent_state() {
        let cases = [
            (r#"{"values":[],"capacity":0,"head":0}"#, "capacity 0"),
            (
                r#"{"values":[],"capacity":65537,"head":0}"#,
                "capacity 65537",
            ),
            (
                r#"{"values":[1.0,2.0,3.0],"capacity":2,"head":0}"#,
                "exceed",
            ),
            (r#"{"values":[1.0,2.0],"capacity":2,"head":2}"#, "head 2"),
            (r#"{"values":[1.0],"capacity":2,"head":1}"#, "unfilled"),
        ];
        for (json, needle) in cases {
            let err = serde_json::from_str::<ValueWindow>(json)
                .expect_err(&format!("must reject {json}"))
                .to_string();
            assert!(
                err.contains(needle),
                "error for {json} should mention `{needle}`, got: {err}"
            );
        }
        // A wrapped window's head may sit anywhere once it is full.
        let ok: ValueWindow =
            serde_json::from_str(r#"{"values":[1.0,2.0],"capacity":2,"head":1}"#).unwrap();
        assert_eq!(ok.quantile(0.0), Some(1.0));
    }

    #[test]
    fn fenced_trim_cuts_ignore_fence_margin_pollution() {
        // 60 honest samples spread over (0, 1) plus 4 poison samples parked
        // just inside a generous admission fence. Naive whole-window cuts
        // drift upward with the poison; fence-sanitized cuts must not.
        let mut clean = ValueWindow::new(64);
        let mut polluted = ValueWindow::new(64);
        for i in 0..60 {
            let v = (i as f64 + 0.5) / 60.0;
            clean.push(v);
            polluted.push(v);
        }
        for _ in 0..4 {
            polluted.push(2.25);
        }
        let (clean_lo, clean_hi) = clean.fenced_trim_cuts(1.5, 0.1).unwrap();
        let (lo, hi) = polluted.fenced_trim_cuts(1.5, 0.1).unwrap();
        assert!(
            (lo - clean_lo).abs() < 0.02 && (hi - clean_hi).abs() < 0.02,
            "sanitized cuts ({lo:.3}, {hi:.3}) drifted from clean ({clean_lo:.3}, {clean_hi:.3})"
        );
        assert!(hi < 1.0, "upper cut must stay below the poison level");
        // The naive whole-window cut, by contrast, is dragged upward by the
        // four poison samples sitting at the top of the order: quantile 0.9
        // of the polluted window lands ~0.06 above the clean cut.
        assert!(polluted.quantile(0.9).unwrap() > clean_hi + 0.04);
    }

    #[test]
    fn fenced_trim_cuts_degenerate_cases() {
        let empty = ValueWindow::new(8);
        assert_eq!(empty.fenced_trim_cuts(1.5, 0.1), None);
        // Zero spread → fences undefined → whole-window fallback.
        let mut flat = ValueWindow::new(8);
        for _ in 0..8 {
            flat.push(5.0);
        }
        assert_eq!(flat.fenced_trim_cuts(1.5, 0.1), Some((5.0, 5.0)));
        // A single sample is its own cut on both sides.
        let mut one = ValueWindow::new(8);
        one.push(3.0);
        assert_eq!(one.fenced_trim_cuts(1.5, 0.1), Some((3.0, 3.0)));
    }

    proptest! {
        #[test]
        fn matches_reference_deque(
            cap in 1usize..200,
            bits in proptest::collection::vec(any::<bool>(), 0..500),
        ) {
            let mut w = BitWindow::new(cap);
            let mut reference: VecDeque<bool> = VecDeque::new();
            for b in bits {
                w.push(b);
                reference.push_back(b);
                if reference.len() > cap {
                    reference.pop_front();
                }
                prop_assert_eq!(w.len(), reference.len());
                let expect_ones = reference.iter().filter(|&&x| x).count();
                prop_assert_eq!(w.ones(), expect_ones);
            }
        }

        #[test]
        fn deserialized_windows_always_came_from_valid_pushes(
            cap in 1usize..100,
            bits in proptest::collection::vec(any::<bool>(), 0..300),
        ) {
            // Serialize any reachable state; deserialization must accept it
            // bit-for-bit (the validator rejects only unreachable states).
            let mut w = BitWindow::new(cap);
            for b in bits {
                w.push(b);
            }
            let parsed: BitWindow =
                serde_json::from_str(&serde_json::to_string(&w).unwrap()).unwrap();
            prop_assert_eq!(parsed, w);
        }

        #[test]
        fn value_window_quantiles_match_sorted_suffix(
            cap in 1usize..50,
            samples in proptest::collection::vec(-1e3f64..1e3, 1..200),
        ) {
            let mut w = ValueWindow::new(cap);
            for &s in &samples {
                w.push(s);
            }
            let mut tail: Vec<f64> =
                samples.iter().rev().take(cap).copied().collect();
            tail.sort_unstable_by(f64::total_cmp);
            prop_assert_eq!(w.len(), tail.len());
            prop_assert_eq!(w.quantile(0.0), Some(tail[0]));
            prop_assert_eq!(w.quantile(1.0), Some(*tail.last().unwrap()));
            if let Some((lo, hi)) = w.tukey_fences(3.0) {
                prop_assert!(lo < hi);
                // Fences bracket the interquartile range.
                prop_assert!(lo <= w.quantile(0.25).unwrap());
                prop_assert!(hi >= w.quantile(0.75).unwrap());
            }
        }

        #[test]
        fn fenced_trim_cuts_always_defined_and_ordered(
            cap in 1usize..50,
            samples in proptest::collection::vec(-1e3f64..1e3, 1..200),
            k in 0.5f64..4.0,
            pct in 0.0f64..0.25,
        ) {
            // The IQR box lies inside its own fences, so the sanitized
            // subset is never empty and the cuts are always defined and
            // ordered, whatever the stream looks like.
            let mut w = ValueWindow::new(cap);
            for &s in &samples {
                w.push(s);
            }
            let (lo, hi) = w.fenced_trim_cuts(k, pct).unwrap();
            prop_assert!(lo <= hi);
            // Cuts never leave the window's own range.
            prop_assert!(lo >= w.quantile(0.0).unwrap());
            prop_assert!(hi <= w.quantile(1.0).unwrap());
        }
    }
}
