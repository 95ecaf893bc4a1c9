//! Frequency counting over categorical values: the machinery under the
//! voting recommender (§3.2's "parameter value that has highest support")
//! and the variability analysis (§2.6).

use serde::{map_field, DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;

/// Distinct values a table holds before its counts spill from the inline
/// arrays to a heap map. Vote-table groups overwhelmingly hold one or two
/// distinct values (a group is carriers that *agree* on the dependent
/// attributes, and operators configure them consistently), so nearly every
/// group stays heap-free; the paper-scale fit keeps tens of millions of
/// these alive at once and the per-table `HashMap` allocation used to
/// dominate its RSS.
const INLINE_CAP: usize = 3;

/// A multiset of `u16` values with O(1) add and majority queries.
///
/// The collaborative-filtering voter keeps one of these per carrier group;
/// leave-one-out evaluation excludes the probe carrier's own value inside
/// the query ([`FreqTable::majority_with_support_excluding`]) instead of
/// mutating the table.
///
/// Counts for up to [`INLINE_CAP`] distinct values live inline (32 bytes,
/// no heap); tables wider than that spill to a boxed map and stay spilled.
/// Equality and the serialized form are representation-independent.
#[derive(Debug, Clone)]
pub struct FreqTable {
    counts: Counts,
    total: usize,
}

/// Count storage: inline arrays sorted ascending by value, or the spilled
/// heap map.
///
/// The box is load-bearing, not an accident (`clippy::box_collection`
/// assumes the latter): an unboxed map variant would put 48 bytes in every
/// *inline* table too, since an enum is as large as its largest variant.
#[allow(clippy::box_collection)]
#[derive(Debug, Clone)]
enum Counts {
    Small {
        len: u8,
        vals: [u16; INLINE_CAP],
        counts: [u32; INLINE_CAP],
    },
    Large(Box<HashMap<u16, usize>>),
}

impl Default for FreqTable {
    fn default() -> Self {
        Self {
            counts: Counts::Small {
                len: 0,
                vals: [0; INLINE_CAP],
                counts: [0; INLINE_CAP],
            },
            total: 0,
        }
    }
}

impl FreqTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a table from values.
    pub fn from_values<I: IntoIterator<Item = u16>>(values: I) -> Self {
        let mut t = Self::new();
        for v in values {
            t.add(v);
        }
        t
    }

    /// Records one observation of `v`.
    pub fn add(&mut self, v: u16) {
        self.total += 1;
        let spill = match &mut self.counts {
            Counts::Small { len, vals, counts } => {
                let n = *len as usize;
                match vals[..n].binary_search(&v) {
                    Ok(i) if counts[i] < u32::MAX => {
                        counts[i] += 1;
                        false
                    }
                    Err(i) if n < INLINE_CAP => {
                        for j in (i..n).rev() {
                            vals[j + 1] = vals[j];
                            counts[j + 1] = counts[j];
                        }
                        vals[i] = v;
                        counts[i] = 1;
                        *len = (n + 1) as u8;
                        false
                    }
                    // A fourth distinct value, or an inline count at
                    // saturation: move to the heap map and count there.
                    _ => true,
                }
            }
            Counts::Large(map) => {
                *map.entry(v).or_insert(0) += 1;
                false
            }
        };
        if spill {
            self.spill();
            let Counts::Large(map) = &mut self.counts else {
                unreachable!("spill() always leaves the table spilled")
            };
            *map.entry(v).or_insert(0) += 1;
        }
    }

    /// Moves inline counts to the heap map. No-op when already spilled.
    fn spill(&mut self) {
        if let Counts::Small { len, vals, counts } = &self.counts {
            let n = *len as usize;
            let map: HashMap<u16, usize> = vals[..n]
                .iter()
                .zip(&counts[..n])
                .map(|(&v, &c)| (v, c as usize))
                .collect();
            self.counts = Counts::Large(Box::new(map));
        }
    }

    /// Total observation count.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Count of value `v`.
    pub fn count(&self, v: u16) -> usize {
        match &self.counts {
            Counts::Small { len, vals, counts } => vals[..*len as usize]
                .binary_search(&v)
                .map(|i| counts[i] as usize)
                .unwrap_or(0),
            Counts::Large(map) => map.get(&v).copied().unwrap_or(0),
        }
    }

    /// Number of distinct values currently present (the paper's
    /// *variability*).
    pub fn distinct(&self) -> usize {
        match &self.counts {
            Counts::Small { len, .. } => *len as usize,
            Counts::Large(map) => map.len(),
        }
    }

    /// The value with the highest count and that count. Ties break toward
    /// the smallest value so results are deterministic. `None` when empty.
    pub fn majority(&self) -> Option<(u16, usize)> {
        self.iter().max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Iterates `(value, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, usize)> + '_ {
        let (small, large) = match &self.counts {
            Counts::Small { len, vals, counts } => {
                let n = *len as usize;
                (Some(vals[..n].iter().zip(&counts[..n])), None)
            }
            Counts::Large(map) => (None, Some(map.iter())),
        };
        small
            .into_iter()
            .flatten()
            .map(|(&v, &c)| (v, c as usize))
            .chain(large.into_iter().flatten().map(|(&v, &c)| (v, c)))
    }

    /// Majority query with one observation of `exclude` virtually removed
    /// — the read-only leave-one-out form the recommender's evaluation
    /// uses (the table itself is shared across threads and never mutated).
    ///
    /// Returns `(value, count, total)` over the reduced table when the
    /// winner's support ratio reaches `threshold`; `None` when the reduced
    /// table is empty or support falls short. Excluding a value not in the
    /// table is a caller bug and panics.
    pub fn majority_with_support_excluding(
        &self,
        exclude: Option<u16>,
        threshold: f64,
    ) -> Option<(u16, usize, usize)> {
        let mut total = self.total;
        if let Some(e) = exclude {
            assert!(
                self.count(e) > 0,
                "excluding value {e} that was never added"
            );
            total -= 1;
        }
        if total == 0 {
            return None;
        }
        let mut best: Option<(u16, usize)> = None;
        for (v, c) in self.iter() {
            let c = if Some(v) == exclude { c - 1 } else { c };
            if c == 0 {
                continue;
            }
            best = match best {
                None => Some((v, c)),
                Some((bv, bc)) if c > bc || (c == bc && v < bv) => Some((v, c)),
                keep => keep,
            };
        }
        let (v, c) = best?;
        (c as f64 >= threshold * total as f64).then_some((v, c, total))
    }

    /// Adds `c` observations of `v` at once — the bulk form of
    /// [`FreqTable::add`], equivalent to calling it `c` times.
    ///
    /// Counts saturate at `usize::MAX` instead of wrapping (a wrap here
    /// used to corrupt the `total` invariant after weeks of incremental
    /// refits in a long-running service). Returns `true` when anything
    /// was clamped so callers can surface the event — a saturated table
    /// still answers majority queries, but its `total` is a floor, not an
    /// exact count.
    pub fn add_count(&mut self, v: u16, c: usize) -> bool {
        if c == 0 {
            return false;
        }
        let mut saturated = false;
        self.total = self.total.checked_add(c).unwrap_or_else(|| {
            saturated = true;
            usize::MAX
        });
        let spill = match &mut self.counts {
            Counts::Small { len, vals, counts } => {
                let n = *len as usize;
                match vals[..n].binary_search(&v) {
                    // checked_add: `count as usize + c` itself can wrap
                    // when `c` is huge, which is exactly the case this
                    // guard exists for.
                    Ok(i)
                        if (counts[i] as usize)
                            .checked_add(c)
                            .is_some_and(|s| s <= u32::MAX as usize) =>
                    {
                        counts[i] += c as u32;
                        false
                    }
                    Err(i) if n < INLINE_CAP && c <= u32::MAX as usize => {
                        for j in (i..n).rev() {
                            vals[j + 1] = vals[j];
                            counts[j + 1] = counts[j];
                        }
                        vals[i] = v;
                        counts[i] = c as u32;
                        *len = (n + 1) as u8;
                        false
                    }
                    _ => true,
                }
            }
            Counts::Large(map) => {
                let e = map.entry(v).or_insert(0);
                *e = e.checked_add(c).unwrap_or_else(|| {
                    saturated = true;
                    usize::MAX
                });
                false
            }
        };
        if spill {
            self.spill();
            let Counts::Large(map) = &mut self.counts else {
                unreachable!("spill() always leaves the table spilled")
            };
            let e = map.entry(v).or_insert(0);
            *e = e.checked_add(c).unwrap_or_else(|| {
                saturated = true;
                usize::MAX
            });
        }
        saturated
    }

    /// Merges another table's counts into this one — the union of the two
    /// multisets. The backoff recommender uses this to aggregate a prefix
    /// group from its full-key subgroups on demand instead of keeping an
    /// eagerly materialized table per prefix level.
    ///
    /// Saturates like [`FreqTable::add_count`]; returns `true` when any
    /// count clamped.
    pub fn merge(&mut self, other: &FreqTable) -> bool {
        let mut saturated = false;
        for (v, c) in other.iter() {
            saturated |= self.add_count(v, c);
        }
        saturated
    }

    /// The `(value, count)` pairs sorted by value — the canonical form
    /// equality and serialization are defined over.
    fn sorted_pairs(&self) -> Vec<(u16, usize)> {
        let mut pairs: Vec<(u16, usize)> = self.iter().collect();
        pairs.sort_unstable();
        pairs
    }

    /// Sets `v`'s count to exactly `c` (last write wins), mirroring the
    /// map-insert semantics the wire format deserializes with.
    fn set_count(&mut self, v: u16, c: usize) {
        let spill = match &mut self.counts {
            Counts::Small { len, vals, counts } => {
                let n = *len as usize;
                match vals[..n].binary_search(&v) {
                    Ok(i) if c <= u32::MAX as usize => {
                        counts[i] = c as u32;
                        false
                    }
                    Err(i) if n < INLINE_CAP && c <= u32::MAX as usize => {
                        for j in (i..n).rev() {
                            vals[j + 1] = vals[j];
                            counts[j + 1] = counts[j];
                        }
                        vals[i] = v;
                        counts[i] = c as u32;
                        *len = (n + 1) as u8;
                        false
                    }
                    _ => true,
                }
            }
            Counts::Large(_) => true,
        };
        if spill {
            self.spill();
            let Counts::Large(map) = &mut self.counts else {
                unreachable!("spill() always leaves the table spilled")
            };
            map.insert(v, c);
        }
    }
}

/// Representation-independent: a spilled table equals an inline table with
/// the same contents.
impl PartialEq for FreqTable {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.sorted_pairs() == other.sorted_pairs()
    }
}

impl Eq for FreqTable {}

/// Wire format: `{"counts": [[value, count], ...], "total": n}` with the
/// pairs sorted by value — JSON map keys must be strings, so a map-shaped
/// encoding would not round-trip `u16` keys.
impl Serialize for FreqTable {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("counts".to_string(), self.sorted_pairs().to_value()),
            ("total".to_string(), self.total.to_value()),
        ])
    }
}

impl Deserialize for FreqTable {
    /// Strict parse: the wire pairs must be internally consistent — no
    /// duplicate values, no zero counts, and a `total` that equals the sum
    /// of the counts. The serializer can only emit such tables, so honest
    /// files round-trip unchanged; a corrupted or hand-mutated file gets a
    /// typed error here instead of an inconsistent table that trips
    /// arithmetic assertions (e.g. leave-one-out exclusion) much later.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let counts: Vec<(u16, usize)> = Deserialize::from_value(map_field(v, "counts")?)?;
        let total: usize = Deserialize::from_value(map_field(v, "total")?)?;
        let mut t = FreqTable::new();
        let mut sum = 0usize;
        for &(value, count) in &counts {
            if count == 0 {
                return Err(DeError::custom(format!(
                    "freq table: zero count for value {value}"
                )));
            }
            if t.count(value) != 0 {
                return Err(DeError::custom(format!(
                    "freq table: duplicate value {value}"
                )));
            }
            sum = sum
                .checked_add(count)
                .ok_or_else(|| DeError::custom("freq table: count sum overflows"))?;
            t.set_count(value, count);
        }
        if sum != total {
            return Err(DeError::custom(format!(
                "freq table: total {total} != sum of counts {sum}"
            )));
        }
        t.total = total;
        Ok(t)
    }
}

/// Number of distinct values in a slice (convenience for the variability
/// figures).
pub fn distinct_count(values: &[u16]) -> usize {
    let mut s: Vec<u16> = values.to_vec();
    s.sort_unstable();
    s.dedup();
    s.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_equals_repeated_add_across_the_spill_boundary() {
        // Merging must match adding the other table's observations one by
        // one — including when the union's distinct count crosses the
        // inline capacity and the receiver spills mid-merge.
        let mut a = FreqTable::from_values([1, 1, 2, 3]);
        let b = FreqTable::from_values([2, 4, 4, 5, 6]);
        let mut expected = a.clone();
        for v in [2, 4, 4, 5, 6] {
            expected.add(v);
        }
        a.merge(&b);
        assert_eq!(a, expected);
        assert_eq!(a.total(), 9);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.count(4), 2);
        // Merging an empty table is a no-op; merging into an empty table
        // clones the source's distribution.
        let before = a.clone();
        a.merge(&FreqTable::new());
        assert_eq!(a, before);
        let mut fresh = FreqTable::new();
        fresh.merge(&b);
        assert_eq!(fresh, b);
    }

    #[test]
    fn merge_near_max_saturates_instead_of_overflowing() {
        // Regression: counts near usize::MAX used to wrap on merge (debug
        // panic, silent corruption in release). They must clamp and
        // report.
        let mut a = FreqTable::new();
        assert!(!a.add_count(7, usize::MAX - 1));
        let mut b = FreqTable::new();
        assert!(!b.add_count(7, 5));
        assert!(!b.add_count(3, 10));
        // 7's count: (MAX-1) + 5 clamps; total clamps too.
        assert!(a.merge(&b), "merge must report the clamp");
        assert_eq!(a.count(7), usize::MAX);
        assert_eq!(a.count(3), 10);
        assert_eq!(a.total(), usize::MAX);
        // The saturated table still answers queries deterministically.
        assert_eq!(a.majority(), Some((7, usize::MAX)));
        // Merging more into a saturated count stays clamped and keeps
        // reporting.
        assert!(a.merge(&b));
        assert_eq!(a.count(7), usize::MAX);
        // A clamp on the inline→spill path: a huge count lands on an
        // existing inline value.
        let mut c = FreqTable::new();
        c.add(2);
        assert!(!c.add_count(2, usize::MAX - 1));
        assert!(c.add_count(2, usize::MAX / 2), "spilled count must clamp");
        assert_eq!(c.count(2), usize::MAX);
        // Ordinary merges never report saturation.
        let mut small = FreqTable::from_values([1, 2]);
        assert!(!small.merge(&FreqTable::from_values([2, 3, 4, 5])));
    }

    #[test]
    fn majority_and_ties() {
        let t = FreqTable::from_values([1, 2, 2, 3, 3]);
        // Tie between 2 and 3 at count 2 → smaller value wins.
        assert_eq!(t.majority(), Some((2, 2)));
        assert_eq!(FreqTable::new().majority(), None);
    }

    #[test]
    fn support_threshold_semantics() {
        let t = FreqTable::from_values([7, 7, 7, 1]);
        // 7 has 3/4 = exactly 75% support: threshold is inclusive.
        assert_eq!(
            t.majority_with_support_excluding(None, 0.75),
            Some((7, 3, 4))
        );
        assert_eq!(t.majority_with_support_excluding(None, 0.76), None);
        assert_eq!(
            t.majority_with_support_excluding(None, 0.5),
            Some((7, 3, 4))
        );
        // Single value trivially has 100% support.
        let one = FreqTable::from_values([4]);
        assert_eq!(
            one.majority_with_support_excluding(None, 1.0),
            Some((4, 1, 1))
        );
    }

    #[test]
    fn excluding_matches_mutating_leave_one_out() {
        let t = FreqTable::from_values([5, 5, 5, 9]);
        // Excluding the odd one out: 5 has 3/3 support.
        assert_eq!(
            t.majority_with_support_excluding(Some(9), 0.75),
            Some((5, 3, 3))
        );
        // Excluding a 5: remaining 5,5,9 → 2/3 < 75%.
        assert_eq!(t.majority_with_support_excluding(Some(5), 0.75), None);
        // No exclusion queries the whole table.
        assert_eq!(
            t.majority_with_support_excluding(None, 0.75),
            Some((5, 3, 4))
        );
        // Original table untouched.
        assert_eq!(t.total(), 4);
    }

    #[test]
    fn excluding_the_only_value_empties_the_table() {
        let t = FreqTable::from_values([2]);
        assert_eq!(t.majority_with_support_excluding(Some(2), 0.5), None);
    }

    #[test]
    #[should_panic(expected = "never added")]
    fn excluding_unknown_value_panics() {
        FreqTable::from_values([1]).majority_with_support_excluding(Some(9), 0.5);
    }

    #[test]
    fn distinct_count_helper() {
        assert_eq!(distinct_count(&[1, 1, 2, 9, 9, 9]), 3);
        assert_eq!(distinct_count(&[]), 0);
    }

    #[test]
    fn spilling_past_inline_capacity_preserves_every_query() {
        // 5 distinct values crosses INLINE_CAP mid-build.
        let t = FreqTable::from_values([4, 1, 4, 3, 2, 0, 4, 2]);
        assert_eq!(t.total(), 8);
        assert_eq!(t.distinct(), 5);
        for (v, c) in [(0, 1), (1, 1), (2, 2), (3, 1), (4, 3), (9, 0)] {
            assert_eq!(t.count(v), c, "count({v})");
        }
        assert_eq!(t.majority(), Some((4, 3)));
        assert_eq!(
            t.majority_with_support_excluding(Some(4), 0.25),
            Some((2, 2, 7))
        );
        let mut pairs: Vec<(u16, usize)> = t.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (1, 1), (2, 2), (3, 1), (4, 3)]);
    }

    #[test]
    fn serde_wire_format_is_sorted_pairs() {
        let t = FreqTable::from_values([9, 2, 2, 5, 9, 9]);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, r#"{"counts":[[2,2],[5,1],[9,3]],"total":6}"#);
        let back: FreqTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        // A spilled table serializes identically and round-trips.
        let wide = FreqTable::from_values([0, 1, 2, 3, 4, 4]);
        let back: FreqTable = serde_json::from_str(&serde_json::to_string(&wide).unwrap()).unwrap();
        assert_eq!(back, wide);
        assert_eq!(back.majority(), Some((4, 2)));
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// Reference model: the plain map the table used to be built on.
        #[derive(Default)]
        struct Naive {
            counts: HashMap<u16, usize>,
            total: usize,
        }

        impl Naive {
            fn add(&mut self, v: u16) {
                *self.counts.entry(v).or_insert(0) += 1;
                self.total += 1;
            }
            fn majority(&self) -> Option<(u16, usize)> {
                self.counts
                    .iter()
                    .map(|(&v, &c)| (v, c))
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random add sequences: every query agrees with the naive
            /// map at every step, across the spill boundary.
            #[test]
            fn table_matches_naive_map(
                ops in proptest::collection::vec(0u16..6, 1..40)
            ) {
                let mut t = FreqTable::new();
                let mut n = Naive::default();
                for v in ops {
                    t.add(v);
                    n.add(v);
                    prop_assert_eq!(t.total(), n.total);
                    prop_assert_eq!(t.distinct(), n.counts.len());
                    prop_assert_eq!(t.majority(), n.majority());
                    for v in 0u16..6 {
                        prop_assert_eq!(t.count(v), n.counts.get(&v).copied().unwrap_or(0));
                    }
                    let mut pairs: Vec<(u16, usize)> = t.iter().collect();
                    pairs.sort_unstable();
                    let mut naive_pairs: Vec<(u16, usize)> =
                        n.counts.iter().map(|(&v, &c)| (v, c)).collect();
                    naive_pairs.sort_unstable();
                    prop_assert_eq!(pairs, naive_pairs);
                    // Round-trip through the wire format at every step.
                    let json = serde_json::to_string(&t).unwrap();
                    let back: FreqTable = serde_json::from_str(&json).unwrap();
                    prop_assert_eq!(back, t.clone());
                }
            }
        }
    }
}
