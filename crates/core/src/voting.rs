//! The voting recommender: exact-match groups over dependent attributes,
//! with a support threshold (§3.2: "amongst the similar carriers, we take
//! a voting approach ... We use a threshold of 75%").
//!
//! Group keys are stored *packed*: the dependent attribute levels of one
//! target are laid out as bit fields of a single `u128` (see
//! [`auric_stats::packed::PackedKeyCodec`]), so group lookups hash and
//! compare one integer instead of a heap-allocated `Vec<u16>`. The packed
//! key is the only representation: the codec refuses layouts wider than
//! 128 bits, which the Table-1 schema cannot produce.
//!
//! A table set is built once, from the `(packed key, value)` observations
//! of its scope, and never changes afterwards: a delta batch that touches
//! a parameter rebuilds its tables. Groups are stored as a `Vec` sorted by
//! packed key — the codec packs position 0 into the top bits, so integer
//! order is lexicographic order and every *prefix* group is a contiguous
//! run of full-key groups, nested across prefix lengths. Hierarchical
//! backoff therefore needs no materialized per-level tables (at paper
//! scale those held one entry per observed prefix per level — tens of
//! gigabytes): [`VoteTables::prefix_aggregate`] binary-searches the run
//! and merges it on demand, which is rare — backoff only runs when a
//! full-key group is empty after leave-one-out exclusion.

use auric_model::{AttrValue, ValueIdx};
use auric_stats::freq::FreqTable;
use auric_stats::packed::{FastHash, PackedKeyCodec};
use std::collections::HashMap;

/// An unpacked group key: the target's levels on the dependent attributes,
/// in the dependency list's order. This remains the *interchange* form
/// (public APIs, serialization); storage and comparison use the packed
/// form.
pub type VoteKey = Vec<AttrValue>;

/// The error returned when deserialized `(key, table)` pairs do not fit
/// the declared key layout. Fitted tables can only produce in-range keys
/// of the layout's exact width, so any of these means the wire bytes were
/// corrupted (or hand-edited) — the load must fail with a typed error
/// rather than panic in `pack` or silently merge colliding groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoteWireError {
    /// A group key's length differs from the layout's position count.
    KeyLength { expected: usize, got: usize },
    /// A key level is outside the position's recorded range `0..card`
    /// (the sentinel `card` is reserved for probes, never recorded).
    LevelOutOfRange {
        position: usize,
        level: u16,
        card: u16,
    },
    /// Two groups share the same key.
    DuplicateKey,
}

impl std::fmt::Display for VoteWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            VoteWireError::KeyLength { expected, got } => {
                write!(
                    f,
                    "vote group key has {got} positions, layout has {expected}"
                )
            }
            VoteWireError::LevelOutOfRange {
                position,
                level,
                card,
            } => write!(
                f,
                "vote group key level {level} at position {position} exceeds cardinality {card}"
            ),
            VoteWireError::DuplicateKey => write!(f, "duplicate vote group key"),
        }
    }
}

impl std::error::Error for VoteWireError {}

/// Per-parameter vote tables: one frequency table per dependent-attribute
/// combination, plus the scope-wide distribution for fallback and
/// diagnostics.
///
/// Serialization happens at the model level (see `cf::model_serde`), which
/// owns the key layout needed to unpack group keys into the stable
/// sorted-pairs wire format.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VoteTables {
    /// Sorted by packed key, so lookups binary-search and prefix groups
    /// are contiguous runs (see the module docs).
    groups: Vec<(u128, FreqTable)>,
    overall: FreqTable,
}

impl VoteTables {
    /// Builds the tables from one `(packed key, value)` observation per
    /// in-scope target.
    pub fn from_observations(observations: impl IntoIterator<Item = (u128, ValueIdx)>) -> Self {
        let mut map: HashMap<u128, FreqTable, FastHash> = HashMap::default();
        let mut overall = FreqTable::new();
        for (key, value) in observations {
            map.entry(key).or_default().add(value);
            overall.add(value);
        }
        let mut groups: Vec<(u128, FreqTable)> = map.into_iter().collect();
        groups.sort_unstable_by_key(|&(k, _)| k);
        Self { groups, overall }
    }

    /// Number of distinct groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.overall.total()
    }

    /// The group table for `key`, if any target matched it.
    #[inline]
    pub fn group(&self, key: u128) -> Option<&FreqTable> {
        self.groups
            .binary_search_by_key(&key, |&(gk, _)| gk)
            .ok()
            .map(|i| &self.groups[i].1)
    }

    /// The scope-wide value distribution.
    pub fn overall(&self) -> &FreqTable {
        &self.overall
    }

    /// Votes within `key`'s group at `threshold` support, leave-one-out
    /// excluding one observation of `exclude` (the probe carrier's own
    /// current value during evaluation; `None` for genuinely new
    /// carriers). Returns `(value, support, voters)`.
    #[inline]
    pub fn vote(
        &self,
        key: u128,
        exclude: Option<ValueIdx>,
        threshold: f64,
    ) -> Option<(ValueIdx, usize, usize)> {
        self.group(key)?
            .majority_with_support_excluding(exclude, threshold)
    }

    /// The group's plurality value (no threshold), leave-one-out — the
    /// "maximum support" answer when no value clears the confidence
    /// threshold.
    #[inline]
    pub fn group_majority(
        &self,
        key: u128,
        exclude: Option<ValueIdx>,
    ) -> Option<(ValueIdx, usize, usize)> {
        self.group(key)?
            .majority_with_support_excluding(exclude, 0.0)
    }

    /// Scope-wide majority (no threshold), leave-one-out — the last-resort
    /// data-driven fallback before the rule-book default.
    pub fn overall_majority(&self, exclude: Option<ValueIdx>) -> Option<ValueIdx> {
        self.overall
            .majority_with_support_excluding(exclude, 0.0)
            .map(|(v, _, _)| v)
    }

    /// The merged value distribution of `key`'s length-`l` prefix group —
    /// the union of every full-key group sharing that prefix, built on
    /// demand: a binary search for the contiguous run plus one merge over
    /// it. `None` when no observation shares the prefix. `key` is the
    /// FULL key; only its first `l` positions are consulted.
    pub fn prefix_aggregate(
        &self,
        codec: &PackedKeyCodec,
        key: u128,
        l: usize,
    ) -> Option<FreqTable> {
        let mask = codec.prefix_mask(l);
        let prefix = key & mask;
        // Monotone predicates: `gk & mask` is non-decreasing in `gk`
        // because the mask selects the top bits.
        let lo = self.groups.partition_point(|&(gk, _)| gk & mask < prefix);
        let hi = self.groups.partition_point(|&(gk, _)| gk & mask <= prefix);
        let run = &self.groups[lo..hi];
        if run.is_empty() {
            return None;
        }
        let mut agg = FreqTable::new();
        for (_, t) in run {
            agg.merge(t);
        }
        Some(agg)
    }

    /// The groups as `(unpacked key, table)` pairs sorted by key — the
    /// stable wire format. `codec` must be the layout the keys were packed
    /// with; `len` is the key length.
    pub fn unpacked_groups(
        &self,
        codec: &PackedKeyCodec,
        len: usize,
    ) -> Vec<(VoteKey, &FreqTable)> {
        // Packed order is lexicographic order, so the sorted groups unpack
        // already sorted.
        self.groups
            .iter()
            .map(|(k, t)| (codec.unpack(*k, len), t))
            .collect()
    }

    /// Rebuilds a table set from `(unpacked key, table)` pairs under the
    /// given layout — the inverse of [`VoteTables::unpacked_groups`].
    ///
    /// Every key must have exactly `codec.cards().len()` levels, each in
    /// the recorded range `0..cards[i]`, and keys must be unique. These
    /// hold for anything `unpacked_groups` emitted; violating pairs can
    /// only come from a corrupted serialized model, and are rejected with
    /// a typed [`VoteWireError`] instead of panicking inside `pack`.
    pub fn from_unpacked_groups(
        codec: &PackedKeyCodec,
        pairs: Vec<(VoteKey, FreqTable)>,
        overall: FreqTable,
    ) -> Result<Self, VoteWireError> {
        let cards = codec.cards();
        for (k, _) in &pairs {
            if k.len() != cards.len() {
                return Err(VoteWireError::KeyLength {
                    expected: cards.len(),
                    got: k.len(),
                });
            }
            for (i, (&level, &card)) in k.iter().zip(cards).enumerate() {
                if level >= card {
                    return Err(VoteWireError::LevelOutOfRange {
                        position: i,
                        level,
                        card,
                    });
                }
            }
        }
        let mut groups: Vec<(u128, FreqTable)> = pairs
            .into_iter()
            .map(|(k, t)| (codec.pack(&k), t))
            .collect();
        groups.sort_unstable_by_key(|&(k, _)| k);
        if groups.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(VoteWireError::DuplicateKey);
        }
        Ok(Self { groups, overall })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packs through a two-attribute layout of cardinality 3 each.
    fn codec() -> PackedKeyCodec {
        PackedKeyCodec::new(&[3, 3]).unwrap()
    }

    /// `(key, value, count)` runs flattened into observations.
    fn observations(codec: &PackedKeyCodec, runs: &[([u16; 2], u16, usize)]) -> Vec<(u128, u16)> {
        runs.iter()
            .flat_map(|&(key, value, n)| std::iter::repeat_n((codec.pack(&key), value), n))
            .collect()
    }

    fn tables() -> (PackedKeyCodec, VoteTables) {
        let codec = codec();
        let obs = observations(&codec, &[([0, 1], 10, 8), ([0, 1], 20, 1), ([2, 2], 30, 3)]);
        (codec, VoteTables::from_observations(obs))
    }

    #[test]
    fn groups_are_keyed_exactly() {
        let (codec, t) = tables();
        assert_eq!(t.n_groups(), 2);
        assert_eq!(t.total(), 12);
        assert!(t.group(codec.pack(&[0, 1])).is_some());
        assert!(t.group(codec.pack(&[1, 0])).is_none(), "key order matters");
    }

    /// The tables are a function of the observation multiset: the order
    /// observations arrive in does not matter.
    #[test]
    fn observation_order_does_not_matter() {
        let (codec, t) = tables();
        let mut obs = observations(&codec, &[([0, 1], 10, 8), ([0, 1], 20, 1), ([2, 2], 30, 3)]);
        obs.reverse();
        obs.rotate_left(5);
        assert_eq!(VoteTables::from_observations(obs), t);
    }

    #[test]
    fn vote_applies_threshold() {
        let (codec, t) = tables();
        let k = codec.pack(&[0, 1]);
        // 8/9 ≈ 89% support for 10.
        assert_eq!(t.vote(k, None, 0.75), Some((10, 8, 9)));
        assert_eq!(t.vote(k, None, 0.95), None);
        // Unknown key: no group to vote in (out-of-range levels collapse
        // to the sentinel, which is never recorded).
        let unknown = codec.pack(&[9, 9]);
        assert_eq!(t.vote(unknown, None, 0.5), None);
    }

    #[test]
    fn leave_one_out_changes_the_outcome_at_the_margin() {
        let codec = PackedKeyCodec::new(&[3]).unwrap();
        let k = codec.pack(&[1]);
        let t = VoteTables::from_observations([(k, 5), (k, 5), (k, 5), (k, 7)]);
        // Probing the carrier that holds the 7: remaining 3×5 → 100%.
        assert_eq!(t.vote(k, Some(7), 0.75), Some((5, 3, 3)));
        // Probing a 5-holder: 2×5 + 1×7 → 2/3 < 75%.
        assert_eq!(t.vote(k, Some(5), 0.75), None);
    }

    #[test]
    fn overall_majority_fallback() {
        let (_, t) = tables();
        assert_eq!(t.overall_majority(None), Some(10));
        // Excluding doesn't flip a clear majority.
        assert_eq!(t.overall_majority(Some(10)), Some(10));
    }

    #[test]
    fn empty_key_group_is_the_whole_scope() {
        // With no dependent attributes, every observation lands in the
        // empty-key group — voting degenerates to a scope-wide majority
        // with threshold, which is the intended rule-book-like behavior.
        let codec = PackedKeyCodec::new(&[]).unwrap();
        let k = codec.pack(&[]);
        let t = VoteTables::from_observations(
            std::iter::repeat_n((k, 4), 9).chain(std::iter::once((k, 6))),
        );
        assert_eq!(t.vote(k, None, 0.75), Some((4, 9, 10)));
    }

    #[test]
    fn unpack_round_trip_preserves_tables() {
        let (codec, t) = tables();
        let pairs: Vec<(VoteKey, FreqTable)> = t
            .unpacked_groups(&codec, 2)
            .into_iter()
            .map(|(k, table)| (k, table.clone()))
            .collect();
        assert_eq!(pairs[0].0, vec![0, 1], "pairs are sorted by unpacked key");
        let back = VoteTables::from_unpacked_groups(&codec, pairs, t.overall().clone()).unwrap();
        assert_eq!(back, t);
    }

    /// Corrupted wire pairs (wrong key width, out-of-range level, or
    /// duplicated key) must be rejected with a typed error, never packed.
    #[test]
    fn from_unpacked_groups_rejects_malformed_wire_pairs() {
        let codec = codec();
        let table = {
            let mut t = FreqTable::new();
            t.add(7);
            t
        };
        let overall = table.clone();
        assert_eq!(
            VoteTables::from_unpacked_groups(
                &codec,
                vec![(vec![0, 1, 2], table.clone())],
                overall.clone()
            ),
            Err(VoteWireError::KeyLength {
                expected: 2,
                got: 3
            })
        );
        assert_eq!(
            VoteTables::from_unpacked_groups(
                &codec,
                vec![(vec![0, 3], table.clone())],
                overall.clone()
            ),
            Err(VoteWireError::LevelOutOfRange {
                position: 1,
                level: 3,
                card: 3
            })
        );
        assert_eq!(
            VoteTables::from_unpacked_groups(
                &codec,
                vec![(vec![0, 1], table.clone()), (vec![0, 1], table)],
                overall
            ),
            Err(VoteWireError::DuplicateKey)
        );
    }

    /// A prefix run holding a single group aggregates to exactly that
    /// group's table — identity, not a distorted merge.
    #[test]
    fn singleton_run_prefix_is_identity() {
        let (codec, t) = tables();
        let k = codec.pack(&[2, 2]);
        let agg = t.prefix_aggregate(&codec, k, 1).expect("run exists");
        assert_eq!(&agg, t.group(k).unwrap());
    }

    /// The full-length "prefix" is the group itself, and level 0 merges
    /// everything into the overall distribution.
    #[test]
    fn prefix_aggregate_degenerate_levels() {
        let (codec, t) = tables();
        let k = codec.pack(&[0, 1]);
        assert_eq!(t.prefix_aggregate(&codec, k, 2).as_ref(), t.group(k));
        assert_eq!(t.prefix_aggregate(&codec, k, 0).as_ref(), Some(t.overall()));
        // A prefix nothing was recorded under aggregates nothing.
        let miss = codec.pack(&[1, 0]);
        assert_eq!(t.prefix_aggregate(&codec, miss, 1), None);
    }

    mod prefix_differential {
        //! Differential proptest suite: on any random key stream, on-demand
        //! prefix aggregation must agree with eagerly built per-level
        //! tables.
        use super::*;
        use proptest::prelude::*;

        /// Mixed-radix decomposition of `raw` into an in-range key under
        /// `cards` — the vendored proptest has no `prop_flat_map`, so the
        /// layout-dependent key is derived from a free integer instead.
        fn key_from_raw(cards: &[u16], raw: u64) -> Vec<u16> {
            let mut rest = raw;
            cards
                .iter()
                .map(|&c| {
                    let digit = (rest % c as u64) as u16;
                    rest /= c as u64;
                    digit
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// On-demand prefix aggregation over the sorted groups must
            /// equal per-level tables built eagerly from the same stream —
            /// the storage scheme the fitted path replaced.
            #[test]
            fn prefix_aggregate_matches_eagerly_built_level_tables(
                cards in collection::vec(2u16..6, 1..4),
                raw_stream in collection::vec((0u64..1_000_000, 0u16..5), 1..40),
            ) {
                let codec = PackedKeyCodec::new(&cards).unwrap();
                let n = cards.len();
                let keyed: Vec<(u128, u16)> = raw_stream
                    .iter()
                    .map(|&(raw, value)| (codec.pack(&key_from_raw(&cards, raw)), value))
                    .collect();
                let full = VoteTables::from_observations(keyed.iter().copied());
                let eager: Vec<VoteTables> = (0..=n)
                    .map(|l| {
                        VoteTables::from_observations(
                            keyed.iter().map(|&(k, value)| (codec.prefix(k, l), value)),
                        )
                    })
                    .collect();
                for &(raw, _) in &raw_stream {
                    let key = key_from_raw(&cards, raw);
                    let k = codec.pack(&key);
                    for (l, level) in eager.iter().enumerate() {
                        let agg = full
                            .prefix_aggregate(&codec, k, l)
                            .expect("observed key: every prefix level is populated");
                        let table = level
                            .group(codec.prefix(k, l))
                            .expect("eager level table holds the prefix");
                        prop_assert_eq!(
                            &agg, table,
                            "level {} of key {:?} diverges", l, key
                        );
                    }
                }
                // An unobserved prefix aggregates nothing at any level it
                // is genuinely absent from.
                for (l, level) in eager.iter().enumerate() {
                    for probe in 0..50u64 {
                        let key = key_from_raw(&cards, probe);
                        let k = codec.pack(&key);
                        let eager_hit =
                            level.group(codec.prefix(k, l)).cloned();
                        let agg = full.prefix_aggregate(&codec, k, l);
                        prop_assert_eq!(agg, eager_hit, "probe {:?} level {}", key, l);
                    }
                }
            }
        }
    }
}
