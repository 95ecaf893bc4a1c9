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
#[cfg(test)]
use auric_stats::packed::FastHash;
use auric_stats::packed::PackedKeyCodec;
#[cfg(test)]
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
    ///
    /// The observations are sorted, not hashed: a first pass finds the
    /// key bits that vary across them and the value histogram (which is
    /// `overall`). When the varying key bits and the value bits fit 64, a
    /// second pass packs each observation into one `u64` word, the key
    /// bits above the value bits, so word order is `(key, value)` order,
    /// and radix-sorts the words; otherwise the `(key, value)` pairs are
    /// sorted as they are. Each run of one key becomes a group whose
    /// table is built in ascending value order.
    pub fn from_observations<I>(observations: I) -> Self
    where
        I: IntoIterator<Item = (u128, ValueIdx)>,
        I::IntoIter: Clone,
    {
        let observations = observations.into_iter();
        let (mut or, mut and) = (0u128, u128::MAX);
        let (mut value_or, mut value_and) = (0u16, u16::MAX);
        let mut histogram: Vec<usize> = Vec::new();
        for (key, value) in observations.clone() {
            or |= key;
            and &= key;
            value_or |= value;
            value_and &= value;
            if histogram.len() <= value as usize {
                histogram.resize(value as usize + 1, 0);
            }
            histogram[value as usize] += 1;
        }
        let mut overall = FreqTable::new();
        for (value, &count) in histogram.iter().enumerate() {
            overall.add_count(value as ValueIdx, count);
        }
        if histogram.is_empty() {
            return Self {
                groups: Vec::new(),
                overall,
            };
        }
        // The key bits in `lo..lo + span` vary; every other bit is the
        // same in every key (`fixed`).
        let varying = or ^ and;
        let (lo, span) = match varying {
            0 => (0, 0),
            _ => {
                let lo = varying.trailing_zeros();
                (lo, u128::BITS - varying.leading_zeros() - lo)
            }
        };
        let span_mask = low_bits(span) << lo;
        let fixed = and & !span_mask;
        let value_bits = u16::BITS - value_or.leading_zeros();
        let groups = if span + value_bits <= u64::BITS {
            let mut words: Vec<u64> = observations
                .map(|(key, value)| {
                    ((((key & span_mask) >> lo) as u64) << value_bits) | value as u64
                })
                .collect();
            let word_varying =
                ((varying >> lo) as u64) << value_bits | (value_or ^ value_and) as u64;
            radix_sort(&mut words, word_varying);
            let value_mask = low_bits(value_bits) as u64;
            group_sorted(
                &words,
                |w| w >> value_bits,
                |bits| fixed | ((bits as u128) << lo),
                |w| (w & value_mask) as ValueIdx,
            )
        } else {
            let mut pairs: Vec<(u128, ValueIdx)> = observations.collect();
            pairs.sort_unstable();
            group_sorted(&pairs, |(key, _)| key, |key| key, |(_, value)| value)
        };
        Self { groups, overall }
    }

    /// The table build [`VoteTables::from_observations`] replaced: one
    /// hash-map entry per group, then a sort by key. Kept as the oracle
    /// the sorted build is tested against.
    #[cfg(test)]
    fn from_observations_hashed(observations: impl IntoIterator<Item = (u128, ValueIdx)>) -> Self {
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

/// The low `bits` bits set.
fn low_bits(bits: u32) -> u128 {
    if bits >= u128::BITS {
        u128::MAX
    } else {
        (1 << bits) - 1
    }
}

/// Sorts `words` ascending, given the bits that vary across them (every
/// other bit is equal in every word). A least-significant-digit radix
/// sort with 8-bit digits, one digit per window of varying bits; windows
/// holding no varying bit are skipped. Short inputs use a comparison sort.
fn radix_sort(words: &mut Vec<u64>, varying: u64) {
    if words.len() <= 256 {
        words.sort_unstable();
        return;
    }
    let mut shifts: Vec<u32> = Vec::new();
    let mut rest = varying;
    while rest != 0 {
        let shift = rest.trailing_zeros();
        shifts.push(shift);
        rest &= !(0xFF << shift);
    }
    let mut counts = vec![[0u32; 256]; shifts.len()];
    for &w in words.iter() {
        for (count, &shift) in counts.iter_mut().zip(&shifts) {
            count[(w >> shift) as u8 as usize] += 1;
        }
    }
    let mut spare = vec![0; words.len()];
    for (count, &shift) in counts.iter().zip(&shifts) {
        let mut at = [0u32; 256];
        let mut sum = 0;
        for (slot, &c) in at.iter_mut().zip(count) {
            *slot = sum;
            sum += c;
        }
        for &w in words.iter() {
            let b = (w >> shift) as u8 as usize;
            spare[at[b] as usize] = w;
            at[b] += 1;
        }
        std::mem::swap(words, &mut spare);
    }
}

/// The groups of sorted observations: each run of one key becomes a
/// group whose table adds each value's run in ascending value order.
/// `key` reads the part of an observation that tells groups apart,
/// `full_key` turns it into the packed key, and `value` reads the value.
fn group_sorted<W: Copy + PartialEq, K: Copy + PartialEq>(
    sorted: &[W],
    key: impl Fn(W) -> K,
    full_key: impl Fn(K) -> u128,
    value: impl Fn(W) -> ValueIdx,
) -> Vec<(u128, FreqTable)> {
    let n_groups = 1 + sorted
        .windows(2)
        .filter(|pair| key(pair[0]) != key(pair[1]))
        .count();
    let mut groups: Vec<(u128, FreqTable)> = Vec::with_capacity(n_groups);
    let mut i = 0;
    while i < sorted.len() {
        let group = key(sorted[i]);
        let mut table = FreqTable::new();
        loop {
            let word = sorted[i];
            let run = 1 + sorted[i + 1..].iter().take_while(|&&w| w == word).count();
            table.add_count(value(word), run);
            i += run;
            if i == sorted.len() || key(sorted[i]) != group {
                break;
            }
        }
        groups.push((full_key(group), table));
    }
    groups
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

    /// Builds through both paths and requires equal tables: the same
    /// groups in the same order, equal `FreqTable`s with the same number
    /// of distinct values (so the same inline or spilled form), and the
    /// same `overall`.
    fn assert_matches_hashed(observations: &[(u128, u16)]) {
        let sorted = VoteTables::from_observations(observations.iter().copied());
        let hashed = VoteTables::from_observations_hashed(observations.iter().copied());
        assert_eq!(sorted, hashed);
        for ((k, a), (l, b)) in sorted.groups.iter().zip(&hashed.groups) {
            assert_eq!((k, a.distinct(), a.total()), (l, b.distinct(), b.total()));
        }
        assert_eq!(sorted.overall.distinct(), hashed.overall.distinct());
    }

    /// Both sort paths: keys whose varying bits plus the value bits fit
    /// 64 (the radix sort) and exceed it (the pair sort), each above and
    /// below the radix sort's comparison-sort cutoff, with groups of up to
    /// five values.
    #[test]
    fn both_sort_paths_match_the_hashed_build() {
        for (key_bits, n) in [(20, 100), (20, 3000), (100, 100), (100, 3000), (128, 3000)] {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let pool: Vec<u128> = (0..n / 3)
                .map(|_| (((next() as u128) << 64) | next() as u128) & !low_bits(128 - key_bits))
                .collect();
            let observations: Vec<(u128, u16)> = (0..n)
                .map(|_| {
                    let key = pool[next() as usize % pool.len()];
                    (key, [0, 7, 9, 300, u16::MAX][next() as usize % 5])
                })
                .collect();
            assert_matches_hashed(&observations);
        }
        assert_matches_hashed(&[]);
        assert_matches_hashed(&[(5, 1)]);
        assert_matches_hashed(&[(5, 0); 400]);
    }

    mod sorted_build_differential {
        //! Differential proptests: the sorted table build equals the
        //! hash-map build on key streams the generator never produces.
        use super::*;
        use proptest::prelude::*;

        /// A layout from raw cardinalities, keeping the leading positions
        /// that fit 128 bits. `wide` picks each position's range: small
        /// cardinalities, or any `u16` up to 16-bit fields, so layouts run
        /// from a few bits to the full 128.
        fn layout(raw: &[(u16, bool)]) -> PackedKeyCodec {
            let mut cards = Vec::new();
            let mut bits = 0;
            for &(c, wide) in raw {
                let card = if wide { c.max(1) } else { c % 7 + 1 };
                let width = (u16::BITS - card.leading_zeros()).max(1);
                if bits + width > 128 {
                    break;
                }
                bits += width;
                cards.push(card);
            }
            PackedKeyCodec::new(&cards).unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Levels run up to two past each cardinality, so some clamp
            /// to the sentinel; keys repeat from a pool, and values come
            /// from a palette of up to six, so groups spill past the
            /// inline three.
            #[test]
            fn sorted_build_matches_the_hashed_build(
                raw_layout in collection::vec((0u16..=u16::MAX, 0u8..2), 0..10),
                raw_keys in collection::vec(collection::vec(0u32..=u32::MAX, 10..11), 1..40),
                palette in collection::vec(0u16..=u16::MAX, 1..7),
                draws in collection::vec((0usize..1000, 0usize..1000), 0..700),
            ) {
                let raw_layout: Vec<(u16, bool)> =
                    raw_layout.iter().map(|&(c, w)| (c, w == 1)).collect();
                let codec = layout(&raw_layout);
                let n = codec.cards().len();
                let keys: Vec<u128> = raw_keys
                    .iter()
                    .map(|raw| {
                        let levels: Vec<u16> = codec
                            .cards()
                            .iter()
                            .zip(raw)
                            .map(|(&card, &r)| (r % (card as u32 + 2)) as u16)
                            .collect();
                        codec.pack(&levels[..n])
                    })
                    .collect();
                let observations: Vec<(u128, u16)> = draws
                    .iter()
                    .map(|&(k, v)| (keys[k % keys.len()], palette[v % palette.len()]))
                    .collect();
                let sorted = VoteTables::from_observations(observations.iter().copied());
                let hashed = VoteTables::from_observations_hashed(observations.iter().copied());
                prop_assert_eq!(&sorted, &hashed);
                for ((k, a), (l, b)) in sorted.groups.iter().zip(&hashed.groups) {
                    prop_assert_eq!((k, a.distinct(), a.total()), (l, b.distinct(), b.total()));
                }
                prop_assert_eq!(sorted.overall.distinct(), hashed.overall.distinct());
            }
        }
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
