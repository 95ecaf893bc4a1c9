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
//! Storage has two phases. During a fit, observations accumulate into a
//! hash map. [`VoteTables::freeze`] then converts the map into a `Vec`
//! sorted by packed key — the codec packs position 0 into the top bits,
//! so integer order is lexicographic order and every *prefix* group is a
//! contiguous run of full-key groups, nested across prefix lengths.
//! Hierarchical backoff therefore needs no materialized per-level tables
//! (at paper scale those held one entry per observed prefix per level —
//! tens of gigabytes): [`VoteTables::prefix_aggregate`] binary-searches
//! the run and merges it on demand, which is rare — backoff only runs
//! when a full-key group is empty after leave-one-out exclusion.

use auric_model::{AttrValue, ValueIdx};
use auric_stats::freq::FreqTable;
use auric_stats::packed::{FastHash, PackedKeyCodec};
use std::collections::HashMap;

/// An unpacked group key: the target's levels on the dependent attributes,
/// in the dependency list's order. This remains the *interchange* form
/// (public APIs, serialization); storage and comparison use the packed
/// form.
pub type VoteKey = Vec<AttrValue>;

/// Group storage: packed keys under the fast integer hasher while
/// accumulating, sorted packed keys once frozen.
#[derive(Debug, Clone)]
enum GroupStore {
    Packed(HashMap<u128, FreqTable, FastHash>),
    /// Frozen form: sorted by packed key, so lookups binary-search and
    /// prefix groups are contiguous runs (see the module docs).
    PackedSorted(Vec<(u128, FreqTable)>),
}

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

impl GroupStore {
    fn get(&self, key: u128) -> Option<&FreqTable> {
        match self {
            GroupStore::Packed(map) => map.get(&key),
            GroupStore::PackedSorted(groups) => groups
                .binary_search_by_key(&key, |&(gk, _)| gk)
                .ok()
                .map(|i| &groups[i].1),
        }
    }

    /// The groups as a canonical sorted list, for form-independent
    /// equality.
    fn sorted(&self) -> Vec<(u128, &FreqTable)> {
        match self {
            GroupStore::Packed(map) => {
                let mut v: Vec<(u128, &FreqTable)> = map.iter().map(|(&k, t)| (k, t)).collect();
                v.sort_unstable_by_key(|&(k, _)| k);
                v
            }
            GroupStore::PackedSorted(groups) => groups.iter().map(|(k, t)| (*k, t)).collect(),
        }
    }
}

impl PartialEq for GroupStore {
    /// Form-independent: an accumulating map and its frozen sorted form
    /// holding the same groups are equal.
    fn eq(&self, other: &Self) -> bool {
        self.sorted() == other.sorted()
    }
}

impl Eq for GroupStore {}

/// Per-parameter vote tables: one frequency table per dependent-attribute
/// combination, plus the scope-wide distribution for fallback and
/// diagnostics.
///
/// Serialization happens at the model level (see `cf::model_serde`), which
/// owns the key layout needed to unpack group keys into the stable
/// sorted-pairs wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteTables {
    groups: GroupStore,
    overall: FreqTable,
}

impl Default for VoteTables {
    fn default() -> Self {
        Self::new()
    }
}

impl VoteTables {
    /// An empty table set.
    pub fn new() -> Self {
        Self {
            groups: GroupStore::Packed(HashMap::default()),
            overall: FreqTable::new(),
        }
    }

    /// Records one observation of `value` under a packed `key`. A frozen
    /// table accepts the observation through a sorted insert — O(n) worst
    /// case, correct but meant for incremental trickles, not bulk fits.
    #[inline]
    pub fn add_packed(&mut self, key: u128, value: ValueIdx) {
        match &mut self.groups {
            GroupStore::Packed(map) => map.entry(key).or_default().add(value),
            GroupStore::PackedSorted(groups) => {
                match groups.binary_search_by_key(&key, |&(gk, _)| gk) {
                    Ok(i) => groups[i].1.add(value),
                    Err(i) => {
                        let mut t = FreqTable::new();
                        t.add(value);
                        groups.insert(i, (key, t));
                    }
                }
            }
        }
        self.overall.add(value);
    }

    /// Records `count` observations of `value` under a packed `key` — the
    /// bulk form of [`VoteTables::add_packed`], built on the saturating
    /// [`FreqTable::add_count`] so a long-running incremental service can
    /// never overflow a counter. Returns `true` when any count clamped at
    /// its maximum (the `cf.delta.count_saturated` signal).
    pub fn add_packed_count(&mut self, key: u128, value: ValueIdx, count: usize) -> bool {
        if count == 0 {
            return false;
        }
        let mut saturated = match &mut self.groups {
            GroupStore::Packed(map) => map.entry(key).or_default().add_count(value, count),
            GroupStore::PackedSorted(groups) => {
                match groups.binary_search_by_key(&key, |&(gk, _)| gk) {
                    Ok(i) => groups[i].1.add_count(value, count),
                    Err(i) => {
                        let mut t = FreqTable::new();
                        let s = t.add_count(value, count);
                        groups.insert(i, (key, t));
                        s
                    }
                }
            }
        };
        saturated |= self.overall.add_count(value, count);
        saturated
    }

    /// Converts an accumulating packed map into the frozen sorted form
    /// (see the module docs). Idempotent.
    pub fn freeze(&mut self) {
        if let GroupStore::Packed(map) = &mut self.groups {
            let mut groups: Vec<(u128, FreqTable)> = std::mem::take(map).into_iter().collect();
            groups.sort_unstable_by_key(|&(k, _)| k);
            self.groups = GroupStore::PackedSorted(groups);
        }
    }

    /// Converts the frozen sorted form back into the accumulating map —
    /// the inverse of [`VoteTables::freeze`], used by the incremental
    /// refit to batch-patch a fitted parameter at O(1) per observation
    /// instead of O(n) sorted inserts. Idempotent.
    pub fn thaw(&mut self) {
        if let GroupStore::PackedSorted(groups) = &mut self.groups {
            let map: HashMap<u128, FreqTable, FastHash> =
                std::mem::take(groups).into_iter().collect();
            self.groups = GroupStore::Packed(map);
        }
    }

    /// Removes one observation of `value` under a packed `key` — the
    /// inverse of [`VoteTables::add_packed`]. The group table and the
    /// scope-wide table shrink in lockstep, and a group whose last
    /// observation leaves is excised entirely so no empty table lingers
    /// in the sorted run (a stale empty group used to make
    /// [`VoteTables::prefix_aggregate`] report a hit for a prefix with no
    /// remaining observations).
    ///
    /// # Panics
    /// Panics if no observation of `value` under `key` remains — removing
    /// something never recorded is always a caller logic error, matching
    /// [`FreqTable::remove`].
    pub fn remove_packed(&mut self, key: u128, value: ValueIdx) {
        match &mut self.groups {
            GroupStore::Packed(map) => {
                let t = map
                    .get_mut(&key)
                    .unwrap_or_else(|| panic!("removing from vote group {key:#x} never observed"));
                t.remove(value);
                if t.total() == 0 {
                    map.remove(&key);
                }
            }
            GroupStore::PackedSorted(groups) => {
                let i = groups
                    .binary_search_by_key(&key, |&(gk, _)| gk)
                    .unwrap_or_else(|_| panic!("removing from vote group {key:#x} never observed"));
                groups[i].1.remove(value);
                if groups[i].1.total() == 0 {
                    groups.remove(i);
                }
            }
        }
        self.overall.remove(value);
    }

    /// Number of distinct groups.
    pub fn n_groups(&self) -> usize {
        match &self.groups {
            GroupStore::Packed(map) => map.len(),
            GroupStore::PackedSorted(groups) => groups.len(),
        }
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.overall.total()
    }

    /// The group table for `key`, if any target matched it.
    #[inline]
    pub fn group(&self, key: u128) -> Option<&FreqTable> {
        self.groups.get(key)
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
        self.groups
            .get(key)?
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
        self.groups
            .get(key)?
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
    /// demand. `None` when no observation shares the prefix. `key` is the
    /// FULL key; only its first `l` positions are consulted.
    ///
    /// On the frozen sorted form this is a binary search for the
    /// contiguous run plus one merge over it; on the accumulating forms
    /// it degrades to a filtering scan (correct, used only off the fitted
    /// path).
    pub fn prefix_aggregate(
        &self,
        codec: &PackedKeyCodec,
        key: u128,
        l: usize,
    ) -> Option<FreqTable> {
        let mut agg = FreqTable::new();
        let mut any = false;
        let mask = codec.prefix_mask(l);
        let prefix = key & mask;
        match &self.groups {
            GroupStore::PackedSorted(groups) => {
                // Monotone predicates: `gk & mask` is non-decreasing in
                // `gk` because the mask selects the top bits.
                let lo = groups.partition_point(|&(gk, _)| gk & mask < prefix);
                let hi = groups.partition_point(|&(gk, _)| gk & mask <= prefix);
                // Zero-total tables carry no observations: merging them
                // is a no-op, but counting them as a hit would turn an
                // emptied-out prefix into Some(empty) — a stale "group
                // exists" answer the backoff chain then trusts.
                for (_, t) in &groups[lo..hi] {
                    if t.total() == 0 {
                        continue;
                    }
                    agg.merge(t);
                    any = true;
                }
            }
            GroupStore::Packed(map) => {
                // Deterministic despite map iteration order: merging is
                // commutative and FreqTable is representation-independent.
                for (&gk, t) in map {
                    if gk & mask == prefix && t.total() > 0 {
                        agg.merge(t);
                        any = true;
                    }
                }
            }
        }
        any.then_some(agg)
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
            .sorted()
            .into_iter()
            .map(|(k, t)| (codec.unpack(k, len), t))
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
        Ok(Self {
            groups: GroupStore::PackedSorted(groups),
            overall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packs through a two-attribute layout of cardinality 3 each.
    fn codec() -> PackedKeyCodec {
        PackedKeyCodec::new(&[3, 3]).unwrap()
    }

    fn tables() -> (PackedKeyCodec, VoteTables) {
        let codec = codec();
        let mut t = VoteTables::new();
        for _ in 0..8 {
            t.add_packed(codec.pack(&[0, 1]), 10);
        }
        t.add_packed(codec.pack(&[0, 1]), 20);
        for _ in 0..3 {
            t.add_packed(codec.pack(&[2, 2]), 30);
        }
        (codec, t)
    }

    #[test]
    fn groups_are_keyed_exactly() {
        let (codec, t) = tables();
        assert_eq!(t.n_groups(), 2);
        assert_eq!(t.total(), 12);
        assert!(t.group(codec.pack(&[0, 1])).is_some());
        assert!(t.group(codec.pack(&[1, 0])).is_none(), "key order matters");
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
        let mut t = VoteTables::new();
        for _ in 0..3 {
            t.add_packed(codec.pack(&[1]), 5);
        }
        t.add_packed(codec.pack(&[1]), 7);
        let k = codec.pack(&[1]);
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
        let mut t = VoteTables::new();
        for _ in 0..9 {
            t.add_packed(codec.pack(&[]), 4);
        }
        t.add_packed(codec.pack(&[]), 6);
        assert_eq!(t.vote(codec.pack(&[]), None, 0.75), Some((4, 9, 10)));
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

    /// Freezing is a pure re-layout: every query surface — equality
    /// itself, group lookups, votes, prefix aggregation, the wire form —
    /// must answer identically before and after.
    #[test]
    fn freeze_preserves_every_query_surface() {
        let (codec, unfrozen) = tables();
        let mut frozen = unfrozen.clone();
        frozen.freeze();
        assert_eq!(frozen, unfrozen, "equality is representation-independent");
        assert_eq!(frozen.n_groups(), unfrozen.n_groups());
        assert_eq!(frozen.total(), unfrozen.total());
        for key in [[0u16, 1], [2, 2], [1, 0]] {
            let k = codec.pack(&key);
            assert_eq!(frozen.group(k), unfrozen.group(k), "group {key:?}");
            assert_eq!(frozen.vote(k, None, 0.75), unfrozen.vote(k, None, 0.75));
            for l in 0..=key.len() {
                assert_eq!(
                    frozen.prefix_aggregate(&codec, k, l),
                    unfrozen.prefix_aggregate(&codec, k, l),
                    "prefix_aggregate {key:?} at level {l}"
                );
            }
        }
        assert_eq!(
            frozen.unpacked_groups(&codec, 2),
            unfrozen.unpacked_groups(&codec, 2)
        );
        // Idempotent.
        let twice = {
            let mut t = frozen.clone();
            t.freeze();
            t
        };
        assert_eq!(twice, frozen);
    }

    /// Removing observations shrinks the group and the overall table in
    /// lockstep, excising groups whose last observation leaves — on both
    /// the accumulating and the frozen store.
    #[test]
    fn remove_packed_excises_empty_groups() {
        for freeze_first in [false, true] {
            let (codec, mut t) = tables();
            if freeze_first {
                t.freeze();
            }
            let k = codec.pack(&[2, 2]);
            for _ in 0..3 {
                t.remove_packed(k, 30);
            }
            assert_eq!(t.n_groups(), 1, "emptied group must be excised");
            assert_eq!(t.total(), 9);
            assert_eq!(t.group(k), None);
            // The emptied group's prefix no longer aggregates anything.
            let mut frozen = t.clone();
            frozen.freeze();
            assert_eq!(
                frozen.prefix_aggregate(&codec, k, 1),
                None,
                "removed-out prefix must be a miss, not a stale empty table"
            );
            // Add-after-remove lands in a fresh group.
            t.add_packed(k, 31);
            assert_eq!(t.n_groups(), 2);
            assert_eq!(t.vote(k, None, 0.75), Some((31, 1, 1)));
        }
    }

    #[test]
    #[should_panic(expected = "never observed")]
    fn remove_packed_from_unknown_group_panics() {
        let (codec, mut t) = tables();
        t.remove_packed(codec.pack(&[1, 0]), 10);
    }

    /// thaw is the exact inverse of freeze: a thaw/patch/freeze cycle
    /// equals patching the accumulating map directly.
    #[test]
    fn thaw_round_trips_and_supports_patching() {
        let (codec, mut t) = tables();
        t.freeze();
        let frozen = t.clone();
        t.thaw();
        assert_eq!(t, frozen, "thaw preserves contents");
        // Patch while thawed, then freeze: identical to a fresh fit of
        // the patched stream.
        t.remove_packed(codec.pack(&[0, 1]), 20);
        t.add_packed(codec.pack(&[1, 1]), 40);
        t.freeze();
        let mut fresh = VoteTables::new();
        for _ in 0..8 {
            fresh.add_packed(codec.pack(&[0, 1]), 10);
        }
        for _ in 0..3 {
            fresh.add_packed(codec.pack(&[2, 2]), 30);
        }
        fresh.add_packed(codec.pack(&[1, 1]), 40);
        fresh.freeze();
        assert_eq!(t, fresh);
        // Idempotent on both ends.
        let mut twice = t.clone();
        twice.thaw();
        twice.thaw();
        twice.freeze();
        twice.freeze();
        assert_eq!(twice, t);
    }

    /// The bulk add equals `count` single adds on both store forms, and
    /// reports saturation instead of overflowing.
    #[test]
    fn add_packed_count_matches_repeated_adds_and_saturates() {
        for freeze_first in [false, true] {
            let (codec, mut bulk) = tables();
            let (_, mut single) = tables();
            if freeze_first {
                bulk.freeze();
                single.freeze();
            }
            let k = codec.pack(&[1, 2]);
            assert!(!bulk.add_packed_count(k, 12, 4));
            for _ in 0..4 {
                single.add_packed(k, 12);
            }
            bulk.freeze();
            single.freeze();
            assert_eq!(bulk, single);
            // Zero count is a no-op.
            let before = bulk.clone();
            assert!(!bulk.add_packed_count(k, 12, 0));
            assert_eq!(bulk, before);
            // A count that would push past usize::MAX clamps and reports.
            assert!(bulk.add_packed_count(k, 12, usize::MAX));
            assert_eq!(bulk.total(), usize::MAX);
            assert_eq!(bulk.overall().count(12), usize::MAX);
        }
    }

    /// A prefix run holding a single group aggregates to exactly that
    /// group's table — identity, not a distorted merge.
    #[test]
    fn singleton_run_prefix_is_identity() {
        let (codec, mut t) = tables();
        t.freeze();
        let k = codec.pack(&[2, 2]);
        let agg = t.prefix_aggregate(&codec, k, 1).expect("run exists");
        assert_eq!(&agg, t.group(k).unwrap());
    }

    /// The full-length "prefix" is the group itself, and level 0 merges
    /// everything into the overall distribution.
    #[test]
    fn prefix_aggregate_degenerate_levels() {
        let (codec, mut t) = tables();
        t.freeze();
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

            /// On-demand prefix aggregation over the frozen sorted store
            /// must equal per-level tables built eagerly from the same
            /// stream — the storage scheme the fitted path replaced.
            #[test]
            fn prefix_aggregate_matches_eagerly_built_level_tables(
                cards in collection::vec(2u16..6, 1..4),
                raw_stream in collection::vec((0u64..1_000_000, 0u16..5), 1..40),
            ) {
                let codec = PackedKeyCodec::new(&cards).unwrap();
                let n = cards.len();
                let mut full = VoteTables::new();
                let mut eager: Vec<VoteTables> =
                    (0..=n).map(|_| VoteTables::new()).collect();
                for &(raw, value) in &raw_stream {
                    let key = key_from_raw(&cards, raw);
                    let k = codec.pack(&key);
                    full.add_packed(k, value);
                    for (l, t) in eager.iter_mut().enumerate() {
                        t.add_packed(codec.prefix(k, l), value);
                    }
                }
                full.freeze();
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

            /// Interleaved add/remove deltas against the frozen store
            /// must keep every prefix level in agreement with eagerly
            /// maintained per-level tables — including prefixes whose
            /// last observation was removed (they must turn into misses,
            /// not stale empty tables).
            #[test]
            fn prefix_aggregate_matches_eager_under_interleaved_deltas(
                cards in collection::vec(2u16..6, 1..4),
                ops in collection::vec((0u64..1_000_000, 0u16..5, 0u8..3), 1..60),
            ) {
                let codec = PackedKeyCodec::new(&cards).unwrap();
                let n = cards.len();
                let mut full = VoteTables::new();
                full.freeze(); // exercise the frozen add/remove path
                let mut eager: Vec<VoteTables> =
                    (0..=n).map(|_| VoteTables::new()).collect();
                // Live observations, so removes always target something
                // actually recorded.
                let mut live: Vec<(u128, u16)> = Vec::new();
                for &(raw, value, op) in &ops {
                    let is_remove = op == 0 && !live.is_empty();
                    if is_remove {
                        let (k, v) = live.swap_remove(raw as usize % live.len());
                        full.remove_packed(k, v);
                        for (l, t) in eager.iter_mut().enumerate() {
                            t.remove_packed(codec.prefix(k, l), v);
                        }
                    } else {
                        let k = codec.pack(&key_from_raw(&cards, raw));
                        full.add_packed(k, value);
                        for (l, t) in eager.iter_mut().enumerate() {
                            t.add_packed(codec.prefix(k, l), value);
                        }
                        live.push((k, value));
                    }
                }
                prop_assert_eq!(full.total(), live.len());
                // Probe both observed keys and arbitrary ones.
                let probes: Vec<u128> = live
                    .iter()
                    .map(|&(k, _)| k)
                    .chain((0..40).map(|raw| codec.pack(&key_from_raw(&cards, raw))))
                    .collect();
                for k in probes {
                    for (l, level) in eager.iter().enumerate() {
                        let agg = full.prefix_aggregate(&codec, k, l);
                        let eager_hit =
                            level.group(codec.prefix(k, l)).cloned();
                        prop_assert_eq!(
                            agg, eager_hit,
                            "key {:#x} level {} diverges after deltas", k, l
                        );
                    }
                }
            }
        }
    }
}
