//! Mixed-radix packing of categorical keys into a single `u128`.
//!
//! The voting recommender groups carriers by an exact-match key over the
//! dependent attributes. Representing that key as a `Vec<u16>` makes every
//! group lookup hash a heap allocation and every key construction allocate;
//! at leave-one-out sweep volume (every carrier × every parameter × every
//! probe) that dominates the hot path. A [`PackedKeyCodec`] instead lays
//! the key positions out as contiguous bit fields of a `u128`:
//!
//! - position `i` with cardinality `c_i` gets `ceil(log2(c_i + 1))` bits,
//!   enough for the levels `0..c_i` *plus* one reserved sentinel level
//!   `c_i` that out-of-range probe values (e.g. `u16::MAX`) collapse to.
//!   Recorded observations are always in range, so a sentinel never equals
//!   a recorded level and "unseen key" semantics are preserved exactly;
//! - position 0 is packed into the *most significant* bits and later
//!   positions descend from there, so the group key of the *first* `l`
//!   positions is just `key & prefix_mask(l)` — no re-projection — and,
//!   crucially, the integer order of packed keys equals the
//!   lexicographic order of the unpacked keys. Sorting groups by packed
//!   key therefore lays every prefix group out as one contiguous run,
//!   nested hierarchically across prefix lengths: the property the
//!   backoff recommender's sorted group storage aggregates ranges over;
//! - keys compare and hash as plain integers ([`FastHash`] below).
//!
//! The width was `u64` until paper-scale fits proved that too small: with
//! 2.2M samples the chi-square dependency selection keeps enough
//! attributes that pairwise layouts routinely cross 64 bits. 128 bits
//! cover every layout the Table-1 schema can produce: the worst case, all
//! 14 attributes on both pair endpoints, needs 84 bits at 28 markets and
//! 120 bits at 16,383 markets, the most whose TAC levels still fit a
//! `u16` (pinned by `crates/core/tests/equivalence.rs`). A `u128` is the
//! only key representation: [`PackedKeyCodec::new`] refuses a wider
//! layout with [`LayoutTooWide`].

use std::hash::{BuildHasher, Hasher};

/// Bit-field layout for packing one categorical key into a `u128`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedKeyCodec {
    /// Per-position cardinality; level `cards[i]` is the reserved sentinel.
    cards: Vec<u16>,
    /// Bit offset of each position, descending from the top of the `u128`
    /// (position 0 occupies the most significant field).
    shifts: Vec<u8>,
    /// `masks[l]` selects the first `l` positions (`masks[n]` = all).
    masks: Vec<u128>,
}

/// The error [`PackedKeyCodec::new`] returns for a layout that needs more
/// than 128 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutTooWide {
    /// Bits the layout would need.
    pub bits: u32,
}

impl std::fmt::Display for LayoutTooWide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "vote-key layout needs {} bits; keys pack into 128",
            self.bits
        )
    }
}

impl std::error::Error for LayoutTooWide {}

/// Bits needed to store levels `0..=card` (the sentinel included).
#[inline]
fn field_width(card: u16) -> u32 {
    (u16::BITS - card.leading_zeros()).max(1)
}

impl PackedKeyCodec {
    /// Builds the layout for positions with the given cardinalities, or
    /// refuses one wider than 128 bits.
    pub fn new(cards: &[u16]) -> Result<Self, LayoutTooWide> {
        let bits: u32 = cards.iter().map(|&c| field_width(c)).sum();
        if bits > 128 {
            return Err(LayoutTooWide { bits });
        }
        // Shifts descend from the top: position i's field ends where
        // position i+1's begins. `cum` is the width of the first i
        // positions.
        let mut shifts = Vec::with_capacity(cards.len());
        let mut masks = Vec::with_capacity(cards.len() + 1);
        let mut cum = 0u32;
        masks.push(0);
        for &c in cards {
            cum += field_width(c);
            shifts.push((128 - cum) as u8);
            masks.push(if cum >= 128 {
                u128::MAX
            } else {
                !(u128::MAX >> cum)
            });
        }
        Ok(Self {
            cards: cards.to_vec(),
            shifts,
            masks,
        })
    }

    /// Per-position cardinalities (the layout's defining input).
    pub fn cards(&self) -> &[u16] {
        &self.cards
    }

    /// Clamps a level to the position's range, collapsing every
    /// out-of-range probe level to the reserved sentinel `cards[i]`.
    #[inline]
    pub fn clamp_level(&self, i: usize, v: u16) -> u16 {
        if v >= self.cards[i] {
            self.cards[i]
        } else {
            v
        }
    }

    /// Packs the first `vals.len()` positions (`vals.len() <= cards().len()`).
    ///
    /// # Panics
    /// Debug-panics if `vals` is longer than the layout.
    #[inline]
    pub fn pack(&self, vals: &[u16]) -> u128 {
        debug_assert!(vals.len() <= self.cards.len());
        let mut key = 0u128;
        for (i, &v) in vals.iter().enumerate() {
            key |= (self.clamp_level(i, v) as u128) << self.shifts[i];
        }
        key
    }

    /// Packs a full key reading position `i`'s level from `level(i)`.
    #[inline]
    pub fn pack_with(&self, mut level: impl FnMut(usize) -> u16) -> u128 {
        let mut key = 0u128;
        for i in 0..self.cards.len() {
            key |= (self.clamp_level(i, level(i)) as u128) << self.shifts[i];
        }
        key
    }

    /// ORs position `i`'s levels into `keys`, clamped as by
    /// [`PackedKeyCodec::pack`]: packing a column of keys one position at
    /// a time. Keys start at 0; after every position is ORed in, each key
    /// equals `pack` of its levels.
    #[inline]
    pub fn pack_position(
        &self,
        i: usize,
        keys: &mut [u128],
        levels: impl IntoIterator<Item = u16>,
    ) {
        let (card, shift) = (self.cards[i], self.shifts[i]);
        for (key, v) in keys.iter_mut().zip(levels) {
            *key |= (v.min(card) as u128) << shift;
        }
    }

    /// Unpacks the first `len` positions of a packed key.
    pub fn unpack(&self, key: u128, len: usize) -> Vec<u16> {
        debug_assert!(len <= self.cards.len());
        (0..len)
            .map(|i| {
                let width = field_width(self.cards[i]);
                ((key >> self.shifts[i]) & ((1u128 << width) - 1)) as u16
            })
            .collect()
    }

    /// The mask selecting the first `l` positions.
    #[inline]
    pub fn prefix_mask(&self, l: usize) -> u128 {
        self.masks[l]
    }

    /// The packed key of the first `l` positions of `key` — equivalent to
    /// re-projecting onto the prefix, without touching the attributes.
    #[inline]
    pub fn prefix(&self, key: u128, l: usize) -> u128 {
        key & self.masks[l]
    }
}

/// A multiply-shift hasher for already-mixed integer keys.
///
/// Packed vote keys are small dense integers; SipHash (the `HashMap`
/// default) spends more time per lookup than the whole equality scan it
/// guards. One odd-constant multiply plus a xor-shift is enough to spread
/// the low bits the hash map indexes with. Not DoS-resistant — keys come
/// from the network snapshot, not an adversary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastHash;

/// Hasher state for [`FastHash`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // Multiply-shift: golden-ratio constant, then fold the high bits
        // (where multiply mixes best) down into the index bits.
        let h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        // Two chained multiply-shifts: the first folds the high half into
        // the state, so keys differing only above bit 63 still spread.
        self.write_u64((v >> 64) as u64);
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by u64 keys): FNV-1a style fold.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl BuildHasher for FastHash {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_in_range_keys() {
        let codec = PackedKeyCodec::new(&[3, 1, 20, 5]).unwrap();
        let vals = [2u16, 0, 19, 4];
        let key = codec.pack(&vals);
        assert_eq!(codec.unpack(key, 4), vals);
        assert_eq!(codec.unpack(key, 2), vals[..2]);
    }

    #[test]
    fn prefix_mask_equals_prefix_packing() {
        let codec = PackedKeyCodec::new(&[4, 7, 2, 30]).unwrap();
        let vals = [3u16, 6, 1, 29];
        let key = codec.pack(&vals);
        for l in 0..=vals.len() {
            assert_eq!(codec.prefix(key, l), codec.pack(&vals[..l]), "prefix {l}");
        }
    }

    #[test]
    fn out_of_range_levels_collapse_to_the_sentinel() {
        let codec = PackedKeyCodec::new(&[3, 5]).unwrap();
        // Different impossible probe levels agree with each other…
        assert_eq!(codec.pack(&[u16::MAX, 2]), codec.pack(&[3, 2]));
        assert_eq!(codec.pack(&[100, 2]), codec.pack(&[u16::MAX, 2]));
        // …but never with any real level.
        for real in 0..3u16 {
            assert_ne!(codec.pack(&[real, 2]), codec.pack(&[u16::MAX, 2]));
        }
    }

    #[test]
    fn empty_layout_packs_to_zero() {
        let codec = PackedKeyCodec::new(&[]).unwrap();
        assert_eq!(codec.pack(&[]), 0);
        assert_eq!(codec.unpack(0, 0), Vec::<u16>::new());
    }

    #[test]
    fn oversized_layouts_are_refused() {
        // 22 positions × 6 bits (card 32 ⇒ levels 0..=32) = 132 bits.
        assert_eq!(
            PackedKeyCodec::new(&[32u16; 22]),
            Err(LayoutTooWide { bits: 132 })
        );
        // 13 positions (78 bits) overflowed the old u64 layout; they are
        // exactly why the codec moved to u128.
        assert!(PackedKeyCodec::new(&[32u16; 13]).is_ok());
    }

    #[test]
    fn exact_128_bit_layout_fits() {
        // 16 positions × 8 bits (card 255 ⇒ levels 0..=255 need 8 bits).
        let cards = vec![255u16; 16];
        let codec = PackedKeyCodec::new(&cards).unwrap();
        let vals: Vec<u16> = (0..16).map(|i| 15 * i).collect();
        let key = codec.pack(&vals);
        assert_eq!(codec.unpack(key, 16), vals);
        assert_eq!(codec.prefix_mask(16), u128::MAX);
    }

    #[test]
    fn packed_order_is_lexicographic_order() {
        // The property the sorted group storage depends on: comparing
        // packed keys as integers == comparing unpacked keys position by
        // position, so prefix groups are contiguous runs after sorting.
        let codec = PackedKeyCodec::new(&[2, 300, 3]).unwrap();
        let mut unpacked = Vec::new();
        for a in 0..=2u16 {
            for b in [0u16, 1, 37, 299, 300] {
                for c in 0..=3u16 {
                    unpacked.push(vec![a, b, c]);
                }
            }
        }
        let mut by_packed = unpacked.clone();
        by_packed.sort_by_key(|v| codec.pack(v));
        assert_eq!(by_packed, unpacked, "integer order must be lex order");
    }

    #[test]
    fn distinct_keys_pack_distinctly() {
        // Exhaustive over a small layout: packing is injective on the
        // (sentinel-extended) level grid.
        let codec = PackedKeyCodec::new(&[2, 3]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for a in 0..=2u16 {
            for b in 0..=3u16 {
                assert!(seen.insert(codec.pack(&[a, b])), "collision at {a},{b}");
            }
        }
    }

    mod proptests {
        use super::super::*;
        use proptest::prelude::*;

        /// Reference bit count, computed independently of the codec.
        fn expected_bits(cards: &[u16]) -> u32 {
            cards
                .iter()
                .map(|&c| (u16::BITS - c.leading_zeros()).max(1))
                .sum()
        }

        /// Reference sentinel clamp: every out-of-range level collapses
        /// to the position's cardinality.
        fn clamped(cards: &[u16], vals: &[u16]) -> Vec<u16> {
            vals.iter().zip(cards).map(|(&v, &c)| v.min(c)).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// pack → unpack returns the sentinel-clamped input for any
            /// layout that fits, at every prefix length.
            #[test]
            fn pack_unpack_round_trips(spec in collection::vec((1u16..40, 0u16..80), 0..12)) {
                let cards: Vec<u16> = spec.iter().map(|&(c, _)| c).collect();
                let vals: Vec<u16> = spec.iter().map(|&(_, v)| v).collect();
                // 12 positions × ≤6 bits always fit.
                let codec = PackedKeyCodec::new(&cards).unwrap();
                let key = codec.pack(&vals);
                let clamped = clamped(&cards, &vals);
                for l in 0..=vals.len() {
                    prop_assert_eq!(codec.unpack(codec.prefix(key, l), l), &clamped[..l]);
                }
            }

            /// Masking the packed key equals packing the projected prefix —
            /// the property the backoff tables rely on.
            #[test]
            fn prefix_mask_equals_prefix_projection(
                spec in collection::vec((1u16..300, 0u16..600), 0..9),
            ) {
                let cards: Vec<u16> = spec.iter().map(|&(c, _)| c).collect();
                let vals: Vec<u16> = spec.iter().map(|&(_, v)| v).collect();
                // 9 positions × ≤9 bits always fit.
                let codec = PackedKeyCodec::new(&cards).unwrap();
                let key = codec.pack(&vals);
                for l in 0..=vals.len() {
                    prop_assert_eq!(codec.prefix(key, l), codec.pack(&vals[..l]));
                }
            }

            /// The codec refuses a layout exactly when an independent
            /// width computation exceeds 128 bits, and reports that width.
            #[test]
            fn overflow_detection_matches_reference(
                cards in collection::vec(1u16..2000, 0..24),
            ) {
                let bits = expected_bits(&cards);
                match PackedKeyCodec::new(&cards) {
                    Ok(_) => prop_assert!(bits <= 128, "{} bits accepted", bits),
                    Err(e) => {
                        prop_assert!(bits > 128, "{} bits refused", bits);
                        prop_assert_eq!(e, LayoutTooWide { bits });
                    }
                }
            }

            /// Integer comparison of packed keys agrees with
            /// lexicographic comparison of the clamped unpacked keys —
            /// the sorted-group-storage invariant, fuzzed.
            #[test]
            fn packed_comparison_is_lexicographic(
                cards in collection::vec(1u16..300, 1..9),
                a_seed in collection::vec(0u16..600, 9..10),
                b_seed in collection::vec(0u16..600, 9..10),
            ) {
                let codec = PackedKeyCodec::new(&cards).unwrap();
                let a: Vec<u16> = a_seed[..cards.len()].to_vec();
                let b: Vec<u16> = b_seed[..cards.len()].to_vec();
                let (ca, cb) = (clamped(&cards, &a), clamped(&cards, &b));
                prop_assert_eq!(codec.pack(&a).cmp(&codec.pack(&b)), ca.cmp(&cb));
            }

            /// A `u16::MAX` probe level packs to the same key as the
            /// reserved sentinel and never collides with a real level.
            #[test]
            fn max_probe_level_collapses_to_the_sentinel(
                cards in collection::vec(1u16..50, 1..10),
                pos_seed in 0usize..1000,
            ) {
                let codec = PackedKeyCodec::new(&cards).unwrap();
                let pos = pos_seed % cards.len();
                let mut probe: Vec<u16> = cards.iter().map(|&c| c / 2).collect();
                probe[pos] = u16::MAX;
                let mut sentinel = probe.clone();
                sentinel[pos] = cards[pos];
                prop_assert_eq!(codec.pack(&probe), codec.pack(&sentinel));
                for real in 0..cards[pos] {
                    let mut other = probe.clone();
                    other[pos] = real;
                    prop_assert_ne!(codec.pack(&other), codec.pack(&probe));
                }
            }
        }
    }

    #[test]
    fn fast_hash_spreads_low_bits() {
        // Sequential keys must not collide in the low bits the map uses.
        let build = FastHash;
        let mut low7 = std::collections::HashSet::new();
        for k in 0u64..128 {
            low7.insert(build.hash_one(k) & 0x7f);
        }
        let mut low7_wide = std::collections::HashSet::new();
        for k in 0u128..128 {
            // Vary only the high half: low-bit spread must survive keys
            // that differ above bit 63.
            low7_wide.insert(build.hash_one(k << 64) & 0x7f);
        }
        assert!(
            low7_wide.len() > 64,
            "only {} distinct high-half patterns",
            low7_wide.len()
        );
        assert!(
            low7.len() > 64,
            "only {} distinct low-bit patterns",
            low7.len()
        );
    }
}
