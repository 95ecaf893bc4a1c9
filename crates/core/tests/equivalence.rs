//! Differential tests: the packed-key hot path (`cf::CfModel`) against the
//! unpacked reference implementation (`legacy::LegacyCfModel`).
//!
//! The packed representation is supposed to be a pure re-encoding — every
//! `Recommendation` (value, basis, support, voters) must be bit-identical
//! to what the legacy path produces, for every parameter, both learner
//! flavors, and leave-one-out on and off.

use auric_core::legacy::LegacyCfModel;
use auric_core::{CfConfig, CfModel, Scope};
use auric_model::{NetworkSnapshot, ParamKind};
use auric_netgen::names::build_schema;
use auric_netgen::{generate, NetScale, TuningKnobs};
use auric_stats::packed::PackedKeyCodec;

/// Compares the two models over every parameter, probing carriers and
/// pairs at the given strides (1 = exhaustive).
fn assert_equivalent(
    snap: &NetworkSnapshot,
    packed: &CfModel,
    legacy: &LegacyCfModel,
    carrier_stride: usize,
    pair_stride: usize,
) {
    for def in snap.catalog.defs() {
        let p = def.id;
        assert_eq!(
            packed.param(p).dependent,
            legacy.param(p).dependent,
            "{}: dependency sets diverge",
            def.name
        );
        match def.kind {
            ParamKind::Singular => {
                for c in snap.carriers.iter().step_by(carrier_stride) {
                    let key = legacy.param(p).key_for_carrier(&c.attrs);
                    let pc = packed.param(p);
                    assert_eq!(
                        pc.codec()
                            .unpack(pc.packed_for_carrier(&c.attrs), pc.dependent.len()),
                        key,
                        "{}: carrier {} key diverges",
                        def.name,
                        c.id
                    );
                    let current = snap.config.value(p, c.id);
                    for exclude in [None, Some(current)] {
                        assert_eq!(
                            packed.recommend_global(p, &key, exclude),
                            legacy.recommend_global(p, &key, exclude),
                            "{}: global diverges at carrier {} (exclude {exclude:?})",
                            def.name,
                            c.id
                        );
                    }
                    for loo in [false, true] {
                        assert_eq!(
                            packed.recommend_local_singular(snap, p, c.id, loo),
                            legacy.recommend_local_singular(snap, p, c.id, loo),
                            "{}: local diverges at carrier {} (loo {loo})",
                            def.name,
                            c.id
                        );
                    }
                }
            }
            ParamKind::Pairwise => {
                for q in (0..snap.x2.n_pairs() as u32).step_by(pair_stride) {
                    let (j, k) = snap.x2.pair(q);
                    let key = legacy
                        .param(p)
                        .key_for_pair(&snap.carrier(j).attrs, &snap.carrier(k).attrs);
                    let pc = packed.param(p);
                    let packed_key =
                        pc.packed_for_pair(&snap.carrier(j).attrs, &snap.carrier(k).attrs);
                    assert_eq!(
                        pc.codec().unpack(packed_key, pc.dependent.len()),
                        key,
                        "{}: pair {q} key diverges",
                        def.name
                    );
                    let current = snap.config.pair_value(p, q);
                    for exclude in [None, Some(current)] {
                        assert_eq!(
                            packed.recommend_global(p, &key, exclude),
                            legacy.recommend_global(p, &key, exclude),
                            "{}: global diverges at pair {q} (exclude {exclude:?})",
                            def.name
                        );
                    }
                    for loo in [false, true] {
                        assert_eq!(
                            packed.recommend_local_pair(snap, p, q, loo),
                            legacy.recommend_local_pair(snap, p, q, loo),
                            "{}: local diverges at pair {q} (loo {loo})",
                            def.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn packed_path_matches_legacy_exhaustively_on_a_noisy_tiny_network() {
    let net = generate(&NetScale::tiny(), &TuningKnobs::default());
    let snap = &net.snapshot;
    let scope = Scope::whole(snap);
    let config = CfConfig::default();
    let packed = CfModel::fit(snap, &scope, config);
    let legacy = LegacyCfModel::fit(snap, &scope, config);
    assert_equivalent(snap, &packed, &legacy, 1, 1);

    // Impossible probe keys (levels past every cardinality) must fall
    // through the chain identically: the packed path collapses them to
    // the reserved sentinel, the legacy path simply never finds a group.
    for def in snap.catalog.defs() {
        let p = def.id;
        let bogus: Vec<u16> = packed.param(p).dependent.iter().map(|_| u16::MAX).collect();
        assert_eq!(
            packed.recommend_global(p, &bogus, None),
            legacy.recommend_global(p, &bogus, None),
            "{}: bogus-key fallback diverges",
            def.name
        );
    }
}

#[test]
fn packed_path_matches_legacy_on_a_seeded_medium_network() {
    // The bench scale. Exhaustive probing would take minutes in debug
    // builds, so probe a deterministic stride of carriers and pairs —
    // every parameter, both learners, LoO on and off.
    let net = generate(&NetScale::medium(), &TuningKnobs::default());
    let snap = &net.snapshot;
    let scope = Scope::whole(snap);
    let config = CfConfig::default();
    let packed = CfModel::fit(snap, &scope, config);
    let legacy = LegacyCfModel::fit(snap, &scope, config);
    assert_equivalent(snap, &packed, &legacy, 23, 101);
}

#[test]
fn packed_path_matches_legacy_under_marginal_selection() {
    // The marginal-selection ablation keeps every associated attribute, so
    // pair-wise keys routinely exceed 64 bits. Under the old u64 codec
    // that forced a wide fallback; the u128 codec keeps every Table-1
    // layout packed (see `worst_case_schema_layouts_fit_u128`) and must
    // still agree with the legacy oracle on those widest keys.
    let net = generate(&NetScale::tiny(), &TuningKnobs::default());
    let snap = &net.snapshot;
    let scope = Scope::whole(snap);
    let config = CfConfig {
        marginal_selection: true,
        ..CfConfig::default()
    };
    let packed = CfModel::fit(snap, &scope, config);
    let legacy = LegacyCfModel::fit(snap, &scope, config);
    let widths: Vec<u32> = packed
        .params()
        .iter()
        .map(|pc| layout_bits(pc.codec().cards()))
        .collect();
    assert!(
        widths.iter().any(|&w| w > 64),
        "expected at least one over-64-bit layout under marginal selection"
    );
    assert!(
        widths.iter().all(|&w| w <= 128),
        "every Table-1 layout must fit the u128 packed path"
    );
    assert_equivalent(snap, &packed, &legacy, 3, 17);
}

/// Reference key width, computed independently of the codec: each
/// position needs room for its levels plus the probe sentinel.
fn layout_bits(cards: &[u16]) -> u32 {
    cards
        .iter()
        .map(|&c| (u16::BITS - c.leading_zeros()).max(1))
        .sum()
}

/// The precondition that lets vote keys be `u128` only: the widest layout
/// the Table-1 schema can produce — every attribute on both endpoints of
/// a pair — fits, from one market up to 16,383, the most whose TAC levels
/// (4 per market) still fit a `u16`. Fitting relies on this instead of a
/// wide-key fallback.
#[test]
fn worst_case_schema_layouts_fit_u128() {
    for (n_markets, expected_bits) in [(1, 68), (28, 84), (16_383, 120)] {
        let schema = build_schema(n_markets);
        let one_side: Vec<u16> = schema.attr_ids().map(|a| schema.radix(a)).collect();
        assert_eq!(one_side.len(), 14, "Table 1 has 14 attributes");
        let cards = [one_side.clone(), one_side].concat();
        assert_eq!(layout_bits(&cards), expected_bits, "{n_markets} markets");
        assert!(
            PackedKeyCodec::new(&cards).is_ok(),
            "{n_markets} markets: the worst-case pair layout must fit 128 bits"
        );
    }
}
