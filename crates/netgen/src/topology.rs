//! Topology construction: markets, eNodeBs, carriers, attributes and the
//! X2 neighbor-relation graph.
//!
//! Geography drives everything downstream: morphology comes from distance
//! to an urban core, X2 relations from radio adjacency, and the tuning
//! pockets of [`crate::tuning`] are disks on the same plane — which is
//! exactly why geographic proximity carries signal for the local learner.

use crate::attr_idx;
use crate::names;
use crate::scale::NetScale;
use auric_model::{
    AttrVec, AttributeSchema, Band, Carrier, CarrierId, Enodeb, EnodebId, Market, MarketId,
    Morphology, Point, Timezone, Vendor, X2Graph,
};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Side length of each market's square plane, in km.
pub const MARKET_SIZE_KM: f64 = 60.0;

/// The physical network before any configuration is attached.
#[derive(Debug, Clone)]
pub struct Topology {
    pub markets: Vec<Market>,
    pub enodebs: Vec<Enodeb>,
    pub carriers: Vec<Carrier>,
    pub x2: X2Graph,
}

/// One market's topology as produced by [`build_market`]: entities carry
/// their *global* ids (offset by the bases passed in), edges are global
/// too, and the dynamic attributes are still placeholders.
struct MarketBuild {
    pub market: Market,
    pub enodebs: Vec<Enodeb>,
    pub carriers: Vec<Carrier>,
    pub edges: Vec<(CarrierId, CarrierId)>,
}

/// Builds the full topology for `scale`. Deterministic in `scale.seed`.
pub fn build(scale: &NetScale, schema: &AttributeSchema) -> Topology {
    assert!(scale.n_markets > 0, "need at least one market");
    assert!(
        scale.enbs_per_market >= 2,
        "need at least two eNodeBs per market"
    );

    let mut markets = Vec::with_capacity(scale.n_markets);
    let mut enodebs: Vec<Enodeb> = Vec::new();
    let mut carriers: Vec<Carrier> = Vec::new();
    let mut edges: Vec<(CarrierId, CarrierId)> = Vec::new();

    for m in 0..scale.n_markets {
        let mb = build_market(scale, schema, m, enodebs.len(), carriers.len());
        markets.push(mb.market);
        enodebs.extend(mb.enodebs);
        carriers.extend(mb.carriers);
        edges.extend(mb.edges);
    }

    let x2 = X2Graph::from_edges(carriers.len(), &edges);
    fill_dynamic_attrs(&mut carriers, &enodebs, &x2, schema);

    Topology {
        markets,
        enodebs,
        carriers,
        x2,
    }
}

/// Builds market `m`'s eNodeBs, carriers and X2 edges, with ids offset by
/// `enb_base`/`carrier_base` (the entity counts of all earlier markets).
fn build_market(
    scale: &NetScale,
    schema: &AttributeSchema,
    m: usize,
    enb_base: usize,
    carrier_base: usize,
) -> MarketBuild {
    let market_id = MarketId(m as u16);
    // Per-market RNG stream so adding markets never reshuffles earlier
    // ones.
    let mut rng =
        ChaCha8Rng::seed_from_u64(scale.seed.wrapping_mul(0x9E37_79B9).wrapping_add(m as u64));

    // Market size varies the way Table 3's markets do (the largest is
    // ~2x the smallest of the four sampled ones).
    let factor: f64 = rng.random_range(0.6..1.6);
    let n_enb = ((scale.enbs_per_market as f64 * factor).round() as usize).max(2);

    // Urban cores.
    let n_cores = 1 + (rng.random_range(0..10u32) < 4) as usize;
    let cores: Vec<Point> = (0..n_cores)
        .map(|_| Point {
            x: rng.random_range(15.0..45.0),
            y: rng.random_range(15.0..45.0),
        })
        .collect();

    let dominant_vendor = Vendor::ALL[m % 3];
    // Markets sit at different upgrade stages.
    let market_sw: u16 = if m.is_multiple_of(5) { 2 } else { 3 };
    // Mid-band build-out preference differs per market.
    let mid_pref: u16 = if m.is_multiple_of(2) { 2 } else { 3 };

    let mut enodebs: Vec<Enodeb> = Vec::with_capacity(n_enb);
    let mut carriers: Vec<Carrier> = Vec::new();
    let mut edges: Vec<(CarrierId, CarrierId)> = Vec::new();
    let mut market_enbs = Vec::with_capacity(n_enb);
    let mut market_carriers = Vec::new();

    for _ in 0..n_enb {
        let enb_id = EnodebId::from_index(enb_base + enodebs.len());
        let position = sample_position(&mut rng, &cores);
        let core_dist = cores
            .iter()
            .map(|c| c.distance(position))
            .fold(f64::INFINITY, f64::min);
        let morphology = if core_dist < 3.5 {
            Morphology::Urban
        } else if core_dist < 12.0 {
            Morphology::Suburban
        } else {
            Morphology::Rural
        };
        let vendor = if rng.random_range(0.0..1.0) < 0.8 {
            dominant_vendor
        } else {
            Vendor::ALL[rng.random_range(0..3usize)]
        };
        // Hardware generation loosely tracks vendor.
        let hardware: u16 = match vendor {
            Vendor::VendorA => [0u16, 1, 1, 2][rng.random_range(0..4usize)],
            Vendor::VendorB => [1u16, 1, 2, 2][rng.random_range(0..4usize)],
            Vendor::VendorC => [0u16, 0, 1, 2][rng.random_range(0..4usize)],
        };
        let software = if rng.random_range(0.0..1.0) < 0.85 {
            market_sw
        } else {
            market_sw - 1
        };
        let tac = (m * names::TACS_PER_MARKET
            + usize::from(position.x >= MARKET_SIZE_KM / 2.0) * 2
            + usize::from(position.y >= MARKET_SIZE_KM / 2.0)) as u16;
        let near_border = position.x < 3.0
            || position.y < 3.0
            || position.x > MARKET_SIZE_KM - 3.0
            || position.y > MARKET_SIZE_KM - 3.0;

        let mut enb = Enodeb {
            id: enb_id,
            market: market_id,
            position,
            morphology,
            vendor,
            carriers: Vec::new(),
        };

        for face in 0..3u8 {
            for band in face_bands(&mut rng, morphology) {
                let id = CarrierId::from_index(carrier_base + carriers.len());
                let attrs = carrier_attrs(
                    &mut rng,
                    schema,
                    CarrierCtx {
                        band,
                        morphology,
                        vendor,
                        hardware,
                        software,
                        tac,
                        market: m as u16,
                        mid_pref,
                        near_border,
                    },
                );
                carriers.push(Carrier {
                    id,
                    enodeb: enb_id,
                    market: market_id,
                    face,
                    band,
                    attrs,
                });
                enb.carriers.push(id);
                market_carriers.push(id);
            }
        }
        market_enbs.push(enb_id);
        enodebs.push(enb);
    }

    // Intra-eNodeB X2 relations.
    for enb in &enodebs {
        intra_enb_edges(enb, &carriers, carrier_base, &mut edges);
    }

    // Inter-eNodeB X2 relations: each eNodeB peers with its k nearest
    // in-market eNodeBs (denser areas keep more relations).
    for (i, a) in enodebs.iter().enumerate() {
        let k = match a.morphology {
            Morphology::Urban => 5,
            Morphology::Suburban => 4,
            Morphology::Rural => 3,
        };
        let mut by_dist: Vec<(f64, usize)> = enodebs
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(j, b)| (a.position.distance(b.position), j))
            .collect();
        // A total order (distance, then index), so partitioning at `k`
        // and sorting the kept ones gives the same k nearest, in the same
        // order, as sorting everything.
        let order = |x: &(f64, usize), y: &(f64, usize)| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1));
        if by_dist.len() > k {
            by_dist.select_nth_unstable_by(k, order);
            by_dist.truncate(k);
        }
        by_dist.sort_unstable_by(order);
        for &(_, j) in &by_dist {
            if j < i {
                continue; // each unordered eNodeB pair handled once
            }
            inter_enb_edges(
                a,
                &enodebs[j],
                &carriers,
                carrier_base,
                &mut rng,
                &mut edges,
            );
        }
    }

    let market = Market {
        id: market_id,
        name: format!("Market {}", m + 1),
        timezone: Timezone::ALL[m % 4],
        carriers: market_carriers,
        enodebs: market_enbs,
    };
    MarketBuild {
        market,
        enodebs,
        carriers,
        edges,
    }
}

/// Samples an eNodeB position: clustered near a core, in the suburban
/// ring, or uniform rural.
fn sample_position(rng: &mut ChaCha8Rng, cores: &[Point]) -> Point {
    let clamp = |v: f64| v.clamp(0.0, MARKET_SIZE_KM);
    let class: f64 = rng.random_range(0.0..1.0);
    if class < 0.45 {
        let c = cores[rng.random_range(0..cores.len())];
        Point {
            x: clamp(c.x + gaussian(rng) * 2.0),
            y: clamp(c.y + gaussian(rng) * 2.0),
        }
    } else if class < 0.80 {
        let c = cores[rng.random_range(0..cores.len())];
        Point {
            x: clamp(c.x + gaussian(rng) * 7.0),
            y: clamp(c.y + gaussian(rng) * 7.0),
        }
    } else {
        Point {
            x: rng.random_range(0.0..MARKET_SIZE_KM),
            y: rng.random_range(0.0..MARKET_SIZE_KM),
        }
    }
}

/// Standard normal via Box-Muller (two uniforms, one output kept).
fn gaussian(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The carrier bands hosted on one face, by morphology (§2.1: urban faces
/// carry full LB/MB/HB stacks, rural faces mostly the coverage layer).
fn face_bands(rng: &mut ChaCha8Rng, morphology: Morphology) -> Vec<Band> {
    match morphology {
        Morphology::Urban => {
            let mut v = vec![Band::Low, Band::Mid, Band::High];
            if rng.random_range(0.0..1.0) < 0.5 {
                v.push(Band::Mid);
            }
            v
        }
        Morphology::Suburban => {
            let mut v = vec![Band::Low, Band::Mid];
            if rng.random_range(0.0..1.0) < 0.4 {
                v.push(Band::High);
            }
            v
        }
        Morphology::Rural => {
            let mut v = vec![Band::Low];
            if rng.random_range(0.0..1.0) < 0.5 {
                v.push(Band::Mid);
            }
            v
        }
    }
}

/// Static per-carrier context threaded into attribute sampling.
struct CarrierCtx {
    band: Band,
    morphology: Morphology,
    vendor: Vendor,
    hardware: u16,
    software: u16,
    tac: u16,
    market: u16,
    mid_pref: u16,
    near_border: bool,
}

/// Samples a carrier's Table-1 attribute vector. Dynamic attributes
/// (`neighbor_channel`, `neighbors_same_enodeb`) get placeholders and are
/// filled by [`fill_dynamic_attrs`] once the X2 graph exists.
fn carrier_attrs(rng: &mut ChaCha8Rng, schema: &AttributeSchema, ctx: CarrierCtx) -> AttrVec {
    let frequency: u16 = match ctx.band {
        Band::Low => {
            if rng.random_range(0.0..1.0) < 0.7 {
                0 // 700MHz
            } else {
                1 // 850MHz
            }
        }
        Band::Mid => {
            if rng.random_range(0.0..1.0) < 0.65 {
                ctx.mid_pref
            } else {
                5 - ctx.mid_pref // the other of 1900/2100
            }
        }
        Band::High => 4, // 2300MHz
    };
    let carrier_type: u16 = if frequency == 0 && rng.random_range(0.0..1.0) < 0.12 {
        1 // FirstNet rides 700MHz
    } else if ctx.band == Band::Low && rng.random_range(0.0..1.0) < 0.03 {
        2 // NB-IoT
    } else {
        0
    };
    let carrier_info: u16 = if ctx.near_border {
        2 // border
    } else if ctx.hardware == 2 && rng.random_range(0.0..1.0) < 0.25 {
        1 // 5G-colocated
    } else {
        0
    };
    let bandwidth: u16 = match ctx.band {
        Band::Low => {
            if rng.random_range(0.0..1.0) < 0.6 {
                1 // 10MHz
            } else {
                0 // 5MHz
            }
        }
        Band::Mid => match ctx.morphology {
            Morphology::Urban => 3,
            Morphology::Suburban => {
                if rng.random_range(0.0..1.0) < 0.5 {
                    2
                } else {
                    3
                }
            }
            Morphology::Rural => 1,
        },
        Band::High => {
            if rng.random_range(0.0..1.0) < 0.7 {
                3
            } else {
                2
            }
        }
    };
    let mimo: u16 = if ctx.band == Band::High && ctx.hardware >= 1 {
        1 // 4x4
    } else if rng.random_range(0.0..1.0) < 0.7 {
        0 // 2x2
    } else {
        2 // closed-loop
    };
    let cell_size: u16 = match (ctx.morphology, ctx.band) {
        (Morphology::Urban, Band::Low) => 1,
        (Morphology::Urban, _) => 0,
        (Morphology::Suburban, Band::Low) => 2,
        (Morphology::Suburban, _) => 1,
        (Morphology::Rural, Band::Low) => 3,
        (Morphology::Rural, _) => 2,
    };
    let vendor_level = match ctx.vendor {
        Vendor::VendorA => 0u16,
        Vendor::VendorB => 1,
        Vendor::VendorC => 2,
    };

    let mut values = vec![0u16; schema.n_attrs()];
    values[attr_idx::FREQUENCY.index()] = frequency;
    values[attr_idx::CARRIER_TYPE.index()] = carrier_type;
    values[attr_idx::CARRIER_INFO.index()] = carrier_info;
    values[attr_idx::MORPHOLOGY.index()] = ctx.morphology as u16;
    values[attr_idx::BANDWIDTH.index()] = bandwidth;
    values[attr_idx::MIMO.index()] = mimo;
    values[attr_idx::HARDWARE.index()] = ctx.hardware;
    values[attr_idx::CELL_SIZE.index()] = cell_size;
    values[attr_idx::TAC.index()] = ctx.tac;
    values[attr_idx::MARKET.index()] = ctx.market;
    values[attr_idx::VENDOR.index()] = vendor_level;
    // neighbor_channel / neighbors_same_enodeb filled after X2 build.
    values[attr_idx::SOFTWARE.index()] = ctx.software;
    AttrVec::new(values)
}

/// X2 relations within one eNodeB: every same-face pair (inter-frequency
/// relations on one sector) plus same-band pairs across faces.
/// `carriers` is the owning market's slice; ids are offset by `base`.
fn intra_enb_edges(
    enb: &Enodeb,
    carriers: &[Carrier],
    base: usize,
    edges: &mut Vec<(CarrierId, CarrierId)>,
) {
    let cs = &enb.carriers;
    for (i, &a) in cs.iter().enumerate() {
        for &b in &cs[i + 1..] {
            let ca = &carriers[a.index() - base];
            let cb = &carriers[b.index() - base];
            if ca.face == cb.face || ca.band == cb.band {
                edges.push((a, b));
            }
        }
    }
}

/// X2 relations between two radio-adjacent eNodeBs: per band present on
/// both, one carrier pair (almost always), plus an occasional cross-band
/// relation. `carriers` is the owning market's slice, ids offset by
/// `base`.
fn inter_enb_edges(
    a: &Enodeb,
    b: &Enodeb,
    carriers: &[Carrier],
    base: usize,
    rng: &mut ChaCha8Rng,
    edges: &mut Vec<(CarrierId, CarrierId)>,
) {
    for band in Band::ALL {
        let ca: Vec<CarrierId> = a
            .carriers
            .iter()
            .copied()
            .filter(|&c| carriers[c.index() - base].band == band)
            .collect();
        let cb: Vec<CarrierId> = b
            .carriers
            .iter()
            .copied()
            .filter(|&c| carriers[c.index() - base].band == band)
            .collect();
        if ca.is_empty() || cb.is_empty() {
            continue;
        }
        if rng.random_range(0.0..1.0) < 0.9 {
            let x = ca[rng.random_range(0..ca.len())];
            let y = cb[rng.random_range(0..cb.len())];
            edges.push((x, y));
        }
    }
    if rng.random_range(0.0..1.0) < 0.3 && !a.carriers.is_empty() && !b.carriers.is_empty() {
        let x = a.carriers[rng.random_range(0..a.carriers.len())];
        let y = b.carriers[rng.random_range(0..b.carriers.len())];
        edges.push((x, y));
    }
}

/// Fills the two dynamic attributes that depend on the finished topology:
/// the same-eNodeB neighbor-count bucket and the dominant X2 neighbor
/// channel.
fn fill_dynamic_attrs(
    carriers: &mut [Carrier],
    enodebs: &[Enodeb],
    x2: &X2Graph,
    schema: &AttributeSchema,
) {
    let mixed_level = (schema.cardinality(attr_idx::NEIGHBOR_CHANNEL) - 1) as u16;
    let freqs: Vec<u16> = carriers
        .iter()
        .map(|c| c.attrs.get(attr_idx::FREQUENCY))
        .collect();
    for c in carriers.iter_mut() {
        let same_enb = enodebs[c.enodeb.index()].carriers.len().saturating_sub(1);
        c.attrs.set(
            attr_idx::NEIGHBORS_SAME_ENB,
            names::neighbor_bucket(same_enb),
        );

        // Dominant neighbor channel; "mixed" when no strict winner.
        let mut counts = [0usize; 8];
        for &n in x2.neighbors(c.id) {
            counts[freqs[n.index()] as usize] += 1;
        }
        let (best, best_count) = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(i, &c)| (i as u16, c))
            .unwrap_or((0, 0));
        let runner_up = counts
            .iter()
            .enumerate()
            .filter(|&(i, _)| i as u16 != best)
            .map(|(_, &c)| c)
            .max()
            .unwrap_or(0);
        let level = if best_count == 0 || best_count == runner_up {
            mixed_level
        } else {
            best
        };
        c.attrs.set(attr_idx::NEIGHBOR_CHANNEL, level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_topology() -> (Topology, AttributeSchema) {
        let scale = NetScale {
            n_markets: 3,
            enbs_per_market: 12,
            seed: 42,
        };
        let schema = names::build_schema(scale.n_markets);
        (build(&scale, &schema), schema)
    }

    #[test]
    fn builds_consistent_topology() {
        let (t, schema) = small_topology();
        assert_eq!(t.markets.len(), 3);
        assert!(t.carriers.len() > 50);
        assert_eq!(t.x2.n_carriers(), t.carriers.len());
        t.x2.validate().unwrap();
        for c in &t.carriers {
            schema.validate(&c.attrs).unwrap();
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let scale = NetScale {
            n_markets: 2,
            enbs_per_market: 8,
            seed: 5,
        };
        let schema = names::build_schema(2);
        let a = build(&scale, &schema);
        let b = build(&scale, &schema);
        assert_eq!(a.carriers, b.carriers);
        assert_eq!(a.enodebs, b.enodebs);
        assert_eq!(a.x2, b.x2);
    }

    #[test]
    fn different_seeds_differ() {
        let schema = names::build_schema(2);
        let a = build(
            &NetScale {
                n_markets: 2,
                enbs_per_market: 8,
                seed: 1,
            },
            &schema,
        );
        let b = build(
            &NetScale {
                n_markets: 2,
                enbs_per_market: 8,
                seed: 2,
            },
            &schema,
        );
        assert_ne!(
            a.enodebs.iter().map(|e| e.position).collect::<Vec<_>>(),
            b.enodebs.iter().map(|e| e.position).collect::<Vec<_>>()
        );
    }

    #[test]
    fn carriers_report_their_market_attribute() {
        let (t, _) = small_topology();
        for c in &t.carriers {
            assert_eq!(c.attrs.get(attr_idx::MARKET), c.market.0);
        }
    }

    #[test]
    fn x2_stays_within_market() {
        // Inter-eNodeB relations are built per market and intra-eNodeB
        // ones trivially stay put, so no X2 edge crosses a market line.
        let (t, _) = small_topology();
        for (_, j, k) in t.x2.pairs() {
            assert_eq!(t.carriers[j.index()].market, t.carriers[k.index()].market);
        }
    }

    #[test]
    fn every_carrier_has_neighbors() {
        // Same-face relations guarantee a neighbor for any face with ≥2
        // carriers; rural single-carrier faces still get same-band
        // cross-face or inter-eNodeB relations. Allow rare isolates but
        // require 99% coverage.
        let (t, _) = small_topology();
        let isolated = t.carriers.iter().filter(|c| t.x2.degree(c.id) == 0).count();
        assert!(
            (isolated as f64) < 0.01 * t.carriers.len() as f64,
            "{isolated} of {} carriers isolated",
            t.carriers.len()
        );
    }

    #[test]
    fn morphology_mix_is_plausible() {
        let (t, _) = small_topology();
        let mut counts = [0usize; 3];
        for e in &t.enodebs {
            counts[e.morphology as usize] += 1;
        }
        // All three morphologies occur.
        assert!(
            counts.iter().all(|&c| c > 0),
            "morphology counts {counts:?}"
        );
    }

    #[test]
    fn bands_respect_morphology() {
        let (t, _) = small_topology();
        for c in &t.carriers {
            let morph = t.enodebs[c.enodeb.index()].morphology;
            if morph == Morphology::Rural {
                assert_ne!(c.band, Band::High, "rural faces carry no high band");
            }
        }
    }

    #[test]
    fn face_count_is_three() {
        let (t, _) = small_topology();
        for c in &t.carriers {
            assert!(c.face < 3);
        }
        // Every eNodeB hosts at least one carrier per face at urban sites.
        for e in &t.enodebs {
            let faces: std::collections::HashSet<u8> = e
                .carriers
                .iter()
                .map(|&c| t.carriers[c.index()].face)
                .collect();
            assert_eq!(faces.len(), 3, "every face is populated");
        }
    }
}
