//! Learning scopes: which carriers (and directed X2 pairs) a model learns
//! from and is evaluated on.
//!
//! Table 4 trains and evaluates per market; §4.3.2 expands to all 28
//! markets. A [`Scope`] pins that choice down explicitly instead of
//! implicitly slicing inside every algorithm.

use auric_model::{CarrierId, MarketId, NetworkSnapshot, PairIdx};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A subset of the network used for learning/evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scope {
    /// Carriers in the scope, ascending.
    pub carriers: Vec<CarrierId>,
    /// Directed pairs whose source carrier is in the scope, ascending.
    pub pairs: Vec<PairIdx>,
}

impl Scope {
    /// The whole network.
    pub fn whole(snapshot: &NetworkSnapshot) -> Self {
        Self {
            carriers: (0..snapshot.n_carriers())
                .map(CarrierId::from_index)
                .collect(),
            pairs: (0..snapshot.x2.n_pairs() as u32).collect(),
        }
    }

    /// One market.
    pub fn market(snapshot: &NetworkSnapshot, m: MarketId) -> Self {
        Self::markets(snapshot, &[m])
    }

    /// A union of markets.
    pub fn markets(snapshot: &NetworkSnapshot, ms: &[MarketId]) -> Self {
        let mut carriers = Vec::new();
        let mut pairs = Vec::new();
        for &m in ms {
            carriers.extend_from_slice(snapshot.carriers_in_market(m));
            pairs.extend(snapshot.pairs_in_market(m));
        }
        carriers.sort_unstable();
        pairs.sort_unstable();
        Self { carriers, pairs }
    }

    /// Number of carriers in scope.
    pub fn n_carriers(&self) -> usize {
        self.carriers.len()
    }

    /// Number of directed pairs in scope.
    pub fn n_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// The carrier index window `first..last + 1` of the scope (`0..0`
    /// when it has no carriers). A fitted singular parameter keeps packed
    /// keys for exactly this window.
    pub fn carrier_window(&self) -> Range<usize> {
        match (self.carriers.first(), self.carriers.last()) {
            (Some(lo), Some(hi)) => lo.index()..hi.index() + 1,
            _ => 0..0,
        }
    }

    /// The pair index window `first..last + 1` of the scope (`0..0` when
    /// it has no pairs). A fitted pair-wise parameter keeps packed keys
    /// for exactly this window.
    pub fn pair_window(&self) -> Range<usize> {
        match (self.pairs.first(), self.pairs.last()) {
            (Some(&lo), Some(&hi)) => lo as usize..hi as usize + 1,
            _ => 0..0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auric_netgen::{generate, NetScale, TuningKnobs};

    #[test]
    fn whole_scope_covers_everything() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let s = Scope::whole(&net.snapshot);
        assert_eq!(s.n_carriers(), net.snapshot.n_carriers());
        assert_eq!(s.n_pairs(), net.snapshot.x2.n_pairs());
    }

    #[test]
    fn market_scopes_partition_the_network() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let snap = &net.snapshot;
        let total: usize = snap
            .markets
            .iter()
            .map(|m| Scope::market(snap, m.id).n_carriers())
            .sum();
        assert_eq!(total, snap.n_carriers());
        let total_pairs: usize = snap
            .markets
            .iter()
            .map(|m| Scope::market(snap, m.id).n_pairs())
            .sum();
        assert_eq!(total_pairs, snap.x2.n_pairs());
    }

    #[test]
    fn windows_span_first_to_last_member() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let snap = &net.snapshot;
        let whole = Scope::whole(snap);
        assert_eq!(whole.carrier_window(), 0..snap.n_carriers());
        assert_eq!(whole.pair_window(), 0..snap.x2.n_pairs());
        let s = Scope::market(snap, snap.markets[1].id);
        let cw = s.carrier_window();
        assert_eq!(cw.start, s.carriers[0].index());
        assert_eq!(cw.end, s.carriers.last().unwrap().index() + 1);
        let pw = s.pair_window();
        assert_eq!(pw.start, s.pairs[0] as usize);
        assert_eq!(pw.end, *s.pairs.last().unwrap() as usize + 1);
        let empty = Scope {
            carriers: Vec::new(),
            pairs: Vec::new(),
        };
        assert_eq!((empty.carrier_window(), empty.pair_window()), (0..0, 0..0));
    }

    #[test]
    fn union_matches_individual_markets() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let snap = &net.snapshot;
        let ids: Vec<_> = snap.markets.iter().map(|m| m.id).collect();
        let union = Scope::markets(snap, &ids);
        assert_eq!(union, Scope::whole(snap));
    }

    #[test]
    fn scope_members_belong_to_their_market() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let snap = &net.snapshot;
        let m = snap.markets[1].id;
        let s = Scope::market(snap, m);
        for &c in &s.carriers {
            assert_eq!(snap.carrier(c).market, m);
        }
        for &p in &s.pairs {
            let (j, _) = snap.x2.pair(p);
            assert_eq!(snap.carrier(j).market, m);
        }
    }
}
