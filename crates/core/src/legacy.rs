//! Reference implementation of the recommender with unpacked `Vec<u16>`
//! vote keys — the representation the packed hot path (see [`crate::cf`])
//! replaced.
//!
//! Kept for two reasons:
//!
//! - **differential testing**: the equivalence suite fits both models on
//!   the same snapshot and asserts bit-identical [`Recommendation`]s for
//!   every parameter, learner flavor, and leave-one-out setting;
//! - **benchmarking**: the `bench_cf` binary measures the packed path
//!   against this baseline on the same build, so reported speedups are
//!   representation effects, not compiler-flag effects.
//!
//! The logic here must mirror `cf.rs` exactly; behavioral changes belong
//! in both places or (preferably) only in `cf.rs` with the equivalence
//! tests updated to spell out the intended divergence.

use crate::cf::{Basis, CfConfig, Recommendation};
use crate::dependency::{PredictorAttr, Side};
use crate::scope::Scope;
use auric_model::{
    AttrId, AttrValue, AttrVec, CarrierId, NetworkSnapshot, PairIdx, ParamId, ParamKind, ValueIdx,
};
use auric_stats::chi2::chi2_critical;
use auric_stats::contingency::ContingencyTable;
use auric_stats::freq::FreqTable;
use std::collections::HashMap;

/// Unpacked group key: the target's levels on the dependent attributes.
pub type LegacyVoteKey = Vec<u16>;

/// Vote tables keyed by unpacked attribute-level vectors.
#[derive(Debug, Clone, Default)]
pub struct LegacyVoteTables {
    groups: HashMap<LegacyVoteKey, FreqTable>,
    overall: FreqTable,
}

impl LegacyVoteTables {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, key: LegacyVoteKey, value: ValueIdx) {
        self.groups.entry(key).or_default().add(value);
        self.overall.add(value);
    }

    pub fn group(&self, key: &[u16]) -> Option<&FreqTable> {
        self.groups.get(key)
    }

    pub fn overall(&self) -> &FreqTable {
        &self.overall
    }

    pub fn vote(
        &self,
        key: &[u16],
        exclude: Option<ValueIdx>,
        threshold: f64,
    ) -> Option<(ValueIdx, usize, usize)> {
        self.groups
            .get(key)?
            .majority_with_support_excluding(exclude, threshold)
    }

    pub fn group_majority(
        &self,
        key: &[u16],
        exclude: Option<ValueIdx>,
    ) -> Option<(ValueIdx, usize, usize)> {
        self.groups
            .get(key)?
            .majority_with_support_excluding(exclude, 0.0)
    }

    pub fn overall_majority(&self, exclude: Option<ValueIdx>) -> Option<ValueIdx> {
        self.overall
            .majority_with_support_excluding(exclude, 0.0)
            .map(|(v, _, _)| v)
    }
}

/// Per-parameter fitted state, unpacked representation.
#[derive(Debug, Clone)]
pub struct LegacyParamCf {
    pub param: ParamId,
    pub dependent: Vec<PredictorAttr>,
    pub tables: LegacyVoteTables,
    level_tables: Vec<LegacyVoteTables>,
    pub default: ValueIdx,
}

impl LegacyParamCf {
    pub fn key_for_carrier(&self, attrs: &AttrVec) -> LegacyVoteKey {
        self.dependent
            .iter()
            .map(|pa| {
                debug_assert_eq!(pa.side, Side::Src, "singular key reads only the carrier");
                attrs.get(pa.attr)
            })
            .collect()
    }

    pub fn key_for_pair(&self, src: &AttrVec, dst: &AttrVec) -> LegacyVoteKey {
        self.dependent
            .iter()
            .map(|pa| match pa.side {
                Side::Src => src.get(pa.attr),
                Side::Dst => dst.get(pa.attr),
            })
            .collect()
    }
}

/// The pre-packing model: sequential fit, unpacked keys throughout.
#[derive(Debug, Clone)]
pub struct LegacyCfModel {
    pub config: CfConfig,
    params: Vec<LegacyParamCf>,
}

impl LegacyCfModel {
    /// Fits every parameter sequentially (the baseline deliberately keeps
    /// single-threaded, allocation-heavy behavior for comparison).
    pub fn fit(snapshot: &NetworkSnapshot, scope: &Scope, config: CfConfig) -> Self {
        let params = (0..snapshot.catalog.len())
            .map(|i| fit_param(snapshot, scope, ParamId(i as u16), &config))
            .collect();
        Self { config, params }
    }

    pub fn param(&self, p: ParamId) -> &LegacyParamCf {
        &self.params[p.index()]
    }

    pub fn params(&self) -> &[LegacyParamCf] {
        &self.params
    }

    pub fn recommend_global(
        &self,
        param: ParamId,
        key: &[u16],
        exclude: Option<ValueIdx>,
    ) -> Recommendation {
        let pc = self.param(param);
        if let Some((value, support, voters)) = pc.tables.vote(key, exclude, self.config.support) {
            return Recommendation {
                value,
                basis: Basis::GlobalVote,
                support,
                voters,
            };
        }
        if let Some((value, support, voters)) = pc.tables.group_majority(key, exclude) {
            return Recommendation {
                value,
                basis: Basis::GroupMajority,
                support,
                voters,
            };
        }
        for l in (1..key.len()).rev() {
            let prefix = &key[..l];
            let tables = &pc.level_tables[l];
            let ex = exclude.filter(|&v| tables.group(prefix).is_some_and(|g| g.count(v) > 0));
            if let Some((value, support, voters)) = tables.group_majority(prefix, ex) {
                return Recommendation {
                    value,
                    basis: Basis::GroupMajority,
                    support,
                    voters,
                };
            }
        }
        let overall_exclude = exclude.filter(|&v| pc.tables.overall().count(v) > 0);
        if let Some(value) = pc.tables.overall_majority(overall_exclude) {
            return Recommendation {
                value,
                basis: Basis::GlobalMajority,
                support: 0,
                voters: 0,
            };
        }
        Recommendation {
            value: pc.default,
            basis: Basis::Default,
            support: 0,
            voters: 0,
        }
    }

    pub fn recommend_local_singular(
        &self,
        snapshot: &NetworkSnapshot,
        param: ParamId,
        carrier: CarrierId,
        loo: bool,
    ) -> Recommendation {
        debug_assert_eq!(snapshot.catalog.def(param).kind, ParamKind::Singular);
        let pc = self.param(param);
        let key = pc.key_for_carrier(&snapshot.carrier(carrier).attrs);
        let mut table = FreqTable::new();
        for n in snapshot.x2.k_hop_neighbors(carrier, self.config.hops) {
            let neighbor = snapshot.carrier(n);
            if pc.key_for_carrier(&neighbor.attrs) == key {
                table.add(snapshot.config.value(param, n));
            }
        }
        if let Some((value, support, total)) =
            table.majority_with_support_excluding(None, self.config.support)
        {
            return Recommendation {
                value,
                basis: Basis::LocalVote,
                support,
                voters: total,
            };
        }
        let exclude = loo.then(|| snapshot.config.value(param, carrier));
        self.recommend_global(param, &key, exclude)
    }

    pub fn recommend_local_pair(
        &self,
        snapshot: &NetworkSnapshot,
        param: ParamId,
        pair: PairIdx,
        loo: bool,
    ) -> Recommendation {
        debug_assert_eq!(snapshot.catalog.def(param).kind, ParamKind::Pairwise);
        let pc = self.param(param);
        let (j, k) = snapshot.x2.pair(pair);
        let key = pc.key_for_pair(&snapshot.carrier(j).attrs, &snapshot.carrier(k).attrs);
        let mut table = FreqTable::new();
        let mut sources = vec![j];
        sources.extend(snapshot.x2.k_hop_neighbors(j, self.config.hops));
        for src in sources {
            for q in snapshot.x2.pairs_from(src) {
                if q == pair {
                    continue; // never vote for ourselves
                }
                let (a, b) = snapshot.x2.pair(q);
                let qkey = pc.key_for_pair(&snapshot.carrier(a).attrs, &snapshot.carrier(b).attrs);
                if qkey == key {
                    table.add(snapshot.config.pair_value(param, q));
                }
            }
        }
        if let Some((value, support, total)) =
            table.majority_with_support_excluding(None, self.config.support)
        {
            return Recommendation {
                value,
                basis: Basis::LocalVote,
                support,
                voters: total,
            };
        }
        let exclude = loo.then(|| snapshot.config.pair_value(param, pair));
        self.recommend_global(param, &key, exclude)
    }
}

fn fit_param(
    snapshot: &NetworkSnapshot,
    scope: &Scope,
    param: ParamId,
    config: &CfConfig,
) -> LegacyParamCf {
    let dependent = if config.marginal_selection {
        legacy_select_dependent_marginal(snapshot, scope, param, config.alpha)
    } else {
        legacy_select_dependent(snapshot, scope, param, config.alpha)
    };
    let def = snapshot.catalog.def(param);
    let n_prefixes = dependent.len();
    let mut pc = LegacyParamCf {
        param,
        dependent,
        tables: LegacyVoteTables::new(),
        level_tables: (0..n_prefixes).map(|_| LegacyVoteTables::new()).collect(),
        default: def.default,
    };
    let record = |pc: &mut LegacyParamCf, key: LegacyVoteKey, value: ValueIdx| {
        for l in 0..pc.level_tables.len() {
            pc.level_tables[l].add(key[..l].to_vec(), value);
        }
        pc.tables.add(key, value);
    };
    match def.kind {
        ParamKind::Singular => {
            for &c in &scope.carriers {
                let key = pc.key_for_carrier(&snapshot.carrier(c).attrs);
                let v = snapshot.config.value(param, c);
                record(&mut pc, key, v);
            }
        }
        ParamKind::Pairwise => {
            for &q in &scope.pairs {
                let (j, k) = snapshot.x2.pair(q);
                let key = pc.key_for_pair(&snapshot.carrier(j).attrs, &snapshot.carrier(k).attrs);
                let v = snapshot.config.pair_value(param, q);
                record(&mut pc, key, v);
            }
        }
    }
    pc
}

// ---------------------------------------------------------------------------
// Frozen pre-optimization dependency selection
// ---------------------------------------------------------------------------
//
// `crate::dependency` now interns strata into dense ids and prefilters
// Cochran-ineligible strata before building any contingency table; the
// copy below is the original per-candidate `HashMap<Vec<AttrValue>, _>`
// stratification it replaced, kept verbatim so `LegacyCfModel::fit` times
// the genuine pre-PR baseline end to end. The selected sets must stay
// identical — the equivalence suite asserts it per parameter.

struct LegacySamples {
    values: Vec<usize>,
    n_value_cols: usize,
    levels: Vec<Vec<AttrValue>>,
    candidates: Vec<PredictorAttr>,
    cards: Vec<usize>,
}

fn legacy_collect_samples(
    snapshot: &NetworkSnapshot,
    scope: &Scope,
    param: ParamId,
) -> LegacySamples {
    let kind = snapshot.catalog.def(param).kind;
    let raw_values: Vec<u16> = match kind {
        ParamKind::Singular => scope
            .carriers
            .iter()
            .map(|&c| snapshot.config.value(param, c))
            .collect(),
        ParamKind::Pairwise => scope
            .pairs
            .iter()
            .map(|&p| snapshot.config.pair_value(param, p))
            .collect(),
    };
    let mut value_col: HashMap<u16, usize> = HashMap::new();
    let mut values = Vec::with_capacity(raw_values.len());
    for v in raw_values {
        let next = value_col.len();
        values.push(*value_col.entry(v).or_insert(next));
    }

    let candidates: Vec<PredictorAttr> = match kind {
        ParamKind::Singular => snapshot.schema.attr_ids().map(PredictorAttr::src).collect(),
        ParamKind::Pairwise => snapshot
            .schema
            .attr_ids()
            .map(PredictorAttr::src)
            .chain(snapshot.schema.attr_ids().map(PredictorAttr::dst))
            .collect(),
    };
    let cards = candidates
        .iter()
        .map(|pa| snapshot.schema.cardinality(pa.attr))
        .collect();
    let levels = candidates
        .iter()
        .map(|pa| level_column(snapshot, scope, kind, pa))
        .collect();
    LegacySamples {
        values,
        n_value_cols: value_col.len(),
        levels,
        candidates,
        cards,
    }
}

fn level_column(
    snapshot: &NetworkSnapshot,
    scope: &Scope,
    kind: ParamKind,
    pa: &PredictorAttr,
) -> Vec<AttrValue> {
    let attr: AttrId = pa.attr;
    match kind {
        ParamKind::Singular => scope
            .carriers
            .iter()
            .map(|&c| snapshot.carrier(c).attrs.get(attr))
            .collect(),
        ParamKind::Pairwise => scope
            .pairs
            .iter()
            .map(|&p| {
                let (j, k) = snapshot.x2.pair(p);
                match pa.side {
                    Side::Src => snapshot.carrier(j).attrs.get(attr),
                    Side::Dst => snapshot.carrier(k).attrs.get(attr),
                }
            })
            .collect(),
    }
}

fn legacy_marginal_test(samples: &LegacySamples, c: usize, alpha: f64) -> (f64, bool) {
    let mut table = ContingencyTable::new(samples.cards[c], samples.n_value_cols);
    for (i, &vcol) in samples.values.iter().enumerate() {
        table.add(samples.levels[c][i] as usize, vcol, 1);
    }
    let test = table.independence_test(alpha);
    (test.statistic, test.dependent)
}

fn legacy_conditional_test(
    samples: &LegacySamples,
    c: usize,
    selected: &[usize],
    alpha: f64,
) -> bool {
    let mut strata: HashMap<Vec<AttrValue>, ContingencyTable> = HashMap::new();
    for (i, &vcol) in samples.values.iter().enumerate() {
        let key: Vec<AttrValue> = selected.iter().map(|&s| samples.levels[s][i]).collect();
        strata
            .entry(key)
            .or_insert_with(|| ContingencyTable::new(samples.cards[c], samples.n_value_cols))
            .add(samples.levels[c][i] as usize, vcol, 1);
    }
    let mut stat = 0.0;
    let mut df = 0usize;
    for table in strata.values() {
        let d = table.effective_df();
        if d == 0 {
            continue;
        }
        if table.total() < 5 * d as u64 {
            continue;
        }
        stat += table.chi2_statistic();
        df += d;
    }
    df > 0 && stat > chi2_critical(df, alpha)
}

fn legacy_select_dependent(
    snapshot: &NetworkSnapshot,
    scope: &Scope,
    param: ParamId,
    alpha: f64,
) -> Vec<PredictorAttr> {
    let samples = legacy_collect_samples(snapshot, scope, param);
    if samples.values.is_empty() {
        return Vec::new();
    }
    let mut ranked: Vec<(usize, f64)> = (0..samples.candidates.len())
        .filter_map(|c| {
            let (stat, dependent) = legacy_marginal_test(&samples, c, alpha);
            dependent.then_some((c, stat))
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut selected: Vec<usize> = Vec::new();
    for &(c, _) in &ranked {
        if selected.is_empty() || legacy_conditional_test(&samples, c, &selected, alpha) {
            selected.push(c);
        }
    }
    selected.iter().map(|&c| samples.candidates[c]).collect()
}

fn legacy_select_dependent_marginal(
    snapshot: &NetworkSnapshot,
    scope: &Scope,
    param: ParamId,
    alpha: f64,
) -> Vec<PredictorAttr> {
    let samples = legacy_collect_samples(snapshot, scope, param);
    (0..samples.candidates.len())
        .filter(|&c| legacy_marginal_test(&samples, c, alpha).1)
        .map(|c| samples.candidates[c])
        .collect()
}
