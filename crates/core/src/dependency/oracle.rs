//! Slow oracle for the dependency-selection kernels: the previous dense
//! implementation, kept verbatim except that the conditional test
//! returns its summed statistic instead of the decision.
//!
//! - values are indexed through a `HashMap<u16, usize>`;
//! - every candidate's level column is gathered over *all* samples;
//! - [`Strata`] interns `(stratum, level)` for every sample, filtered or
//!   not, and numbers strata in first-appearance order;
//! - the conditional test sweeps a dense [`ContingencyTable`] per stratum.
//!
//! The differential tests below run it against the production kernels on
//! synthetic columns the generator never produces and require identical
//! selections, `to_bits`-equal statistics, and production strata equal
//! to the oracle's strata that hold at least two distinct values.

use super::{Conditional, PredictorAttr, Side};
use crate::scope::Scope;
use auric_model::{AttrArena, AttrValue, NetworkSnapshot, ParamId, ParamKind};
use auric_stats::chi2::chi2_critical;
use auric_stats::contingency::ContingencyTable;
use std::collections::HashMap;

struct Samples<'a> {
    values: Vec<usize>,
    n_value_cols: usize,
    candidates: Vec<PredictorAttr>,
    cards: Vec<usize>,
    arena: &'a AttrArena,
    scope: &'a Scope,
    kind: ParamKind,
}

fn collect_samples<'a>(
    arena: &'a AttrArena,
    snapshot: &NetworkSnapshot,
    scope: &'a Scope,
    param: ParamId,
) -> Samples<'a> {
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
    Samples {
        values,
        n_value_cols: value_col.len(),
        candidates,
        cards,
        arena,
        scope,
        kind,
    }
}

impl Samples<'_> {
    fn len(&self) -> usize {
        self.values.len()
    }

    fn levels_into(&self, c: usize, out: &mut Vec<AttrValue>) {
        out.clear();
        let pa = self.candidates[c];
        let col = self.arena.column(pa.attr);
        match self.kind {
            ParamKind::Singular => {
                out.extend(self.scope.carriers.iter().map(|&c| col[c.index()]));
            }
            ParamKind::Pairwise => {
                let ends = match pa.side {
                    Side::Src => self.arena.pair_src(),
                    Side::Dst => self.arena.pair_dst(),
                };
                out.extend(
                    self.scope
                        .pairs
                        .iter()
                        .map(|&p| col[ends[p as usize] as usize]),
                );
            }
        }
    }
}

fn marginal_test(samples: &Samples, levels: &[AttrValue], c: usize, alpha: f64) -> (f64, bool) {
    let mut table = ContingencyTable::new(samples.cards[c], samples.n_value_cols);
    for (i, &vcol) in samples.values.iter().enumerate() {
        table.add(levels[i] as usize, vcol, 1);
    }
    let test = table.independence_test(alpha);
    (test.statistic, test.dependent)
}

struct Strata {
    ids: Vec<u32>,
    n_strata: usize,
    order: Vec<u32>,
    starts: Vec<u32>,
    compact: Vec<u32>,
    n_compact: usize,
}

impl Strata {
    fn root(n_samples: usize) -> Self {
        let mut s = Self {
            ids: vec![0; n_samples],
            n_strata: 1,
            order: Vec::new(),
            starts: Vec::new(),
            compact: Vec::new(),
            n_compact: 0,
        };
        s.requalify();
        s
    }

    fn refine(&mut self, levels: &[AttrValue]) {
        let mut intern: HashMap<u64, u32> = HashMap::with_capacity(self.n_strata * 2);
        for (id, &lv) in self.ids.iter_mut().zip(levels) {
            let key = ((*id as u64) << 16) | lv as u64;
            let next = intern.len() as u32;
            *id = *intern.entry(key).or_insert(next);
        }
        self.n_strata = intern.len();
        self.requalify();
    }

    fn requalify(&mut self) {
        let mut counts = vec![0u32; self.n_strata];
        for &id in &self.ids {
            counts[id as usize] += 1;
        }
        self.compact.clear();
        self.compact.resize(self.n_strata, u32::MAX);
        self.n_compact = 0;
        let mut n_active = 0u32;
        for (s, &ct) in counts.iter().enumerate() {
            if ct >= 5 {
                self.compact[s] = self.n_compact as u32;
                self.n_compact += 1;
                n_active += ct;
            }
        }
        self.starts.clear();
        self.starts.reserve(self.n_compact + 1);
        let mut acc = 0u32;
        for &ct in counts.iter() {
            if ct >= 5 {
                self.starts.push(acc);
                acc += ct;
            }
        }
        self.starts.push(acc);
        debug_assert_eq!(acc, n_active);
        self.order.clear();
        self.order.resize(n_active as usize, 0);
        let mut cursor: Vec<u32> = self.starts[..self.n_compact].to_vec();
        for (i, &id) in self.ids.iter().enumerate() {
            let t = self.compact[id as usize];
            if t == u32::MAX {
                continue;
            }
            self.order[cursor[t as usize] as usize] = i as u32;
            cursor[t as usize] += 1;
        }
    }

    fn stratum(&self, t: usize) -> &[u32] {
        &self.order[self.starts[t] as usize..self.starts[t + 1] as usize]
    }
}

fn conditional_test(
    samples: &Samples,
    levels: &[AttrValue],
    c: usize,
    strata: &Strata,
) -> Conditional {
    let mut table = ContingencyTable::new(samples.cards[c], samples.n_value_cols);
    let mut stat = 0.0;
    let mut df = 0usize;
    for t in 0..strata.n_compact {
        table.reset();
        for &i in strata.stratum(t) {
            let i = i as usize;
            table.add(levels[i] as usize, samples.values[i], 1);
        }
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
    Conditional { stat, df }
}

/// The dense conditional selection.
fn select(
    arena: &AttrArena,
    snapshot: &NetworkSnapshot,
    scope: &Scope,
    param: ParamId,
    alpha: f64,
    obs: &auric_obs::Recorder,
) -> Vec<PredictorAttr> {
    let samples = collect_samples(arena, snapshot, scope, param);
    if samples.values.is_empty() {
        return Vec::new();
    }
    obs.add("cf.dep.marginal_tests", samples.candidates.len() as u64);
    obs.gauge_max(
        "cf.dep.scratch.bytes",
        (samples.len() * std::mem::size_of::<AttrValue>()) as u64,
    );
    let mut levels: Vec<AttrValue> = Vec::with_capacity(samples.len());
    let mut ranked: Vec<(usize, f64)> = (0..samples.candidates.len())
        .filter_map(|c| {
            samples.levels_into(c, &mut levels);
            let (stat, dependent) = marginal_test(&samples, &levels, c, alpha);
            dependent.then_some((c, stat))
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut selected: Vec<usize> = Vec::new();
    let mut strata = Strata::root(samples.len());
    for &(c, _) in &ranked {
        samples.levels_into(c, &mut levels);
        let admit = if selected.is_empty() {
            true
        } else {
            obs.inc("cf.dep.conditional_tests");
            let test = conditional_test(&samples, &levels, c, &strata);
            test.df > 0 && test.stat > chi2_critical(test.df, alpha)
        };
        if admit {
            strata.refine(&levels);
            selected.push(c);
        }
    }
    selected.iter().map(|&c| samples.candidates[c]).collect()
}

/// The dense marginal selection.
fn select_marginal(
    arena: &AttrArena,
    snapshot: &NetworkSnapshot,
    scope: &Scope,
    param: ParamId,
    alpha: f64,
    obs: &auric_obs::Recorder,
) -> Vec<PredictorAttr> {
    let samples = collect_samples(arena, snapshot, scope, param);
    obs.add("cf.dep.marginal_tests", samples.candidates.len() as u64);
    let mut levels: Vec<AttrValue> = Vec::with_capacity(samples.len());
    (0..samples.candidates.len())
        .filter(|&c| {
            samples.levels_into(c, &mut levels);
            marginal_test(&samples, &levels, c, alpha).1
        })
        .map(|c| samples.candidates[c])
        .collect()
}

mod tests {
    use super::super::{
        conditional_test as fast_conditional, marginal_test as fast_marginal, ranked_candidates,
        SelectOptions, Selector, Strata as FastStrata,
    };
    use super::*;
    use auric_model::{AttrId, CarrierId, Provenance};
    use auric_netgen::{generate, NetScale, TuningKnobs};
    use auric_obs::Recorder;
    use proptest::prelude::*;
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::OnceLock;

    const ALPHAS: [f64; 4] = [0.5, 0.05, 0.01, 1e-4];

    fn tiny() -> &'static NetworkSnapshot {
        static NET: OnceLock<NetworkSnapshot> = OnceLock::new();
        NET.get_or_init(|| generate(&NetScale::tiny(), &TuningKnobs::default()).snapshot)
    }

    /// Walks the greedy selection with both kernels side by side and
    /// compares every intermediate: value columns, marginal statistics,
    /// each conditional statistic (bit for bit) and the strata after every
    /// refinement.
    fn lockstep(
        arena: &AttrArena,
        snap: &NetworkSnapshot,
        scope: &Scope,
        param: ParamId,
        alpha: f64,
    ) -> Result<(), TestCaseError> {
        let obs = Recorder::disabled();
        let opts = SelectOptions {
            alpha,
            marginal: false,
            obs: &obs,
        };
        let selector = Selector::new(arena, snap, scope, opts);
        let fast = selector.samples(param);
        let slow = collect_samples(arena, snap, scope, param);
        let slow_values: Vec<u32> = slow.values.iter().map(|&v| v as u32).collect();
        prop_assert_eq!(&fast.values, &slow_values);
        prop_assert_eq!(fast.n_value_cols, slow.n_value_cols);
        if slow.len() == 0 {
            return Ok(());
        }
        let mut slow_levels = Vec::new();
        let critical = &selector.critical;
        for c in 0..slow.candidates.len() {
            slow.levels_into(c, &mut slow_levels);
            let (s, d) = marginal_test(&slow, &slow_levels, c, alpha);
            let (f, e) = fast_marginal(&fast, c, critical);
            prop_assert_eq!((f.to_bits(), e), (s.to_bits(), d), "marginal {}", c);
        }

        let ranked = ranked_candidates(&fast, critical);
        let mut fast_strata = FastStrata::root(&fast.values, fast.n_value_cols);
        let mut slow_strata = Strata::root(slow.len());
        same_strata(&fast_strata, &slow_strata, &slow_values)?;
        let mut levels = Vec::new();
        let mut n_selected = 0;
        for &(c, _) in &ranked {
            fast.levels_at(c, &fast_strata.idx, &mut levels);
            slow.levels_into(c, &mut slow_levels);
            let f = fast_conditional(&fast, &levels, c, &fast_strata);
            let s = conditional_test(&slow, &slow_levels, c, &slow_strata);
            prop_assert_eq!(
                (f.stat.to_bits(), f.df),
                (s.stat.to_bits(), s.df),
                "conditional {} after {} admitted",
                c,
                n_selected
            );
            if n_selected == 0 || f.dependent(critical) {
                n_selected += 1;
                fast_strata.refine(&levels, fast.cards[c]);
                slow_strata.refine(&slow_levels);
                same_strata(&fast_strata, &slow_strata, &slow_values)?;
            }
        }
        Ok(())
    }

    /// The production strata are the oracle's strata with at least two
    /// distinct values, in the same order, each holding the same samples
    /// sorted by value column and carrying its value histogram as runs.
    fn same_strata(fast: &FastStrata, slow: &Strata, values: &[u32]) -> Result<(), TestCaseError> {
        let mut t_fast = 0;
        for t in 0..slow.n_compact {
            let members = slow.stratum(t);
            let mut runs: Vec<(u32, u32)> = Vec::new();
            let mut cols: Vec<u32> = members.iter().map(|&i| values[i as usize]).collect();
            cols.sort_unstable();
            for b in cols {
                match runs.last_mut() {
                    Some((col, len)) if *col == b => *len += 1,
                    _ => runs.push((b, 1)),
                }
            }
            if runs.len() < 2 {
                continue;
            }
            prop_assert!(t_fast < fast.n_strata(), "missing stratum {}", t);
            let range = fast.range(t_fast);
            let mut got = fast.idx[range.clone()].to_vec();
            got.sort_unstable();
            prop_assert_eq!(got.as_slice(), members);
            let vals: Vec<u32> = fast.idx[range.clone()]
                .iter()
                .map(|&i| values[i as usize])
                .collect();
            prop_assert_eq!(&fast.vals[range], vals.as_slice());
            let fast_runs: Vec<(u32, u32)> =
                fast.runs(t_fast).iter().map(|r| (r.col, r.len)).collect();
            prop_assert_eq!(fast_runs, runs);
            t_fast += 1;
        }
        prop_assert_eq!(t_fast, fast.n_strata());
        Ok(())
    }

    /// The production entry point against the oracle's, both flavors:
    /// same selections, same `cf.dep.*` counters and scratch gauge.
    fn end_to_end(
        arena: &AttrArena,
        snap: &NetworkSnapshot,
        scope: &Scope,
        param: ParamId,
        alpha: f64,
    ) -> Result<(), TestCaseError> {
        for marginal in [false, true] {
            let fast_obs = Recorder::deterministic();
            let opts = SelectOptions {
                alpha,
                marginal,
                obs: &fast_obs,
            };
            let fast = Selector::new(arena, snap, scope, opts).select(param);
            let slow_obs = Recorder::deterministic();
            let slow = match (marginal, scope_len(snap, scope, param)) {
                // The dense marginal path cannot build a zero-column table.
                (true, 0) => Vec::new(),
                (true, _) => select_marginal(arena, snap, scope, param, alpha, &slow_obs),
                (false, _) => select(arena, snap, scope, param, alpha, &slow_obs),
            };
            prop_assert_eq!(&fast, &slow, "marginal={}", marginal);
            for name in ["cf.dep.marginal_tests", "cf.dep.conditional_tests"] {
                prop_assert_eq!(fast_obs.counter(name), slow_obs.counter(name), "{}", name);
            }
            prop_assert_eq!(
                fast_obs.gauge("cf.dep.scratch.bytes"),
                slow_obs.gauge("cf.dep.scratch.bytes")
            );
        }
        Ok(())
    }

    fn scope_len(snap: &NetworkSnapshot, scope: &Scope, param: ParamId) -> usize {
        match snap.catalog.def(param).kind {
            ParamKind::Singular => scope.carriers.len(),
            ParamKind::Pairwise => scope.pairs.len(),
        }
    }

    /// Overwrites `snap`'s attribute columns and the values of `params`
    /// with synthetic data, and draws a scope. Attribute columns are
    /// constant, gapped (two or three levels scattered over the
    /// cardinality), blocked (runs of exactly 4, 5 or 6 carriers, one
    /// level each), uniform over the full cardinality, or a coarsening of
    /// an earlier column; parameter values are single-valued, a noisy
    /// function of up to two attributes, or uniform over a gapped palette.
    fn synthesize(snap: &mut NetworkSnapshot, params: &[ParamId], rng: &mut ChaCha8Rng) -> Scope {
        let n = snap.n_carriers();
        let n_attrs = snap.schema.n_attrs();
        let mut columns: Vec<Vec<AttrValue>> = Vec::with_capacity(n_attrs);
        for a in 0..n_attrs {
            let card = snap.schema.cardinality(AttrId(a as u8)) as u16;
            let col: Vec<AttrValue> = match rng.random_range(0..5u32) {
                0 => vec![rng.random_range(0..card); n],
                1 => {
                    let palette: Vec<u16> = (0..rng.random_range(2..4usize))
                        .map(|_| rng.random_range(0..card))
                        .collect();
                    (0..n)
                        .map(|_| palette[rng.random_range(0..palette.len())])
                        .collect()
                }
                2 => {
                    let mut col = Vec::with_capacity(n);
                    let mut block = 0u16;
                    while col.len() < n {
                        let run = rng.random_range(4..7usize).min(n - col.len());
                        col.resize(col.len() + run, block % card);
                        block += 1;
                    }
                    col
                }
                3 => (0..n).map(|_| rng.random_range(0..card)).collect(),
                _ if a > 0 => {
                    let src = &columns[rng.random_range(0..a)];
                    let div = rng.random_range(1..4u16);
                    src.iter().map(|&l| (l / div) % card).collect()
                }
                _ => vec![0; n],
            };
            columns.push(col);
        }
        for (c, carrier) in snap.carriers.iter_mut().enumerate() {
            for (a, col) in columns.iter().enumerate() {
                carrier.attrs.set(AttrId(a as u8), col[c]);
            }
        }

        for &p in params {
            let palette: Vec<u16> = (0..rng.random_range(1..6usize))
                .map(|_| rng.random_range(0..400u16))
                .collect();
            let (a, b) = (rng.random_range(0..n_attrs), rng.random_range(0..n_attrs));
            let mode = rng.random_range(0..3u32);
            let noise = [0.0, 0.1, 0.4][rng.random_range(0..3usize)];
            let value = |la: u16, lb: u16, rng: &mut ChaCha8Rng| match mode {
                0 => palette[0],
                1 if !rng.random_bool(noise) => {
                    palette[(la as usize * 3 + lb as usize) % palette.len()]
                }
                _ => palette[rng.random_range(0..palette.len())],
            };
            match snap.catalog.def(p).kind {
                ParamKind::Singular => {
                    for (c, (&la, &lb)) in columns[a].iter().zip(&columns[b]).enumerate() {
                        let v = value(la, lb, rng);
                        let id = CarrierId::from_index(c);
                        snap.config.set_value(p, id, v, Provenance::Rule);
                    }
                }
                ParamKind::Pairwise => {
                    let pairs: Vec<_> = snap.x2.pairs().collect();
                    for (q, j, k) in pairs {
                        let v = value(columns[a][j.index()], columns[b][k.index()], rng);
                        snap.config.set_pair_value(p, q, v, Provenance::Rule);
                    }
                }
            }
        }

        // Scopes under 5 samples are common; otherwise a random subset.
        let keep = |len: usize, rng: &mut ChaCha8Rng| -> Vec<usize> {
            if rng.random_bool(0.2) {
                let k = rng.random_range(0..5usize).min(len);
                let start = rng.random_range(0..=len - k);
                (start..start + k).collect()
            } else {
                let p = rng.random_range(0.1..1.0);
                (0..len).filter(|_| rng.random_bool(p)).collect()
            }
        };
        Scope {
            carriers: keep(n, rng)
                .into_iter()
                .map(CarrierId::from_index)
                .collect(),
            pairs: keep(snap.x2.n_pairs(), rng)
                .into_iter()
                .map(|q| q as auric_model::PairIdx)
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn sparse_kernels_match_the_dense_oracle(seed in 0u64..u64::MAX, alpha_at in 0usize..4) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut snap = tiny().clone();
            let singular: Vec<ParamId> = snap.catalog.singular_ids().collect();
            let pairwise: Vec<ParamId> = snap.catalog.pairwise_ids().collect();
            let params = [
                singular[rng.random_range(0..singular.len())],
                pairwise[rng.random_range(0..pairwise.len())],
            ];
            let scope = synthesize(&mut snap, &params, &mut rng);
            let arena = AttrArena::from_snapshot(&snap);
            let alpha = ALPHAS[alpha_at];
            for p in params {
                lockstep(&arena, &snap, &scope, p, alpha)?;
                end_to_end(&arena, &snap, &scope, p, alpha)?;
            }
        }
    }

    /// The tiny snapshot with every attribute at level 0 except the two
    /// of largest cardinality, `a` and `b`, whose levels come from
    /// `levels(c)`; the first singular parameter takes `value(c)`. The
    /// scope is `scope`'s carriers.
    fn crafted(
        levels: impl Fn(usize) -> (u16, u16),
        value: impl Fn(usize) -> u16,
        scope: std::ops::Range<usize>,
    ) -> (NetworkSnapshot, ParamId, Scope, [AttrId; 2]) {
        let mut snap = tiny().clone();
        let mut by_card: Vec<AttrId> = snap.schema.attr_ids().collect();
        by_card.sort_by_key(|&a| std::cmp::Reverse(snap.schema.cardinality(a)));
        let (a, b) = (by_card[0], by_card[1]);
        assert!(snap.schema.cardinality(b) >= 3);
        for (c, carrier) in snap.carriers.iter_mut().enumerate() {
            for attr in &by_card {
                carrier.attrs.set(*attr, 0);
            }
            let (la, lb) = levels(c);
            carrier.attrs.set(a, la);
            carrier.attrs.set(b, lb);
        }
        let p = snap.catalog.singular_ids().next().unwrap();
        for c in 0..snap.n_carriers() {
            let id = CarrierId::from_index(c);
            snap.config.set_value(p, id, value(c), Provenance::Rule);
        }
        assert!(scope.end <= snap.n_carriers());
        let scope = Scope {
            carriers: scope.map(CarrierId::from_index).collect(),
            pairs: Vec::new(),
        };
        (snap, p, scope, [a, b])
    }

    /// Refines the root strata of `p` over `scope` by each attribute of
    /// `by` in turn, through the production kernels.
    fn refined(
        arena: &AttrArena,
        snap: &NetworkSnapshot,
        scope: &Scope,
        p: ParamId,
        by: &[AttrId],
    ) -> FastStrata {
        let obs = Recorder::disabled();
        let opts = SelectOptions {
            alpha: 0.01,
            marginal: false,
            obs: &obs,
        };
        let selector = Selector::new(arena, snap, scope, opts);
        let fast = selector.samples(p);
        let mut strata = FastStrata::root(&fast.values, fast.n_value_cols);
        let mut levels = Vec::new();
        for &attr in by {
            let c = fast
                .candidates
                .iter()
                .position(|pa| pa.attr == attr)
                .unwrap();
            fast.levels_at(c, &strata.idx, &mut levels);
            strata.refine(&levels, fast.cards[c]);
        }
        strata
    }

    /// Two attributes that alternate with the carrier index: `a` splits
    /// the scope into even and odd carriers, then `b` splits each half,
    /// so the new strata's first samples are 0, 1, 2, 3 and alternate
    /// between the two parent strata. Refinement must order them by first
    /// sample, across parents, exactly as the dense oracle does.
    #[test]
    fn refinement_orders_new_strata_across_parent_strata() {
        let (snap, p, scope, [a, b]) = crafted(
            |c| ((c % 2) as u16, (c / 2 % 2) as u16),
            |c| (10 + 2 * (c % 2) + 4 * (c / 2 % 2) + c / 4 % 2) as u16,
            0..tiny().n_carriers(),
        );
        let arena = AttrArena::from_snapshot(&snap);
        let strata = refined(&arena, &snap, &scope, p, &[a, b]);
        let firsts: Vec<u32> = (0..strata.n_strata())
            .map(|t| *strata.idx[strata.range(t)].iter().min().unwrap())
            .collect();
        assert_eq!(firsts, [0, 1, 2, 3]);
        // Both are admitted, so the lockstep walk below compares the
        // second refinement with the oracle's too.
        let obs = Recorder::disabled();
        let opts = SelectOptions {
            alpha: 0.01,
            marginal: false,
            obs: &obs,
        };
        assert_eq!(
            Selector::new(&arena, &snap, &scope, opts).select(p).len(),
            2
        );
        for alpha in ALPHAS {
            lockstep(&arena, &snap, &scope, p, alpha).unwrap();
            end_to_end(&arena, &snap, &scope, p, alpha).unwrap();
        }
    }

    /// A split that leaves exactly `MIN_STRATUM` samples keeps that
    /// stratum, and one that leaves one fewer drops it: `a` puts carriers
    /// 0..5 on level 0, 5..9 on level 1 and the rest of the scope on
    /// level 2, each with two values.
    #[test]
    fn refinement_keeps_a_split_of_exactly_min_stratum_samples() {
        let level = |c: usize| match c {
            0..5 => 0,
            5..9 => 1,
            _ => 2,
        };
        let (snap, p, scope, [a, _]) = crafted(
            |c| (level(c), 0),
            |c| (1 + 2 * level(c) as usize + c % 2) as u16,
            0..40,
        );
        let arena = AttrArena::from_snapshot(&snap);
        let strata = refined(&arena, &snap, &scope, p, &[a]);
        let sizes: Vec<usize> = (0..strata.n_strata())
            .map(|t| strata.range(t).len())
            .collect();
        assert_eq!(sizes, [super::super::MIN_STRATUM as usize, 31]);
        for alpha in ALPHAS {
            lockstep(&arena, &snap, &scope, p, alpha).unwrap();
            end_to_end(&arena, &snap, &scope, p, alpha).unwrap();
        }
    }

    /// Runs every parameter through one selector per flavor, the way a
    /// fit or a delta batch shares one, and requires the oracle's
    /// selection for each. Returns how many selections were non-empty.
    fn one_selector_matches(
        arena: &AttrArena,
        snap: &NetworkSnapshot,
        scope: &Scope,
        alpha: f64,
    ) -> usize {
        let mut non_empty = 0;
        for marginal in [false, true] {
            let obs = Recorder::disabled();
            let opts = SelectOptions {
                alpha,
                marginal,
                obs: &obs,
            };
            let selector = Selector::new(arena, snap, scope, opts);
            for p in snap.catalog.param_ids() {
                let slow = match (marginal, scope_len(snap, scope, p)) {
                    (true, 0) => Vec::new(),
                    (true, _) => select_marginal(arena, snap, scope, p, alpha, &obs),
                    (false, _) => select(arena, snap, scope, p, alpha, &obs),
                };
                let fast = selector.select(p);
                assert_eq!(fast, slow, "{p:?}, marginal={marginal}, alpha {alpha}");
                non_empty += !fast.is_empty() as usize;
            }
        }
        non_empty
    }

    #[test]
    fn one_selector_per_scope_matches_the_oracle() {
        let scale = NetScale {
            n_markets: 3,
            ..NetScale::tiny()
        };
        let snap = generate(&scale, &TuningKnobs::default()).snapshot;
        let arena = AttrArena::from_snapshot(&snap);
        // Market 1's windows start and end inside the fleet's.
        let inner = Scope::market(&snap, snap.markets[1].id);
        assert!(inner.carrier_window().start > 0 && inner.pair_window().start > 0);
        assert!(inner.carrier_window().end < snap.n_carriers());
        let under_5 = Scope {
            carriers: inner.carriers[..4].to_vec(),
            pairs: inner.pairs[..4].to_vec(),
        };
        let empty = Scope::markets(&snap, &[]);
        for alpha in ALPHAS {
            let whole = one_selector_matches(&arena, &snap, &Scope::whole(&snap), alpha);
            assert!(whole > 0);
            assert!(one_selector_matches(&arena, &snap, &inner, alpha) > 0);
            one_selector_matches(&arena, &snap, &under_5, alpha);
            assert_eq!(one_selector_matches(&arena, &snap, &empty, alpha), 0);
        }

        // One singular and one pair-wise parameter single-valued over
        // the scope: neither selects anything, the others still do.
        let mut flat = snap.clone();
        let singular = flat.catalog.singular_ids().next().unwrap();
        let pairwise = flat.catalog.pairwise_ids().next().unwrap();
        for &c in &inner.carriers {
            flat.config.set_value(singular, c, 3, Provenance::Rule);
        }
        for &q in &inner.pairs {
            flat.config.set_pair_value(pairwise, q, 3, Provenance::Rule);
        }
        let obs = Recorder::disabled();
        for alpha in ALPHAS {
            assert!(one_selector_matches(&arena, &flat, &inner, alpha) > 0);
            for marginal in [false, true] {
                let opts = SelectOptions {
                    alpha,
                    marginal,
                    obs: &obs,
                };
                let selector = Selector::new(&arena, &flat, &inner, opts);
                assert!(selector.select(singular).is_empty());
                assert!(selector.select(pairwise).is_empty());
            }
        }
    }

    #[test]
    fn sparse_kernels_match_the_dense_oracle_on_generated_networks() {
        let snap = tiny();
        let arena = AttrArena::from_snapshot(snap);
        let whole = Scope::whole(snap);
        let market = Scope::market(snap, auric_model::MarketId::from_index(0));
        for scope in [&whole, &market] {
            for p in snap.catalog.param_ids() {
                for alpha in ALPHAS {
                    lockstep(&arena, snap, scope, p, alpha).unwrap();
                    end_to_end(&arena, snap, scope, p, alpha).unwrap();
                }
            }
        }
    }
}
