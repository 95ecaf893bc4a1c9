//! Dependency learning: chi-square tests of independence between carrier
//! attributes and configuration parameters (§3.2, Eq. 3–4, Fig. 9).
//!
//! For each parameter, candidate attributes are tested against the
//! parameter's value distribution over the learning scope; those whose
//! statistic exceeds the critical value at the chosen significance level
//! (`p = 0.01` in the paper) are *dependent*. This is the step that
//! "eliminates the irrelevant attributes", which §3.2 credits for
//! collaborative filtering beating distance-based learners.
//!
//! **Redundancy control.** Carrier attributes are heavily correlated
//! (tracking areas nest inside markets, bandwidth tracks the frequency
//! band, hardware tracks the vendor, ...), so at operational sample sizes
//! a marginal chi-square test flags nearly *every* attribute — and an
//! exact-match key over two dozen attributes fragments the vote groups
//! into singletons. We therefore select greedily: attributes are ranked by
//! marginal statistic, and each is admitted only if it is still
//! significant *conditional on* the attributes already selected
//! (a stratified Cochran–Mantel–Haenszel-style sum of per-stratum
//! chi-square statistics). A redundant correlate carries no conditional
//! information and is dropped; a genuinely complementary attribute
//! survives. The marginal-only variant is kept behind
//! [`SelectOptions::marginal`] for the ablation benches.

use crate::scope::Scope;
use auric_model::{AttrArena, AttrId, AttrValue, NetworkSnapshot, ParamId, ParamKind};
use auric_stats::chi2::chi2_critical;
use auric_stats::contingency::ContingencyTable;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Which endpoint of a directed pair an attribute is read from. Singular
/// parameters only use [`Side::Src`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Side {
    Src,
    Dst,
}

/// One predictor attribute: an attribute read from one side of the pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PredictorAttr {
    pub side: Side,
    pub attr: AttrId,
}

impl PredictorAttr {
    /// Shorthand for a source-side attribute.
    pub fn src(attr: AttrId) -> Self {
        Self {
            side: Side::Src,
            attr,
        }
    }

    /// Shorthand for a neighbor-side attribute.
    pub fn dst(attr: AttrId) -> Self {
        Self {
            side: Side::Dst,
            attr,
        }
    }
}

/// Strata with fewer observations than this never contribute evidence:
/// the Cochran guard below needs `total ≥ 5·d` for `d ≥ 1`.
const MIN_STRATUM: u32 = 5;

/// The per-sample view the tests run over: one dense value column plus the
/// shared arena the candidate level columns are read from.
///
/// Candidate levels are **not** materialized up front — with 28 candidates
/// over 2.2M pairwise samples that private copy is ~120 MB per concurrent
/// job. A candidate's level at sample `i` is read straight from its arena
/// column as `column[rows[side][i]]`. The rows belong to the [`Selector`]:
/// every parameter of one kind samples the same scope targets.
struct Samples<'a> {
    /// Dense value column index per sample, in first-appearance order.
    values: Vec<u32>,
    n_value_cols: usize,
    /// Arena row per sample, by [`Side`]: the carrier itself for singular
    /// parameters (`Src` only), the pair's endpoints for pair-wise ones.
    rows: [&'a [u32]; 2],
    /// The samples collapsed for marginal counting, by [`Side`]: runs of
    /// equal `(row, value)` in sample order (`Src`) and in endpoint order
    /// (`Dst`). See [`weighted_rows`].
    weighted: [Vec<WeightedRow>; 2],
    candidates: Vec<PredictorAttr>,
    cards: Vec<usize>,
    arena: &'a AttrArena,
}

/// The scope's sample rows for one parameter kind, shared by every
/// selection of that kind in one [`Selector`].
struct ScopeRows {
    /// Arena row per sample, by [`Side`] (see [`Samples::rows`]).
    rows: [Vec<u32>; 2],
    /// Sample indices in a stable counting sort by destination row, which
    /// brings each destination endpoint's pairs together; empty for
    /// singular parameters.
    by_dst: Vec<u32>,
}

impl ScopeRows {
    fn of(arena: &AttrArena, scope: &Scope, kind: ParamKind) -> Self {
        match kind {
            ParamKind::Singular => Self {
                rows: [
                    scope.carriers.iter().map(|c| c.index() as u32).collect(),
                    Vec::new(),
                ],
                by_dst: Vec::new(),
            },
            ParamKind::Pairwise => {
                let ends = |e: &[u32]| -> Vec<u32> {
                    scope.pairs.iter().map(|&p| e[p as usize]).collect()
                };
                let dst = ends(arena.pair_dst());
                Self {
                    by_dst: by_row(&dst),
                    rows: [ends(arena.pair_src()), dst],
                }
            }
        }
    }
}

/// The sample indices of `rows` in a stable counting sort by row, over
/// the rows' `min..=max` range.
fn by_row(rows: &[u32]) -> Vec<u32> {
    if rows.is_empty() {
        return Vec::new();
    }
    let (lo, hi) = rows
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    let n_rows = (hi - lo) as usize + 1;
    let mut at = vec![0u32; n_rows + 1];
    for &row in rows {
        at[(row - lo) as usize + 1] += 1;
    }
    for r in 0..n_rows {
        at[r + 1] += at[r];
    }
    let mut order = vec![0u32; rows.len()];
    for (i, &row) in rows.iter().enumerate() {
        let bucket = &mut at[(row - lo) as usize];
        order[*bucket as usize] = i as u32;
        *bucket += 1;
    }
    order
}

/// Materializes the value column of `param` over the scope of `rows`;
/// candidate levels stay in `arena`.
fn collect_samples<'a>(
    arena: &'a AttrArena,
    snapshot: &NetworkSnapshot,
    scope: &Scope,
    rows: &'a ScopeRows,
    param: ParamId,
) -> Samples<'a> {
    let kind = snapshot.catalog.def(param).kind;
    let mut values: Vec<u32> = match kind {
        ParamKind::Singular => {
            let raw = snapshot.config.values_of(param);
            scope
                .carriers
                .iter()
                .map(|c| raw[c.index()] as u32)
                .collect()
        }
        ParamKind::Pairwise => {
            let raw = snapshot.config.pair_values_of(param);
            scope
                .pairs
                .iter()
                .map(|&p| raw[p as usize] as u32)
                .collect()
        }
    };
    // Dense value-column index, assigned in first-appearance order: the
    // column order fixes the chi-square summation order.
    let max_value = values.iter().copied().max().unwrap_or(0) as usize;
    let mut value_col = vec![u32::MAX; max_value + 1];
    let mut n_value_cols = 0u32;
    for v in &mut values {
        let col = &mut value_col[*v as usize];
        if *col == u32::MAX {
            *col = n_value_cols;
            n_value_cols += 1;
        }
        *v = *col;
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
    let weighted = [
        weighted_rows(&rows.rows[0], &values, None),
        weighted_rows(&rows.rows[1], &values, Some(&rows.by_dst)),
    ];

    Samples {
        values,
        n_value_cols: n_value_cols as usize,
        rows: [&rows.rows[0], &rows.rows[1]],
        weighted,
        candidates,
        cards,
        arena,
    }
}

/// A run of samples that share one arena row and one value column: a
/// marginal test adds `weight` to one cell for all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WeightedRow {
    row: u32,
    value: u32,
    weight: u32,
}

/// Collapses the samples `(rows[i], values[i])` into runs of equal
/// `(row, value)`, visiting the samples in sample order or in `order`. A
/// pair-wise scope lists pairs source by source, so source endpoints
/// repeat in runs in sample order; the destination order ([`by_row`])
/// brings a destination endpoint's pairs together. Marginal counts are
/// integer sums, so any grouping gives the same table.
fn weighted_rows(rows: &[u32], values: &[u32], order: Option<&[u32]>) -> Vec<WeightedRow> {
    let mut out: Vec<WeightedRow> = Vec::new();
    let mut push = |row: u32, value: u32| match out.last_mut() {
        Some(w) if w.row == row && w.value == value => w.weight += 1,
        _ => out.push(WeightedRow {
            row,
            value,
            weight: 1,
        }),
    };
    match order {
        None => {
            for (&row, &value) in rows.iter().zip(values) {
                push(row, value);
            }
        }
        Some(order) => {
            for &i in order {
                push(rows[i as usize], values[i as usize]);
            }
        }
    }
    out
}

impl Samples<'_> {
    /// Number of samples.
    fn len(&self) -> usize {
        self.values.len()
    }

    /// Candidate `c`'s arena column and the per-sample rows it is read
    /// through.
    fn source(&self, c: usize) -> (&[AttrValue], &[u32]) {
        let pa = self.candidates[c];
        let rows = match pa.side {
            Side::Src => self.rows[0],
            Side::Dst => self.rows[1],
        };
        (self.arena.column(pa.attr), rows)
    }

    /// Gathers candidate `c`'s level at each sample of `at` into `out`
    /// (cleared first).
    fn levels_at(&self, c: usize, at: &[u32], out: &mut Vec<AttrValue>) {
        let (col, rows) = self.source(c);
        out.clear();
        out.extend(at.iter().map(|&i| col[rows[i as usize] as usize]));
    }
}

/// The chi-square critical values of one significance level, memoized by
/// degrees of freedom and shared by every selection of one [`Selector`],
/// helper threads included. A critical value is a bisection of about
/// forty CDF evaluations, and the selections of one fit ask for the same
/// few hundred degrees of freedom thousands of times. Each one is
/// computed under the lock, so once per call.
struct Critical {
    alpha: f64,
    by_df: Mutex<HashMap<usize, f64>>,
    /// Critical values computed, for the tests.
    #[cfg(test)]
    computed: std::sync::atomic::AtomicUsize,
}

impl Critical {
    fn new(alpha: f64) -> Self {
        Self {
            alpha,
            by_df: Mutex::new(HashMap::new()),
            #[cfg(test)]
            computed: Default::default(),
        }
    }

    /// `chi2_critical(df, alpha)`, computed on the first request for `df`.
    fn value(&self, df: usize) -> f64 {
        // A panic while the lock is held leaves the map valid: an entry is
        // inserted only once its value is computed.
        let mut by_df = self.by_df.lock().unwrap_or_else(PoisonError::into_inner);
        *by_df.entry(df).or_insert_with(|| {
            #[cfg(test)]
            self.computed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            chi2_critical(df, self.alpha)
        })
    }

    /// Whether a statistic `stat` on `df` degrees of freedom rejects
    /// independence at `alpha`.
    fn rejects(&self, stat: f64, df: usize) -> bool {
        df > 0 && stat > self.value(df)
    }
}

/// Marginal chi-square statistic of candidate `c` (Eq. 3 over the full
/// contingency table), counted straight from the arena column into bare
/// cell counts, one addition per [`WeightedRow`]. Returns
/// `(statistic, dependent)`.
fn marginal_test(samples: &Samples, c: usize, critical: &Critical) -> (f64, bool) {
    let pa = samples.candidates[c];
    let col = samples.arena.column(pa.attr);
    let weighted = match pa.side {
        Side::Src => &samples.weighted[0],
        Side::Dst => &samples.weighted[1],
    };
    let n_cols = samples.n_value_cols;
    let mut counts = vec![0u64; samples.cards[c] * n_cols];
    for w in weighted {
        counts[col[w.row as usize] as usize * n_cols + w.value as usize] += w.weight as u64;
    }
    let table = ContingencyTable::from_counts(samples.cards[c], n_cols, counts);
    let df = table.effective_df();
    if df == 0 {
        return (0.0, false);
    }
    let stat = table.chi2_statistic();
    (stat, critical.rejects(stat, df))
}

/// A maximal run of equal value columns inside a stratum: the stratum's
/// column total for `col`.
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    col: u32,
    len: u32,
}

/// The stratification of the samples by the currently selected
/// attributes, maintained incrementally as the greedy selection grows.
///
/// Only *active* samples are tracked: those in strata with at least
/// [`MIN_STRATUM`] observations and at least two distinct values. Any
/// other stratum has `total < 5·d` or `d = 0` for every candidate, so it
/// never contributes to a conditional test; refinement only ever splits
/// strata, so it never will. Every later pass — refinement and candidate
/// tests alike — is linear in the active samples, not in the scope.
///
/// Strata are ordered by their first (smallest) sample index: the order
/// in which a scan over all samples first meets each stratum, so the
/// per-stratum summation order of [`conditional_test`] is the same as
/// keying every sample on its full selected level vector and visiting
/// strata in first-appearance order. Within a stratum, samples are
/// sorted by value column, so its column totals are the lengths of its
/// value [`Run`]s.
struct Strata {
    /// Active sample indices grouped by stratum: stratum `t` is
    /// `idx[starts[t]..starts[t+1]]`.
    idx: Vec<u32>,
    /// The dense value column of each `idx` entry.
    vals: Vec<u32>,
    starts: Vec<u32>,
    /// Stratum `t`'s value runs, ascending by column:
    /// `runs[run_starts[t]..run_starts[t+1]]`.
    runs: Vec<Run>,
    run_starts: Vec<u32>,
    /// Buffers [`Strata::refine`] reuses across one selection.
    scratch: RefineScratch,
}

/// A level's tally inside one stratum during [`Strata::refine`].
#[derive(Debug, Clone, Copy)]
struct Tally {
    count: u32,
    /// The last value column seen; samples arrive value-sorted.
    last: u32,
    /// Value runs seen: two or more means two distinct values.
    n_runs: u32,
    first_sample: u32,
}

impl Tally {
    const BLANK: Self = Self {
        count: 0,
        last: u32::MAX,
        n_runs: 0,
        first_sample: u32::MAX,
    };
}

/// Where a level's samples go in the refined strata: the next sample
/// slot and run slot, and the value column of the run being written.
#[derive(Debug, Clone, Copy)]
struct Slot {
    at: u32,
    run: u32,
    last: u32,
}

impl Slot {
    const DROPPED: Self = Self {
        at: u32::MAX,
        run: 0,
        last: u32::MAX,
    };
}

/// One new stratum, in the order refinement finds it (parent stratum,
/// then level first seen).
#[derive(Debug, Clone, Copy)]
struct Sub {
    parent: u32,
    level: AttrValue,
    count: u32,
    n_runs: u32,
}

/// Refinement's buffers: per-level tallies and slots, the new strata,
/// and the spare arrays the refined strata are written into before they
/// swap places with the current ones.
#[derive(Default)]
struct RefineScratch {
    tally: Vec<Tally>,
    slots: Vec<Slot>,
    seen: Vec<AttrValue>,
    subs: Vec<Sub>,
    /// `(first sample << 32) | sub` per new stratum, sorted into stratum
    /// order.
    order: Vec<u64>,
    /// Each sub's `(sample offset, run offset)` in the refined strata.
    dest: Vec<(u32, u32)>,
    idx: Vec<u32>,
    vals: Vec<u32>,
    starts: Vec<u32>,
    runs: Vec<Run>,
    run_starts: Vec<u32>,
}

impl Strata {
    /// The unsplit scope, samples counting-sorted by value column.
    fn root(values: &[u32], n_value_cols: usize) -> Self {
        let mut s = Self {
            idx: Vec::new(),
            vals: Vec::new(),
            starts: vec![0],
            runs: Vec::new(),
            run_starts: vec![0],
            scratch: RefineScratch::default(),
        };
        if values.len() < MIN_STRATUM as usize || n_value_cols < 2 {
            return s;
        }
        let mut at = vec![0u32; n_value_cols + 1];
        for &v in values {
            at[v as usize + 1] += 1;
        }
        for b in 0..n_value_cols {
            at[b + 1] += at[b];
        }
        s.idx = vec![0; values.len()];
        for (i, &v) in values.iter().enumerate() {
            s.idx[at[v as usize] as usize] = i as u32;
            at[v as usize] += 1;
        }
        s.vals = s.idx.iter().map(|&i| values[i as usize]).collect();
        for &v in &s.vals {
            match s.runs.last_mut() {
                Some(run) if run.col == v => run.len += 1,
                _ => s.runs.push(Run { col: v, len: 1 }),
            }
        }
        s.starts.push(s.vals.len() as u32);
        s.run_starts.push(s.runs.len() as u32);
        s
    }

    fn n_strata(&self) -> usize {
        self.starts.len() - 1
    }

    /// Positions of stratum `t` in `idx`/`vals`.
    fn range(&self, t: usize) -> std::ops::Range<usize> {
        self.starts[t] as usize..self.starts[t + 1] as usize
    }

    /// Value runs of stratum `t`.
    fn runs(&self, t: usize) -> &[Run] {
        &self.runs[self.run_starts[t] as usize..self.run_starts[t + 1] as usize]
    }

    /// Splits every stratum by the levels of a newly admitted attribute;
    /// `levels[k]` is the level of active sample `idx[k]`, below `card`.
    ///
    /// Two passes over the active samples. The first tallies, per stratum
    /// and level, the count, the number of value runs (the stratum is
    /// value-sorted, so two runs mean two distinct values) and the first
    /// sample; every level with at least [`MIN_STRATUM`] samples and two
    /// runs becomes a new stratum. The new strata are sorted by first
    /// sample, which fixes each one's sample and run offsets. The second
    /// pass scatters every kept sample straight to its final slot, in
    /// value order, writing the value runs as it goes.
    fn refine(&mut self, levels: &[AttrValue], card: usize) {
        debug_assert_eq!(levels.len(), self.idx.len());
        let sc = &mut self.scratch;
        sc.tally.clear();
        sc.tally.resize(card, Tally::BLANK);
        sc.slots.clear();
        sc.slots.resize(card, Slot::DROPPED);
        sc.subs.clear();
        for t in 0..self.starts.len() - 1 {
            let range = self.starts[t] as usize..self.starts[t + 1] as usize;
            for ((&l, &v), &i) in levels[range.clone()]
                .iter()
                .zip(&self.vals[range.clone()])
                .zip(&self.idx[range])
            {
                let tl = &mut sc.tally[l as usize];
                if tl.count == 0 {
                    sc.seen.push(l);
                }
                tl.count += 1;
                tl.n_runs += (tl.last != v) as u32;
                tl.last = v;
                tl.first_sample = tl.first_sample.min(i);
            }
            for &l in &sc.seen {
                let tl = std::mem::replace(&mut sc.tally[l as usize], Tally::BLANK);
                if tl.count >= MIN_STRATUM && tl.n_runs >= 2 {
                    sc.order
                        .push(((tl.first_sample as u64) << 32) | sc.subs.len() as u64);
                    sc.subs.push(Sub {
                        parent: t as u32,
                        level: l,
                        count: tl.count,
                        n_runs: tl.n_runs,
                    });
                }
            }
            sc.seen.clear();
        }
        sc.order.sort_unstable();

        sc.dest.clear();
        sc.dest.resize(sc.subs.len(), (0, 0));
        sc.starts.clear();
        sc.starts.push(0);
        sc.run_starts.clear();
        sc.run_starts.push(0);
        let (mut at, mut run) = (0u32, 0u32);
        for &key in &sc.order {
            let j = key as u32 as usize;
            sc.dest[j] = (at, run);
            at += sc.subs[j].count;
            run += sc.subs[j].n_runs;
            sc.starts.push(at);
            sc.run_starts.push(run);
        }
        sc.order.clear();
        sc.idx.clear();
        sc.idx.resize(at as usize, 0);
        sc.vals.clear();
        sc.vals.resize(at as usize, 0);
        sc.runs.clear();
        sc.runs.resize(run as usize, Run::default());

        let mut j = 0;
        for t in 0..self.starts.len() - 1 {
            let first = j;
            while j < sc.subs.len() && sc.subs[j].parent as usize == t {
                let (at, run) = sc.dest[j];
                sc.slots[sc.subs[j].level as usize] = Slot {
                    at,
                    run,
                    last: u32::MAX,
                };
                j += 1;
            }
            if first == j {
                continue;
            }
            let range = self.starts[t] as usize..self.starts[t + 1] as usize;
            for ((&l, &v), &i) in levels[range.clone()]
                .iter()
                .zip(&self.vals[range.clone()])
                .zip(&self.idx[range])
            {
                let slot = &mut sc.slots[l as usize];
                if slot.at == u32::MAX {
                    continue;
                }
                sc.idx[slot.at as usize] = i;
                sc.vals[slot.at as usize] = v;
                slot.at += 1;
                if slot.last != v {
                    slot.last = v;
                    sc.runs[slot.run as usize] = Run { col: v, len: 0 };
                    slot.run += 1;
                }
                sc.runs[slot.run as usize - 1].len += 1;
            }
            for sub in &sc.subs[first..j] {
                sc.slots[sub.level as usize] = Slot::DROPPED;
            }
        }
        std::mem::swap(&mut self.idx, &mut sc.idx);
        std::mem::swap(&mut self.vals, &mut sc.vals);
        std::mem::swap(&mut self.starts, &mut sc.starts);
        std::mem::swap(&mut self.runs, &mut sc.runs);
        std::mem::swap(&mut self.run_starts, &mut sc.run_starts);
    }
}

/// One stratum's contingency table, swept across the strata of a
/// conditional test.
///
/// Counts are column-major (`counts[b * rows + a]`), so each value run of
/// a stratum increments one strip, and occupied rows are kept as a
/// bitset. The column totals are the stratum's run lengths and the row
/// totals are summed from the occupied cells. `chi2_statistic` walks the
/// occupied rows ascending and, for each, the runs ascending: exactly the
/// terms of [`ContingencyTable::chi2_statistic`] (whose empty rows and
/// columns contribute nothing) in the same order, so the statistic is
/// bit-identical while the dense `cards × n_value_cols` sweep is never
/// paid per stratum.
struct SweepTable {
    rows: usize,
    counts: Vec<u32>,
    hit: Vec<u64>,
}

impl SweepTable {
    fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            counts: vec![0; rows * cols],
            hit: vec![0; rows.div_ceil(64)],
        }
    }

    /// Counts the samples of one value run, given their levels.
    fn count(&mut self, col: u32, levels: &[AttrValue]) {
        let strip = &mut self.counts[col as usize * self.rows..][..self.rows];
        for &a in levels {
            strip[a as usize] += 1;
            self.hit[a as usize / 64] |= 1 << (a % 64);
        }
    }

    fn n_rows_hit(&self) -> usize {
        self.hit.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Eq. 3 over the occupied cells of a stratum of `total` samples.
    fn chi2_statistic(&self, runs: &[Run], total: u32) -> f64 {
        let total = total as f64;
        let mut stat = 0.0;
        for a in set_bits(&self.hit) {
            let cell = |run: &Run| self.counts[run.col as usize * self.rows + a];
            let row_total = runs.iter().map(cell).sum::<u32>() as f64;
            for run in runs {
                let e = row_total * run.len as f64 / total;
                let o = cell(run) as f64;
                stat += (o - e) * (o - e) / e;
            }
        }
        stat
    }

    /// Clears the occupied cells.
    fn reset(&mut self, runs: &[Run]) {
        for a in set_bits(&self.hit) {
            for run in runs {
                self.counts[run.col as usize * self.rows + a] = 0;
            }
        }
        self.hit.fill(0);
    }
}

/// Indices of the set bits of a bitset, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + bit
            })
        })
    })
}

/// The summed outcome of a conditional test.
#[derive(Debug, Clone, Copy)]
struct Conditional {
    /// Sum of the contributing strata's chi-square statistics.
    stat: f64,
    /// Sum of their effective degrees of freedom.
    df: usize,
}

impl Conditional {
    fn dependent(&self, critical: &Critical) -> bool {
        critical.rejects(self.stat, self.df)
    }
}

/// Conditional test of candidate `c` given the selected attributes:
/// per-stratum chi-square statistics and effective degrees of freedom
/// are summed over the strata, in stratum order. `levels[k]` is the
/// candidate's level at active sample `strata.idx[k]`.
///
/// One table sized to the candidate is swept across the strata (see
/// [`SweepTable`]). A dense table *per stratum* is the paper-scale RSS
/// cliff: exact-match keys shatter 2.2M samples into hundreds of
/// thousands of strata.
fn conditional_test(
    samples: &Samples,
    levels: &[AttrValue],
    c: usize,
    strata: &Strata,
) -> Conditional {
    let mut table = SweepTable::new(samples.cards[c], samples.n_value_cols);
    let mut stat = 0.0;
    let mut df = 0usize;
    for t in 0..strata.n_strata() {
        let range = strata.range(t);
        let runs = strata.runs(t);
        let mut at = range.start;
        for run in runs {
            let end = at + run.len as usize;
            table.count(run.col, &levels[at..end]);
            at = end;
        }
        // Strata hold ≥ 2 value columns, so d = 0 only for a constant
        // candidate level.
        let d = (table.n_rows_hit() - 1) * (runs.len() - 1);
        // Cochran-style small-sample guard: a sparse stratum's chi-square
        // is anti-conservative (expected counts well under 5), and at
        // per-market sample sizes that admits spurious correlates which
        // fragment the vote groups. Require a sane observations-per-cell
        // budget before a stratum contributes evidence.
        if d > 0 && range.len() >= 5 * d {
            stat += table.chi2_statistic(runs, range.len() as u32);
            df += d;
        }
        table.reset(runs);
    }
    Conditional { stat, df }
}

/// The marginally dependent candidates with their statistics, strongest
/// first (ties by candidate order).
fn ranked_candidates(samples: &Samples, critical: &Critical) -> Vec<(usize, f64)> {
    let mut ranked: Vec<(usize, f64)> = (0..samples.candidates.len())
        .filter_map(|c| {
            let (stat, dependent) = marginal_test(samples, c, critical);
            dependent.then_some((c, stat))
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

/// How a [`Selector`] runs.
#[derive(Debug, Clone, Copy)]
pub struct SelectOptions<'a> {
    /// Significance level of every chi-square test (`0.01` in the paper).
    pub alpha: f64,
    /// The paper's literal marginal selection, without redundancy
    /// control (the ablation benches); the result is in candidate order.
    pub marginal: bool,
    /// Receives `cf.dep.marginal_tests` / `cf.dep.conditional_tests` and
    /// the `cf.dep.scratch.bytes` gauge.
    pub obs: &'a auric_obs::Recorder,
}

/// Dependency selection over one learning scope, reading candidate levels
/// from the prebuilt shared arena.
///
/// One selector serves every selection of one fit or delta batch, on
/// every thread that works on it. It holds what those selections share:
/// the critical values by degrees of freedom, and per parameter kind the
/// scope's sample rows (carriers for singular parameters, pair endpoints
/// and the destination order for pair-wise ones), each gathered on first
/// use. A selection gathers only its parameter's value column.
pub struct Selector<'a> {
    arena: &'a AttrArena,
    snapshot: &'a NetworkSnapshot,
    scope: &'a Scope,
    opts: SelectOptions<'a>,
    critical: Critical,
    /// Sample rows by [`ParamKind`]: singular, then pair-wise.
    rows: [OnceLock<ScopeRows>; 2],
}

impl<'a> Selector<'a> {
    /// A selector over `scope` of `snapshot`; `arena` is the snapshot's.
    pub fn new(
        arena: &'a AttrArena,
        snapshot: &'a NetworkSnapshot,
        scope: &'a Scope,
        opts: SelectOptions<'a>,
    ) -> Self {
        Self {
            arena,
            snapshot,
            scope,
            opts,
            critical: Critical::new(opts.alpha),
            rows: [OnceLock::new(), OnceLock::new()],
        }
    }

    /// The samples of `param`: its value column over the shared rows.
    fn samples(&self, param: ParamId) -> Samples<'_> {
        let kind = self.snapshot.catalog.def(param).kind;
        let slot = match kind {
            ParamKind::Singular => &self.rows[0],
            ParamKind::Pairwise => &self.rows[1],
        };
        let rows = slot.get_or_init(|| ScopeRows::of(self.arena, self.scope, kind));
        collect_samples(self.arena, self.snapshot, self.scope, rows, param)
    }

    /// Selects the dependent attributes of `param`.
    ///
    /// By default selection is greedy with conditional redundancy control
    /// (see module docs) and the result is ordered by decreasing marginal
    /// statistic — the key order of the vote tables. Singular parameters
    /// test the carrier's own attributes; pair-wise parameters test both
    /// endpoints' (§4.1).
    pub fn select(&self, param: ParamId) -> Vec<PredictorAttr> {
        let samples = self.samples(param);
        if samples.len() == 0 {
            return Vec::new();
        }
        let obs = self.opts.obs;
        let critical = &self.critical;
        obs.add("cf.dep.marginal_tests", samples.candidates.len() as u64);
        if self.opts.marginal {
            return (0..samples.candidates.len())
                .filter(|&c| marginal_test(&samples, c, critical).1)
                .map(|c| samples.candidates[c])
                .collect();
        }
        // The per-candidate scratch: one level buffer, at most scope-sized.
        obs.gauge_max(
            "cf.dep.scratch.bytes",
            (samples.len() * std::mem::size_of::<AttrValue>()) as u64,
        );
        let ranked = ranked_candidates(&samples, critical);

        // Greedy conditional admission. The stratification only changes
        // when a candidate is admitted, so it is refined incrementally
        // rather than rebuilt per test — and not at all after the last
        // candidate, whose strata would never be read.
        let mut levels: Vec<AttrValue> = Vec::with_capacity(samples.len());
        let mut selected: Vec<usize> = Vec::new();
        let mut strata = Strata::root(&samples.values, samples.n_value_cols);
        for (k, &(c, _)) in ranked.iter().enumerate() {
            samples.levels_at(c, &strata.idx, &mut levels);
            let admit = selected.is_empty() || {
                obs.inc("cf.dep.conditional_tests");
                conditional_test(&samples, &levels, c, &strata).dependent(critical)
            };
            if admit {
                selected.push(c);
                if k + 1 < ranked.len() {
                    strata.refine(&levels, samples.cards[c]);
                }
            }
        }
        selected.iter().map(|&c| samples.candidates[c]).collect()
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use auric_netgen::{generate, rules::Side as GenSide, NetScale, TuningKnobs};

    fn select(
        snap: &NetworkSnapshot,
        scope: &Scope,
        p: ParamId,
        alpha: f64,
        marginal: bool,
    ) -> Vec<PredictorAttr> {
        let arena = AttrArena::from_snapshot(snap);
        let obs = auric_obs::Recorder::disabled();
        let opts = SelectOptions {
            alpha,
            marginal,
            obs: &obs,
        };
        Selector::new(&arena, snap, scope, opts).select(p)
    }

    /// One selector shares its critical values across every selection
    /// and thread: each value equals `chi2_critical` bit for bit and is
    /// computed once, however often and wherever it is asked for.
    #[test]
    fn shared_critical_values_are_exact_and_computed_once() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::default());
        let snap = &net.snapshot;
        let arena = AttrArena::from_snapshot(snap);
        let scope = Scope::whole(snap);
        let obs = auric_obs::Recorder::disabled();
        for alpha in [0.05, 0.01, 1e-4] {
            let opts = SelectOptions {
                alpha,
                marginal: false,
                obs: &obs,
            };
            let selector = Selector::new(&arena, snap, &scope, opts);
            let params: Vec<ParamId> = snap.catalog.param_ids().collect();
            let selected = |half: usize| -> Vec<Vec<PredictorAttr>> {
                params
                    .iter()
                    .skip(half)
                    .step_by(2)
                    .map(|&p| selector.select(p))
                    .collect()
            };
            let (even, odd) = std::thread::scope(|s| {
                let odd = s.spawn(|| selected(1));
                (selected(0), odd.join().unwrap())
            });
            let critical = &selector.critical;
            let table = critical.by_df.lock().unwrap().clone();
            let computed = || critical.computed.load(std::sync::atomic::Ordering::Relaxed);
            assert!(table.len() > 1, "alpha {alpha}: {} values", table.len());
            assert_eq!(
                computed(),
                table.len(),
                "alpha {alpha}: a df computed twice"
            );
            for (&df, &value) in &table {
                assert_eq!(
                    value.to_bits(),
                    chi2_critical(df, alpha).to_bits(),
                    "df {df}"
                );
            }
            // A second pass asks for the same values and computes none.
            assert_eq!(selected(0), even);
            assert_eq!(selected(1), odd);
            assert_eq!(computed(), table.len(), "alpha {alpha}: recomputed");
        }
    }

    #[test]
    fn recovers_planted_singular_dependencies() {
        // On a clean network the selected set must (mostly) contain the
        // planted relevant attributes — or correlates that carry the same
        // information, which we verify downstream via voting accuracy.
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let snap = &net.snapshot;
        let scope = Scope::whole(snap);
        let mut missed = 0usize;
        let mut planted = 0usize;
        for p in snap.catalog.singular_ids() {
            let rule = &net.truth.rules[p.index()];
            let distinct = auric_stats::freq::distinct_count(snap.config.values_of(p));
            if distinct < 2 {
                continue;
            }
            let marginal = select(snap, &scope, p, 0.01, true);
            for ra in &rule.relevant {
                assert_eq!(ra.side, GenSide::Src);
                planted += 1;
                if !marginal
                    .iter()
                    .any(|d| d.attr == ra.attr && d.side == Side::Src)
                {
                    missed += 1;
                }
            }
        }
        assert!(planted > 0);
        assert!(
            (missed as f64) < 0.35 * planted as f64,
            "missed {missed} of {planted} planted dependencies"
        );
    }

    #[test]
    fn conditional_selection_is_much_sparser_than_marginal() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let snap = &net.snapshot;
        let scope = Scope::whole(snap);
        let mut marginal_total = 0usize;
        let mut conditional_total = 0usize;
        for p in snap.catalog.param_ids() {
            marginal_total += select(snap, &scope, p, 0.01, true).len();
            conditional_total += select(snap, &scope, p, 0.01, false).len();
        }
        assert!(
            conditional_total * 2 < marginal_total,
            "conditional {conditional_total} vs marginal {marginal_total}"
        );
    }

    #[test]
    fn pairwise_dependencies_include_neighbor_side() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let snap = &net.snapshot;
        let scope = Scope::whole(snap);
        let mut any_dst_planted = false;
        let mut any_dst_found = false;
        for p in snap.catalog.pairwise_ids() {
            let rule = &net.truth.rules[p.index()];
            if !rule.relevant.iter().any(|r| r.side == GenSide::Dst) {
                continue;
            }
            any_dst_planted = true;
            let dependent = select(snap, &scope, p, 0.01, false);
            if dependent.iter().any(|d| d.side == Side::Dst) {
                any_dst_found = true;
                break;
            }
        }
        assert!(any_dst_planted);
        assert!(
            any_dst_found,
            "no neighbor-side dependence discovered at all"
        );
    }

    #[test]
    fn constant_parameter_has_no_dependencies() {
        let mut net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let snap = &mut net.snapshot;
        let p = snap.catalog.singular_ids().next().unwrap();
        for i in 0..snap.n_carriers() {
            snap.config.set_value(
                p,
                auric_model::CarrierId::from_index(i),
                1,
                auric_model::Provenance::Rule,
            );
        }
        let scope = Scope::whole(snap);
        assert!(select(snap, &scope, p, 0.01, false).is_empty());
        assert!(select(snap, &scope, p, 0.01, true).is_empty());
    }

    #[test]
    fn stricter_alpha_selects_fewer_marginal_attributes() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::default());
        let snap = &net.snapshot;
        let scope = Scope::whole(snap);
        for p in snap.catalog.singular_ids().take(10) {
            let loose = select(snap, &scope, p, 0.05, true).len();
            let strict = select(snap, &scope, p, 0.0001, true).len();
            assert!(strict <= loose, "{p}: strict {strict} > loose {loose}");
        }
    }

    #[test]
    fn selection_order_is_by_marginal_strength() {
        // The first selected attribute must be the marginally strongest
        // (it is admitted unconditionally).
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let snap = &net.snapshot;
        let scope = Scope::whole(snap);
        for p in snap.catalog.singular_ids().take(5) {
            let sel = select(snap, &scope, p, 0.01, false);
            let marg = select(snap, &scope, p, 0.01, true);
            if let Some(first) = sel.first() {
                assert!(marg.contains(first));
            }
        }
    }
}
