//! The collaborative-filtering recommender: chi-square dependency
//! selection + exact-match voting, in global and local (geographic
//! proximity) flavors (§3.2–3.3).
//!
//! ## Hot-path representation
//!
//! Vote keys are bit-packed `u128`s (see [`PackedKeyCodec`]): each fitted
//! parameter owns a mixed-radix layout over its dependent attributes, and
//! every group lookup, prefix backoff, and neighborhood scan works on
//! plain integers. Fitting also materializes a **key column** — the packed
//! key of every carrier (or directed pair) in the fitting scope's index
//! window — so local voting is a linear scan of integer compares with zero
//! allocation, and leave-one-out sweeps reuse the column instead of
//! re-projecting attributes per probe. Targets outside the window are
//! packed from the snapshot on demand ([`ParamCf::carrier_key`]).
//! The packed key is the only representation: the Table-1 schema's widest
//! layout needs 120 bits even at the largest market count it supports, and
//! the codec refuses anything over 128. `legacy.rs` keeps the original
//! unpacked implementation as the differential-testing oracle.

use crate::dependency::{PredictorAttr, SelectOptions, Selector, Side};
use crate::scope::Scope;
use crate::voting::{VoteKey, VoteTables};
use auric_model::{
    AppliedBatch, AttrArena, AttrValue, AttrVec, CarrierId, DeltaSlot, NetworkSnapshot, PairIdx,
    ParamId, ParamKind, ValueIdx,
};
use auric_obs::Recorder;
use auric_stats::freq::FreqTable;
use auric_stats::packed::PackedKeyCodec;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};

/// Hyperparameters of the recommender. Paper values: `alpha = 0.01`,
/// `support = 0.75`, `hops = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CfConfig {
    /// Chi-square significance level for dependency selection.
    pub alpha: f64,
    /// Minimum vote-support ratio.
    pub support: f64,
    /// X2 neighborhood radius of the local learner (in hops).
    pub hops: usize,
    /// Use the paper's literal marginal chi-square selection instead of
    /// the conditional forward selection (see `dependency` module docs).
    /// Kept for the dependency-selection ablation.
    pub marginal_selection: bool,
}

impl Default for CfConfig {
    fn default() -> Self {
        Self {
            alpha: 0.01,
            support: 0.75,
            hops: 1,
            marginal_selection: false,
        }
    }
}

impl CfConfig {
    /// Dependency-selection options for this configuration.
    fn select_options<'a>(&self, obs: &'a Recorder) -> SelectOptions<'a> {
        SelectOptions {
            alpha: self.alpha,
            marginal: self.marginal_selection,
            obs,
        }
    }
}

/// Options for [`CfModel::fit_with`]: the observability recorder and an
/// optional override of the fit's thread count (mainly for honest
/// single- vs multi-thread benchmarking).
#[derive(Debug, Clone, Default)]
pub struct FitOptions {
    /// Where fit-time metrics land; [`Recorder::disabled`] costs nothing.
    pub obs: Recorder,
    /// Threads working on the fit, the calling thread included: `Some(1)`
    /// (or `Some(0)`) fits sequentially on the calling thread, `Some(k)`
    /// adds `k - 1` selection helpers. `None` uses the machine default
    /// (see [`fit_worker_threads`]).
    pub threads: Option<usize>,
    /// A key-column cache shared across fits of the **same snapshot**.
    /// A key column covers its scope's index window, so fits over the
    /// same scope (hot refits of one market) that select the same ordered
    /// dependent set for a parameter share one column through it; fits
    /// of different markets never do. `None` gives each fit a private
    /// cache (sharing only within the fit, which Table-1 layouts rarely
    /// allow).
    pub key_cache: Option<SharedKeyColumns>,
}

/// Inputs of [`CfModel::apply_delta`]: the **post-batch** snapshot and
/// arena, the model's learning scope before and after the batch, and the
/// digest of what the batch did.
///
/// The caller owns snapshot evolution: apply the streamed events with
/// [`auric_model::apply_fleet_deltas`], roll the arena forward with
/// [`AttrArena::append`] (which reuses unchanged attribute columns
/// instead of re-packing the fleet), recompute the scope under the *same*
/// scoping rule, and hand everything here. The scoping rule must be
/// **batch-stable**: a carrier present before and after the batch keeps
/// its membership (true for [`Scope::whole`] and the per-market scopes —
/// carriers never change market). The in-scope carriers and pairs the
/// batch added and removed are read off the two scopes and the digest's
/// pair remap, so the digest lists neither.
pub struct DeltaApply<'a> {
    /// The snapshot *after* the batch was applied.
    pub snapshot: &'a NetworkSnapshot,
    /// Columnar arena of the post-batch snapshot (see [`AttrArena::append`]).
    pub arena: &'a AttrArena,
    /// The scope this model was fitted over, evaluated pre-batch.
    pub scope_before: &'a Scope,
    /// The same scoping rule evaluated on the post-batch snapshot.
    pub scope_after: &'a Scope,
    /// What the batch did: its pair remap and its retunes of pre-batch
    /// slots.
    pub batch: &'a AppliedBatch,
    /// Key-column cache for the columns the batch makes the model pack
    /// afresh, tied to the post-batch snapshot: a packed column is shared
    /// by every parameter with the same kind, dependent set and window.
    /// `None` uses a private cache.
    pub key_cache: Option<SharedKeyColumns>,
}

/// What [`CfModel::apply_delta`] did, mirrored into the `cf.delta.*`
/// observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaFitReport {
    /// Touched parameters whose dependency selection re-ran and landed on
    /// the same attribute set: same key layout, tables rebuilt from the
    /// (kept or refreshed) key column.
    pub params_patched: usize,
    /// Parameters refitted from scratch (dependency selection changed).
    pub params_rebuilt: usize,
    /// Parameters the batch provably did not touch (no in-scope adds,
    /// removes, or retunes): tables untouched, key column refreshed only
    /// if the batch changed the targets in its window.
    pub params_untouched: usize,
    /// In-scope targets the batch added, summed over the patched
    /// parameters of their kind.
    pub obs_added: u64,
    /// In-scope targets the batch removed, summed over the patched
    /// parameters of their kind.
    pub obs_removed: u64,
    /// Always 0: touched tables are rebuilt from at most one count per
    /// in-scope target, which cannot reach the counter ceiling. Kept so
    /// reports and the `cf.delta.count_saturated` counter keep their
    /// shape.
    pub count_saturated: u64,
}

/// How a recommendation was produced — the fallback chain position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Basis {
    /// ≥ `support` agreement within the X2 neighborhood's matching
    /// carriers (local learner only).
    LocalVote,
    /// ≥ `support` agreement within the scope-wide matching group.
    GlobalVote,
    /// The matching group's plurality value — the "maximum support"
    /// answer when no value clears the confidence threshold.
    GroupMajority,
    /// Empty group; scope-wide plurality value.
    GlobalMajority,
    /// No data at all; the rule-book/catalog default (§6: "we currently
    /// stick with the default configuration settings").
    Default,
}

/// Why a serialized model failed to load. Every failure mode of
/// [`CfModel::from_json_bytes`] is represented here — a corrupted or
/// truncated model file must surface as a typed error, never a panic,
/// because the serving layer hot-swaps models while answering traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelLoadError {
    /// The bytes are not UTF-8 text.
    InvalidUtf8,
    /// The text is not valid JSON, or the JSON fails the wire format's
    /// structural and consistency validation (key layout width, level
    /// ranges, table totals, overall-vs-groups agreement).
    Parse(String),
}

impl std::fmt::Display for ModelLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelLoadError::InvalidUtf8 => write!(f, "model file is not UTF-8"),
            ModelLoadError::Parse(msg) => write!(f, "model file failed to parse: {msg}"),
        }
    }
}

impl std::error::Error for ModelLoadError {}

/// A recommendation with its evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Recommendation {
    pub value: ValueIdx,
    pub basis: Basis,
    /// Votes for the winning value (0 for majority/default bases).
    pub support: usize,
    /// Total voters consulted (0 for majority/default bases).
    pub voters: usize,
}

/// Packed keys of the targets in the fitting scope's **index window**
/// (`first..last + 1` of [`Scope::carriers`] for singular parameters, of
/// [`Scope::pairs`] for pair-wise ones), built during fit so the local
/// learner and the LoO sweeps never re-project attributes. A per-market
/// model keeps only its market's window; [`Scope::whole`] keeps the
/// fleet. Targets outside the window (an out-of-market neighbor, a
/// carrier newer than the fit) are packed from the snapshot instead —
/// see [`ParamCf::carrier_key`]. Not serialized — a deserialized model
/// packs every key on the fly (still allocation free).
///
/// Columns are `Arc` slices handed out by the fit's [`KeyColumnCache`]:
/// parameters whose dependency selection landed on the same attribute set
/// over the same window share one physical column.
#[derive(Debug, Clone)]
enum KeyColumn {
    /// No column: a freshly deserialized model.
    None,
    /// Packed keys of the carriers in a window (singular parameters).
    Carrier(WindowColumn),
    /// Packed keys of the directed pairs in a window (pair-wise).
    Pair(WindowColumn),
}

/// `col[t - base]` = packed key of target `t`, for `t` in
/// `base..base + col.len()`.
#[derive(Debug, Clone)]
struct WindowColumn {
    base: usize,
    col: Arc<[u128]>,
}

impl WindowColumn {
    fn window(&self) -> Range<usize> {
        self.base..self.base + self.col.len()
    }

    /// The key of target `t`, when `t` is inside the window. A `t` below
    /// the base wraps past every column length, so one bounds check
    /// covers both ends.
    #[inline]
    fn get(&self, t: usize) -> Option<u128> {
        self.col.get(t.wrapping_sub(self.base)).copied()
    }
}

impl KeyColumn {
    fn carriers(&self) -> Option<&WindowColumn> {
        match self {
            KeyColumn::Carrier(w) => Some(w),
            _ => None,
        }
    }

    fn pairs(&self) -> Option<&WindowColumn> {
        match self {
            KeyColumn::Pair(w) => Some(w),
            _ => None,
        }
    }
}

/// Fit-time dedup of packed key columns. Two parameters of the same kind
/// whose dependency selection produced the same ordered dependent set over
/// the same index window have byte-identical key columns (the codec is a
/// function of the dependent attrs' cardinalities), so the column is built
/// once and shared by `Arc`.
///
/// Columns are only built on the calling thread of a fit or an
/// [`CfModel::apply_delta`], never on a selection helper, and a request
/// finds or builds its column under the one lock. So exactly one build
/// happens per unique `(kind, dependent, window)`, and the built/shared
/// tallies do not depend on the schedule.
#[derive(Default)]
struct KeyColumnCache(Mutex<Columns>);

/// The state behind the [`KeyColumnCache`] lock.
#[derive(Default)]
struct Columns {
    entries: HashMap<ColumnLayout, Arc<[u128]>>,
    /// Distinct columns built, requests answered with a built one, and
    /// the bytes the built ones hold.
    built: u64,
    shared: u64,
    bytes: u64,
    /// Address and `(n_carriers, n_pairs)` of the first snapshot this
    /// cache served — a cached column is only valid for the snapshot it
    /// was packed from, so cross-snapshot reuse is a caller bug caught
    /// here. The address catches equal-shape snapshots with different
    /// attribute content (two live snapshots never share an address).
    fleet: Option<(usize, usize, usize)>,
}

/// A [`KeyColumnCache`] handle that outlives one fit, for sharing packed
/// key columns across **fits of the same snapshot** (per-market models,
/// hot refits). Columns are keyed by their index window too, so sharing
/// happens between fits over the same scope, never across markets. Cheap
/// to clone; thread-safe. Passing a cache that saw a different snapshot
/// panics at fit time rather than aliasing wrong columns.
#[derive(Clone, Default)]
pub struct SharedKeyColumns(Arc<KeyColumnCache>);

impl SharedKeyColumns {
    /// An empty cache, to be shared by every fit of one snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct `(kind, ordered dependent set, window)` columns physically
    /// built.
    pub fn built(&self) -> u64 {
        self.0.lock().built
    }

    /// Column requests satisfied by an already-built column.
    pub fn shared(&self) -> u64 {
        self.0.lock().shared
    }

    /// Bytes held by the built columns.
    pub fn bytes(&self) -> u64 {
        self.0.lock().bytes
    }
}

impl std::fmt::Debug for SharedKeyColumns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedKeyColumns")
            .field("built", &self.built())
            .field("shared", &self.shared())
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// The cache key: a key column is fully determined by the parameter kind,
/// the ordered dependent attribute set, and the index window it covers.
type ColumnLayout = (ParamKind, Vec<PredictorAttr>, Range<usize>);

impl KeyColumnCache {
    /// The cache state. A thread that panicked while holding the lock (an
    /// injected fault, a column build that panicked) poisons it, but an
    /// entry is only inserted once its column is complete, so the state
    /// is valid and later fits must keep working instead of panicking
    /// forever.
    fn lock(&self) -> MutexGuard<'_, Columns> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pins the cache to one snapshot; panics if a fit hands it a
    /// different snapshot (cached columns would alias wrong keys
    /// silently otherwise).
    fn guard_fleet(&self, snapshot: &NetworkSnapshot) {
        let id = (
            snapshot as *const NetworkSnapshot as usize,
            snapshot.n_carriers(),
            snapshot.x2.n_pairs(),
        );
        let fleet = *self.lock().fleet.get_or_insert(id);
        assert_eq!(
            fleet, id,
            "SharedKeyColumns reused across different snapshots"
        );
    }

    fn get_or_build(
        &self,
        kind: ParamKind,
        dependent: &[PredictorAttr],
        window: Range<usize>,
        build: impl FnOnce() -> Arc<[u128]>,
    ) -> WindowColumn {
        let base = window.start;
        let mut columns = self.lock();
        let columns = &mut *columns;
        let col = match columns.entries.entry((kind, dependent.to_vec(), window)) {
            Entry::Occupied(cached) => {
                columns.shared += 1;
                Arc::clone(cached.get())
            }
            Entry::Vacant(slot) => {
                let col = build();
                columns.built += 1;
                columns.bytes += (col.len() * std::mem::size_of::<u128>()) as u64;
                Arc::clone(slot.insert(col))
            }
        };
        WindowColumn { base, col }
    }
}

/// Per-parameter fitted state.
#[derive(Debug, Clone)]
pub struct ParamCf {
    pub param: ParamId,
    /// Dependent attributes in key order (strongest marginal association
    /// first).
    pub dependent: Vec<PredictorAttr>,
    /// Bit-field layout of the vote key over `dependent`.
    codec: PackedKeyCodec,
    /// Scope-wide vote tables keyed on the dependent attributes, frozen
    /// into sorted form after the fit. Backoff needs no materialized
    /// per-level tables: when a full-key group is empty (a rare attribute
    /// combination after leave-one-out), the recommender walks toward
    /// shorter prefixes — "maximum support among the most similar
    /// carriers" rather than a scope-wide guess — by aggregating the
    /// prefix's contiguous run of sorted groups on demand
    /// ([`VoteTables::prefix_aggregate`]).
    pub tables: VoteTables,
    /// Catalog default (final fallback).
    pub default: ValueIdx,
    /// Packed key per snapshot target (see [`KeyColumn`]).
    keys: KeyColumn,
}

impl ParamCf {
    /// The key layout of this parameter.
    pub fn codec(&self) -> &PackedKeyCodec {
        &self.codec
    }

    /// Packs a carrier's vote key without allocating.
    #[inline]
    pub fn packed_for_carrier(&self, attrs: &AttrVec) -> u128 {
        self.codec.pack_with(|i| {
            let pa = self.dependent[i];
            debug_assert_eq!(pa.side, Side::Src, "singular key reads only the carrier");
            attrs.get(pa.attr)
        })
    }

    /// Packs a directed pair's vote key without allocating.
    #[inline]
    pub fn packed_for_pair(&self, src: &AttrVec, dst: &AttrVec) -> u128 {
        self.codec.pack_with(|i| {
            let pa = self.dependent[i];
            match pa.side {
                Side::Src => src.get(pa.attr),
                Side::Dst => dst.get(pa.attr),
            }
        })
    }

    /// The packed key of carrier `c` of `snapshot`: read off the fitted
    /// column inside its window, packed from the carrier's attributes
    /// outside it (an out-of-scope neighbor, a carrier the fit never saw)
    /// and on a deserialized model.
    #[inline]
    pub fn carrier_key(&self, snapshot: &NetworkSnapshot, c: CarrierId) -> u128 {
        self.keys
            .carriers()
            .and_then(|w| w.get(c.index()))
            .unwrap_or_else(|| self.packed_for_carrier(&snapshot.carrier(c).attrs))
    }

    /// The packed key of directed pair `q` of `snapshot`: read off the
    /// fitted column inside its window, packed from the pair's endpoints
    /// outside it.
    #[inline]
    pub fn pair_key(&self, snapshot: &NetworkSnapshot, q: PairIdx) -> u128 {
        self.keys
            .pairs()
            .and_then(|w| w.get(q as usize))
            .unwrap_or_else(|| {
                let (j, k) = snapshot.x2.pair(q);
                self.packed_for_pair(&snapshot.carrier(j).attrs, &snapshot.carrier(k).attrs)
            })
    }

    /// The fitted per-carrier key column over the scope's carrier window,
    /// when present (fitted — not deserialized — model).
    pub fn carrier_keys(&self) -> Option<&[u128]> {
        self.keys.carriers().map(|w| &*w.col)
    }

    /// The fitted per-pair key column over the scope's pair window, when
    /// present.
    pub fn pair_keys(&self) -> Option<&[u128]> {
        self.keys.pairs().map(|w| &*w.col)
    }

    /// The shared `Arc` behind the key column, when present — exposed so
    /// tests can assert which parameters alias one physical column.
    pub fn key_column_arc(&self) -> Option<Arc<[u128]>> {
        match &self.keys {
            KeyColumn::None => None,
            KeyColumn::Carrier(w) | KeyColumn::Pair(w) => Some(Arc::clone(&w.col)),
        }
    }
}

/// A fitted Auric model over one learning scope.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CfModel {
    pub config: CfConfig,
    /// Serialized in the stable wire format: per parameter, the key layout
    /// cardinalities plus every table's groups as sorted
    /// `(unpacked key, table)` pairs — packed integers never reach disk.
    #[serde(with = "model_serde")]
    params: Vec<ParamCf>,
    /// Recommendation-time metrics sink. Disabled by default (and after
    /// deserialization); attach one with [`CfModel::set_recorder`].
    #[serde(skip)]
    obs: Recorder,
}

impl CfModel {
    /// Fits dependency sets and vote tables for every catalog parameter
    /// over `scope`.
    ///
    /// Parameters are independent (§3.2). Their dependency selections
    /// run on helper threads that claim the next parameter off a shared
    /// counter, so one slow parameter (big cardinality, many pairs) idles
    /// no other thread; the calling thread builds each selected
    /// parameter's key column and vote tables into its index slot, and
    /// selects too when no selection is waiting. The fitted model does
    /// not depend on the schedule.
    pub fn fit(snapshot: &NetworkSnapshot, scope: &Scope, config: CfConfig) -> Self {
        Self::fit_with(snapshot, scope, config, FitOptions::default())
    }

    /// [`CfModel::fit`] with explicit [`FitOptions`]: fit-time metrics go
    /// to `opts.obs` (which stays attached to the model so recommendation
    /// metrics land there too), and `opts.threads` pins how many threads
    /// work on the fit, the calling thread included.
    pub fn fit_with(
        snapshot: &NetworkSnapshot,
        scope: &Scope,
        config: CfConfig,
        opts: FitOptions,
    ) -> Self {
        let FitOptions {
            obs,
            threads,
            key_cache,
        } = opts;
        let n_params = snapshot.catalog.len();
        let span = obs.span("cf.fit");
        // The shared read-only inputs of every fit job: the columnar
        // attribute arena (built once, before any helper starts) and the
        // key-column cache the jobs dedup their fleet-sized columns in.
        // A caller-provided cache extends the dedup across fits of the
        // same snapshot (per-market models, refits); a private one only
        // dedups within this fit.
        let arena = AttrArena::from_snapshot(snapshot);
        obs.gauge_max("cf.fit.arena.bytes", arena.bytes() as u64);
        let cache = key_cache.unwrap_or_default();
        let cache = &*cache.0;
        cache.guard_fleet(snapshot);
        // Selection runs on helpers, all through one selector; everything
        // the model keeps is built here.
        let selector = Selector::new(&arena, snapshot, scope, config.select_options(&obs));
        let select = |i: usize| {
            let _span = obs.span("cf.fit/param/dependency");
            selector.select(ParamId(i as u16))
        };
        let build = |i: usize, dependent: Vec<PredictorAttr>| {
            let span = obs.span("cf.fit/param");
            // Keep a copy, so the set lives on this thread's heap and
            // pins nothing in a helper's.
            let dependent = dependent.clone();
            let pc = fit_param_with_dependent(
                snapshot,
                &arena,
                cache,
                scope,
                ParamId(i as u16),
                dependent,
            );
            obs.inc("cf.fit.params");
            obs.add("cf.fit.groups", pc.tables.n_groups() as u64);
            obs.observe("cf.fit.dependent_attrs", pc.dependent.len() as u64);
            span.close();
            pc
        };
        let params = work_then_keep(n_params, helpers_for(threads, n_params), select, build);
        let columns = cache.lock();
        obs.gauge_max("cf.fit.keycol.built", columns.built);
        obs.gauge_max("cf.fit.keycol.shared", columns.shared);
        obs.gauge_max("cf.fit.keycol.bytes", columns.bytes);
        drop(columns);
        span.close();
        Self {
            config,
            params,
            obs,
        }
    }

    /// Rolls the fitted model forward over one applied delta batch,
    /// producing **byte-for-byte the model a full refit of the post-batch
    /// snapshot would produce** (same wire JSON, same key columns).
    ///
    /// The batch's in-scope adds and removes are the differences of
    /// `scope_before` and `scope_after` — carriers by id, pairs through
    /// the digest's pair remap — and a retune is in scope when its slot's
    /// source carrier is in `scope_before` (every recorded retune lands
    /// on a pre-batch slot). Then:
    ///
    /// * Parameters with no in-scope adds, removes, or retunes keep their
    ///   tables untouched — dependency selection over unchanged samples
    ///   is deterministic, so re-running it would land on the same set.
    /// * Touched parameters re-run dependency selection. If the selected
    ///   set is unchanged the layout stays and the tables are rebuilt
    ///   from the key column over `scope_after`, by the same step the fit
    ///   uses; if it changed the parameter is refitted from scratch.
    ///
    /// Vote tables never change after they are built: a touched
    /// parameter gets new tables, so a clone of the pre-batch model keeps
    /// answering from its own.
    ///
    /// Key columns cover the scope's index window, so every parameter —
    /// untouched ones too — ends with the column a full scoped fit would
    /// build over `scope_after`'s window. A column whose old window
    /// starts the new one, ends inside it, and holds only targets that
    /// kept their index (every carrier; every pair the batch's remap
    /// sends to itself) is reused: whole when the window is the same
    /// (retune-only batches, batches that only touch other markets),
    /// extended by packing only the new tail when it grew (stand-up
    /// batches). Any other is packed afresh.
    ///
    /// Dependency selection of the touched parameters runs on helper
    /// threads when the batch touches enough targets to pay for them,
    /// all through one [`Selector`]; everything the model keeps is built
    /// on the calling thread. The result does not depend on the
    /// schedule.
    pub fn apply_delta(&mut self, apply: &DeltaApply<'_>) -> DeltaFitReport {
        self.apply_delta_with(apply, None)
    }

    /// [`CfModel::apply_delta`] with the number of selection helpers
    /// pinned; `None` sizes it from the touched work.
    fn apply_delta_with(
        &mut self,
        apply: &DeltaApply<'_>,
        helpers: Option<usize>,
    ) -> DeltaFitReport {
        let DeltaApply {
            snapshot,
            arena,
            scope_before,
            scope_after,
            batch,
            key_cache,
        } = apply;
        let (snapshot, arena) = (*snapshot, *arena);
        let (scope_before, scope_after) = (*scope_before, *scope_after);
        let obs = self.obs.clone();
        let span = obs.span("cf.delta.apply");
        obs.add("cf.delta.events", batch.events as u64);

        let n_pairs_after = snapshot.x2.n_pairs();
        debug_assert_eq!(
            (arena.n_carriers(), arena.n_pairs()),
            (snapshot.n_carriers(), n_pairs_after),
            "arena must track the post-batch snapshot"
        );

        let unmoved_pairs = Unmoved::pairs(batch);

        let change = ScopeChange::of(batch, scope_before, scope_after, n_pairs_after);

        // Every recorded retune lands on a pre-batch slot (retunes on
        // batch-born slots fold into the add), so `scope_before` knows
        // whether its source carrier is a member.
        let n_params = self.params.len();
        debug_assert_eq!(n_params, snapshot.catalog.len());
        let mut retuned = vec![false; n_params];
        for r in &batch.retunes {
            let src = match r.slot {
                DeltaSlot::Carrier(c) | DeltaSlot::Pair(c, _) => c,
            };
            if scope_before.carriers.binary_search(&src).is_ok() {
                retuned[r.param.index()] = true;
            }
        }

        let cache = key_cache.clone().unwrap_or_default();
        let cache = &*cache.0;
        cache.guard_fleet(snapshot);

        let in_scope = |kind| match kind {
            ParamKind::Singular => (change.added_carriers, change.removed_carriers, Unmoved::ALL),
            ParamKind::Pairwise => (change.added_pairs, change.removed_pairs, unmoved_pairs),
        };
        let mut report = DeltaFitReport::default();
        let mut touched = Vec::new();
        let mut touched_targets = 0;
        for (i, pc) in self.params.iter_mut().enumerate() {
            let kind = snapshot.catalog.def(pc.param).kind;
            let (added, removed, unmoved) = in_scope(kind);
            if added == 0 && removed == 0 && !retuned[i] {
                report.params_untouched += 1;
                refresh_key_column(pc, kind, arena, cache, window(scope_after, kind), unmoved);
                continue;
            }
            touched.push(pc.param);
            touched_targets += match kind {
                ParamKind::Singular => scope_after.carriers.len(),
                ParamKind::Pairwise => scope_after.pairs.len(),
            };
        }
        let helpers = helpers.unwrap_or_else(|| {
            if touched_targets < DELTA_HELPER_MIN_TARGETS {
                0
            } else {
                helpers_for(None, touched.len())
            }
        });

        // The batch may have shifted which attributes pass the chi-square
        // test: re-select every touched parameter, exactly as a full
        // refit would, then rebuild it on this thread.
        let selector = Selector::new(
            arena,
            snapshot,
            scope_after,
            self.config.select_options(&obs),
        );
        let select = |j: usize| {
            let _span = obs.span("cf.delta.apply/select");
            selector.select(touched[j])
        };
        let params = &mut self.params;
        work_then_keep(touched.len(), helpers, select, |j, dependent| {
            let _span = obs.span("cf.delta.apply/build");
            let param = touched[j];
            let pc = &mut params[param.index()];
            let kind = snapshot.catalog.def(param).kind;
            if dependent == pc.dependent {
                let (added, removed, unmoved) = in_scope(kind);
                build_tables(pc, kind, snapshot, arena, cache, scope_after, unmoved);
                report.params_patched += 1;
                report.obs_added += added as u64;
                report.obs_removed += removed as u64;
            } else {
                // Keep a copy, so the set lives on this thread's heap and
                // pins nothing in a helper's.
                let dependent = dependent.clone();
                *pc =
                    fit_param_with_dependent(snapshot, arena, cache, scope_after, param, dependent);
                report.params_rebuilt += 1;
            }
        });

        obs.add("cf.delta.params_patched", report.params_patched as u64);
        obs.add("cf.delta.params_rebuilt", report.params_rebuilt as u64);
        obs.add("cf.delta.params_untouched", report.params_untouched as u64);
        obs.add("cf.delta.obs_added", report.obs_added);
        obs.add("cf.delta.obs_removed", report.obs_removed);
        obs.add("cf.delta.count_saturated", report.count_saturated);
        span.close();
        report
    }

    /// Attaches (or detaches, with [`Recorder::disabled`]) the sink for
    /// recommendation-time metrics: basis mix, vote support, backoff depth.
    pub fn set_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// The model's metrics recorder (disabled unless attached).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// The fitted state of one parameter.
    pub fn param(&self, p: ParamId) -> &ParamCf {
        &self.params[p.index()]
    }

    /// All fitted parameter states.
    pub fn params(&self) -> &[ParamCf] {
        &self.params
    }

    /// Resolves a carrier's **serving probe**: the packed vote key of
    /// every singular parameter, in `catalog.singular_ids()` order. Two
    /// carriers with equal probes are indistinguishable to every
    /// singular vote table of this model, so the serving layer can use
    /// the probe as an equality-comparable `(ParamId, u128)` handle —
    /// resolved once at admission — for batching, coalescing, and
    /// response caching.
    ///
    /// # Panics
    /// Panics if the model has no parameter for some catalog entry; the
    /// serving layer refuses such a model before it can serve.
    pub fn probe_singular(&self, snapshot: &NetworkSnapshot, attrs: &AttrVec) -> Vec<u128> {
        snapshot
            .catalog
            .singular_ids()
            .map(|p| self.params[p.index()].packed_for_carrier(attrs))
            .collect()
    }

    /// Resolves the serving probe of the directed pair from a carrier
    /// with attributes `src` toward the existing carrier `neighbor`: the
    /// packed vote key of every pair-wise parameter, in
    /// `catalog.pairwise_ids()` order. A `neighbor` the snapshot does not
    /// know has no relation to configure and resolves to no keys.
    /// Same contract as [`CfModel::probe_singular`].
    pub fn probe_pairwise(
        &self,
        snapshot: &NetworkSnapshot,
        src: &AttrVec,
        neighbor: CarrierId,
    ) -> Vec<u128> {
        let Some(dst) = snapshot.carriers.get(neighbor.index()) else {
            return Vec::new();
        };
        snapshot
            .catalog
            .pairwise_ids()
            .map(|p| self.params[p.index()].packed_for_pair(src, &dst.attrs))
            .collect()
    }

    /// Global recommendation for an unpacked vote key. `exclude` is the
    /// probe slot's own current value during leave-one-out evaluation,
    /// `None` for new carriers.
    pub fn recommend_global(
        &self,
        param: ParamId,
        key: &[u16],
        exclude: Option<ValueIdx>,
    ) -> Recommendation {
        let pc = self.param(param);
        debug_assert_eq!(key.len(), pc.dependent.len());
        self.global_chain(pc, pc.codec.pack(key), exclude)
    }

    /// The market-mode answer for a parameter: the scope-wide plurality
    /// value, or the catalog default when the scope recorded nothing.
    /// This is the serving layer's last-resort degraded answer — it
    /// consults only the overall table, needs no probe key, and cannot
    /// panic for any in-catalog parameter.
    pub fn market_mode(&self, param: ParamId) -> Recommendation {
        let pc = self.param(param);
        if let Some(value) = pc.tables.overall_majority(None) {
            self.obs.inc("cf.rec.basis.global_majority");
            return Recommendation {
                value,
                basis: Basis::GlobalMajority,
                support: 0,
                voters: 0,
            };
        }
        self.obs.inc("cf.rec.basis.default");
        Recommendation {
            value: pc.default,
            basis: Basis::Default,
            support: 0,
            voters: 0,
        }
    }

    /// Loads a model from serialized JSON bytes, returning a typed error
    /// for anything short of a well-formed, internally consistent wire
    /// image: non-UTF-8 bytes, truncated or malformed JSON, and
    /// structurally valid JSON whose tables violate the fit invariants
    /// (duplicate or out-of-layout group keys, inconsistent totals, an
    /// overall table that is not the merge of its groups). The loaded
    /// model's recorder is disabled; attach one with
    /// [`CfModel::set_recorder`].
    pub fn from_json_bytes(bytes: &[u8]) -> Result<Self, ModelLoadError> {
        let text = std::str::from_utf8(bytes).map_err(|_| ModelLoadError::InvalidUtf8)?;
        serde_json::from_str(text).map_err(|e| ModelLoadError::Parse(e.0))
    }

    /// Global recommendation for an existing carrier, reusing the fitted
    /// key column when available (the fast path of the LoO sweeps).
    pub fn recommend_global_for_carrier(
        &self,
        snapshot: &NetworkSnapshot,
        param: ParamId,
        carrier: CarrierId,
        exclude: Option<ValueIdx>,
    ) -> Recommendation {
        let pc = self.param(param);
        self.global_chain(pc, pc.carrier_key(snapshot, carrier), exclude)
    }

    /// Global recommendation for an existing directed pair, reusing the
    /// fitted key column when available.
    pub fn recommend_global_for_pair(
        &self,
        snapshot: &NetworkSnapshot,
        param: ParamId,
        pair: PairIdx,
        exclude: Option<ValueIdx>,
    ) -> Recommendation {
        let pc = self.param(param);
        self.global_chain(pc, pc.pair_key(snapshot, pair), exclude)
    }

    /// The global fallback chain over the full vote key: full-key vote,
    /// then full-key majority, then hierarchical prefix backoff (prefix
    /// groups are aggregated on demand from the sorted full-key groups —
    /// see [`VoteTables::prefix_aggregate`]), then the scope-wide
    /// majority, then the catalog default.
    pub(crate) fn global_chain(
        &self,
        pc: &ParamCf,
        full: u128,
        exclude: Option<ValueIdx>,
    ) -> Recommendation {
        let n = pc.dependent.len();
        if let Some((value, support, voters)) = pc.tables.vote(full, exclude, self.config.support) {
            self.obs.inc("cf.rec.basis.global_vote");
            self.obs
                .observe("cf.rec.support.global_vote", support as u64);
            return Recommendation {
                value,
                basis: Basis::GlobalVote,
                support,
                voters,
            };
        }
        if let Some((value, support, voters)) = pc.tables.group_majority(full, exclude) {
            self.obs.inc("cf.rec.basis.group_majority");
            self.obs.observe("cf.rec.backoff_depth", 0);
            return Recommendation {
                value,
                basis: Basis::GroupMajority,
                support,
                voters,
            };
        }
        // Hierarchical backoff: the full-key group is empty (rare
        // combination after leave-one-out); retry on progressively
        // shorter prefixes of the dependency key. The excluded value may
        // be absent from an ancestor group, so only exclude it where
        // present.
        for l in (1..n).rev() {
            let Some(group) = pc.tables.prefix_aggregate(&pc.codec, full, l) else {
                continue;
            };
            let ex = exclude.filter(|&v| group.count(v) > 0);
            if let Some((value, support, voters)) = group.majority_with_support_excluding(ex, 0.0) {
                self.obs.inc("cf.rec.basis.group_majority");
                self.obs.observe("cf.rec.backoff_depth", (n - l) as u64);
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
            self.obs.inc("cf.rec.basis.global_majority");
            return Recommendation {
                value,
                basis: Basis::GlobalMajority,
                support: 0,
                voters: 0,
            };
        }
        self.obs.inc("cf.rec.basis.default");
        Recommendation {
            value: pc.default,
            basis: Basis::Default,
            support: 0,
            voters: 0,
        }
    }

    /// Local recommendation for a singular parameter on an existing
    /// carrier: vote among the `hops`-hop X2 neighbors whose dependent
    /// attributes match, falling back to the global chain. With `loo`,
    /// the carrier's own current value is excluded from the fallback vote
    /// (it never participates in the neighborhood vote — a carrier is not
    /// its own neighbor).
    pub fn recommend_local_singular(
        &self,
        snapshot: &NetworkSnapshot,
        param: ParamId,
        carrier: CarrierId,
        loo: bool,
    ) -> Recommendation {
        debug_assert_eq!(snapshot.catalog.def(param).kind, ParamKind::Singular);
        let pc = self.param(param);
        let exclude = || loo.then(|| snapshot.config.value(param, carrier));
        let key = pc.carrier_key(snapshot, carrier);
        // The neighborhood vote: a linear scan of integer compares over
        // the key column (1-hop reads the CSR adjacency slice directly —
        // no BFS allocation).
        let mut table = FreqTable::new();
        let mut tally = |n: CarrierId| {
            if pc.carrier_key(snapshot, n) == key {
                table.add(snapshot.config.value(param, n));
            }
        };
        if self.config.hops == 1 {
            for &n in snapshot.x2.neighbors(carrier) {
                tally(n);
            }
        } else {
            for n in snapshot.x2.k_hop_neighbors(carrier, self.config.hops) {
                tally(n);
            }
        }
        if let Some((value, support, total)) =
            table.majority_with_support_excluding(None, self.config.support)
        {
            self.obs.inc("cf.rec.basis.local_vote");
            self.obs
                .observe("cf.rec.support.local_vote", support as u64);
            return Recommendation {
                value,
                basis: Basis::LocalVote,
                support,
                voters: total,
            };
        }
        self.global_chain(pc, key, exclude())
    }

    /// Local recommendation for a pair-wise parameter on an existing
    /// directed pair: vote among matching pairs sourced at the carrier
    /// itself (its other relations) and at its `hops`-hop neighbors.
    pub fn recommend_local_pair(
        &self,
        snapshot: &NetworkSnapshot,
        param: ParamId,
        pair: PairIdx,
        loo: bool,
    ) -> Recommendation {
        debug_assert_eq!(snapshot.catalog.def(param).kind, ParamKind::Pairwise);
        let pc = self.param(param);
        let (j, _) = snapshot.x2.pair(pair);
        let exclude = || loo.then(|| snapshot.config.pair_value(param, pair));
        let key = pc.pair_key(snapshot, pair);
        // Candidate pairs are sourced at `j` and its neighborhood; their
        // keys come straight off the pair column, so the scan allocates
        // nothing.
        let mut table = FreqTable::new();
        let mut scan_source = |src: CarrierId| {
            for q in snapshot.x2.pairs_from(src) {
                if q == pair {
                    continue; // never vote for ourselves
                }
                if pc.pair_key(snapshot, q) == key {
                    table.add(snapshot.config.pair_value(param, q));
                }
            }
        };
        scan_source(j);
        if self.config.hops == 1 {
            for &n in snapshot.x2.neighbors(j) {
                scan_source(n);
            }
        } else {
            for n in snapshot.x2.k_hop_neighbors(j, self.config.hops) {
                scan_source(n);
            }
        }
        if let Some((value, support, total)) =
            table.majority_with_support_excluding(None, self.config.support)
        {
            self.obs.inc("cf.rec.basis.local_vote");
            self.obs
                .observe("cf.rec.support.local_vote", support as u64);
            return Recommendation {
                value,
                basis: Basis::LocalVote,
                support,
                voters: total,
            };
        }
        self.global_chain(pc, key, exclude())
    }
}

/// The worker-thread count [`CfModel::fit`] uses for `n_jobs` parallel
/// jobs, the calling thread included — exposed so benchmarks can report
/// the real width instead of guessing from `available_parallelism`.
pub fn fit_worker_threads(n_jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(4)
        .min(n_jobs.max(1))
}

/// Helper threads for `n_jobs` jobs when `threads` threads (the calling
/// thread included; `None` = [`fit_worker_threads`]) should work on them.
/// `Some(0)` means `Some(1)`: the calling thread alone.
fn helpers_for(threads: Option<usize>, n_jobs: usize) -> usize {
    threads
        .unwrap_or_else(|| fit_worker_threads(n_jobs))
        .clamp(1, n_jobs.max(1))
        - 1
}

/// The in-scope targets one delta batch added and removed: carriers for
/// singular parameters, directed pairs for pair-wise ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ScopeChange {
    added_carriers: usize,
    removed_carriers: usize,
    added_pairs: usize,
    removed_pairs: usize,
}

impl ScopeChange {
    /// Reads the counts off the two scopes and the batch's pair remap.
    /// Carrier ids and scope memberships are batch-stable, removes pop
    /// the tail and no batch adds after a remove, so the carriers that
    /// came and went are the sorted differences of the two scopes. Pairs
    /// outside the remap's image were born in the batch, pre-batch pairs
    /// the remap drops left with a removed carrier, and a batch without a
    /// remap moved no pair at all.
    fn of(batch: &AppliedBatch, before: &Scope, after: &Scope, n_pairs_after: usize) -> Self {
        let (added_pairs, removed_pairs) = match &batch.pair_remap {
            None => (0, 0),
            Some(map) => {
                let mut kept = vec![false; n_pairs_after];
                for &q in map.iter().flatten() {
                    kept[q as usize] = true;
                }
                (
                    after.pairs.iter().filter(|&&q| !kept[q as usize]).count(),
                    before
                        .pairs
                        .iter()
                        .filter(|&&q| map[q as usize].is_none())
                        .count(),
                )
            }
        };
        Self {
            added_carriers: missing_from(&after.carriers, &before.carriers),
            removed_carriers: missing_from(&before.carriers, &after.carriers),
            added_pairs,
            removed_pairs,
        }
    }
}

/// How many carriers of the ascending `a` the ascending `b` lacks.
fn missing_from(a: &[CarrierId], b: &[CarrierId]) -> usize {
    let mut b = b.iter().peekable();
    a.iter()
        .filter(|&c| {
            while b.next_if(|&d| d < c).is_some() {}
            b.next_if_eq(&c).is_none()
        })
        .count()
}

/// Touched targets (in-scope carriers per touched singular parameter,
/// pairs per touched pair-wise one) below which [`CfModel::apply_delta`]
/// selects on the calling thread alone. A shard's retune batch touches
/// a few hundred (two or three parameters over one market), where a
/// thread spawn costs more than it overlaps; a market stand-up on a
/// whole-fleet model touches tens of thousands and more.
const DELTA_HELPER_MIN_TARGETS: usize = 5_000;

/// Runs `work(i)` for every job `i in 0..n`, hands each result to
/// `keep(i, result)` on the calling thread in the order the jobs finish,
/// and returns what `keep` made, in index order. Parameters are
/// independent (§3.2), so this is the one scheduler for every
/// per-parameter fan-out: the fit and [`CfModel::apply_delta`]
/// (`work` selects, `keep` builds) and [`parallel_map`].
///
/// `helpers` scoped threads claim jobs off a shared counter and send
/// their results back over a channel; the calling thread keeps what has
/// arrived and, when nothing has, claims a job itself. Unevenly sized
/// jobs balance themselves. Only `work` — transient scratch and a short
/// result — runs on a helper. Everything that outlives the call is
/// allocated in `keep`, on the calling thread: glibc gives each thread
/// its own heap arena and keeps a helper's freed pages, so building
/// columns and tables there would pin the churn of every build in
/// memory. With `helpers == 0` the calling thread works and keeps each
/// job in turn.
fn work_then_keep<R, T, W, K>(n: usize, helpers: usize, work: W, mut keep: K) -> Vec<T>
where
    R: Send,
    W: Fn(usize) -> R + Sync,
    K: FnMut(usize, R) -> T,
{
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
    let work = &work;
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        for _ in 0..helpers {
            let tx = tx.clone();
            s.spawn(move || {
                while let Some(i) = claim() {
                    if tx.send((i, work(i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for _ in 0..n {
            let (i, result) = match rx.try_recv() {
                Ok(done) => done,
                Err(_) => match claim() {
                    Some(i) => (i, work(i)),
                    // Every job is claimed; wait for a helper's. A helper
                    // that panicked drops its sender, so this cannot hang,
                    // and the scope re-raises the panic on exit.
                    None => match rx.recv() {
                        Ok(done) => done,
                        Err(_) => break,
                    },
                },
            };
            slots[i] = Some(keep(i, result));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every job is kept"))
        .collect()
}

/// Runs `job(i)` for `i in 0..n` on [`fit_worker_threads`] threads and
/// returns the results in index order, independent of the schedule.
pub fn parallel_map<T, F>(n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    work_then_keep(n, helpers_for(None, n), job, |_, value| value)
}

/// Packs target keys of one `(kind, dependent)` layout straight from the
/// arena's attribute columns. Target `t`'s key is exactly
/// `packed_for_carrier` / `packed_for_pair` of carrier / pair `t` — the
/// arena holds the same levels as the carrier structs, column-major.
struct ArenaPacker<'a> {
    codec: &'a PackedKeyCodec,
    /// Attribute column of each key position.
    cols: Vec<&'a [AttrValue]>,
    /// Pair targets: the side each key position is read from, and the
    /// arena's `[pair_src, pair_dst]` endpoint columns.
    pairs: Option<(Vec<Side>, [&'a [u32]; 2])>,
}

impl<'a> ArenaPacker<'a> {
    fn new(
        arena: &'a AttrArena,
        codec: &'a PackedKeyCodec,
        dependent: &[PredictorAttr],
        kind: ParamKind,
    ) -> Self {
        let pairs = (kind == ParamKind::Pairwise).then(|| {
            (
                dependent.iter().map(|pa| pa.side).collect(),
                [arena.pair_src(), arena.pair_dst()],
            )
        });
        Self {
            codec,
            cols: dependent.iter().map(|pa| arena.column(pa.attr)).collect(),
            pairs,
        }
    }

    /// Target `t`'s key, packed position by position: the row-major form
    /// the column packer is tested against.
    #[cfg(test)]
    fn pack(&self, t: usize) -> u128 {
        match &self.pairs {
            None => self.codec.pack_with(|i| self.cols[i][t]),
            Some((sides, [src, dst])) => self.codec.pack_with(|i| {
                let end = match sides[i] {
                    Side::Src => src[t],
                    Side::Dst => dst[t],
                };
                self.cols[i][end as usize]
            }),
        }
    }

    /// The key column of the targets in `window`, given the keys of its
    /// first `prefix.len()` targets: those are copied and only the tail
    /// is packed, straight into the shared allocation (a `Range` map has
    /// an exact length, so the collect allocates once).
    fn column(&self, prefix: &[u128], window: Range<usize>) -> Arc<[u128]> {
        let mut column: Arc<[u128]> = window.clone().map(|_| 0).collect();
        let keys = Arc::get_mut(&mut column).expect("a fresh column has one owner");
        let (head, tail) = keys.split_at_mut(prefix.len());
        head.copy_from_slice(prefix);
        self.fill(tail, window.start + prefix.len()..window.end);
        column
    }

    /// Packs the keys of the targets in `window` into `keys`, zeroed and
    /// of the window's length.
    ///
    /// A pair's key is the OR of its source-side fields, which depend on
    /// the source carrier only, and its destination-side fields. Each
    /// side's fields are packed once per carrier its endpoints span, and
    /// each pair ORs in its two endpoints' partial keys.
    fn fill(&self, keys: &mut [u128], window: Range<usize>) {
        if keys.is_empty() {
            return;
        }
        let Some((sides, ends)) = &self.pairs else {
            let all: Vec<usize> = (0..self.cols.len()).collect();
            self.or_fields(&all, keys, |k| window.start + k);
            return;
        };
        for (side, ends) in [(Side::Src, ends[0]), (Side::Dst, ends[1])] {
            let positions: Vec<usize> = (0..sides.len()).filter(|&i| sides[i] == side).collect();
            if positions.is_empty() {
                continue;
            }
            let ends = &ends[window.clone()];
            let (lo, hi) = ends
                .iter()
                .fold((u32::MAX, 0), |(lo, hi), &e| (lo.min(e), hi.max(e)));
            let mut partial = vec![0u128; (hi - lo) as usize + 1];
            self.or_fields(&positions, &mut partial, |k| lo as usize + k);
            for (key, &e) in keys.iter_mut().zip(ends) {
                *key |= partial[(e - lo) as usize];
            }
        }
    }

    /// ORs the fields of key `positions` into `keys`, reading key `k`'s
    /// levels at arena row `row(k)`. Keys are packed a block at a time,
    /// and within a block one position at a time: each pass reads one
    /// attribute column and ORs its field into keys that stay in the L1
    /// cache.
    fn or_fields(&self, positions: &[usize], keys: &mut [u128], row: impl Fn(usize) -> usize) {
        const BLOCK: usize = 512;
        for (b, block) in keys.chunks_mut(BLOCK).enumerate() {
            let first = b * BLOCK;
            for &i in positions {
                let col = self.cols[i];
                let levels = (first..first + block.len()).map(|k| col[row(k)]);
                self.codec.pack_position(i, block, levels);
            }
        }
    }
}

/// The index window of `scope` that a parameter of `kind` keys: carriers
/// for singular parameters, directed pairs for pair-wise ones.
fn window(scope: &Scope, kind: ParamKind) -> Range<usize> {
    match kind {
        ParamKind::Singular => scope.carrier_window(),
        ParamKind::Pairwise => scope.pair_window(),
    }
}

/// The targets of one kind that kept their index and their endpoints
/// through a delta batch: every carrier (removes pop the tail, adds
/// append), and every pair the batch's pair remap sends to itself.
#[derive(Debug, Clone, Copy)]
struct Unmoved<'a> {
    /// Every target below this one is unmoved.
    prefix: usize,
    /// The pair remap, read past `prefix`.
    remap: &'a [Option<PairIdx>],
}

impl<'a> Unmoved<'a> {
    /// Every carrier, or every pair of a batch without a pair remap.
    const ALL: Self = Self {
        prefix: usize::MAX,
        remap: &[],
    };

    /// The pairs `batch` left in place, with the identity prefix of its
    /// pair remap measured once.
    fn pairs(batch: &'a AppliedBatch) -> Self {
        match batch.pair_remap.as_deref() {
            None => Self::ALL,
            Some(map) => Self {
                prefix: map
                    .iter()
                    .enumerate()
                    .take_while(|&(q, s)| *s == Some(q as PairIdx))
                    .count(),
                remap: map,
            },
        }
    }

    /// Whether every pre-batch target in `targets` is unmoved.
    fn all(&self, targets: Range<usize>) -> bool {
        targets.end <= self.prefix
            || self.remap.get(targets.clone()).is_some_and(|map| {
                map.iter()
                    .zip(targets)
                    .all(|(s, t)| *s == Some(t as PairIdx))
            })
    }
}

/// Brings one parameter's key column to `window` over `arena` and
/// returns it. A column whose window starts where `window` does, ends
/// inside it and holds only `unmoved` targets is still valid there: over
/// the whole window it keeps its `Arc` (retune-only batches, batches
/// touching other markets), over a shorter one it is extended by packing
/// only the new tail (stand-up batches). Any other column — a moved or
/// shrunk window, moved pairs, a fresh parameter or a deserialized model
/// — is packed afresh. New columns go through the cache, so parameters
/// sharing a layout and window share one.
fn refresh_key_column(
    pc: &mut ParamCf,
    kind: ParamKind,
    arena: &AttrArena,
    cache: &KeyColumnCache,
    window: Range<usize>,
    unmoved: Unmoved<'_>,
) -> WindowColumn {
    let prefix = match (&pc.keys, kind) {
        (KeyColumn::Carrier(w), ParamKind::Singular)
        | (KeyColumn::Pair(w), ParamKind::Pairwise) => {
            let old = w.window();
            (old.start == window.start && old.end <= window.end && unmoved.all(old)).then_some(w)
        }
        _ => None,
    };
    if let Some(w) = prefix.filter(|w| w.col.len() == window.len()) {
        return w.clone();
    }
    let w = cache.get_or_build(kind, &pc.dependent, window.clone(), || {
        let packer = ArenaPacker::new(arena, &pc.codec, &pc.dependent, kind);
        packer.column(prefix.map_or(&[], |w| &w.col), window)
    });
    pc.keys = match kind {
        ParamKind::Singular => KeyColumn::Carrier(w.clone()),
        ParamKind::Pairwise => KeyColumn::Pair(w.clone()),
    };
    w
}

/// The build step the fit and [`CfModel::apply_delta`] share: brings the
/// key column to `scope`'s window ([`refresh_key_column`]), then builds
/// the vote tables from one `(key, value)` observation per in-scope
/// target, read off that column.
///
/// Only the full-key tables are built: prefix (backoff) groups are
/// contiguous runs of the sorted groups and aggregate on demand, so
/// materializing a table per observation per level — the paper-scale RSS
/// cliff — buys nothing.
fn build_tables(
    pc: &mut ParamCf,
    kind: ParamKind,
    snapshot: &NetworkSnapshot,
    arena: &AttrArena,
    cache: &KeyColumnCache,
    scope: &Scope,
    unmoved: Unmoved<'_>,
) {
    let w = refresh_key_column(pc, kind, arena, cache, window(scope, kind), unmoved);
    let (param, config) = (pc.param, &snapshot.config);
    pc.tables = match kind {
        ParamKind::Singular => {
            let values = config.values_of(param);
            VoteTables::from_observations(
                scope
                    .carriers
                    .iter()
                    .map(|&c| (w.col[c.index() - w.base], values[c.index()])),
            )
        }
        ParamKind::Pairwise => {
            let values = config.pair_values_of(param);
            VoteTables::from_observations(
                scope
                    .pairs
                    .iter()
                    .map(|&q| (w.col[q as usize - w.base], values[q as usize])),
            )
        }
    };
}

/// Fits one parameter from its already-selected dependent set: key
/// layout, then key column (through the shared arena and cache) and vote
/// tables ([`build_tables`]). The fit calls this for every parameter, the
/// incremental fit when a delta batch changed a parameter's dependency
/// selection.
fn fit_param_with_dependent(
    snapshot: &NetworkSnapshot,
    arena: &AttrArena,
    cache: &KeyColumnCache,
    scope: &Scope,
    param: ParamId,
    dependent: Vec<PredictorAttr>,
) -> ParamCf {
    let def = snapshot.catalog.def(param);
    let cards: Vec<u16> = dependent
        .iter()
        .map(|pa| snapshot.schema.radix(pa.attr))
        .collect();
    let codec = PackedKeyCodec::new(&cards).expect(
        "every layout of an in-program schema fits 128 bits \
         (pinned by worst_case_schema_layouts_fit_u128 in crates/core/tests/equivalence.rs)",
    );
    let mut pc = ParamCf {
        param,
        dependent,
        codec,
        tables: VoteTables::default(),
        default: def.default,
        keys: KeyColumn::None,
    };
    build_tables(
        &mut pc,
        def.kind,
        snapshot,
        arena,
        cache,
        scope,
        Unmoved::ALL,
    );
    pc
}

/// The stable wire format for the fitted parameters: group keys leave the
/// process unpacked and sorted, exactly like the pre-packing layout, with
/// the key-layout cardinalities carried alongside so deserialization can
/// rebuild the packed representation. Files written before the per-level
/// `prefix_tables` were dropped still load: the reader ignores unknown
/// fields.
mod model_serde {
    use super::*;
    use serde::{Deserializer, Serializer};

    #[derive(Serialize, Deserialize)]
    struct TablesWire {
        /// Sorted `(unpacked key, table)` pairs.
        groups: Vec<(VoteKey, FreqTable)>,
        overall: FreqTable,
    }

    #[derive(Serialize, Deserialize)]
    struct ParamWire {
        param: ParamId,
        dependent: Vec<PredictorAttr>,
        /// Per-position cardinalities of the key layout.
        cards: Vec<u16>,
        tables: TablesWire,
        default: ValueIdx,
    }

    fn to_wire(tables: &VoteTables, codec: &PackedKeyCodec, len: usize) -> TablesWire {
        TablesWire {
            groups: tables
                .unpacked_groups(codec, len)
                .into_iter()
                .map(|(k, t)| (k, t.clone()))
                .collect(),
            overall: tables.overall().clone(),
        }
    }

    pub fn serialize<S: Serializer>(params: &[ParamCf], ser: S) -> Result<S::Ok, S::Error> {
        let wires: Vec<ParamWire> = params
            .iter()
            .map(|pc| ParamWire {
                param: pc.param,
                dependent: pc.dependent.clone(),
                cards: pc.codec.cards().to_vec(),
                tables: to_wire(&pc.tables, &pc.codec, pc.dependent.len()),
                default: pc.default,
            })
            .collect();
        wires.serialize(ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<Vec<ParamCf>, D::Error> {
        use serde::Error as _;
        let wires: Vec<ParamWire> = Vec::deserialize(de)?;
        wires
            .into_iter()
            .map(|w| {
                // The layout has one position per dependent attribute; a
                // mismatch means the file was corrupted, and every probe
                // key built from the dependency list would be the wrong
                // width for the stored groups.
                if w.cards.len() != w.dependent.len() {
                    return Err(D::Error::custom(format!(
                        "param {:?}: {} layout cards for {} dependent attributes",
                        w.param,
                        w.cards.len(),
                        w.dependent.len()
                    )));
                }
                // A layout over 128 bits cannot come from a fit: the
                // file was hand-edited or written for another schema.
                let codec = PackedKeyCodec::new(&w.cards)
                    .map_err(|e| D::Error::custom(format!("param {:?}: {e}", w.param)))?;
                // The overall table must be the merge of the group tables
                // (both accumulate exactly the recorded observations).
                // Leave-one-out exclusion subtracts a voter's count from
                // both, so a drifted overall would underflow or trip the
                // majority arithmetic deep in the recommendation chain.
                let mut merged = FreqTable::new();
                for (_, t) in &w.tables.groups {
                    merged.merge(t);
                }
                if merged != w.tables.overall {
                    return Err(D::Error::custom(format!(
                        "param {:?}: overall table is not the merge of its groups",
                        w.param
                    )));
                }
                let tables =
                    VoteTables::from_unpacked_groups(&codec, w.tables.groups, w.tables.overall)
                        .map_err(|e| D::Error::custom(format!("param {:?}: {e}", w.param)))?;
                Ok(ParamCf {
                    param: w.param,
                    dependent: w.dependent,
                    codec,
                    tables,
                    default: w.default,
                    keys: KeyColumn::None,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auric_netgen::{generate, NetScale, TuningKnobs};

    /// The unpacked vote key of a carrier, read back from its packed form.
    fn carrier_key(pc: &ParamCf, attrs: &AttrVec) -> VoteKey {
        pc.codec()
            .unpack(pc.packed_for_carrier(attrs), pc.dependent.len())
    }

    /// The unpacked vote key of a directed pair, read back from its packed
    /// form.
    fn pair_key(pc: &ParamCf, src: &AttrVec, dst: &AttrVec) -> VoteKey {
        pc.codec()
            .unpack(pc.packed_for_pair(src, dst), pc.dependent.len())
    }

    fn fitted() -> (auric_netgen::GeneratedNetwork, CfModel) {
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let scope = Scope::whole(&net.snapshot);
        let model = CfModel::fit(&net.snapshot, &scope, CfConfig::default());
        (net, model)
    }

    #[test]
    fn fit_covers_every_parameter() {
        let (net, model) = fitted();
        assert_eq!(model.params().len(), net.snapshot.catalog.len());
        for pc in model.params() {
            assert!(pc.tables.total() > 0, "{} has no observations", pc.param);
        }
    }

    #[test]
    fn clean_network_global_loo_is_nearly_perfect() {
        // Without tuning noise, every value is a function of attributes,
        // so exact-match voting with LoO must recover almost everything
        // (losses only where a group is a singleton).
        let (net, model) = fitted();
        let snap = &net.snapshot;
        let mut hit = 0usize;
        let mut total = 0usize;
        for p in snap.catalog.singular_ids() {
            let pc = model.param(p);
            for c in &snap.carriers {
                let key = carrier_key(pc, &c.attrs);
                let current = snap.config.value(p, c.id);
                let rec = model.recommend_global(p, &key, Some(current));
                total += 1;
                hit += usize::from(rec.value == current);
            }
        }
        let acc = hit as f64 / total as f64;
        assert!(acc > 0.93, "clean-network LoO accuracy {acc}");
    }

    #[test]
    fn carrier_entry_points_agree_with_the_unpacked_key_form() {
        // recommend_global_for_carrier (column fast path) must equal
        // recommend_global over the unpacked key, for fitted and for
        // deserialized (column-less) models alike.
        let (net, model) = fitted();
        let snap = &net.snapshot;
        let json = serde_json::to_string(&model).expect("serialize");
        let thawed: CfModel = serde_json::from_str(&json).expect("deserialize");
        for p in snap.catalog.singular_ids() {
            let pc = model.param(p);
            for c in snap.carriers.iter().step_by(7) {
                let key = carrier_key(pc, &c.attrs);
                let current = snap.config.value(p, c.id);
                let via_key = model.recommend_global(p, &key, Some(current));
                assert_eq!(
                    model.recommend_global_for_carrier(snap, p, c.id, Some(current)),
                    via_key
                );
                assert_eq!(
                    thawed.recommend_global_for_carrier(snap, p, c.id, Some(current)),
                    via_key
                );
            }
        }
        for p in snap.catalog.pairwise_ids().take(3) {
            let pc = model.param(p);
            for q in (0..snap.x2.n_pairs() as u32).step_by(13) {
                let (j, k) = snap.x2.pair(q);
                let key = pair_key(pc, &snap.carrier(j).attrs, &snap.carrier(k).attrs);
                let current = snap.config.pair_value(p, q);
                let via_key = model.recommend_global(p, &key, Some(current));
                assert_eq!(
                    model.recommend_global_for_pair(snap, p, q, Some(current)),
                    via_key
                );
                assert_eq!(
                    thawed.recommend_global_for_pair(snap, p, q, Some(current)),
                    via_key
                );
            }
        }
    }

    #[test]
    fn local_learner_recovers_pockets() {
        // Plant aggressive pockets; the local learner must beat the global
        // one on pocketed slots.
        let knobs = TuningKnobs {
            pocket_prob: 1.0,
            max_pockets: 6,
            params_per_pocket: (20, 40),
            pocket_radius_km: (3.0, 8.0),
            hidden_pocket_frac: 0.5,
            ..TuningKnobs::none()
        };
        let net = generate(
            &NetScale {
                n_markets: 2,
                enbs_per_market: 14,
                seed: 11,
            },
            &knobs,
        );
        let snap = &net.snapshot;
        let scope = Scope::whole(snap);
        let model = CfModel::fit(snap, &scope, CfConfig::default());
        let mut local_hit = 0usize;
        let mut global_hit = 0usize;
        let mut pocket_slots = 0usize;
        for p in snap.catalog.singular_ids() {
            let pc = model.param(p);
            for c in &snap.carriers {
                if !matches!(
                    snap.config.provenance(p, c.id),
                    auric_model::Provenance::Pocket { .. }
                ) {
                    continue;
                }
                pocket_slots += 1;
                let current = snap.config.value(p, c.id);
                let local = model.recommend_local_singular(snap, p, c.id, true);
                let global = model.recommend_global(p, &carrier_key(pc, &c.attrs), Some(current));
                local_hit += usize::from(local.value == current);
                global_hit += usize::from(global.value == current);
            }
        }
        assert!(
            pocket_slots > 50,
            "need pocketed slots to compare ({pocket_slots})"
        );
        assert!(
            local_hit > global_hit,
            "local {local_hit} vs global {global_hit} on {pocket_slots} pocket slots"
        );
    }

    #[test]
    fn pairwise_recommendations_work() {
        let (net, model) = fitted();
        let snap = &net.snapshot;
        let p = snap.catalog.pairwise_ids().next().unwrap();
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in 0..snap.x2.n_pairs().min(500) as u32 {
            let current = snap.config.pair_value(p, q);
            let rec = model.recommend_local_pair(snap, p, q, true);
            total += 1;
            hit += usize::from(rec.value == current);
        }
        assert!(total > 0);
        assert!(
            hit as f64 / total as f64 > 0.8,
            "pairwise local accuracy {}/{total}",
            hit
        );
    }

    #[test]
    fn fallback_chain_reaches_default_on_unseen_keys() {
        let (net, model) = fitted();
        let snap = &net.snapshot;
        let p = snap.catalog.singular_ids().next().unwrap();
        let pc = model.param(p);
        // A key that cannot exist (levels past every cardinality; they
        // collapse to the reserved sentinel, which no recorded key holds).
        let bogus: Vec<u16> = pc.dependent.iter().map(|_| u16::MAX).collect();
        let rec = model.recommend_global(p, &bogus, None);
        assert!(
            matches!(rec.basis, Basis::GlobalMajority | Basis::Default),
            "unseen key must not produce a group vote: {rec:?}"
        );
    }

    #[test]
    fn backoff_resolves_rare_combinations_from_ancestor_groups() {
        // Construct a parameter state by hand: key = (attr0, attr1), a
        // big group at (0, 0) and a singleton at (0, 9). Excluding the
        // singleton's own value empties its group; backoff must answer
        // from the (0,) prefix instead of the scope-wide table.
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let snap = &net.snapshot;
        let scope = Scope::whole(snap);
        let model = CfModel::fit(snap, &scope, CfConfig::default());
        // Find a parameter with >= 2 dependent attributes and probe a
        // synthetic key whose full combination was never observed but
        // whose first-attribute prefix was.
        for pc in model.params() {
            if pc.dependent.len() < 2 {
                continue;
            }
            // Take an existing key and mutate its last component to an
            // unseen level.
            let some_key = match snap.catalog.def(pc.param).kind {
                auric_model::ParamKind::Singular => {
                    carrier_key(pc, &snap.carrier(CarrierId(0)).attrs)
                }
                _ => continue,
            };
            let mut probe = some_key.clone();
            *probe.last_mut().unwrap() = u16::MAX; // impossible level
            let rec = model.recommend_global(pc.param, &probe, None);
            assert!(
                matches!(rec.basis, Basis::GroupMajority),
                "unseen last component should back off to an ancestor group, got {rec:?}"
            );
            assert!(rec.voters > 0, "backoff answers carry evidence");
            return;
        }
        panic!("no suitable multi-attribute parameter found");
    }

    #[test]
    fn serde_round_trips_the_fitted_model() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::default());
        let snap = &net.snapshot;
        let scope = Scope::whole(snap);
        let model = CfModel::fit(snap, &scope, CfConfig::default());
        let json = serde_json::to_string(&model).expect("serialize");
        let back: CfModel = serde_json::from_str(&json).expect("deserialize");
        // Same recommendations after the round trip.
        for p in snap.catalog.singular_ids().take(5) {
            for i in (0..snap.n_carriers()).step_by(17) {
                let c = CarrierId::from_index(i);
                let a = model.recommend_local_singular(snap, p, c, true);
                let b = back.recommend_local_singular(snap, p, c, true);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn key_column_cache_survives_a_poisoned_lock() {
        // A fit worker that panics (injected serving faults) can die while
        // holding the cache's lock. An entry is only inserted once its
        // column is complete, so the poison carries no torn state — later
        // fits through the same cache must keep working, not panic forever
        // on `lock().unwrap()`.
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let scope = Scope::whole(&net.snapshot);
        let cache = SharedKeyColumns::new();
        let first = CfModel::fit_with(
            &net.snapshot,
            &scope,
            CfConfig::default(),
            FitOptions {
                key_cache: Some(cache.clone()),
                ..FitOptions::default()
            },
        );
        let built_before = cache.built();
        assert!(built_before > 0, "first fit populated the cache");
        let c2 = cache.clone();
        std::thread::spawn(move || {
            let KeyColumnCache(lock) = &*c2.0;
            let _guard = lock.lock().unwrap();
            panic!("injected fault while holding the cache lock");
        })
        .join()
        .expect_err("the poisoning thread panics");
        let second = CfModel::fit_with(
            &net.snapshot,
            &scope,
            CfConfig::default(),
            FitOptions {
                key_cache: Some(cache.clone()),
                ..FitOptions::default()
            },
        );
        // The poisoned lock neither panicked nor invalidated the cache:
        // the second fit shared every column instead of rebuilding.
        assert_eq!(cache.built(), built_before);
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap()
        );
    }

    /// Mutable access to a JSON object's field (the vendored `Value` has
    /// no `IndexMut`).
    fn field_mut<'a>(v: &'a mut serde_json::Value, key: &str) -> &'a mut serde_json::Value {
        let serde_json::Value::Map(entries) = v else {
            panic!("not a JSON object")
        };
        &mut entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no field {key}"))
            .1
    }

    /// A serialized model, parsed for editing.
    fn wire_value(model: &CfModel) -> serde_json::Value {
        serde_json::from_str(&serde_json::to_string(model).unwrap()).unwrap()
    }

    #[test]
    fn files_with_per_level_prefix_tables_still_load() {
        // Files written before the per-level backoff tables were dropped
        // carry a `prefix_tables` array per parameter; the reader ignores
        // it and rebuilds the same model.
        let (_, model) = fitted();
        let mut value = wire_value(&model);
        let serde_json::Value::Seq(params) = field_mut(&mut value, "params") else {
            panic!("params array")
        };
        for p in params.iter_mut() {
            let tables = field_mut(p, "tables").clone();
            let serde_json::Value::Map(entries) = p else {
                panic!("param object")
            };
            entries.push(("prefix_tables".into(), serde_json::Value::Seq(vec![tables])));
        }
        let old = serde_json::to_string(&value).unwrap();
        let back = CfModel::from_json_bytes(old.as_bytes()).expect("older file loads");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&model).unwrap()
        );
    }

    #[test]
    fn layouts_over_128_bits_are_refused_on_load() {
        // Nine 16-bit positions need 144 bits: no fit produces that, so a
        // file declaring it was hand-edited. Loading it is an error, not a
        // panic and not a second key representation.
        let (_, model) = fitted();
        let mut value = wire_value(&model);
        let serde_json::Value::Seq(params) = field_mut(&mut value, "params") else {
            panic!("params array")
        };
        let attr = serde::to_value(&PredictorAttr {
            attr: auric_model::AttrId(0),
            side: Side::Src,
        });
        *field_mut(&mut params[0], "dependent") = serde_json::Value::Seq(vec![attr; 9]);
        *field_mut(&mut params[0], "cards") =
            serde_json::Value::Seq(vec![serde_json::Value::UInt(65535); 9]);
        let bytes = serde_json::to_string(&value).unwrap();
        let err = CfModel::from_json_bytes(bytes.as_bytes()).unwrap_err();
        assert!(
            matches!(&err, ModelLoadError::Parse(msg) if msg.contains("144 bits")),
            "{err}"
        );
    }

    #[test]
    fn wire_format_keeps_groups_as_sorted_unpacked_pairs() {
        // The on-disk JSON must expose group keys as attribute-level
        // arrays (sorted), not packed integers.
        let (net, model) = fitted();
        let json = serde_json::to_string(&model).expect("serialize");
        let value: serde_json::Value = serde_json::from_str(&json).expect("parse");
        let params = value["params"].as_array().expect("params array");
        assert_eq!(params.len(), net.snapshot.catalog.len());
        let mut saw_nonempty_key = false;
        for p in params {
            let n_dep = p["dependent"].as_array().expect("dependent").len();
            assert_eq!(p["cards"].as_array().expect("cards").len(), n_dep);
            let groups = p["tables"]["groups"].as_array().expect("groups");
            let mut prev: Option<Vec<u64>> = None;
            for pair in groups {
                let entry = pair.as_array().expect("pair");
                let key: Vec<u64> = entry[0]
                    .as_array()
                    .expect("unpacked key array")
                    .iter()
                    .map(|v| v.as_u64().expect("level"))
                    .collect();
                assert_eq!(key.len(), n_dep, "key length matches dependency count");
                saw_nonempty_key |= !key.is_empty();
                if let Some(prev) = &prev {
                    assert!(prev < &key, "groups sorted by unpacked key");
                }
                prev = Some(key);
            }
        }
        assert!(saw_nonempty_key, "expected at least one non-trivial key");
    }

    #[test]
    fn fit_is_deterministic_despite_parallelism() {
        let net = generate(&NetScale::tiny(), &TuningKnobs::default());
        let snap = &net.snapshot;
        let scopes: Vec<Scope> = std::iter::once(Scope::whole(snap))
            .chain(snap.markets.iter().map(|m| Scope::market(snap, m.id)))
            .collect();
        // `Some(0)` means the calling thread alone, like `Some(1)`.
        assert_eq!(helpers_for(Some(0), snap.catalog.len()), 0);
        // One run per schedule: the calling thread alone (asked for as 0
        // and as 1 threads), and two helpers (spawned whatever the core
        // count). Each fits every scope through its own key cache.
        let runs: Vec<(usize, Vec<CfModel>, Recorder)> = [0, 1, 3]
            .into_iter()
            .map(|threads| {
                let obs = Recorder::deterministic();
                let key_cache = SharedKeyColumns::new();
                let models = scopes
                    .iter()
                    .map(|scope| {
                        let opts = FitOptions {
                            obs: obs.clone(),
                            threads: Some(threads),
                            key_cache: Some(key_cache.clone()),
                        };
                        CfModel::fit_with(snap, scope, CfConfig::default(), opts)
                    })
                    .collect();
                (threads, models, obs)
            })
            .collect();
        let (_, base_models, base_obs) = &runs[0];
        let aliasing = column_aliasing(base_models);
        assert!(
            aliasing
                .iter()
                .enumerate()
                .any(|(i, a)| a.is_some_and(|first| first != i)),
            "no two parameters share a key column"
        );
        for (threads, models, obs) in &runs[1..] {
            for (s, (a, b)) in base_models.iter().zip(models).enumerate() {
                assert_eq!(
                    serde_json::to_string(a).unwrap(),
                    serde_json::to_string(b).unwrap(),
                    "{threads} threads, scope {s}: models differ"
                );
                assert_eq!(
                    key_columns(a),
                    key_columns(b),
                    "{threads} threads, scope {s}: key columns differ"
                );
            }
            assert_eq!(
                column_aliasing(models),
                aliasing,
                "{threads} threads: key columns alias differently"
            );
            assert_eq!(
                fit_metrics(obs),
                fit_metrics(base_obs),
                "{threads} threads: fit or selection metrics differ"
            );
        }
    }

    /// The report lines of every `cf.fit*` and `cf.dep.*` counter, gauge,
    /// histogram and span of `obs`.
    fn fit_metrics(obs: &Recorder) -> Vec<String> {
        obs.report_json()
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("\"cf.fit") || l.starts_with("\"cf.dep."))
            .map(str::to_string)
            .collect()
    }

    /// For every parameter of every model in turn, the position in that
    /// list of the first key column sharing its allocation.
    fn column_aliasing(models: &[CfModel]) -> Vec<Option<usize>> {
        let cols: Vec<Option<Arc<[u128]>>> = models.iter().flat_map(key_columns).collect();
        cols.iter()
            .map(|c| {
                let c = c.as_ref()?;
                cols.iter()
                    .position(|d| d.as_ref().is_some_and(|d| Arc::ptr_eq(c, d)))
            })
            .collect()
    }

    /// Every parameter's key column (compared by content).
    fn key_columns(model: &CfModel) -> Vec<Option<Arc<[u128]>>> {
        model.params().iter().map(ParamCf::key_column_arc).collect()
    }

    /// The `cf.dep.*` and `cf.delta.*` counters and gauges of `obs`.
    fn selection_and_delta_metrics(obs: &Recorder) -> Vec<(String, u64)> {
        let report: serde_json::Value =
            serde_json::from_str(&obs.report_json()).expect("report is JSON");
        ["counters", "gauges"]
            .into_iter()
            .flat_map(|section| match &report[section] {
                serde_json::Value::Map(metrics) => metrics.clone(),
                other => panic!("{section} is not a map: {other:?}"),
            })
            .filter(|(name, _)| name.starts_with("cf.dep.") || name.starts_with("cf.delta."))
            .map(|(name, v)| (name, v.as_u64().expect("metric is a count")))
            .collect()
    }

    #[test]
    fn delta_selection_helpers_do_not_change_the_rolled_model() {
        let mut s = auric_netgen::stream(&NetScale::tiny(), &TuningKnobs::default());
        let mut snap = auric_model::empty_snapshot(s.schema().clone(), s.catalog().clone());
        let mut arena = AttrArena::from_snapshot(&snap);
        let mut scope = Scope::whole(&snap);
        // One model per schedule: the calling thread alone, and two
        // helpers (spawned whatever the core count or batch size).
        let mut runs: Vec<(usize, CfModel)> = [0, 2]
            .into_iter()
            .map(|helpers| {
                let opts = FitOptions {
                    obs: Recorder::deterministic(),
                    ..FitOptions::default()
                };
                (
                    helpers,
                    CfModel::fit_with(&snap, &scope, CfConfig::default(), opts),
                )
            })
            .collect();
        let mut batches = 0;
        while let Some(batch) = s.next_batch() {
            let digest = auric_model::apply_fleet_deltas(&mut snap, &batch)
                .expect("stream batches are consistent");
            arena.append(&snap);
            let before = std::mem::replace(&mut scope, Scope::whole(&snap));
            let apply = DeltaApply {
                snapshot: &snap,
                arena: &arena,
                scope_before: &before,
                scope_after: &scope,
                batch: &digest,
                key_cache: None,
            };
            let reports: Vec<DeltaFitReport> = runs
                .iter_mut()
                .map(|(helpers, model)| model.apply_delta_with(&apply, Some(*helpers)))
                .collect();
            assert_eq!(reports[0], reports[1], "batch {batches}: reports differ");
            let (alone, helped) = (&runs[0].1, &runs[1].1);
            assert_eq!(
                serde_json::to_string(alone).unwrap(),
                serde_json::to_string(helped).unwrap(),
                "batch {batches}: models differ"
            );
            assert_eq!(
                key_columns(alone),
                key_columns(helped),
                "batch {batches}: key columns differ"
            );
            assert_eq!(
                selection_and_delta_metrics(alone.recorder()),
                selection_and_delta_metrics(helped.recorder()),
                "batch {batches}: selection or delta counts differ"
            );
            batches += 1;
        }
        assert!(batches > 1, "the tiny stream has batches");
        let metrics = selection_and_delta_metrics(runs[1].1.recorder());
        for name in ["cf.dep.conditional_tests", "cf.delta.params_patched"] {
            assert!(
                metrics.iter().any(|(n, v)| n == name && *v > 0),
                "{name} never counted: {metrics:?}"
            );
        }
        let refit = CfModel::fit(&snap, &scope, CfConfig::default());
        for (helpers, model) in &runs {
            assert_eq!(
                serde_json::to_string(model).unwrap(),
                serde_json::to_string(&refit).unwrap(),
                "{helpers} helpers: rolled model differs from a full refit"
            );
            assert_eq!(
                key_columns(model),
                key_columns(&refit),
                "{helpers} helpers: key columns differ from a refit"
            );
        }
    }

    /// The brute-force [`ScopeChange`]: carriers keyed by id and directed
    /// pairs by their `(src, dst)` endpoints, in scope before and after.
    fn scope_change_oracle(
        pre: &NetworkSnapshot,
        before: &Scope,
        post: &NetworkSnapshot,
        after: &Scope,
    ) -> ScopeChange {
        use std::collections::BTreeSet;
        let carriers = |s: &Scope| s.carriers.iter().copied().collect::<BTreeSet<_>>();
        let pairs = |snap: &NetworkSnapshot, s: &Scope| {
            s.pairs
                .iter()
                .map(|&q| snap.x2.pair(q))
                .collect::<BTreeSet<_>>()
        };
        let (c0, c1) = (carriers(before), carriers(after));
        let (p0, p1) = (pairs(pre, before), pairs(post, after));
        ScopeChange {
            added_carriers: c1.difference(&c0).count(),
            removed_carriers: c0.difference(&c1).count(),
            added_pairs: p1.difference(&p0).count(),
            removed_pairs: p0.difference(&p1).count(),
        }
    }

    /// The whole fleet, then each of `n_markets` markets (empty while the
    /// snapshot does not have it yet).
    fn every_scope(snap: &NetworkSnapshot, n_markets: usize) -> Vec<Scope> {
        let market = |m: usize| match snap.markets.get(m) {
            Some(market) => Scope::market(snap, market.id),
            None => Scope::markets(snap, &[]),
        };
        std::iter::once(Scope::whole(snap))
            .chain((0..n_markets).map(market))
            .collect()
    }

    /// Fixed structural batches against a generated two-market fleet:
    /// tail removal with X2 edges, add-then-remove inside one batch, an
    /// edge added to the tail before it leaves, an edge inserted in market
    /// 0 (shifting market 1's pairs), a carrier appended without edges, and
    /// the whole tail market removed.
    fn removal_shapes(base: &NetworkSnapshot) -> Vec<Vec<auric_model::FleetDelta>> {
        use auric_model::FleetDelta;
        let n = base.n_carriers() as u32;
        let tail = CarrierId(n - 1);
        let born = CarrierId(n);
        let add = || {
            let mut carrier = base.carrier(CarrierId(0)).clone();
            carrier.id = born;
            let values = base.catalog.singular_ids();
            let values = values.map(|p| base.config.value(p, CarrierId(0))).collect();
            FleetDelta::AddCarrier {
                carrier,
                base: values,
            }
        };
        let edge = |a: CarrierId, b: CarrierId| {
            let values: Vec<_> = base
                .catalog
                .pairwise_ids()
                .map(|p| base.config.pair_value(p, 0))
                .collect();
            FleetDelta::AddX2Edge {
                a,
                b,
                base_ab: values.clone(),
                base_ba: values,
            }
        };
        let absent = |of: &[CarrierId]| {
            of.iter()
                .flat_map(|&a| of.iter().map(move |&b| (a, b)))
                .find(|&(a, b)| a < b && !base.x2.neighbors(a).contains(&b))
                .expect("a missing edge")
        };
        let m0 = base.carriers_in_market(base.markets[0].id);
        let last = base.carriers_in_market(base.markets[1].id);
        let (a0, b0) = absent(m0);
        let stranger = (0..n - 1)
            .map(CarrierId)
            .find(|c| !base.x2.neighbors(tail).contains(c))
            .expect("the tail is not adjacent to everything");
        vec![
            vec![FleetDelta::RemoveCarrier { id: tail }],
            vec![
                add(),
                edge(born, CarrierId(0)),
                FleetDelta::RemoveCarrier { id: born },
                FleetDelta::RemoveCarrier { id: tail },
            ],
            vec![edge(tail, stranger), FleetDelta::RemoveCarrier { id: tail }],
            vec![edge(a0, b0)],
            vec![add()],
            last.iter()
                .rev()
                .map(|&id| FleetDelta::RemoveCarrier { id })
                .collect(),
        ]
    }

    #[test]
    fn scope_change_matches_the_endpoint_oracle() {
        // Every batch of the tiny stream, rolled from the empty fleet.
        let scale = NetScale::tiny();
        let mut s = auric_netgen::stream(&scale, &TuningKnobs::default());
        let mut snap = auric_model::empty_snapshot(s.schema().clone(), s.catalog().clone());
        let mut cases = Vec::new();
        while let Some(batch) = s.next_batch() {
            let pre = snap.clone();
            let digest = auric_model::apply_fleet_deltas(&mut snap, &batch).unwrap();
            cases.push((pre, snap.clone(), digest, scale.n_markets));
        }
        // The removal shapes, each against the same generated fleet.
        let scale = NetScale {
            n_markets: 2,
            enbs_per_market: 4,
            seed: 31,
        };
        let base = generate(&scale, &TuningKnobs::default()).snapshot;
        for batch in removal_shapes(&base) {
            let mut post = base.clone();
            let digest = auric_model::apply_fleet_deltas(&mut post, &batch).unwrap();
            cases.push((base.clone(), post, digest, scale.n_markets));
        }
        let mut seen = ScopeChange::default();
        for (i, (pre, post, digest, n_markets)) in cases.iter().enumerate() {
            let befores = every_scope(pre, *n_markets);
            for (si, after) in every_scope(post, *n_markets).iter().enumerate() {
                let want = scope_change_oracle(pre, &befores[si], post, after);
                let got = ScopeChange::of(digest, &befores[si], after, post.x2.n_pairs());
                assert_eq!(got, want, "batch {i}, scope {si}");
                seen.added_carriers += got.added_carriers;
                seen.removed_carriers += got.removed_carriers;
                seen.added_pairs += got.added_pairs;
                seen.removed_pairs += got.removed_pairs;
            }
        }
        assert!(
            seen.added_carriers > 0
                && seen.removed_carriers > 0
                && seen.added_pairs > 0
                && seen.removed_pairs > 0,
            "every count was exercised: {seen:?}"
        );
    }

    /// How [`refresh_key_column`] brought the columns of one batch to
    /// their new windows.
    #[derive(Debug, Default)]
    struct Refreshes {
        /// Kept whole: same window, unmoved targets.
        kept: usize,
        /// The old column reused as a prefix and a new tail packed.
        extended: usize,
        /// Packed afresh over a non-empty window.
        repacked: usize,
    }

    /// Refreshes every key column of `model`, fitted on `pre`, to
    /// `after`'s windows over the post-batch `post` and `arena`, twice:
    /// as fitted, and with every key of the old column flipped. The first
    /// must equal a fresh pack of the window. The second shows which keys
    /// were reused: exactly the old window's, when it starts the new one,
    /// ends inside it, and each of its targets kept its index and its
    /// endpoints (read off both snapshots, not off the remap) — and none
    /// otherwise.
    fn check_refreshes(
        model: &CfModel,
        pre: &NetworkSnapshot,
        post: &NetworkSnapshot,
        arena: &AttrArena,
        after: &Scope,
        batch: &AppliedBatch,
        seen: &mut Refreshes,
    ) {
        for pc in model.params() {
            let kind = post.catalog.def(pc.param).kind;
            let (old, unmoved) = match kind {
                ParamKind::Singular => (pc.keys.carriers(), Unmoved::ALL),
                ParamKind::Pairwise => (pc.keys.pairs(), Unmoved::pairs(batch)),
            };
            let old = old.expect("a fitted model has key columns");
            let window = window(after, kind);
            let packer = ArenaPacker::new(arena, &pc.codec, &pc.dependent, kind);
            let fresh = packer.column(&[], window.clone());
            let mut real = pc.clone();
            let cache = KeyColumnCache::default();
            let got = refresh_key_column(&mut real, kind, arena, &cache, window.clone(), unmoved);
            assert_eq!(got.window(), window);
            assert_eq!(got.col, fresh, "{:?}: refreshed column", pc.param);

            let same_target = |t: usize| match kind {
                ParamKind::Singular => {
                    t < post.n_carriers() && pre.carriers[t].attrs == post.carriers[t].attrs
                }
                ParamKind::Pairwise => {
                    t < post.x2.n_pairs() && pre.x2.pair(t as u32) == post.x2.pair(t as u32)
                }
            };
            let reusable = old.base == window.start
                && old.window().end <= window.end
                && old.window().all(same_target);
            let reused = if reusable { old.col.len() } else { 0 };
            let mut flipped = pc.clone();
            let col = old.col.iter().map(|k| !k).collect();
            let flipped_old = WindowColumn {
                base: old.base,
                col,
            };
            flipped.keys = match kind {
                ParamKind::Singular => KeyColumn::Carrier(flipped_old),
                ParamKind::Pairwise => KeyColumn::Pair(flipped_old),
            };
            let cache = KeyColumnCache::default();
            let got =
                refresh_key_column(&mut flipped, kind, arena, &cache, window.clone(), unmoved);
            let want: Vec<u128> = fresh
                .iter()
                .enumerate()
                .map(|(i, &k)| if i < reused { !k } else { k })
                .collect();
            assert_eq!(&got.col[..], &want[..], "{:?}: reused keys", pc.param);
            match (reusable, reused == window.len()) {
                (true, true) => seen.kept += 1,
                (true, false) => seen.extended += 1,
                (false, _) if !window.is_empty() => seen.repacked += 1,
                (false, _) => {}
            }
        }
    }

    /// Applies `batch` to `snap` and rolls `models` (one per scope of
    /// [`every_scope`]) over it, checking every key column refresh first
    /// and the rolled columns against a full refit after.
    fn roll_and_check(
        snap: &mut NetworkSnapshot,
        models: &mut [CfModel],
        n_markets: usize,
        batch: &[auric_model::FleetDelta],
    ) -> Refreshes {
        let pre = snap.clone();
        let digest = auric_model::apply_fleet_deltas(snap, batch).expect("a consistent batch");
        let arena = AttrArena::from_snapshot(snap);
        let befores = every_scope(&pre, n_markets);
        let afters = every_scope(snap, n_markets);
        let mut seen = Refreshes::default();
        for (i, model) in models.iter_mut().enumerate() {
            check_refreshes(model, &pre, snap, &arena, &afters[i], &digest, &mut seen);
            model.apply_delta(&DeltaApply {
                snapshot: snap,
                arena: &arena,
                scope_before: &befores[i],
                scope_after: &afters[i],
                batch: &digest,
                key_cache: None,
            });
            let refit = CfModel::fit(snap, &afters[i], CfConfig::default());
            assert_eq!(key_columns(model), key_columns(&refit), "scope {i}");
        }
        seen
    }

    #[test]
    fn tail_extended_key_columns_equal_fresh_packs() {
        // Stand-up: the tiny stream from the empty fleet, through the
        // whole-fleet model and one model per market.
        let scale = NetScale::tiny();
        let mut s = auric_netgen::stream(&scale, &TuningKnobs::default());
        let mut snap = auric_model::empty_snapshot(s.schema().clone(), s.catalog().clone());
        let fit_all = |snap: &NetworkSnapshot, n_markets: usize| -> Vec<CfModel> {
            every_scope(snap, n_markets)
                .iter()
                .map(|scope| CfModel::fit(snap, scope, CfConfig::default()))
                .collect()
        };
        let mut models = fit_all(&snap, scale.n_markets);
        let mut standup = Refreshes::default();
        while let Some(batch) = s.next_batch() {
            let seen = roll_and_check(&mut snap, &mut models, scale.n_markets, &batch);
            standup.kept += seen.kept;
            standup.extended += seen.extended;
            standup.repacked += seen.repacked;
        }
        assert!(
            standup.extended > standup.repacked && standup.kept > 0,
            "stand-up batches extend their columns: {standup:?}"
        );

        let scale = NetScale {
            n_markets: 2,
            enbs_per_market: 4,
            seed: 31,
        };
        let base = generate(&scale, &TuningKnobs::default()).snapshot;
        let shapes = removal_shapes(&base);
        // Remove the tail (every window that held it shrinks), then
        // append a carrier without edges (they grow again).
        let mut snap = base.clone();
        let mut models = fit_all(&snap, scale.n_markets);
        let shrunk = roll_and_check(&mut snap, &mut models, scale.n_markets, &shapes[0]);
        assert_eq!(
            shrunk.extended, 0,
            "a shrunk window is repacked: {shrunk:?}"
        );
        assert!(shrunk.repacked > 0, "{shrunk:?}");
        let born = CarrierId(snap.n_carriers() as u32);
        let mut carrier = snap.carrier(CarrierId(0)).clone();
        carrier.id = born;
        let values = snap.catalog.singular_ids();
        let values = values.map(|p| snap.config.value(p, CarrierId(0))).collect();
        let add = auric_model::FleetDelta::AddCarrier {
            carrier,
            base: values,
        };
        let grown = roll_and_check(&mut snap, &mut models, scale.n_markets, &[add]);
        assert!(grown.extended > 0, "a grown window is extended: {grown:?}");

        // An edge inside market 0 moves every later pair: the pair
        // columns over them are packed afresh.
        let mut snap = base.clone();
        let mut models = fit_all(&snap, scale.n_markets);
        let moved = roll_and_check(&mut snap, &mut models, scale.n_markets, &shapes[3]);
        let pairwise = base.catalog.pairwise_ids().count();
        assert!(
            moved.repacked >= 2 * pairwise,
            "the fleet's and market 1's pair columns are repacked: {moved:?}"
        );
    }

    #[test]
    fn scheduler_keeps_every_result_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for helpers in [0, 1, 3] {
            let work = |i: usize| (i * i, std::thread::current().id());
            let kept = work_then_keep(257, helpers, work, |i, (v, worker)| {
                assert_eq!(std::thread::current().id(), caller);
                if helpers == 0 {
                    assert_eq!(worker, caller, "no helper is spawned");
                }
                (i, v)
            });
            let want: Vec<_> = (0..257).map(|i| (i, i * i)).collect();
            assert_eq!(kept, want, "{helpers} helpers");
        }
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let out = parallel_map(257, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        assert_eq!(parallel_map(0, |i| i), Vec::<usize>::new());
    }

    mod keycol_proptests {
        //! Differential proptests: for any random `(kind, dependent)`
        //! layout and index window, the column the shared cache hands out
        //! equals a per-target recompute straight from the carrier
        //! structs, and a repeat request aliases the same physical `Arc`.

        use super::*;
        use auric_model::AttrId;
        use proptest::prelude::*;

        fn shared_net() -> &'static auric_netgen::GeneratedNetwork {
            static NET: std::sync::OnceLock<auric_netgen::GeneratedNetwork> =
                std::sync::OnceLock::new();
            NET.get_or_init(|| generate(&NetScale::tiny(), &TuningKnobs::default()))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The column packer — blocks of keys filled one position at a
            /// time, pair keys through per-carrier partial keys — equals
            /// packing each target row-major. Layouts run up to 128 bits,
            /// and a position's cardinality may sit below the arena's
            /// levels, so those clamp to the sentinel.
            #[test]
            fn column_packing_matches_row_major_packing(
                spec in collection::vec((0usize..1024, 0u8..2, 0u16..=u16::MAX, 0u8..3), 0..12),
                pairwise in 0u8..2,
                ends in (0.0f64..=1.0, 0.0f64..=1.0),
            ) {
                let net = shared_net();
                let snap = &net.snapshot;
                let arena = AttrArena::from_snapshot(snap);
                let attrs: Vec<AttrId> = snap.schema.attr_ids().collect();
                let kind = if pairwise == 1 {
                    ParamKind::Pairwise
                } else {
                    ParamKind::Singular
                };
                let mut dependent = Vec::new();
                let mut cards: Vec<u16> = Vec::new();
                let mut bits = 0;
                for &(a, s, raw, mode) in &spec {
                    let attr = attrs[a % attrs.len()];
                    let radix = snap.schema.radix(attr);
                    let card = match mode {
                        0 => radix,
                        1 => (raw % radix).max(1),
                        _ => raw.max(1),
                    };
                    let width = (u16::BITS - card.leading_zeros()).max(1);
                    if bits + width > 128 {
                        break;
                    }
                    bits += width;
                    cards.push(card);
                    let side = if kind == ParamKind::Pairwise && s == 1 {
                        Side::Dst
                    } else {
                        Side::Src
                    };
                    dependent.push(PredictorAttr { attr, side });
                }
                let codec = PackedKeyCodec::new(&cards).unwrap();
                let packer = ArenaPacker::new(&arena, &codec, &dependent, kind);
                let n = match kind {
                    ParamKind::Singular => snap.n_carriers(),
                    ParamKind::Pairwise => snap.x2.n_pairs(),
                };
                let (a, b) = ((ends.0 * n as f64) as usize, (ends.1 * n as f64) as usize);
                let window = a.min(b)..a.max(b);
                let column = packer.column(&[], window.clone());
                let rows: Vec<u128> = window.map(|t| packer.pack(t)).collect();
                prop_assert_eq!(&column[..], &rows[..]);
            }

            #[test]
            fn cached_columns_equal_fresh_packs(
                spec in collection::vec((0usize..1024, 0u8..2), 1..7),
                pairwise in 0u8..2,
                ends in (0.0f64..=1.0, 0.0f64..=1.0),
            ) {
                let net = shared_net();
                let snap = &net.snapshot;
                let arena = AttrArena::from_snapshot(snap);
                let attrs: Vec<AttrId> = snap.schema.attr_ids().collect();
                let kind = if pairwise == 1 {
                    ParamKind::Pairwise
                } else {
                    ParamKind::Singular
                };
                let dependent: Vec<PredictorAttr> = spec
                    .iter()
                    .map(|&(a, s)| PredictorAttr {
                        attr: attrs[a % attrs.len()],
                        side: if matches!(kind, ParamKind::Pairwise) && s == 1 {
                            Side::Dst
                        } else {
                            Side::Src
                        },
                    })
                    .collect();
                let cards: Vec<u16> = dependent
                    .iter()
                    .map(|pa| snap.schema.radix(pa.attr))
                    .collect();
                // At most 6 attributes of the tiny schema always fit.
                let codec = PackedKeyCodec::new(&cards).unwrap();
                let n = match kind {
                    ParamKind::Singular => snap.n_carriers(),
                    ParamKind::Pairwise => snap.x2.n_pairs(),
                };
                let (a, b) = ((ends.0 * n as f64) as usize, (ends.1 * n as f64) as usize);
                let window = a.min(b)..a.max(b);
                let cache = KeyColumnCache::default();
                let w = cache.get_or_build(kind, &dependent, window.clone(), || {
                    ArenaPacker::new(&arena, &codec, &dependent, kind).column(&[], window.clone())
                });
                prop_assert_eq!(w.window(), window.clone());
                let col = &w.col;
                match kind {
                    ParamKind::Singular => {
                        for t in window.clone() {
                            let c = &snap.carriers[t];
                            let fresh = codec.pack_with(|i| c.attrs.get(dependent[i].attr));
                            prop_assert_eq!(col[t - w.base], fresh, "carrier {} diverges", t);
                        }
                    }
                    ParamKind::Pairwise => {
                        for q in window.start as u32..window.end as u32 {
                            let (j, k) = snap.x2.pair(q);
                            let fresh = codec.pack_with(|i| {
                                let pa = dependent[i];
                                match pa.side {
                                    Side::Src => snap.carrier(j).attrs.get(pa.attr),
                                    Side::Dst => snap.carrier(k).attrs.get(pa.attr),
                                }
                            });
                            prop_assert_eq!(col[q as usize - w.base], fresh, "pair {} diverges", q);
                        }
                    }
                }
                let again = cache.get_or_build(kind, &dependent, window, || {
                    panic!("column must be cached")
                });
                prop_assert!(Arc::ptr_eq(col, &again.col), "repeat request must alias");
                let columns = cache.lock();
                prop_assert_eq!((columns.built, columns.shared), (1, 1));
            }
        }
    }
}
