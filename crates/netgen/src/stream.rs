//! Streaming fleet generation: the same fleet as [`crate::generate`],
//! emitted as an ordered sequence of [`FleetDelta`] events in natural
//! batches — one market's build, then one parameter's retunes.
//!
//! Collected into an empty snapshot (via
//! [`auric_model::apply_fleet_deltas`]), the event sequence reproduces
//! `generate(scale, knobs)` **byte for byte** — carriers, X2 graph,
//! configuration values *and* provenance. The pinned differential tests
//! at the bottom of this file are the contract.
//!
//! ## How the replay works
//!
//! [`stream`] builds the topology and the latent-rule configuration once,
//! exactly as `generate()` does, and keeps both. It then replays
//! `generate()`'s four tuning passes through the very bodies `generate()`
//! runs ([`crate::tuning`]), each from an RNG seeded as `generate()` seeds
//! it, with a writer that both sets the kept configuration and records
//! each write as a [`FleetDelta::Retune`]:
//!
//! - **Phase A — one market at a time.** The market's adds come from the
//!   built topology; their base values are the configuration's rule
//!   values. Then the market's pocket body runs. The pocket pass visits
//!   markets in order from one RNG and only writes the market's own
//!   slots, so this is the batch pass's draw and write sequence.
//! - **Phase B — one parameter at a time.** `stale(p)`, `live(p)`,
//!   `noise(p)`. Each pass visits parameters in catalog order from its own
//!   RNG, so three persistent RNGs keep every pass's draw sequence, and a
//!   body only touches parameter `p`'s slots, so each slot sees its writes
//!   in `generate()`'s order (rule < pocket < stale < live < noise). Noise
//!   reads the slot's current value from the kept configuration, as it
//!   does in `generate()`.

use std::collections::VecDeque;

use crate::generator::{GeneratedNetwork, GroundTruth};
use crate::names;
use crate::rules::{generate_rules, LatentRule};
use crate::scale::{NetScale, TuningKnobs};
use crate::topology::{self, Topology};
use crate::tuning::{self, PassRngs, Passes, Pocket, Writer};
use auric_model::delta::{apply_fleet_deltas, empty_snapshot, FleetDelta};
use auric_model::{AttributeSchema, Configuration, ParamCatalog, ParamId};

/// A deterministic iterator of [`FleetDelta`] events reproducing
/// `generate(scale, knobs)`. See the module docs; create with [`stream`].
pub struct FleetStream {
    knobs: TuningKnobs,
    schema: AttributeSchema,
    catalog: ParamCatalog,
    rules: Vec<LatentRule>,
    topo: Topology,
    /// The configuration as the passes replayed so far left it.
    config: Configuration,
    rngs: PassRngs,
    /// Ground-truth pockets emitted so far (for [`Self::collect_network`]).
    pockets: Vec<Pocket>,
    queue: VecDeque<FleetDelta>,
    next_market: usize,
    next_param: usize,
}

/// Streams `generate(scale, knobs)` as [`FleetDelta`] events. Same seed
/// ⇒ identical event sequence; collected, byte-identical to the batch
/// generator.
pub fn stream(scale: &NetScale, knobs: &TuningKnobs) -> FleetStream {
    let schema = names::build_schema(scale.n_markets);
    let catalog = ParamCatalog::standard();
    let topo = topology::build(scale, &schema);
    let rules = generate_rules(&catalog, scale.seed ^ 0x5EED_0F0F);
    let config = tuning::apply_rules(&topo, &catalog, &rules);
    FleetStream {
        knobs: *knobs,
        schema,
        catalog,
        rules,
        topo,
        config,
        rngs: PassRngs::for_fleet(scale.seed),
        pockets: Vec::new(),
        queue: VecDeque::new(),
        next_market: 0,
        next_param: 0,
    }
}

impl Iterator for FleetStream {
    type Item = FleetDelta;

    fn next(&mut self) -> Option<FleetDelta> {
        while self.queue.is_empty() && !self.step() {}
        self.queue.pop_front()
    }
}

impl FleetStream {
    /// The attribute schema of the streamed fleet.
    pub fn schema(&self) -> &AttributeSchema {
        &self.schema
    }

    /// The parameter catalog of the streamed fleet.
    pub fn catalog(&self) -> &ParamCatalog {
        &self.catalog
    }

    /// The latent rules (ground truth — never feed to a learner).
    pub fn rules(&self) -> &[LatentRule] {
        &self.rules
    }

    /// Drains the next natural batch of events: one market's build
    /// (including its pockets) during Phase A, one parameter's
    /// stale/live/noise retunes during Phase B. Batches are safe units
    /// for [`apply_fleet_deltas`] — each rebuilds the X2 CSR at most
    /// once. `None` when the stream is exhausted.
    pub fn next_batch(&mut self) -> Option<Vec<FleetDelta>> {
        while self.queue.is_empty() && !self.step() {}
        if self.queue.is_empty() {
            None
        } else {
            Some(self.queue.drain(..).collect())
        }
    }

    /// Runs the stream to completion, folding every event into a fresh
    /// snapshot. Byte-identical to [`crate::generate`] with the same
    /// inputs (the differential tests pin this).
    ///
    /// # Panics
    /// Panics if the collected snapshot fails validation — a stream bug,
    /// never a caller error.
    pub fn collect_network(mut self) -> GeneratedNetwork {
        let mut snapshot = empty_snapshot(self.schema.clone(), self.catalog.clone());
        while let Some(batch) = self.next_batch() {
            apply_fleet_deltas(&mut snapshot, &batch)
                .unwrap_or_else(|e| panic!("stream emitted an inconsistent batch: {e}"));
        }
        snapshot
            .validate()
            .unwrap_or_else(|e| panic!("streamed snapshot failed validation: {e}"));
        GeneratedNetwork {
            snapshot,
            truth: GroundTruth {
                rules: self.rules,
                pockets: self.pockets,
            },
        }
    }

    /// Advances the machine by one unit of work (one market or one
    /// parameter), pushing its events. Returns `true` when exhausted.
    /// May push zero events (a parameter with no tuning hits).
    fn step(&mut self) -> bool {
        if self.next_market < self.topo.markets.len() {
            self.next_market += 1;
            self.emit_market(self.next_market - 1);
            false
        } else if self.next_param < self.catalog.len() {
            self.next_param += 1;
            self.emit_param_tuning(self.next_param - 1);
            false
        } else {
            true
        }
    }

    /// Phase A: market `m`'s adds, then its pocket retunes.
    fn emit_market(&mut self, m: usize) {
        let Self {
            knobs,
            catalog,
            rules,
            topo,
            config,
            rngs,
            pockets,
            queue,
            ..
        } = self;
        // Market `m`'s slots still hold their rule values, which the adds
        // carry as base values: earlier markets' pockets only wrote their
        // own markets, and Phase B has not started.
        let market = &topo.markets[m];
        queue.push_back(FleetDelta::AddMarket {
            id: market.id,
            name: market.name.clone(),
            timezone: market.timezone,
        });
        for &e in &market.enodebs {
            let enb = &topo.enodebs[e.index()];
            let mut shell = enb.clone();
            shell.carriers.clear();
            queue.push_back(FleetDelta::AddEnodeb { enodeb: shell });
            for &cid in &enb.carriers {
                queue.push_back(FleetDelta::AddCarrier {
                    carrier: topo.carriers[cid.index()].clone(),
                    base: catalog
                        .singular_ids()
                        .map(|p| config.value(p, cid))
                        .collect(),
                });
            }
        }
        // One event per undirected edge, in pair order.
        let pairwise: Vec<ParamId> = catalog.pairwise_ids().collect();
        let x2 = &topo.x2;
        for &a in &market.carriers {
            for (q, &b) in x2.pairs_from(a).zip(x2.neighbors(a)) {
                if a >= b {
                    continue;
                }
                let back = x2.pair_idx(b, a).expect("X2 pairs come in both directions");
                queue.push_back(FleetDelta::AddX2Edge {
                    a,
                    b,
                    base_ab: pairwise.iter().map(|&p| config.pair_value(p, q)).collect(),
                    base_ba: pairwise
                        .iter()
                        .map(|&p| config.pair_value(p, back))
                        .collect(),
                });
            }
        }

        let passes = Passes::new(topo, catalog, rules, knobs);
        let mut w = Writer::new(config, x2, Some(queue));
        passes.pockets(&mut w, &mut rngs.pockets, market, pockets);
    }

    /// Phase B: parameter `pi`'s slice of the stale/live/noise passes,
    /// in that order, each from its own persistent RNG.
    fn emit_param_tuning(&mut self, pi: usize) {
        let Self {
            knobs,
            catalog,
            rules,
            topo,
            config,
            rngs,
            queue,
            ..
        } = self;
        let def = &catalog.defs()[pi];
        let passes = Passes::new(topo, catalog, rules, knobs);
        let mut w = Writer::new(config, &topo.x2, Some(queue));
        passes.stale(&mut w, &mut rngs.stale, def);
        passes.live(&mut w, &mut rngs.live, def);
        passes.noise(&mut w, &mut rngs.noise, def);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn same_seed_same_event_sequence() {
        let scale = NetScale::tiny();
        let knobs = TuningKnobs::default();
        let a: Vec<FleetDelta> = stream(&scale, &knobs).collect();
        let b: Vec<FleetDelta> = stream(&scale, &knobs).collect();
        assert_eq!(a.len(), b.len());
        assert_eq!(a, b, "same seed must give the identical delta sequence");
        let c: Vec<FleetDelta> = stream(&scale.with_seed(8), &knobs).collect();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn collected_stream_is_byte_identical_to_generate() {
        let scale = NetScale::tiny();
        let knobs = TuningKnobs::default();
        let batch = generate(&scale, &knobs);
        let streamed = stream(&scale, &knobs).collect_network();
        assert_eq!(batch.snapshot.markets, streamed.snapshot.markets);
        assert_eq!(batch.snapshot.enodebs, streamed.snapshot.enodebs);
        assert_eq!(batch.snapshot.carriers, streamed.snapshot.carriers);
        assert_eq!(batch.snapshot.x2, streamed.snapshot.x2);
        assert_eq!(
            batch.snapshot.config, streamed.snapshot.config,
            "configuration (values and provenance) must match"
        );
        assert_eq!(batch.truth.pockets, streamed.truth.pockets);
        assert_eq!(batch.truth.rules, streamed.truth.rules);
        // Byte-level pin: the serialized snapshots are identical.
        assert_eq!(
            serde_json::to_string(&batch.snapshot).unwrap(),
            serde_json::to_string(&streamed.snapshot).unwrap()
        );
    }

    #[test]
    fn clean_knobs_stream_matches_generate() {
        let scale = NetScale::tiny();
        let knobs = TuningKnobs::none();
        let batch = generate(&scale, &knobs);
        let streamed = stream(&scale, &knobs).collect_network();
        assert_eq!(batch.snapshot.config, streamed.snapshot.config);
        assert!(streamed.truth.pockets.is_empty());
        // A clean stream is adds only: no retune events at all.
        let events: Vec<FleetDelta> = stream(&scale, &knobs).collect();
        assert!(events
            .iter()
            .all(|e| !matches!(e, FleetDelta::Retune { .. })));
    }

    #[test]
    fn other_seeds_and_market_counts_round_trip() {
        for seed in [1u64, 99, 31337] {
            let scale = NetScale {
                n_markets: 3,
                enbs_per_market: 6,
                seed,
            };
            let knobs = TuningKnobs::default();
            let batch = generate(&scale, &knobs);
            let streamed = stream(&scale, &knobs).collect_network();
            assert_eq!(
                batch.snapshot.config, streamed.snapshot.config,
                "seed {seed}"
            );
            assert_eq!(batch.snapshot.carriers, streamed.snapshot.carriers);
            assert_eq!(batch.truth.pockets, streamed.truth.pockets);
        }
    }

    /// FNV-1a over every event's `Debug` form plus each batch's length:
    /// pins the exact event sequence and batch split, which the
    /// stand-up's decision and dependency-test counts depend on.
    struct Fnv(u64);

    impl Fnv {
        fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.bytes(s.as_bytes());
            Ok(())
        }
    }

    fn event_hash(scale: &NetScale, knobs: &TuningKnobs) -> u64 {
        use std::fmt::Write;
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let mut s = stream(scale, knobs);
        while let Some(batch) = s.next_batch() {
            h.bytes(&(batch.len() as u64).to_le_bytes());
            for e in &batch {
                write!(h, "{e:?}").unwrap();
            }
        }
        h.0
    }

    #[test]
    fn event_sequence_hashes_are_pinned() {
        let tiny = NetScale::tiny();
        assert_eq!(
            event_hash(&tiny, &TuningKnobs::default()),
            0x2bae_1d8f_3d34_1219
        );
        assert_eq!(
            event_hash(&tiny, &TuningKnobs::none()),
            0x754e_9850_c186_013a
        );
        for (seed, want) in [
            (1u64, 0x1fde_f13e_d1ce_1abb),
            (99, 0xe777_f552_e3cd_7274),
            (31337, 0x38e1_2d88_149d_2ffe),
        ] {
            let scale = NetScale {
                n_markets: 3,
                enbs_per_market: 6,
                seed,
            };
            assert_eq!(
                event_hash(&scale, &TuningKnobs::default()),
                want,
                "seed {seed}"
            );
        }
    }

    /// Medium scale (28 markets, ~12K carriers): run with
    /// `cargo test --release -p auric-netgen -- --ignored`.
    #[test]
    #[ignore = "medium scale; run in release with --ignored"]
    fn medium_stream_matches_generate_and_its_pinned_hash() {
        let scale = NetScale::medium();
        let knobs = TuningKnobs::default();
        assert_eq!(event_hash(&scale, &knobs), 0xb4b8_fdef_1366_de65);
        let batch = generate(&scale, &knobs);
        let streamed = stream(&scale, &knobs).collect_network();
        assert_eq!(
            serde_json::to_string(&batch.snapshot).unwrap(),
            serde_json::to_string(&streamed.snapshot).unwrap()
        );
        assert_eq!(batch.truth.pockets, streamed.truth.pockets);
    }

    #[test]
    fn batches_are_market_then_param_shaped() {
        let scale = NetScale::tiny();
        let knobs = TuningKnobs::default();
        let mut s = stream(&scale, &knobs);
        let first = s.next_batch().expect("market batch");
        assert!(matches!(first[0], FleetDelta::AddMarket { .. }));
        let second = s.next_batch().expect("second market batch");
        assert!(matches!(second[0], FleetDelta::AddMarket { .. }));
        // Everything after Phase A is retunes only.
        while let Some(batch) = s.next_batch() {
            assert!(batch.iter().all(|e| matches!(e, FleetDelta::Retune { .. })));
        }
    }
}
