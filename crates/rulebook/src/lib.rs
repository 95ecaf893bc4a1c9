//! The operational-practice baseline (§2.4): rule-books.
//!
//! Before Auric, carrier configuration came from *rule-books* — tables,
//! maintained by domain experts, mapping carrier-attribute conditions to
//! default parameter values — enforced by SON automation that can verify
//! range compliance but "cannot automatically discover what the optimized
//! values are". This crate models the rule-books:
//!
//! - [`Rule`] / [`Rulebook`] — ordered first-match-wins rules per
//!   parameter, falling back to the catalog default;
//! - [`mine_rulebook`] — the closest a rule-book can get to the data:
//!   per parameter, the majority value for each combination of a fixed,
//!   hand-picked attribute set (what a diligent engineering team would
//!   tabulate).

#![forbid(unsafe_code)]

use auric_model::{AttrId, AttrValue, AttrVec, NetworkSnapshot, ParamId, ParamKind, ValueIdx};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An equality condition on one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Condition {
    pub attr: AttrId,
    pub level: AttrValue,
}

/// One rule: if every condition matches, the parameter takes `value`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    pub param: ParamId,
    pub conditions: Vec<Condition>,
    pub value: ValueIdx,
}

impl Rule {
    /// True when the carrier's attributes satisfy every condition.
    pub fn matches(&self, attrs: &AttrVec) -> bool {
        self.conditions.iter().all(|c| attrs.get(c.attr) == c.level)
    }
}

/// An ordered rule-book: first matching rule wins; no match falls back to
/// the catalog default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Rulebook {
    rules: Vec<Rule>,
    /// Per-parameter index into `rules` for fast lookup.
    by_param: HashMap<ParamId, Vec<usize>>,
}

impl Rulebook {
    /// Builds a rule-book from rules, preserving order per parameter.
    pub fn new(rules: Vec<Rule>) -> Self {
        let mut by_param: HashMap<ParamId, Vec<usize>> = HashMap::new();
        for (i, r) in rules.iter().enumerate() {
            by_param.entry(r.param).or_default().push(i);
        }
        Self { rules, by_param }
    }

    /// Total number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the book has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// All rules for a parameter, in priority order.
    pub fn rules_for(&self, param: ParamId) -> impl Iterator<Item = &Rule> + '_ {
        self.by_param
            .get(&param)
            .into_iter()
            .flatten()
            .map(|&i| &self.rules[i])
    }

    /// The rule-book value for `param` on a carrier with `attrs`: first
    /// matching rule, else `default`.
    pub fn lookup(&self, param: ParamId, attrs: &AttrVec, default: ValueIdx) -> ValueIdx {
        self.rules_for(param)
            .find(|r| r.matches(attrs))
            .map(|r| r.value)
            .unwrap_or(default)
    }
}

/// The attribute set a hand-written rule-book keys on: the coarse static
/// descriptors an engineering guide would tabulate. (Deliberately *not*
/// data-driven — discovering the right keys per parameter is exactly what
/// rule-books can't do and Auric can.)
pub const RULEBOOK_KEY: [AttrId; 3] = [
    AttrId(0), // carrier_frequency
    AttrId(3), // morphology
    AttrId(4), // channel_bandwidth
];

/// Mines a rule-book from an operational snapshot: for every parameter and
/// every observed combination of [`RULEBOOK_KEY`] attributes, the majority
/// configured value becomes a rule. Pair-wise parameters are keyed on the
/// *source* carrier only (a rule-book has no notion of a neighbor).
pub fn mine_rulebook(snapshot: &NetworkSnapshot) -> Rulebook {
    let mut rules = Vec::new();
    for def in snapshot.catalog.defs() {
        // combo -> value -> count
        let mut counts: HashMap<Vec<AttrValue>, HashMap<ValueIdx, usize>> = HashMap::new();
        let mut bump = |attrs: &AttrVec, v: ValueIdx| {
            let key: Vec<AttrValue> = RULEBOOK_KEY.iter().map(|&a| attrs.get(a)).collect();
            *counts.entry(key).or_default().entry(v).or_insert(0) += 1;
        };
        match def.kind {
            ParamKind::Singular => {
                for c in &snapshot.carriers {
                    bump(&c.attrs, snapshot.config.value(def.id, c.id));
                }
            }
            ParamKind::Pairwise => {
                for (p, j, _) in snapshot.x2.pairs() {
                    bump(
                        &snapshot.carriers[j.index()].attrs,
                        snapshot.config.pair_value(def.id, p),
                    );
                }
            }
        }
        let mut combos: Vec<_> = counts.into_iter().collect();
        combos.sort_by(|a, b| a.0.cmp(&b.0)); // deterministic order
        for (key, values) in combos {
            let (&value, _) = values
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .expect("non-empty combo");
            rules.push(Rule {
                param: def.id,
                conditions: RULEBOOK_KEY
                    .iter()
                    .zip(&key)
                    .map(|(&attr, &level)| Condition { attr, level })
                    .collect(),
                value,
            });
        }
    }
    Rulebook::new(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(vals: &[u16]) -> AttrVec {
        AttrVec::new(vals.to_vec())
    }

    #[test]
    fn rule_matching() {
        let r = Rule {
            param: ParamId(0),
            conditions: vec![
                Condition {
                    attr: AttrId(0),
                    level: 2,
                },
                Condition {
                    attr: AttrId(2),
                    level: 1,
                },
            ],
            value: 9,
        };
        assert!(r.matches(&attrs(&[2, 0, 1])));
        assert!(!r.matches(&attrs(&[2, 0, 0])));
        assert!(!r.matches(&attrs(&[1, 0, 1])));
    }

    #[test]
    fn unconditional_rule_matches_everything() {
        let r = Rule {
            param: ParamId(0),
            conditions: vec![],
            value: 3,
        };
        assert!(r.matches(&attrs(&[0, 0, 0])));
    }

    #[test]
    fn first_match_wins() {
        let book = Rulebook::new(vec![
            Rule {
                param: ParamId(1),
                conditions: vec![Condition {
                    attr: AttrId(0),
                    level: 0,
                }],
                value: 10,
            },
            Rule {
                param: ParamId(1),
                conditions: vec![],
                value: 20,
            },
        ]);
        assert_eq!(book.lookup(ParamId(1), &attrs(&[0, 0]), 99), 10);
        assert_eq!(book.lookup(ParamId(1), &attrs(&[1, 0]), 99), 20);
        // Unknown parameter falls back to the default.
        assert_eq!(book.lookup(ParamId(7), &attrs(&[0, 0]), 99), 99);
    }

    #[test]
    fn rules_are_scoped_per_parameter() {
        let book = Rulebook::new(vec![Rule {
            param: ParamId(2),
            conditions: vec![],
            value: 5,
        }]);
        assert_eq!(book.rules_for(ParamId(2)).count(), 1);
        assert_eq!(book.rules_for(ParamId(0)).count(), 0);
        assert_eq!(book.len(), 1);
    }

    #[test]
    fn mined_rulebook_recovers_majorities() {
        use auric_netgen::{generate, NetScale, TuningKnobs};
        let net = generate(&NetScale::tiny(), &TuningKnobs::none());
        let book = mine_rulebook(&net.snapshot);
        assert!(!book.is_empty());
        // On a clean (rules-only) network, the mined book predicts the
        // current value wherever the latent rule happens to be a function
        // of the rule-book key; overall it should beat, say, 50%.
        let snap = &net.snapshot;
        let mut hit = 0usize;
        let mut total = 0usize;
        for def in snap.catalog.singular_ids() {
            let default = snap.catalog.def(def).default;
            for c in &snap.carriers {
                total += 1;
                if book.lookup(def, &c.attrs, default) == snap.config.value(def, c.id) {
                    hit += 1;
                }
            }
        }
        let acc = hit as f64 / total as f64;
        assert!(acc > 0.5, "mined rule-book accuracy {acc} implausibly low");
        assert!(
            acc < 1.0,
            "rule-book cannot capture market-level tuning exactly"
        );
    }
}
