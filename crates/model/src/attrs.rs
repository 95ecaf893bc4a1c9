//! Carrier attributes (Table 1 of the paper).
//!
//! An *attribute* describes a carrier: its frequency, type, morphology,
//! channel bandwidth, hardware configuration, market, vendor, software
//! version, and so on. Attributes are the *predictors* of the recommendation
//! problem — Auric learns which attributes each configuration parameter
//! depends on and matches new carriers to existing ones on those attributes.
//!
//! Every attribute is categorical. A carrier stores one *level index* per
//! attribute ([`AttrVec`]); the [`AttributeSchema`] maps those indices back
//! to human-readable level names for explanations and reports, and records
//! whether the attribute is static (never changes for a carrier) or dynamic
//! (drifts slowly over time, e.g. software version).

use serde::{Deserialize, Serialize};

/// Index of an attribute column in the [`AttributeSchema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttrId(pub u8);

impl AttrId {
    /// The dense column index of this attribute.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for AttrId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Attr#{}", self.0)
    }
}

/// A categorical level index for one attribute (e.g. "urban" might be level
/// 0 of the morphology attribute).
pub type AttrValue = u16;

/// Definition of one attribute: its name, whether it is dynamic, and the
/// names of its categorical levels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrDef {
    /// Human-readable attribute name, e.g. `"morphology"`.
    pub name: String,
    /// Dynamic attributes can slowly change over a carrier's lifetime
    /// (software version, neighbor count); static ones cannot.
    pub dynamic: bool,
    /// Names of the categorical levels. A carrier's value for this
    /// attribute is an index into this vector.
    pub levels: Vec<String>,
}

impl AttrDef {
    /// Number of categorical levels.
    pub fn cardinality(&self) -> usize {
        self.levels.len()
    }
}

/// The full attribute schema: an ordered list of [`AttrDef`]s.
///
/// The order defines the meaning of positions in every [`AttrVec`] in the
/// snapshot, and the order of one-hot blocks in encoded feature matrices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct AttributeSchema {
    defs: Vec<AttrDef>,
}

impl AttributeSchema {
    /// Creates a schema from a list of attribute definitions.
    ///
    /// # Panics
    /// Panics if two attributes share a name or any attribute has no levels.
    pub fn new(defs: Vec<AttrDef>) -> Self {
        for (i, d) in defs.iter().enumerate() {
            assert!(!d.levels.is_empty(), "attribute {:?} has no levels", d.name);
            assert!(
                defs[..i].iter().all(|e| e.name != d.name),
                "duplicate attribute name {:?}",
                d.name
            );
        }
        Self { defs }
    }

    /// Number of attributes (the `A` of the paper's notation).
    pub fn n_attrs(&self) -> usize {
        self.defs.len()
    }

    /// All attribute ids, in column order.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.defs.len()).map(|i| AttrId(i as u8))
    }

    /// The definition of attribute `a`.
    pub fn def(&self, a: AttrId) -> &AttrDef {
        &self.defs[a.index()]
    }

    /// All definitions in column order.
    pub fn defs(&self) -> &[AttrDef] {
        &self.defs
    }

    /// Cardinality (number of levels) of attribute `a`.
    pub fn cardinality(&self, a: AttrId) -> usize {
        self.defs[a.index()].cardinality()
    }

    /// Cardinality of attribute `a` as the level type — the per-position
    /// radix a packed vote-key layout is built from. Attribute levels are
    /// `u16` indices, so every cardinality fits.
    #[inline]
    pub fn radix(&self, a: AttrId) -> AttrValue {
        let card = self.cardinality(a);
        debug_assert!(
            card <= AttrValue::MAX as usize,
            "cardinality overflows the level type"
        );
        card as AttrValue
    }

    /// Looks up an attribute by name.
    pub fn by_name(&self, name: &str) -> Option<AttrId> {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .map(|i| AttrId(i as u8))
    }

    /// The display name of level `v` of attribute `a`.
    pub fn level_name(&self, a: AttrId, v: AttrValue) -> &str {
        &self.defs[a.index()].levels[v as usize]
    }

    /// Checks that `vec` has one in-range level per attribute.
    pub fn validate(&self, vec: &AttrVec) -> Result<(), String> {
        if vec.len() != self.n_attrs() {
            return Err(format!(
                "attribute vector has {} entries, schema has {}",
                vec.len(),
                self.n_attrs()
            ));
        }
        for a in self.attr_ids() {
            let v = vec.get(a);
            let card = self.cardinality(a) as AttrValue;
            if v >= card {
                return Err(format!(
                    "attribute {:?} value {} out of range (cardinality {})",
                    self.def(a).name,
                    v,
                    card
                ));
            }
        }
        Ok(())
    }
}

/// A carrier's attribute values: one level index per schema attribute
/// (the row `X_{j,*}` of the paper's predictor matrix).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AttrVec(Box<[AttrValue]>);

impl AttrVec {
    /// Creates an attribute vector from per-attribute level indices.
    pub fn new(values: Vec<AttrValue>) -> Self {
        Self(values.into_boxed_slice())
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if there are no attributes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The level of attribute `a`.
    #[inline]
    pub fn get(&self, a: AttrId) -> AttrValue {
        self.0[a.index()]
    }

    /// Replaces the level of attribute `a` (used by the generator for
    /// dynamic attributes such as software version drift).
    pub fn set(&mut self, a: AttrId, v: AttrValue) {
        self.0[a.index()] = v;
    }

    /// Raw slice of level indices in schema column order.
    pub fn as_slice(&self) -> &[AttrValue] {
        &self.0
    }
}

/// Builds the canonical Table-1 schema skeleton: the 14 attribute names and
/// static/dynamic flags from the paper, with level names supplied by the
/// caller (the generator decides how many frequencies, markets, software
/// versions, ... the synthetic network has).
///
/// The returned closure-style builder keeps `AttributeSchema::new`'s
/// invariants in one place.
pub fn table1_schema(levels: Table1Levels) -> AttributeSchema {
    let l = levels;
    AttributeSchema::new(vec![
        AttrDef {
            name: "carrier_frequency".into(),
            dynamic: false,
            levels: l.carrier_frequency,
        },
        AttrDef {
            name: "carrier_type".into(),
            dynamic: false,
            levels: l.carrier_type,
        },
        AttrDef {
            name: "carrier_information".into(),
            dynamic: false,
            levels: l.carrier_information,
        },
        AttrDef {
            name: "morphology".into(),
            dynamic: false,
            levels: l.morphology,
        },
        AttrDef {
            name: "channel_bandwidth".into(),
            dynamic: false,
            levels: l.channel_bandwidth,
        },
        AttrDef {
            name: "downlink_mimo_mode".into(),
            dynamic: false,
            levels: l.downlink_mimo_mode,
        },
        AttrDef {
            name: "hardware_configuration".into(),
            dynamic: false,
            levels: l.hardware_configuration,
        },
        AttrDef {
            name: "expected_cell_size".into(),
            dynamic: false,
            levels: l.expected_cell_size,
        },
        AttrDef {
            name: "tracking_area_code".into(),
            dynamic: false,
            levels: l.tracking_area_code,
        },
        AttrDef {
            name: "market".into(),
            dynamic: false,
            levels: l.market,
        },
        AttrDef {
            name: "vendor".into(),
            dynamic: false,
            levels: l.vendor,
        },
        AttrDef {
            name: "neighbor_channel".into(),
            dynamic: false,
            levels: l.neighbor_channel,
        },
        AttrDef {
            name: "neighbors_same_enodeb".into(),
            dynamic: true,
            levels: l.neighbors_same_enodeb,
        },
        AttrDef {
            name: "software_version".into(),
            dynamic: true,
            levels: l.software_version,
        },
    ])
}

/// Level names for each Table-1 attribute, supplied by the generator.
#[derive(Debug, Clone, Default)]
pub struct Table1Levels {
    pub carrier_frequency: Vec<String>,
    pub carrier_type: Vec<String>,
    pub carrier_information: Vec<String>,
    pub morphology: Vec<String>,
    pub channel_bandwidth: Vec<String>,
    pub downlink_mimo_mode: Vec<String>,
    pub hardware_configuration: Vec<String>,
    pub expected_cell_size: Vec<String>,
    pub tracking_area_code: Vec<String>,
    pub market: Vec<String>,
    pub vendor: Vec<String>,
    pub neighbor_channel: Vec<String>,
    pub neighbors_same_enodeb: Vec<String>,
    pub software_version: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_schema() -> AttributeSchema {
        AttributeSchema::new(vec![
            AttrDef {
                name: "morphology".into(),
                dynamic: false,
                levels: vec!["urban".into(), "suburban".into(), "rural".into()],
            },
            AttrDef {
                name: "band".into(),
                dynamic: false,
                levels: vec!["low".into(), "mid".into(), "high".into()],
            },
        ])
    }

    #[test]
    fn schema_lookup() {
        let s = small_schema();
        assert_eq!(s.n_attrs(), 2);
        assert_eq!(s.by_name("band"), Some(AttrId(1)));
        assert_eq!(s.by_name("nope"), None);
        assert_eq!(s.level_name(AttrId(0), 2), "rural");
    }

    #[test]
    fn validate_catches_out_of_range() {
        let s = small_schema();
        assert!(s.validate(&AttrVec::new(vec![0, 2])).is_ok());
        assert!(s.validate(&AttrVec::new(vec![3, 0])).is_err());
        assert!(s.validate(&AttrVec::new(vec![0])).is_err());
    }

    #[test]
    fn radix_is_the_cardinality_as_a_level() {
        let s = small_schema();
        assert_eq!(s.radix(AttrId(0)), 3);
        assert_eq!(s.radix(AttrId(1)) as usize, s.cardinality(AttrId(1)));
    }

    #[test]
    #[should_panic(expected = "duplicate attribute name")]
    fn rejects_duplicate_names() {
        AttributeSchema::new(vec![
            AttrDef {
                name: "x".into(),
                dynamic: false,
                levels: vec!["a".into()],
            },
            AttrDef {
                name: "x".into(),
                dynamic: false,
                levels: vec!["b".into()],
            },
        ]);
    }

    #[test]
    fn table1_has_fourteen_attributes() {
        let mk = |n: usize, p: &str| (0..n).map(|i| format!("{p}{i}")).collect::<Vec<_>>();
        let schema = table1_schema(Table1Levels {
            carrier_frequency: mk(4, "f"),
            carrier_type: mk(3, "t"),
            carrier_information: mk(3, "i"),
            morphology: mk(3, "m"),
            channel_bandwidth: mk(3, "b"),
            downlink_mimo_mode: mk(2, "mm"),
            hardware_configuration: mk(3, "h"),
            expected_cell_size: mk(4, "s"),
            tracking_area_code: mk(20, "tac"),
            market: mk(28, "mkt"),
            vendor: mk(3, "v"),
            neighbor_channel: mk(8, "nc"),
            neighbors_same_enodeb: mk(12, "n"),
            software_version: mk(4, "sw"),
        });
        assert_eq!(schema.n_attrs(), 14);
        assert_eq!(
            schema.defs().iter().filter(|d| d.dynamic).count(),
            2,
            "software version and same-eNodeB neighbor count are dynamic"
        );
        assert!(schema.by_name("market").is_some());
    }
}
