//! The leave-one-out sweeps `bench_cf` times: the packed-key CF path and
//! the unpacked reference implementation, each folded into a checksum so
//! the two runs are comparable and the work stays observable.

#![forbid(unsafe_code)]

use auric_core::legacy::LegacyCfModel;
use auric_core::{CfModel, Scope};
use auric_model::{NetworkSnapshot, ParamKind};

/// The full leave-one-out local-recommendation sweep on the packed-key
/// path: every parameter, every in-scope carrier or pair. This is the
/// accuracy-evaluation hot loop; the checksum keeps the work observable.
pub fn local_loo_sweep(snap: &NetworkSnapshot, scope: &Scope, model: &CfModel) -> u64 {
    let mut checksum = 0u64;
    for def in snap.catalog.defs() {
        match def.kind {
            ParamKind::Singular => {
                for &c in &scope.carriers {
                    checksum += model.recommend_local_singular(snap, def.id, c, true).value as u64;
                }
            }
            ParamKind::Pairwise => {
                for &q in &scope.pairs {
                    checksum += model.recommend_local_pair(snap, def.id, q, true).value as u64;
                }
            }
        }
    }
    checksum
}

/// The same sweep on the unpacked reference implementation.
pub fn local_loo_sweep_legacy(snap: &NetworkSnapshot, scope: &Scope, model: &LegacyCfModel) -> u64 {
    let mut checksum = 0u64;
    for def in snap.catalog.defs() {
        match def.kind {
            ParamKind::Singular => {
                for &c in &scope.carriers {
                    checksum += model.recommend_local_singular(snap, def.id, c, true).value as u64;
                }
            }
            ParamKind::Pairwise => {
                for &q in &scope.pairs {
                    checksum += model.recommend_local_pair(snap, def.id, q, true).value as u64;
                }
            }
        }
    }
    checksum
}
