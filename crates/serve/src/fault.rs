//! Seeded shard-level fault injection, mirroring `auric_ems::fault`:
//! rates + seed = a reproducible chaos schedule. Request-path faults
//! (latency spike, worker panic) are drawn from one ChaCha stream in
//! admission order; refit-path faults (refit failure, poisoned model)
//! from a second stream in refit order, so adding requests never shifts
//! the refit fault sequence and vice versa.

use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Independent per-opportunity fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ShardFaultRates {
    /// Per admitted request: virtual service time is multiplied by the
    /// spike factor (queue pressure + deadline pressure downstream).
    pub latency_spike: f64,
    /// Per admitted request: the primary path panics once on the
    /// calling thread; the per-request `catch_unwind` must contain it
    /// and the fallback chain must still answer.
    pub worker_panic: f64,
    /// Per successful refit: the swapped-in model is poisoned — every
    /// primary-path call panics until the shard restarts.
    pub poisoned_shard: f64,
    /// Per refit: the refit itself fails; the shard keeps serving the
    /// stale model.
    pub refit_failure: f64,
}

impl ShardFaultRates {
    /// All rates zero — faultless serving.
    pub fn none() -> Self {
        Self::default()
    }

    /// Every fault at the same rate `r`.
    pub fn uniform(r: f64) -> Self {
        Self {
            latency_spike: r,
            worker_panic: r,
            poisoned_shard: r,
            refit_failure: r,
        }
    }
}

/// A seeded chaos schedule for the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardFaultPlan {
    pub seed: u64,
    pub rates: ShardFaultRates,
}

impl ShardFaultPlan {
    /// A transparent plan (all rates zero).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            rates: ShardFaultRates::none(),
        }
    }

    /// Every fault at rate `r`.
    pub fn uniform(seed: u64, r: f64) -> Self {
        Self {
            seed,
            rates: ShardFaultRates::uniform(r),
        }
    }
}

/// How often each fault actually fired on one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardFaultCounts {
    pub latency_spikes: u64,
    pub worker_panics: u64,
    pub poisoned_models: u64,
    pub refit_failures: u64,
}

impl ShardFaultCounts {
    /// Total faults fired.
    pub fn total(&self) -> u64 {
        self.latency_spikes + self.worker_panics + self.poisoned_models + self.refit_failures
    }
}

/// Request-path fault draws for one admitted request, in fixed draw
/// order so the RNG stream stays aligned with the admission sequence.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RequestFaults {
    pub latency_spike: bool,
    pub worker_panic: bool,
}

pub(crate) fn draw_request_faults(rng: &mut impl RngExt, rates: &ShardFaultRates) -> RequestFaults {
    RequestFaults {
        latency_spike: rng.random_bool(rates.latency_spike),
        worker_panic: rng.random_bool(rates.worker_panic),
    }
}

/// Refit-path fault draws, in fixed draw order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RefitFaults {
    pub refit_failure: bool,
    pub poisoned: bool,
}

pub(crate) fn draw_refit_faults(rng: &mut impl RngExt, rates: &ShardFaultRates) -> RefitFaults {
    RefitFaults {
        refit_failure: rng.random_bool(rates.refit_failure),
        poisoned: rng.random_bool(rates.poisoned_shard),
    }
}

/// The payload type of every *injected* panic. The process panic
/// hook is taught to stay silent for this payload only, so chaos runs
/// don't spray backtraces while genuine panics still report normally.
#[derive(Debug, Clone, Copy)]
pub struct InjectedPanic;

/// Installs (once) a panic hook that suppresses [`InjectedPanic`]
/// payloads and delegates everything else to the previous hook.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}
