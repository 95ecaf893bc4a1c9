//! Retry, backoff, and batch-splitting policy for EMS pushes, plus the
//! per-launch journal that makes launches transactional.
//!
//! §5 reports that "configuration change implementation for some of the
//! carriers resulted in timeouts because of the very large number of
//! parameters" — a fall-out cause the paper simply counts. This module
//! is the machinery that turns those fall-outs into recoverable
//! behavior: bounded retries with exponential backoff on a **simulated**
//! clock (deterministic — no wall-clock reads), deterministic jitter from
//! the pipeline's seeded RNG, and splitting of oversized change sets into
//! sub-pushes that fit under `max_executions_per_push`.
//!
//! The paper-faithful mode stays the default: [`RetryPolicy::none`] makes
//! exactly one attempt per batch and never splits, so Table 5 accounting
//! is byte-for-byte unchanged.

use crate::mo::ConfigChange;
use auric_model::{ParamId, ValueIdx};
use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How the pipeline reacts to retryable push failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per (sub-)batch, including the first. `1` means
    /// no retries — the paper-faithful behavior.
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated milliseconds. Doubles
    /// per subsequent retry.
    pub base_backoff_ms: u64,
    /// Upper bound on a single backoff wait (before jitter).
    pub max_backoff_ms: u64,
    /// Split change sets larger than the EMS execution limit into
    /// sub-pushes of at most that size instead of letting them time out.
    pub split_batches: bool,
}

impl RetryPolicy {
    /// One attempt, no backoff, no splitting — exactly the §5 pipeline.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            split_batches: false,
        }
    }

    /// Bounded retries with backoff but paper-sized batches.
    pub fn retrying() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_ms: 100,
            max_backoff_ms: 2_000,
            split_batches: false,
        }
    }

    /// The full resilience posture: retries, backoff, and batch
    /// splitting.
    pub fn resilient() -> Self {
        Self {
            split_batches: true,
            ..Self::retrying()
        }
    }

    /// The simulated wait before retry number `attempt` (1-based):
    /// exponential in the attempt, capped, plus deterministic jitter of
    /// up to a quarter of the capped wait drawn from `rng`.
    pub fn backoff_ms(&self, attempt: u32, rng: &mut ChaCha8Rng) -> u64 {
        if self.base_backoff_ms == 0 {
            return 0;
        }
        let doublings = attempt.saturating_sub(1).min(16);
        let exp = self.base_backoff_ms.saturating_mul(1u64 << doublings);
        let capped = exp.min(self.max_backoff_ms.max(self.base_backoff_ms));
        let jitter = rng.random_range(0..=capped / 4);
        capped + jitter
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// A simulated monotonic clock: backoff waits advance it instead of
/// sleeping, keeping campaign runs deterministic and instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimClock {
    now_ms: u64,
}

impl SimClock {
    /// Elapsed simulated milliseconds since the clock was created.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Advances the clock by `ms` simulated milliseconds.
    pub fn advance(&mut self, ms: u64) {
        self.now_ms = self.now_ms.saturating_add(ms);
    }
}

/// The transactional journal of one launch: every chunk of changes the
/// EMS *accepted* (including prefixes from partial applications), in
/// application order. An abort or failed post-check rolls back exactly
/// what the journal recorded — never more, never less.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchJournal {
    entries: Vec<Vec<ConfigChange>>,
}

impl LaunchJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one applied chunk.
    pub fn record(&mut self, applied: Vec<ConfigChange>) {
        if !applied.is_empty() {
            self.entries.push(applied);
        }
    }

    /// Total parameters applied so far.
    pub fn applied(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }

    /// Whether anything was applied.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The applied chunks, in application order.
    pub fn entries(&self) -> &[Vec<ConfigChange>] {
        &self.entries
    }

    /// The revert batch: every journaled parameter set back to its value
    /// in `initial` (the vendor configuration), in application order.
    /// Parameters without an initial entry are skipped — nothing is
    /// invented during a rollback.
    pub fn reverts(&self, initial: &[ConfigChange]) -> Vec<ConfigChange> {
        let target: HashMap<ParamId, ValueIdx> =
            initial.iter().map(|c| (c.param, c.value)).collect();
        self.entries
            .iter()
            .flatten()
            .filter_map(|c| {
                target.get(&c.param).map(|&value| ConfigChange {
                    param: c.param,
                    value,
                })
            })
            .collect()
    }
}

/// Splits `changes` into sub-batches the EMS can execute without timing
/// out: chunks of at most `limit` (always at least one chunk).
pub fn split_batches(changes: &[ConfigChange], limit: usize) -> Vec<&[ConfigChange]> {
    if changes.is_empty() {
        return Vec::new();
    }
    changes.chunks(limit.max(1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ch(p: u16, v: ValueIdx) -> ConfigChange {
        ConfigChange {
            param: ParamId(p),
            value: v,
        }
    }

    #[test]
    fn none_policy_is_single_attempt() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert!(!p.split_batches);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(p.backoff_ms(1, &mut rng), 0);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 100,
            max_backoff_ms: 400,
            split_batches: false,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let waits: Vec<u64> = (1..=5).map(|a| p.backoff_ms(a, &mut rng)).collect();
        // Exponential up to the cap; jitter adds at most 25%.
        assert!(waits[0] >= 100 && waits[0] <= 125, "{waits:?}");
        assert!(waits[1] >= 200 && waits[1] <= 250, "{waits:?}");
        assert!(waits[2] >= 400 && waits[2] <= 500, "{waits:?}");
        assert!(waits[4] >= 400 && waits[4] <= 500, "capped: {waits:?}");
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy::retrying();
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        for attempt in 1..6 {
            assert_eq!(p.backoff_ms(attempt, &mut a), p.backoff_ms(attempt, &mut b));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = SimClock::default();
        c.advance(10);
        c.advance(5);
        assert_eq!(c.now_ms(), 15);
        c.advance(u64::MAX);
        assert_eq!(c.now_ms(), u64::MAX, "saturates instead of wrapping");
    }

    #[test]
    fn journal_reverts_only_what_was_applied() {
        let mut j = LaunchJournal::new();
        j.record(vec![ch(0, 5), ch(1, 6)]);
        j.record(vec![ch(2, 7)]);
        j.record(Vec::new()); // ignored
        assert_eq!(j.applied(), 3);
        assert_eq!(j.entries().len(), 2);
        let initial = [ch(0, 1), ch(1, 2), ch(2, 3), ch(3, 4)];
        let reverts = j.reverts(&initial);
        assert_eq!(reverts, vec![ch(0, 1), ch(1, 2), ch(2, 3)]);
    }

    #[test]
    fn split_batches_covers_everything_in_order() {
        let changes: Vec<ConfigChange> = (0..10).map(|p| ch(p, 1)).collect();
        let chunks = split_batches(&changes, 4);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.len() <= 4));
        let flat: Vec<ConfigChange> = chunks.into_iter().flatten().copied().collect();
        assert_eq!(flat, changes);
        assert!(split_batches(&[], 4).is_empty());
        // A zero limit is clamped rather than panicking.
        assert_eq!(split_batches(&changes, 0).len(), 10);
    }
}
