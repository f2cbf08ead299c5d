//! A unified retry policy for intra-fleet hops and health probes.
//!
//! PR 7's `PeerClient` hard-coded "one retry on transport errors"; the
//! fault-tolerance pass needs the same knob in three places (cache-fill
//! probes, full proxies, background health probes) with different
//! shapes, so the policy is now data: total attempts, a base backoff
//! doubled per extra attempt, a cap, and *deterministic* seeded jitter.
//! Determinism matters here the same way it does for the sweep engine's
//! RNG — chaos tests replay byte-identical schedules from a seed, so a
//! flake is a bug, never "jitter".

use cnt_sweep::seed::mix;
use std::time::Duration;

/// How many times to try a peer operation and how long to wait between
/// tries.
///
/// Attempt `0` is always immediate. Attempt `n > 0` waits
/// `min(base * 2^(n-1), cap)` scaled by a jitter factor in `[0.5, 1.0)`
/// drawn deterministically from `(jitter_seed, token, n)` — callers pass
/// a per-peer or per-request `token` so concurrent retry ladders do not
/// thunder in lockstep while a given ladder stays replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`>= 1`; `0` behaves as `1`).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles for each attempt after.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay (pre-jitter).
    pub backoff_cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// The PR 7 hop policy: two attempts, no pause between them — a
    /// transient connect race (a peer mid-restart) recovers, a dead peer
    /// fails in two connect timeouts.
    pub fn fast_hop() -> Self {
        Self {
            attempts: 2,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// A single attempt, no retry — for callers that do their own
    /// scheduling (the background health prober).
    pub fn one_shot() -> Self {
        Self {
            attempts: 1,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// Total attempts, never less than one.
    pub fn effective_attempts(&self) -> u32 {
        self.attempts.max(1)
    }

    /// The pause before attempt `attempt` (0-based; attempt 0 is always
    /// `Duration::ZERO`), jittered deterministically by `token`.
    pub fn delay_before(&self, attempt: u32, token: u64) -> Duration {
        if attempt == 0 || self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self
            .backoff_base
            .saturating_mul(1u32 << exp.min(20))
            .min(self.backoff_cap.max(self.backoff_base));
        jittered(raw, self.jitter_seed, token, u64::from(attempt))
    }
}

/// Scales `base` by a factor in `[0.5, 1.0)` drawn deterministically
/// from the SplitMix64-mixed `(seed, token, round)` triple — shared by
/// retry ladders and the health prober's backoff schedule.
pub fn jittered(base: Duration, seed: u64, token: u64, round: u64) -> Duration {
    let word = mix(seed ^ token.rotate_left(17) ^ round.rotate_left(41));
    // Map the top 53 bits to [0.5, 1.0): half the nominal delay at most
    // saved, full determinism from the seed.
    let frac = 0.5 + (word >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
    base.mul_f64(frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_zero_is_immediate() {
        let policy = RetryPolicy {
            attempts: 4,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(1),
            jitter_seed: 7,
        };
        assert_eq!(policy.delay_before(0, 42), Duration::ZERO);
    }

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let policy = RetryPolicy {
            attempts: 8,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(400),
            jitter_seed: 7,
        };
        // Jitter is in [0.5, 1.0), so attempt n's delay sits inside
        // [nominal/2, nominal).
        let nominal = [100u64, 200, 400, 400, 400];
        for (i, nominal_ms) in nominal.iter().enumerate() {
            let d = policy.delay_before(i as u32 + 1, 3).as_millis() as u64;
            assert!(
                d >= nominal_ms / 2 && d < *nominal_ms,
                "attempt {}: delay {d} ms outside [{}, {}) ms",
                i + 1,
                nominal_ms / 2,
                nominal_ms
            );
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_token() {
        let base = Duration::from_millis(200);
        assert_eq!(jittered(base, 1, 2, 3), jittered(base, 1, 2, 3));
        assert_ne!(jittered(base, 1, 2, 3), jittered(base, 2, 2, 3));
        assert_ne!(jittered(base, 1, 2, 3), jittered(base, 1, 9, 3));
    }

    #[test]
    fn fast_hop_matches_the_legacy_shape() {
        let policy = RetryPolicy::fast_hop();
        assert_eq!(policy.effective_attempts(), 2);
        assert_eq!(policy.delay_before(1, 0), Duration::ZERO);
    }

    #[test]
    fn zero_attempts_still_run_once() {
        let mut policy = RetryPolicy::one_shot();
        policy.attempts = 0;
        assert_eq!(policy.effective_attempts(), 1);
    }
}
