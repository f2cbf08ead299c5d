//! Deterministic fault injection for peer-facing paths.
//!
//! Fault tolerance that is only exercised by real outages is hope, not
//! engineering. This module injects the four failure shapes a fleet hop
//! actually meets — connection refusal, accept-then-hang, response
//! truncation, and added latency — *deterministically*: every fault
//! decision is a pure function of `(seed, draw index)`, where the draw
//! index is a per-injector atomic counter. Re-running a test with the
//! same seed replays the exact same fault sequence, so the chaos e2e
//! suite asserts hard equalities (bodies, counters, states) instead of
//! probabilistic expectations.
//!
//! Wired in two ways:
//!
//! * `repro serve --chaos "seed=42,refuse=0.2,latency=0.5,latency_ms=25"`
//!   arms the instance's *outbound* peer clients (fill + proxy hops);
//! * in-process tests build a [`ChaosConfig`] directly and hand it to
//!   `FleetConfig::chaos`.
//!
//! Probabilities are stored as integer **per-mille** (`0..=1000`), so the
//! config stays `Eq` like the rest of `FleetConfig` and a spec string
//! round-trips exactly. The background health prober is deliberately
//! *not* subject to chaos: faults model a sick network or peer on the
//! request path, while the prober is the recovery mechanism under test —
//! letting chaos eat probes would make "heals after recovery" unfalsifiable.

use cnt_sweep::seed::mix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A fault to inject on the next peer operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the connect as if the peer refused (no socket is dialed).
    Refuse,
    /// The peer accepts, then never answers: burn the I/O deadline, then
    /// fail like a read timeout.
    Hang,
    /// The response arrives cut off mid-body: an I/O error after the
    /// bytes were (really) exchanged.
    Truncate,
    /// The hop completes normally, `latency_ms` late.
    Latency,
}

impl Fault {
    /// Lowercase metric/log label.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::Refuse => "refuse",
            Fault::Hang => "hang",
            Fault::Truncate => "truncate",
            Fault::Latency => "latency",
        }
    }
}

/// Parsed `--chaos` spec: per-fault probabilities (per-mille) + seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the deterministic draw stream.
    pub seed: u64,
    /// Probability of [`Fault::Refuse`], in 0..=1000 per-mille.
    pub refuse_permille: u32,
    /// Probability of [`Fault::Hang`], per-mille.
    pub hang_permille: u32,
    /// Probability of [`Fault::Truncate`], per-mille.
    pub truncate_permille: u32,
    /// Probability of [`Fault::Latency`], per-mille.
    pub latency_permille: u32,
    /// How late a [`Fault::Latency`] hop completes.
    pub latency_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            refuse_permille: 0,
            hang_permille: 0,
            truncate_permille: 0,
            latency_permille: 0,
            latency_ms: 25,
        }
    }
}

impl ChaosConfig {
    /// Parses the `--chaos` grammar: comma-separated `key=value` pairs.
    ///
    /// Keys: `seed=N` (u64, default 0), `refuse=P`, `hang=P`,
    /// `truncate=P`, `latency=P` (each `P` a probability in `[0, 1]`,
    /// e.g. `0.25`; stored per-mille), `latency_ms=N` (u64 milliseconds,
    /// default 25). Fault probabilities may sum to at most 1.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending key/value.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut config = Self::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec item {part:?} is not key=value"))?;
            match key.trim() {
                "seed" => {
                    config.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("chaos seed {value:?} is not a u64"))?;
                }
                "latency_ms" => {
                    config.latency_ms = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("chaos latency_ms {value:?} is not a u64"))?;
                }
                key @ ("refuse" | "hang" | "truncate" | "latency") => {
                    let p: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("chaos {key} {value:?} is not a probability"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("chaos {key} {value:?} outside [0, 1]"));
                    }
                    let permille = (p * 1000.0).round() as u32;
                    match key {
                        "refuse" => config.refuse_permille = permille,
                        "hang" => config.hang_permille = permille,
                        "truncate" => config.truncate_permille = permille,
                        _ => config.latency_permille = permille,
                    }
                }
                other => return Err(format!("unknown chaos key {other:?}")),
            }
        }
        let total = config.refuse_permille
            + config.hang_permille
            + config.truncate_permille
            + config.latency_permille;
        if total > 1000 {
            return Err(format!("chaos probabilities sum to {}/1000 (> 1)", total));
        }
        Ok(config)
    }

    /// Whether any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.refuse_permille + self.hang_permille + self.truncate_permille + self.latency_permille
            > 0
    }

    /// The canonical spec string (`parse` round-trips it).
    pub fn render(&self) -> String {
        format!(
            "seed={},refuse={},hang={},truncate={},latency={},latency_ms={}",
            self.seed,
            self.refuse_permille as f64 / 1000.0,
            self.hang_permille as f64 / 1000.0,
            self.truncate_permille as f64 / 1000.0,
            self.latency_permille as f64 / 1000.0,
            self.latency_ms
        )
    }
}

/// A seeded fault stream shared by an instance's peer clients.
///
/// Draw `n` maps `mix(seed ⊕ f(n))` into `[0, 1000)` and carves that
/// interval into consecutive bands: `[0, refuse)`, `[refuse,
/// refuse+hang)`, and so on — mutually exclusive faults whose empirical
/// rates converge on the configured probabilities while any single run
/// is exactly reproducible from the seed.
#[derive(Debug)]
pub struct ChaosInjector {
    config: ChaosConfig,
    draws: AtomicU64,
}

impl ChaosInjector {
    /// An injector at draw 0.
    pub fn new(config: ChaosConfig) -> Self {
        Self {
            config,
            draws: AtomicU64::new(0),
        }
    }

    /// The configuration this injector draws from.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Draws the next fault decision (advances the stream by one).
    pub fn next_fault(&self) -> Option<Fault> {
        if !self.config.is_active() {
            return None;
        }
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        let roll = (mix(self.config.seed ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d)) % 1000) as u32;
        let mut band = self.config.refuse_permille;
        if roll < band {
            return Some(Fault::Refuse);
        }
        band += self.config.hang_permille;
        if roll < band {
            return Some(Fault::Hang);
        }
        band += self.config.truncate_permille;
        if roll < band {
            return Some(Fault::Truncate);
        }
        band += self.config.latency_permille;
        if roll < band {
            return Some(Fault::Latency);
        }
        None
    }

    /// Added latency for [`Fault::Latency`].
    pub fn latency(&self) -> Duration {
        Duration::from_millis(self.config.latency_ms)
    }

    /// How many decisions have been drawn so far.
    pub fn draws(&self) -> u64 {
        self.draws.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let config = ChaosConfig::parse(
            "seed=42, refuse=0.2, hang=0.1, truncate=0.05, latency=0.3, latency_ms=40",
        )
        .unwrap();
        assert_eq!(config.seed, 42);
        assert_eq!(config.refuse_permille, 200);
        assert_eq!(config.hang_permille, 100);
        assert_eq!(config.truncate_permille, 50);
        assert_eq!(config.latency_permille, 300);
        assert_eq!(config.latency_ms, 40);
        assert!(config.is_active());
    }

    #[test]
    fn empty_spec_is_inert() {
        let config = ChaosConfig::parse("").unwrap();
        assert_eq!(config, ChaosConfig::default());
        assert!(!config.is_active());
        assert_eq!(ChaosInjector::new(config).next_fault(), None);
    }

    #[test]
    fn render_round_trips() {
        let config = ChaosConfig::parse("seed=7,refuse=0.25,latency=0.5,latency_ms=10").unwrap();
        assert_eq!(ChaosConfig::parse(&config.render()).unwrap(), config);
    }

    #[test]
    fn bad_specs_name_the_problem() {
        assert!(ChaosConfig::parse("refuse")
            .unwrap_err()
            .contains("key=value"));
        assert!(ChaosConfig::parse("refuse=2")
            .unwrap_err()
            .contains("[0, 1]"));
        assert!(ChaosConfig::parse("refuse=x")
            .unwrap_err()
            .contains("probability"));
        assert!(ChaosConfig::parse("seed=-1").unwrap_err().contains("u64"));
        assert!(ChaosConfig::parse("bogus=1").unwrap_err().contains("bogus"));
        assert!(ChaosConfig::parse("refuse=0.6,hang=0.6")
            .unwrap_err()
            .contains("sum"));
    }

    #[test]
    fn same_seed_replays_the_same_fault_sequence() {
        let config = ChaosConfig::parse("seed=9,refuse=0.3,hang=0.2,latency=0.2").unwrap();
        let a = ChaosInjector::new(config);
        let b = ChaosInjector::new(config);
        let sequence_a: Vec<_> = (0..200).map(|_| a.next_fault()).collect();
        let sequence_b: Vec<_> = (0..200).map(|_| b.next_fault()).collect();
        assert_eq!(sequence_a, sequence_b);
        // And a different seed diverges somewhere in 200 draws.
        let c = ChaosInjector::new(ChaosConfig { seed: 10, ..config });
        let sequence_c: Vec<_> = (0..200).map(|_| c.next_fault()).collect();
        assert_ne!(sequence_a, sequence_c);
    }

    #[test]
    fn empirical_rates_track_the_config() {
        let config = ChaosConfig::parse("seed=1,refuse=0.5").unwrap();
        let injector = ChaosInjector::new(config);
        let refused = (0..2000)
            .filter(|_| injector.next_fault() == Some(Fault::Refuse))
            .count();
        assert!(
            (800..1200).contains(&refused),
            "refuse=0.5 fired {refused}/2000 times"
        );
    }

    #[test]
    fn certain_fault_always_fires() {
        let config = ChaosConfig::parse("refuse=1.0").unwrap();
        let injector = ChaosInjector::new(config);
        for _ in 0..50 {
            assert_eq!(injector.next_fault(), Some(Fault::Refuse));
        }
    }
}
