//! Transient scan failures, deterministic retries, and circuit breakers.
//!
//! Real scan engines time out, get rate-limited, and lose connections; the
//! paper's corpora (§3, App. A) silently lack whatever those failures hid.
//! This module promotes the engine's transient-loss coin into an explicit
//! failure taxonomy ([`TransientClass`]) and adds an *optional* retry layer
//! ([`TransientPolicy`]): seeded injected failures, exponential backoff
//! with decorrelated jitter over the `timebase` virtual clock, a per-target
//! retry budget, and a per-(engine scan pass, AS) circuit breaker that
//! stops hammering an AS after consecutive give-ups and marks its
//! remaining targets unreachable instead.
//!
//! Everything is deterministic: failure coins and jitter draws are
//! splitmix hashes of (seed, stream, snapshot, ip, attempt), and the
//! breaker state is a pure fold over the fixed endpoint iteration order.
//! A policy at rate 0 admits exactly the targets a policy-free scan
//! admits, so record sets stay byte-identical.
//!
//! The bookkeeping lives in [`ScanHealth`], which every scan snapshot now
//! carries and the pipeline folds into its `DataQualityReport`. The
//! invariant `attempts == targets + retries` holds by construction: each
//! admitted target costs one attempt, plus one per retry.

use crate::engine::{mix, ScanEngine};
use netsim::AsId;
use std::collections::{BTreeMap, HashMap};
use timebase::{Snapshot, Timestamp};

/// Per-stream key salts, mirroring the fault ledger's stream split: the
/// certificate pass and the two banner passes draw independent failure
/// coins for the same IP.
pub const STREAM_CERT: u64 = 0;
/// Salt for the port-80 banner pass.
pub const STREAM_HTTP80: u64 = 80 << 40;
/// Salt for the port-443 banner pass.
pub const STREAM_HTTPS443: u64 = 443 << 40;

/// One class of simulated transient failure, mirroring what real scan
/// engines report: the connection timed out, the peer reset it, or the
/// target (or an intermediary) rate-limited us.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TransientClass {
    Timeout,
    ConnReset,
    RateLimited,
}

impl TransientClass {
    /// Every class, in a fixed order.
    pub const ALL: [TransientClass; 3] = [
        TransientClass::Timeout,
        TransientClass::ConnReset,
        TransientClass::RateLimited,
    ];

    pub fn name(self) -> &'static str {
        match self {
            TransientClass::Timeout => "timeout",
            TransientClass::ConnReset => "conn-reset",
            TransientClass::RateLimited => "rate-limited",
        }
    }

    /// Deterministic class assignment from a hash draw.
    pub(crate) fn from_draw(draw: u64) -> Self {
        Self::ALL[(draw % 3) as usize]
    }
}

impl std::fmt::Display for TransientClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Retry limits for one target. Backoff is exponential with decorrelated
/// jitter (`sleep_k` drawn from `[base, 3 * sleep_{k-1}]`, capped), the
/// standard scan-politeness shape: retries spread out instead of
/// synchronizing into bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Total connection attempts per target (1 = no retries).
    pub max_attempts: u32,
    /// First backoff sleep, virtual seconds.
    pub base_backoff_s: u64,
    /// Cap on any single backoff sleep, virtual seconds.
    pub max_backoff_s: u64,
    /// Per-target budget of total virtual time spent waiting; once the
    /// next sleep would cross it, the target is given up early.
    pub budget_s: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_s: 1,
            max_backoff_s: 60,
            budget_s: 120,
        }
    }
}

/// A seeded, deterministic transient-failure + retry policy for one engine.
///
/// The policy *injects* failures at `rate` per (stream, snapshot, ip,
/// attempt) — independently re-drawn on every retry, so retries genuinely
/// recover — and bounds the retries per [`RetryConfig`]. The engine's
/// intrinsic transient loss (the historical third coin in
/// [`ScanEngine::reaches`]) stays non-retryable: those records were never
/// in the corpus, and retrying them would change the record set.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientPolicy {
    seed: u64,
    rate: f64,
    pub retry: RetryConfig,
    /// Consecutive same-AS give-ups that open the circuit breaker.
    pub breaker_threshold: u32,
}

impl TransientPolicy {
    pub fn new(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            rate: rate.clamp(0.0, 1.0),
            retry: RetryConfig::default(),
            breaker_threshold: 8,
        }
    }

    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }

    pub fn with_breaker_threshold(mut self, threshold: u32) -> Self {
        self.breaker_threshold = threshold.max(1);
        self
    }

    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Stable digest of everything that shapes scan outcomes, for
    /// study log config fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(self.seed ^ 0x7261_6e73_6965_6e74);
        h = mix(h ^ self.rate.to_bits());
        h = mix(h ^ u64::from(self.retry.max_attempts));
        h = mix(h ^ self.retry.base_backoff_s.rotate_left(8));
        h = mix(h ^ self.retry.max_backoff_s.rotate_left(16));
        h = mix(h ^ self.retry.budget_s.rotate_left(24));
        mix(h ^ u64::from(self.breaker_threshold))
    }

    fn hash(&self, stream: u64, t: usize, ip: u32, attempt: u32) -> u64 {
        mix(mix(self.seed ^ 0x7472_616e)
            ^ stream
            ^ mix((t as u64).rotate_left(24) ^ u64::from(ip) ^ (u64::from(attempt) << 33)))
    }

    /// The injected-failure coin for one connection attempt. Returns the
    /// failure class when the attempt fails.
    pub fn fails(&self, stream: u64, t: usize, ip: u32, attempt: u32) -> Option<TransientClass> {
        if self.rate <= 0.0 {
            return None;
        }
        let h = self.hash(stream, t, ip, attempt);
        if (h as f64 / u64::MAX as f64) < self.rate {
            Some(TransientClass::from_draw(mix(h ^ 0xc1a5_5e50)))
        } else {
            None
        }
    }

    /// The full decorrelated-jitter backoff schedule for one target:
    /// `max_attempts - 1` sleeps, where sleep k is drawn uniformly from
    /// `[base, 3 * sleep_{k-1}]` and capped at `max_backoff_s`. Pure and
    /// seeded — the same (seed, stream, snapshot, ip) always yields the
    /// same schedule.
    pub fn backoff_schedule(&self, stream: u64, t: usize, ip: u32) -> Vec<u64> {
        let base = self.retry.base_backoff_s.max(1);
        let cap = self.retry.max_backoff_s.max(base);
        let mut sleeps = Vec::with_capacity(self.retry.max_attempts.saturating_sub(1) as usize);
        let mut prev = base;
        for attempt in 1..self.retry.max_attempts {
            let draw = mix(self.hash(stream, t, ip, attempt) ^ 0xbac0_ff5e);
            let span = (3 * prev).saturating_sub(base) + 1;
            let sleep = (base + draw % span).min(cap);
            sleeps.push(sleep);
            prev = sleep;
        }
        sleeps
    }

    /// Total virtual wait a target can be charged before giving up: the
    /// longest schedule prefix whose cumulative sum stays within the
    /// per-target budget. This is exactly what [`ScanSession`] charges in
    /// the worst case (every attempt fails).
    pub fn max_budgeted_wait(&self, stream: u64, t: usize, ip: u32) -> u64 {
        let mut total = 0u64;
        for sleep in self.backoff_schedule(stream, t, ip) {
            if total + sleep > self.retry.budget_s {
                break;
            }
            total += sleep;
        }
        total
    }
}

/// Exact health counters for one scan pass (or, after merging, one
/// snapshot / one study). All fields are integers so the struct is `Eq`
/// and its `Debug` rendering is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanHealth {
    /// Targets admitted past the stable exclusion filters and actually
    /// attempted (excludes breaker-skipped targets).
    pub targets: usize,
    /// Connection attempts, including retries.
    pub attempts: usize,
    /// Retry attempts (attempts beyond each target's first).
    pub retries: usize,
    /// Targets that failed at least once and then connected on a retry.
    pub recovered: usize,
    /// Targets lost to the engine's intrinsic transient loss, by class.
    /// These are never retried: they are the corpus's historical holes.
    pub base_lost: BTreeMap<TransientClass, usize>,
    /// Targets the retry policy gave up on (budget or attempts exhausted).
    pub gave_up: BTreeMap<TransientClass, usize>,
    /// Circuit breakers opened (per scan pass × AS).
    pub breaker_opens: usize,
    /// Targets skipped because their AS's breaker was already open.
    pub unreachable: usize,
    /// Total simulated virtual seconds spent in backoff sleeps.
    pub backoff_wait_s: u64,
}

impl ScanHealth {
    pub fn merge(&mut self, other: &ScanHealth) {
        self.targets += other.targets;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.recovered += other.recovered;
        for (&class, &n) in &other.base_lost {
            *self.base_lost.entry(class).or_insert(0) += n;
        }
        for (&class, &n) in &other.gave_up {
            *self.gave_up.entry(class).or_insert(0) += n;
        }
        self.breaker_opens += other.breaker_opens;
        self.unreachable += other.unreachable;
        self.backoff_wait_s += other.backoff_wait_s;
    }

    pub fn base_lost_total(&self) -> usize {
        self.base_lost.values().sum()
    }

    pub fn gave_up_total(&self) -> usize {
        self.gave_up.values().sum()
    }

    /// Targets that ended connected (the records downstream actually sees).
    pub fn connected(&self) -> usize {
        self.targets - self.base_lost_total() - self.gave_up_total()
    }

    /// Everything the scan failed to observe, for whatever reason.
    pub fn lost_total(&self) -> usize {
        self.base_lost_total() + self.gave_up_total() + self.unreachable
    }
}

#[derive(Default)]
struct Breaker {
    consecutive: u32,
    open: bool,
}

/// Per-scan-pass admission control: stable exclusion, base transient loss
/// accounting, the optional retry loop, and the per-AS circuit breaker.
///
/// One session per scan pass (certificates, port-80 banners, port-443
/// banners); breaker state does not leak across passes. Determinism
/// follows from the fixed endpoint iteration order.
pub struct ScanSession<'e> {
    engine: &'e ScanEngine,
    t: usize,
    n_snapshots: usize,
    stream: u64,
    /// The pass's virtual start instant: scan noon of the snapshot date.
    at: Timestamp,
    breakers: HashMap<AsId, Breaker>,
    health: ScanHealth,
}

impl<'e> ScanSession<'e> {
    pub fn new(engine: &'e ScanEngine, t: usize, n_snapshots: usize, stream: u64) -> Self {
        Self {
            engine,
            t,
            n_snapshots,
            stream,
            at: scan_instant(t),
            breakers: HashMap::new(),
            health: ScanHealth::default(),
        }
    }

    /// Decide whether the scan observes `ip` (announced by `origin`).
    ///
    /// Admission order: stable exclusion (silent, as always) → open
    /// breaker (counted unreachable) → intrinsic transient loss (counted,
    /// never retried) → injected-failure retry loop.
    pub fn admit(&mut self, ip: u32, origin: AsId) -> bool {
        if !self.engine.reaches_stable(ip, self.t, self.n_snapshots) {
            return false;
        }
        let policy = self.engine.transients.as_deref();
        if policy.is_some() && self.breakers.get(&origin).is_some_and(|b| b.open) {
            self.health.unreachable += 1;
            return false;
        }
        self.health.targets += 1;
        self.health.attempts += 1;
        if let Some(class) = self.engine.base_transient_lost(ip, self.t) {
            // Historical corpus hole: exactly the records `reaches` always
            // dropped, now counted. Not a breaker signal — the engine's
            // own loss model is not the target AS misbehaving.
            *self.health.base_lost.entry(class).or_insert(0) += 1;
            return false;
        }
        let Some(policy) = policy else {
            return true;
        };
        self.retry_loop(ip, origin, policy)
    }

    fn retry_loop(&mut self, ip: u32, origin: AsId, policy: &TransientPolicy) -> bool {
        let schedule = policy.backoff_schedule(self.stream, self.t, ip);
        let deadline = self.at.plus_seconds(policy.retry.budget_s as i64);
        let mut clock = self.at;
        let mut last_failure = None;
        for attempt in 0..policy.retry.max_attempts {
            if attempt > 0 {
                self.health.attempts += 1;
                self.health.retries += 1;
            }
            match policy.fails(self.stream, self.t, ip, attempt) {
                None => {
                    if attempt > 0 {
                        self.health.recovered += 1;
                    }
                    if let Some(b) = self.breakers.get_mut(&origin) {
                        b.consecutive = 0;
                    }
                    return true;
                }
                Some(class) => {
                    last_failure = Some(class);
                    if let Some(&sleep) = schedule.get(attempt as usize) {
                        let woken = clock.plus_seconds(sleep as i64);
                        if woken > deadline {
                            break; // budget exhausted: give up early
                        }
                        clock = woken;
                        self.health.backoff_wait_s += sleep;
                    }
                }
            }
        }
        let class = last_failure.expect("give-up implies at least one failed attempt");
        *self.health.gave_up.entry(class).or_insert(0) += 1;
        let b = self.breakers.entry(origin).or_default();
        b.consecutive += 1;
        if !b.open && b.consecutive >= policy.breaker_threshold {
            b.open = true;
            self.health.breaker_opens += 1;
        }
        false
    }

    /// Consume the session, yielding its health counters.
    pub fn finish(self) -> ScanHealth {
        self.health
    }
}

/// The virtual instant a snapshot's scan runs: noon on the snapshot date.
fn scan_instant(t: usize) -> Timestamp {
    let mut s = Snapshot::study_start();
    for _ in 0..t {
        s = s.next();
    }
    s.date().midnight().plus_seconds(12 * 3600)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(rate: f64) -> TransientPolicy {
        TransientPolicy::new(77, rate)
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let p = policy(0.3);
        let a = p.backoff_schedule(STREAM_CERT, 7, 0xdead);
        let b = p.backoff_schedule(STREAM_CERT, 7, 0xdead);
        assert_eq!(a, b);
        assert_eq!(a.len(), (p.retry.max_attempts - 1) as usize);
        for &s in &a {
            assert!(s >= p.retry.base_backoff_s && s <= p.retry.max_backoff_s);
        }
        // Streams and targets draw independent schedules.
        assert_ne!(
            p.backoff_schedule(STREAM_CERT, 7, 1),
            p.backoff_schedule(STREAM_HTTP80, 7, 1),
        );
    }

    #[test]
    fn max_budgeted_wait_respects_budget() {
        let p = TransientPolicy::new(5, 0.5).with_retry(RetryConfig {
            max_attempts: 10,
            base_backoff_s: 3,
            max_backoff_s: 40,
            budget_s: 25,
        });
        for ip in 0..500u32 {
            assert!(p.max_budgeted_wait(STREAM_CERT, 3, ip) <= 25);
        }
    }

    #[test]
    fn zero_rate_policy_never_fails() {
        let p = policy(0.0);
        for ip in 0..1000u32 {
            assert_eq!(p.fails(STREAM_CERT, 5, ip, 0), None);
        }
    }

    #[test]
    fn rate_one_always_fails_and_classes_cover_taxonomy() {
        let p = policy(1.0);
        let mut seen = std::collections::BTreeSet::new();
        for ip in 0..300u32 {
            let class = p.fails(STREAM_CERT, 5, ip, 0).expect("rate 1 fails");
            seen.insert(class);
        }
        assert_eq!(seen.len(), 3, "all three classes should appear");
    }

    #[test]
    fn session_invariant_attempts_eq_targets_plus_retries() {
        let engine =
            ScanEngine::rapid7().with_transients(std::sync::Arc::new(policy(0.25)).clone());
        let mut session = ScanSession::new(&engine, 5, 31, STREAM_CERT);
        for ip in 0..20_000u32 {
            session.admit(ip.wrapping_mul(2654435761), AsId(ip % 50));
        }
        let h = session.finish();
        assert_eq!(h.attempts, h.targets + h.retries);
        assert!(h.recovered > 0, "no retry ever recovered");
        assert!(h.gave_up_total() > 0 || h.retries == 0);
    }

    #[test]
    fn breaker_opens_and_marks_unreachable() {
        let p = std::sync::Arc::new(
            TransientPolicy::new(3, 1.0).with_breaker_threshold(2), // every attempt fails
        );
        let engine = ScanEngine::certigo().with_transients(p);
        let mut session = ScanSession::new(&engine, 5, 31, STREAM_CERT);
        let asid = AsId(42);
        let mut admitted = 0;
        for ip in 0..5_000u32 {
            if session.admit(ip, asid) {
                admitted += 1;
            }
        }
        let h = session.finish();
        assert_eq!(admitted, 0);
        assert_eq!(h.breaker_opens, 1, "one AS, one breaker");
        assert!(h.unreachable > 0, "open breaker skipped nobody");
        // After the open, no further attempts were charged.
        assert_eq!(h.targets, h.base_lost_total() + h.gave_up_total());
    }

    #[test]
    fn health_merge_is_componentwise_sum() {
        let mut a = ScanHealth {
            targets: 10,
            attempts: 12,
            retries: 2,
            ..Default::default()
        };
        a.base_lost.insert(TransientClass::Timeout, 3);
        let mut b = ScanHealth {
            targets: 5,
            attempts: 5,
            backoff_wait_s: 9,
            ..Default::default()
        };
        b.base_lost.insert(TransientClass::Timeout, 1);
        b.gave_up.insert(TransientClass::ConnReset, 2);
        a.merge(&b);
        assert_eq!(a.targets, 15);
        assert_eq!(a.attempts, 17);
        assert_eq!(a.base_lost[&TransientClass::Timeout], 4);
        assert_eq!(a.gave_up[&TransientClass::ConnReset], 2);
        assert_eq!(a.backoff_wait_s, 9);
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = policy(0.1);
        assert_eq!(base.fingerprint(), policy(0.1).fingerprint());
        assert_ne!(base.fingerprint(), policy(0.2).fingerprint());
        assert_ne!(
            base.fingerprint(),
            TransientPolicy::new(78, 0.1).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            policy(0.1).with_breaker_threshold(3).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            policy(0.1)
                .with_retry(RetryConfig {
                    max_attempts: 9,
                    ..Default::default()
                })
                .fingerprint()
        );
    }
}
