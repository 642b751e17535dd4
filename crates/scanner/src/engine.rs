//! Scan engine identities and their coverage characteristics.

use sha2sim::Sha256;

/// Which scanning corpus a snapshot belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineId {
    /// Rapid7 Project Sonar — the paper's longitudinal corpus.
    Rapid7,
    /// Censys — supplemental corpus from Nov 2019 onward.
    Censys,
    /// The paper's own certigo campaign (Nov 2019): slower, fewer
    /// exclusions, ~20% more addresses (§5, Table 2).
    Certigo,
}

impl EngineId {
    pub fn name(&self) -> &'static str {
        match self {
            EngineId::Rapid7 => "Rapid7",
            EngineId::Censys => "Censys",
            EngineId::Certigo => "Certigo",
        }
    }

    pub fn abbreviation(&self) -> &'static str {
        match self {
            EngineId::Rapid7 => "R7",
            EngineId::Censys => "CS",
            EngineId::Certigo => "AC",
        }
    }
}

impl std::fmt::Display for EngineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Coverage model for one engine.
///
/// Long-running public scanners accumulate opt-out/blocklist entries
/// ("both scans have to respond to complaints and remove IP addresses",
/// §5), so the excluded fraction of the address space grows over time.
/// Exclusion is a per-(engine, IP) deterministic coin so the same IPs stay
/// excluded across snapshots.
#[derive(Debug, Clone)]
pub struct ScanEngine {
    pub id: EngineId,
    /// Excluded address fraction at the first snapshot.
    exclusion_start: f64,
    /// Excluded address fraction at the last snapshot.
    exclusion_end: f64,
    /// Transient loss (rate limiting, timeouts) — an independent
    /// per-(engine, IP, snapshot) coin.
    transient_loss: f64,
    /// Fraction of /14 address blocks whose operators asked to be removed
    /// from this engine's scans entirely (AS-level opt-outs — §5 notes
    /// that "ASes that have opted out of TLS scans" cause misses).
    block_optout: f64,
    salt: u64,
    /// First snapshot index with HTTPS application headers in the corpus
    /// (Rapid7 added HTTPS data in summer 2016).
    pub https_headers_since: Option<usize>,
    /// First snapshot index the corpus exists at all.
    pub active_since: usize,
    /// Optional deterministic fault-injection plan applied to everything
    /// this engine scans (see [`crate::faults`]). `None` means clean scans.
    pub faults: Option<std::sync::Arc<crate::faults::FaultPlan>>,
    /// Optional transient-failure + retry policy (see [`crate::transient`]).
    /// `None` means the historical behaviour: intrinsic transient loss
    /// only, no injected failures, no retries, no breakers.
    pub transients: Option<std::sync::Arc<crate::transient::TransientPolicy>>,
}

fn hsalt(label: &str) -> u64 {
    let d = Sha256::digest(label.as_bytes());
    u64::from_le_bytes(d[..8].try_into().expect("8 bytes"))
}

impl ScanEngine {
    pub fn rapid7() -> Self {
        Self {
            id: EngineId::Rapid7,
            exclusion_start: 0.04,
            exclusion_end: 0.16,
            transient_loss: 0.012,
            block_optout: 0.035,
            salt: hsalt("engine:rapid7"),
            https_headers_since: Some(11), // 2016-07
            active_since: 0,
            faults: None,
            transients: None,
        }
    }

    pub fn censys() -> Self {
        Self {
            id: EngineId::Censys,
            exclusion_start: 0.035,
            exclusion_end: 0.145,
            transient_loss: 0.008,
            block_optout: 0.03,
            salt: hsalt("engine:censys"),
            https_headers_since: Some(24), // corpus used from 2019-10
            active_since: 24,
            faults: None,
            transients: None,
        }
    }

    pub fn certigo() -> Self {
        Self {
            id: EngineId::Certigo,
            exclusion_start: 0.012,
            exclusion_end: 0.012,
            transient_loss: 0.004,
            block_optout: 0.01,
            salt: hsalt("engine:certigo"),
            https_headers_since: Some(0),
            active_since: 0,
            faults: None,
            transients: None,
        }
    }

    /// Attach a deterministic fault-injection plan: every snapshot this
    /// engine scans is corrupted per the plan's per-class rates, and the
    /// plan's ledger records exactly what was injected.
    pub fn with_faults(mut self, plan: std::sync::Arc<crate::faults::FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach a transient-failure + retry policy: scans inject seeded
    /// per-attempt failures at the policy's rate and retry them with
    /// deterministic backoff under per-(scan pass, AS) circuit breakers.
    pub fn with_transients(
        mut self,
        policy: std::sync::Arc<crate::transient::TransientPolicy>,
    ) -> Self {
        self.transients = Some(policy);
        self
    }

    /// Whether this engine's scan reaches `ip` at snapshot `t`.
    ///
    /// Equivalent to [`reaches_stable`](Self::reaches_stable) plus surviving
    /// the intrinsic transient-loss coin
    /// ([`base_transient_lost`](Self::base_transient_lost)).
    pub fn reaches(&self, ip: u32, t: usize, n_snapshots: usize) -> bool {
        self.reaches_stable(ip, t, n_snapshots) && self.base_transient_lost(ip, t).is_none()
    }

    /// The stable (snapshot-persistent) reachability filters: the growing
    /// exclusion list and per-/14-block AS opt-outs. IPs failing these are
    /// never scan targets at all.
    pub fn reaches_stable(&self, ip: u32, t: usize, n_snapshots: usize) -> bool {
        let frac = t as f64 / (n_snapshots - 1).max(1) as f64;
        let excl = self.exclusion_start + frac * (self.exclusion_end - self.exclusion_start);
        let coin = mix(self.salt ^ u64::from(ip)) as f64 / u64::MAX as f64;
        if coin < excl {
            return false;
        }
        // AS-level opt-out, approximated per /14 block (stub and small AS
        // allocations sit inside one block).
        let block = u64::from(ip >> 18);
        let coin_block = mix(self.salt ^ 0xb10c ^ block) as f64 / u64::MAX as f64;
        coin_block >= self.block_optout
    }

    /// The engine's intrinsic transient loss for `(ip, t)` — the exact coin
    /// `reaches` has always flipped, now classified instead of silent.
    /// `Some(class)` means the historical corpus lacks this record; the
    /// retry layer never retries these (doing so would change the corpus).
    pub fn base_transient_lost(&self, ip: u32, t: usize) -> Option<crate::TransientClass> {
        let h = mix(self.salt ^ u64::from(ip).rotate_left(17) ^ (t as u64) << 48);
        let coin2 = h as f64 / u64::MAX as f64;
        if coin2 < self.transient_loss {
            Some(crate::TransientClass::from_draw(mix(h ^ 0x7c1a_55e5)))
        } else {
            None
        }
    }
}

pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusion_grows_over_time() {
        let e = ScanEngine::rapid7();
        let reach = |t: usize| {
            (0u32..40_000)
                .filter(|&i| e.reaches(i.wrapping_mul(2654435761), t, 31))
                .count() as f64
                / 40_000.0
        };
        let early = reach(0);
        let late = reach(30);
        assert!(early > late + 0.05, "early {early} late {late}");
    }

    #[test]
    fn certigo_reaches_more_than_rapid7_late() {
        let r7 = ScanEngine::rapid7();
        let ac = ScanEngine::certigo();
        let count = |e: &ScanEngine| {
            (0u32..40_000)
                .filter(|&i| e.reaches(i.wrapping_mul(2654435761), 24, 31))
                .count()
        };
        assert!(count(&ac) > count(&r7));
    }

    #[test]
    fn exclusion_is_stable_per_ip() {
        let e = ScanEngine::rapid7();
        // An IP excluded by the blocklist at t stays excluded at t+1
        // (modulo transient loss, which we ignore by testing exclusion-only
        // IPs: those unreachable at *every* t are blocklisted).
        let ip = (0u32..100_000)
            .find(|&i| !(0..31).any(|t| e.reaches(i, t, 31)))
            .expect("some IP is always excluded");
        assert!(!e.reaches(ip, 5, 31));
    }

    #[test]
    fn engines_exclude_different_subsets() {
        let r7 = ScanEngine::rapid7();
        let cs = ScanEngine::censys();
        let only_r7 = (0u32..40_000)
            .filter(|&i| r7.reaches(i, 24, 31) && !cs.reaches(i, 24, 31))
            .count();
        let only_cs = (0u32..40_000)
            .filter(|&i| cs.reaches(i, 24, 31) && !r7.reaches(i, 24, 31))
            .count();
        assert!(only_r7 > 100);
        assert!(only_cs > 100);
    }
}
