use crate::types::AsId;
use std::collections::HashMap;

/// Identifier of an organization in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OrgId(pub u32);

/// The App. A.2 AS-organization registry (CAIDA AS-org stand-in): maps
/// organizations to the ASes they operate. The off-net methodology uses the
/// reverse mapping — given a Hypergiant's organization name, find its
/// on-net ASes.
#[derive(Debug, Clone, Default)]
pub struct OrgDb {
    names: Vec<String>,
    as_to_org: HashMap<AsId, OrgId>,
    org_to_ases: HashMap<OrgId, Vec<AsId>>,
}

impl OrgDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an organization; returns its id. Names are not required to
    /// be unique (organization IDs churn in WHOIS data; A.2 tracks them by
    /// name literal).
    pub fn add_org(&mut self, name: &str) -> OrgId {
        let id = OrgId(self.names.len() as u32);
        self.names.push(name.to_owned());
        id
    }

    /// Assign an AS to an organization, replacing any prior assignment.
    pub fn assign(&mut self, asn: AsId, org: OrgId) {
        if let Some(prev) = self.as_to_org.insert(asn, org) {
            if let Some(v) = self.org_to_ases.get_mut(&prev) {
                v.retain(|a| *a != asn);
            }
        }
        self.org_to_ases.entry(org).or_default().push(asn);
    }

    pub fn org_of(&self, asn: AsId) -> Option<OrgId> {
        self.as_to_org.get(&asn).copied()
    }

    pub fn name(&self, org: OrgId) -> &str {
        &self.names[org.0 as usize]
    }

    pub fn ases_of(&self, org: OrgId) -> &[AsId] {
        self.org_to_ases.get(&org).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All ASes whose organization name contains `needle`
    /// (case-insensitively) — the A.2 "organization name literal" match.
    pub fn ases_matching(&self, needle: &str) -> Vec<AsId> {
        let needle = needle.to_ascii_lowercase();
        let mut out: Vec<AsId> = self
            .org_to_ases
            .iter()
            .filter(|(org, _)| {
                self.names[org.0 as usize]
                    .to_ascii_lowercase()
                    .contains(&needle)
            })
            .flat_map(|(_, ases)| ases.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_assignment() {
        let mut db = OrgDb::new();
        let g = db.add_org("Google LLC");
        db.assign(AsId(15169), g);
        db.assign(AsId(36040), g);
        assert_eq!(db.org_of(AsId(15169)), Some(g));
        assert_eq!(db.ases_of(g), &[AsId(15169), AsId(36040)]);
        assert_eq!(db.name(g), "Google LLC");
    }

    #[test]
    fn reassignment_moves_as() {
        let mut db = OrgDb::new();
        let a = db.add_org("Old Org");
        let b = db.add_org("New Org");
        db.assign(AsId(1), a);
        db.assign(AsId(1), b);
        assert_eq!(db.ases_of(a), &[] as &[AsId]);
        assert_eq!(db.ases_of(b), &[AsId(1)]);
    }

    #[test]
    fn case_insensitive_name_match() {
        let mut db = OrgDb::new();
        let g = db.add_org("Google LLC");
        let other = db.add_org("Example Networks");
        db.assign(AsId(15169), g);
        db.assign(AsId(64500), other);
        assert_eq!(db.ases_matching("GOOGLE"), vec![AsId(15169)]);
        assert_eq!(db.ases_matching("google llc"), vec![AsId(15169)]);
        assert!(db.ases_matching("netflix").is_empty());
    }

    #[test]
    fn substring_match_spans_orgs() {
        let mut db = OrgDb::new();
        let a = db.add_org("Acme CDN East");
        let b = db.add_org("Acme CDN West");
        db.assign(AsId(10), a);
        db.assign(AsId(20), b);
        assert_eq!(db.ases_matching("acme cdn"), vec![AsId(10), AsId(20)]);
    }

    #[test]
    fn unknown_as_has_no_org() {
        let db = OrgDb::new();
        assert_eq!(db.org_of(AsId(999)), None);
    }
}
