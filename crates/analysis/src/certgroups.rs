//! Figure 11 (App. A.3): concentration of a Hypergiant's certificate-serving
//! IPs into "IP groups" (sets of IPs serving the same certificate).

use hgsim::Hg;
use offnet_core::StudySeries;

/// Per-snapshot shares (percent) of the top `k` certificate groups among
/// the HG's candidate IPs.
pub fn fig11(series: &StudySeries, hg: Hg, k: usize) -> Vec<Vec<f64>> {
    series
        .snapshots
        .iter()
        .map(|snap| {
            let groups = &snap.per_hg[&hg].cert_ip_groups; // descending
            let total: u32 = groups.iter().sum();
            groups
                .iter()
                .take(k)
                .map(|g| {
                    if total == 0 {
                        0.0
                    } else {
                        100.0 * f64::from(*g) / f64::from(total)
                    }
                })
                .collect()
        })
        .collect()
}

/// Share of the single largest group at a snapshot.
pub fn top_group_share(series: &StudySeries, hg: Hg, idx: usize) -> f64 {
    fig11(series, hg, 1)[idx].first().copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::study;

    #[test]
    fn google_video_cert_dominates() {
        // "over 50% of them serving the certificate that certifies
        // *.googlevideo.com" (App. A.3).
        let share = top_group_share(study(), Hg::Google, 30);
        assert!(share > 50.0, "top google group {share}%");
    }

    #[test]
    fn facebook_disaggregates_over_time() {
        let early = top_group_share(study(), Hg::Facebook, 12); // 2016-10
        let late = top_group_share(study(), Hg::Facebook, 30);
        assert!(
            early > late + 15.0,
            "facebook top-group share {early} -> {late}"
        );
    }

    #[test]
    fn shares_bounded() {
        for hg in [Hg::Google, Hg::Facebook, Hg::Akamai] {
            for snapshot in fig11(study(), hg, 10) {
                let sum: f64 = snapshot.iter().sum();
                assert!(sum <= 100.0 + 1e-9, "{hg}: {sum}");
                for s in snapshot {
                    assert!((0.0..=100.0).contains(&s));
                }
            }
        }
    }

    #[test]
    fn pre_launch_facebook_groups_are_onnet_and_aggregated() {
        // Before the CDN launch Facebook's certificate-serving IPs are
        // all on-net, under very few certificates (App. A.3: "heavy
        // aggregation in 2014").
        let shares = fig11(study(), Hg::Facebook, 10);
        let top_2014 = shares[2].first().copied().unwrap_or(0.0);
        assert!(top_2014 > 60.0, "2014 top-group share {top_2014}");
    }
}
