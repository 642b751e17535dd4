use crate::Region;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Index into [`World::countries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CountryId(pub u16);

/// A synthetic country with an Internet-user population.
#[derive(Debug, Clone)]
pub struct Country {
    pub id: CountryId,
    /// Synthetic ISO-like code, e.g. `EU07`.
    pub code: String,
    pub region: Region,
    /// Internet users (absolute count, simulation scale).
    pub internet_users: f64,
}

/// The set of countries and their populations, standing in for real
/// geography. Country populations within a region follow a Zipf
/// distribution, mirroring how a few countries dominate each region's
/// Internet population.
#[derive(Debug, Clone)]
pub struct World {
    countries: Vec<Country>,
}

/// `(countries, total Internet users in millions)` per region — loosely
/// matched to ca.-2020 figures, scaled into simulation units.
const REGION_PLAN: [(Region, usize, f64); 6] = [
    (Region::Asia, 40, 2600.0),
    (Region::Europe, 45, 700.0),
    (Region::SouthAmerica, 12, 450.0),
    (Region::NorthAmerica, 10, 400.0),
    (Region::Africa, 35, 600.0),
    (Region::Oceania, 8, 30.0),
];

impl World {
    /// Generate the canonical world for a seed.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x67656f);
        let mut countries = Vec::new();
        for (region, n, total_users_m) in REGION_PLAN {
            // Zipf weights 1/k, jittered, normalized to the region total.
            let mut weights: Vec<f64> = (1..=n)
                .map(|k| (1.0 / k as f64) * rng.gen_range(0.75..1.25))
                .collect();
            let sum: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= sum;
            }
            for (i, w) in weights.iter().enumerate() {
                let id = CountryId(countries.len() as u16);
                countries.push(Country {
                    id,
                    code: format!("{}{:02}", region.code(), i + 1),
                    region,
                    internet_users: w * total_users_m * 1e6,
                });
            }
        }
        Self { countries }
    }

    pub fn countries(&self) -> &[Country] {
        &self.countries
    }

    pub fn country(&self, id: CountryId) -> &Country {
        &self.countries[id.0 as usize]
    }

    pub fn region_of(&self, id: CountryId) -> Region {
        self.country(id).region
    }

    pub fn countries_in(&self, region: Region) -> impl Iterator<Item = &Country> {
        self.countries.iter().filter(move |c| c.region == region)
    }

    /// Total Internet users worldwide.
    pub fn total_users(&self) -> f64 {
        self.countries.iter().map(|c| c.internet_users).sum()
    }

    /// Sample a country weighted by Internet-user population, optionally
    /// restricted to a region.
    pub fn sample_country(&self, rng: &mut impl Rng, region: Option<Region>) -> CountryId {
        let pool: Vec<&Country> = match region {
            Some(r) => self.countries_in(r).collect(),
            None => self.countries.iter().collect(),
        };
        let total: f64 = pool.iter().map(|c| c.internet_users).sum();
        let mut x = rng.gen_range(0.0..total);
        for c in &pool {
            x -= c.internet_users;
            if x <= 0.0 {
                return c.id;
            }
        }
        pool.last().expect("regions are non-empty").id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_REGIONS;

    #[test]
    fn world_has_all_regions() {
        let w = World::generate(1);
        for r in ALL_REGIONS {
            assert!(w.countries_in(r).count() > 0, "region {r} empty");
        }
        assert_eq!(w.countries().len(), 150);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = World::generate(7);
        let b = World::generate(7);
        assert_eq!(a.countries().len(), b.countries().len());
        assert_eq!(a.total_users(), b.total_users());
        assert_eq!(a.countries()[3].code, b.countries()[3].code);
    }

    #[test]
    fn asia_dominates_population() {
        let w = World::generate(7);
        let asia: f64 = w.countries_in(Region::Asia).map(|c| c.internet_users).sum();
        let oceania: f64 = w
            .countries_in(Region::Oceania)
            .map(|c| c.internet_users)
            .sum();
        assert!(asia > 10.0 * oceania);
    }

    #[test]
    fn sampling_respects_region() {
        let w = World::generate(7);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let id = w.sample_country(&mut rng, Some(Region::Africa));
            assert_eq!(w.region_of(id), Region::Africa);
        }
    }

    #[test]
    fn zipf_head_is_heavy() {
        let w = World::generate(7);
        let mut users: Vec<f64> = w
            .countries_in(Region::Asia)
            .map(|c| c.internet_users)
            .collect();
        users.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top5: f64 = users.iter().take(5).sum();
        let total: f64 = users.iter().sum();
        assert!(top5 / total > 0.4, "top-5 share {}", top5 / total);
    }
}
