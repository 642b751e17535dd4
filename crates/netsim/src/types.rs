use std::fmt;

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AsId(pub u32);

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Continental regions used for the §6.4 growth analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    Asia,
    Europe,
    SouthAmerica,
    NorthAmerica,
    Africa,
    Oceania,
}

/// All regions in presentation order (matches Figure 6's panels).
pub const ALL_REGIONS: [Region; 6] = [
    Region::Asia,
    Region::Europe,
    Region::SouthAmerica,
    Region::NorthAmerica,
    Region::Africa,
    Region::Oceania,
];

impl Region {
    pub fn name(&self) -> &'static str {
        match self {
            Region::Asia => "Asia",
            Region::Europe => "Europe",
            Region::SouthAmerica => "South America",
            Region::NorthAmerica => "North America",
            Region::Africa => "Africa",
            Region::Oceania => "Oceania",
        }
    }

    /// Two-letter code used in synthetic country identifiers.
    pub fn code(&self) -> &'static str {
        match self {
            Region::Asia => "AS",
            Region::Europe => "EU",
            Region::SouthAmerica => "SA",
            Region::NorthAmerica => "NA",
            Region::Africa => "AF",
            Region::Oceania => "OC",
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_names_unique() {
        let mut names: Vec<_> = ALL_REGIONS.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn as_display() {
        assert_eq!(AsId(15169).to_string(), "AS15169");
    }
}
