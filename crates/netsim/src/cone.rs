use std::fmt;

/// AS size categories by customer-cone size, following §6.3: Stub ASes have
/// no customer cone other than themselves; Small ≤ 10; Medium ≤ 100;
/// Large ≤ 1000; XLarge > 1000.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SizeCategory {
    Stub = 0,
    Small = 1,
    Medium = 2,
    Large = 3,
    XLarge = 4,
}

/// All categories smallest-first (matches Figure 5's stacking order).
pub const ALL_CATEGORIES: [SizeCategory; 5] = [
    SizeCategory::Stub,
    SizeCategory::Small,
    SizeCategory::Medium,
    SizeCategory::Large,
    SizeCategory::XLarge,
];

impl SizeCategory {
    /// Classify a customer-cone size (transitive customers, excluding the
    /// AS itself).
    pub fn from_cone_size(cone: usize) -> Self {
        match cone {
            0 => SizeCategory::Stub,
            1..=10 => SizeCategory::Small,
            11..=100 => SizeCategory::Medium,
            101..=1000 => SizeCategory::Large,
            _ => SizeCategory::XLarge,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            SizeCategory::Stub => "Stub",
            SizeCategory::Small => "Small",
            SizeCategory::Medium => "Medium",
            SizeCategory::Large => "Large",
            SizeCategory::XLarge => "XLarge",
        }
    }
}

impl fmt::Display for SizeCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries() {
        assert_eq!(SizeCategory::from_cone_size(0), SizeCategory::Stub);
        assert_eq!(SizeCategory::from_cone_size(1), SizeCategory::Small);
        assert_eq!(SizeCategory::from_cone_size(10), SizeCategory::Small);
        assert_eq!(SizeCategory::from_cone_size(11), SizeCategory::Medium);
        assert_eq!(SizeCategory::from_cone_size(100), SizeCategory::Medium);
        assert_eq!(SizeCategory::from_cone_size(101), SizeCategory::Large);
        assert_eq!(SizeCategory::from_cone_size(1000), SizeCategory::Large);
        assert_eq!(SizeCategory::from_cone_size(1001), SizeCategory::XLarge);
    }

    #[test]
    fn ordering() {
        assert!(SizeCategory::Stub < SizeCategory::XLarge);
        assert!(SizeCategory::Small < SizeCategory::Medium);
    }
}
