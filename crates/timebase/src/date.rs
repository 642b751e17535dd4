use crate::{days_in_month, Timestamp};
use std::fmt;

/// A civil calendar date (proleptic Gregorian, UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

impl Date {
    /// Construct a date, panicking on out-of-range components.
    ///
    /// Use [`Date::try_new`] for fallible construction.
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        Self::try_new(year, month, day)
            .unwrap_or_else(|| panic!("invalid date {year:04}-{month:02}-{day:02}"))
    }

    /// Construct a date, returning `None` if the components are invalid.
    pub fn try_new(year: i32, month: u8, day: u8) -> Option<Self> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return None;
        }
        Some(Self { year, month, day })
    }

    pub fn year(&self) -> i32 {
        self.year
    }

    pub fn month(&self) -> u8 {
        self.month
    }

    pub fn day(&self) -> u8 {
        self.day
    }

    /// Number of days since 1970-01-01 (negative before the epoch).
    ///
    /// Implements Howard Hinnant's `days_from_civil` algorithm.
    pub fn days_from_epoch(&self) -> i64 {
        let y = i64::from(self.year) - i64::from(self.month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = i64::from(self.month);
        let d = i64::from(self.day);
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146097 + doe - 719468
    }

    /// Inverse of [`Date::days_from_epoch`].
    pub fn from_days_from_epoch(days: i64) -> Self {
        let z = days + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
        Self::new((y + i64::from(m <= 2)) as i32, m as u8, d as u8)
    }

    /// Midnight (00:00:00 UTC) at this date.
    pub fn midnight(&self) -> Timestamp {
        Timestamp::from_unix(self.days_from_epoch() * 86_400)
    }

    /// The date `n` days later (or earlier if negative).
    pub fn plus_days(&self, n: i64) -> Self {
        Self::from_days_from_epoch(self.days_from_epoch() + n)
    }

    /// The first day of the month `n` months later, clamping the day to 1.
    pub fn plus_months_first_day(&self, n: i32) -> Self {
        let total = self.year * 12 + i32::from(self.month) - 1 + n;
        let year = total.div_euclid(12);
        let month = (total.rem_euclid(12) + 1) as u8;
        Self::new(year, month, 1)
    }

    /// Whole days between `self` and `other` (`other - self`).
    pub fn days_until(&self, other: &Date) -> i64 {
        other.days_from_epoch() - self.days_from_epoch()
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::new(1970, 1, 1).days_from_epoch(), 0);
        assert_eq!(Date::new(1970, 1, 2).days_from_epoch(), 1);
        assert_eq!(Date::new(1969, 12, 31).days_from_epoch(), -1);
    }

    #[test]
    fn known_dates() {
        // 2013-10-01 and 2021-04-01, the study endpoints.
        assert_eq!(Date::new(2013, 10, 1).days_from_epoch(), 15979);
        assert_eq!(Date::new(2021, 4, 1).days_from_epoch(), 18718);
    }

    #[test]
    fn plus_months_wraps_year() {
        assert_eq!(
            Date::new(2013, 10, 15).plus_months_first_day(3),
            Date::new(2014, 1, 1)
        );
        assert_eq!(
            Date::new(2020, 1, 1).plus_months_first_day(-1),
            Date::new(2019, 12, 1)
        );
    }

    #[test]
    fn display_format() {
        assert_eq!(Date::new(2021, 4, 1).to_string(), "2021-04-01");
    }

    #[test]
    fn invalid_dates_rejected() {
        assert!(Date::try_new(2021, 2, 29).is_none());
        assert!(Date::try_new(2020, 2, 29).is_some());
        assert!(Date::try_new(2021, 0, 1).is_none());
        assert!(Date::try_new(2021, 4, 31).is_none());
    }

    proptest! {
        #[test]
        fn days_roundtrip(days in -200_000i64..200_000) {
            let date = Date::from_days_from_epoch(days);
            prop_assert_eq!(date.days_from_epoch(), days);
        }

        #[test]
        fn civil_roundtrip(year in 1600i32..2500, month in 1u8..=12, day in 1u8..=28) {
            let d = Date::new(year, month, day);
            prop_assert_eq!(Date::from_days_from_epoch(d.days_from_epoch()), d);
        }

        #[test]
        fn ordering_matches_day_numbers(a in -100_000i64..100_000, b in -100_000i64..100_000) {
            let da = Date::from_days_from_epoch(a);
            let db = Date::from_days_from_epoch(b);
            prop_assert_eq!(da.cmp(&db), a.cmp(&b));
        }
    }
}
