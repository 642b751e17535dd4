use crate::Date;
use std::fmt;
use std::ops::{Add, Sub};

/// Seconds since the Unix epoch (UTC). The simulation's only notion of time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

impl Timestamp {
    pub const fn from_unix(secs: i64) -> Self {
        Self(secs)
    }

    pub const fn as_unix(&self) -> i64 {
        self.0
    }

    /// The civil date containing this instant.
    pub fn date(&self) -> Date {
        Date::from_days_from_epoch(self.0.div_euclid(86_400))
    }

    /// Seconds past midnight on [`Timestamp::date`].
    pub fn seconds_of_day(&self) -> u32 {
        self.0.rem_euclid(86_400) as u32
    }

    pub fn plus_seconds(&self, secs: i64) -> Self {
        Self(self.0 + secs)
    }

    pub fn plus_days(&self, days: i64) -> Self {
        Self(self.0 + days * 86_400)
    }

    /// Break into `(year, month, day, hour, minute, second)` UTC components.
    pub fn civil(&self) -> (i32, u8, u8, u8, u8, u8) {
        let date = self.date();
        let sod = self.seconds_of_day();
        (
            date.year(),
            date.month(),
            date.day(),
            (sod / 3600) as u8,
            ((sod / 60) % 60) as u8,
            (sod % 60) as u8,
        )
    }

    /// Build from UTC civil components.
    pub fn from_civil(year: i32, month: u8, day: u8, hour: u8, minute: u8, second: u8) -> Self {
        Date::new(year, month, day)
            .midnight()
            .plus_seconds(i64::from(hour) * 3600 + i64::from(minute) * 60 + i64::from(second))
    }
}

impl Add<i64> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: i64) -> Timestamp {
        Timestamp(self.0 + rhs)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = i64;
    fn sub(self, rhs: Timestamp) -> i64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, mo, d, h, mi, s) = self.civil();
        write!(f, "{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}Z")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_components() {
        let t = Timestamp::from_unix(0);
        assert_eq!(t.civil(), (1970, 1, 1, 0, 0, 0));
    }

    #[test]
    fn display() {
        let t = Timestamp::from_civil(2021, 4, 1, 12, 30, 45);
        assert_eq!(t.to_string(), "2021-04-01T12:30:45Z");
    }

    #[test]
    fn negative_times_have_correct_date() {
        let t = Timestamp::from_unix(-1);
        assert_eq!(t.civil(), (1969, 12, 31, 23, 59, 59));
    }

    proptest! {
        #[test]
        fn civil_roundtrip(secs in -4_000_000_000i64..8_000_000_000) {
            let t = Timestamp::from_unix(secs);
            let (y, mo, d, h, mi, s) = t.civil();
            prop_assert_eq!(Timestamp::from_civil(y, mo, d, h, mi, s), t);
        }

        #[test]
        fn add_then_sub(base in -1_000_000i64..1_000_000, delta in -1_000_000i64..1_000_000) {
            let a = Timestamp::from_unix(base);
            let b = a + delta;
            prop_assert_eq!(b - a, delta);
        }
    }
}
