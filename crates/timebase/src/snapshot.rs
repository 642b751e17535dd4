use crate::Date;
use std::fmt;

/// One quarterly measurement snapshot, identified by the first day of its
/// month. The paper uses Rapid7 scans "once every three months" from
/// 2013-10 through 2021-04, i.e. 31 snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Snapshot(Date);

impl Snapshot {
    /// The study's first snapshot (October 2013).
    pub fn study_start() -> Self {
        Self(Date::new(2013, 10, 1))
    }

    /// The study's last snapshot (April 2021).
    pub fn study_end() -> Self {
        Self(Date::new(2021, 4, 1))
    }

    /// Snapshot for the given year/month (day is pinned to 1).
    pub fn new(year: i32, month: u8) -> Self {
        Self(Date::new(year, month, 1))
    }

    pub fn date(&self) -> Date {
        self.0
    }

    pub fn year(&self) -> i32 {
        self.0.year()
    }

    pub fn month(&self) -> u8 {
        self.0.month()
    }

    /// The next quarterly snapshot (3 months later).
    pub fn next(&self) -> Self {
        Self(self.0.plus_months_first_day(3))
    }

    /// The previous quarterly snapshot (3 months earlier).
    pub fn prev(&self) -> Self {
        Self(self.0.plus_months_first_day(-3))
    }

    /// Zero-based index within the study series, negative before the start.
    pub fn study_index(&self) -> i32 {
        let start = Self::study_start().0;
        let months = (self.0.year() - start.year()) * 12 + i32::from(self.0.month())
            - i32::from(start.month());
        months.div_euclid(3)
    }

    /// Label matching the paper's axis format, e.g. `2013-10`.
    pub fn label(&self) -> String {
        format!("{:04}-{:02}", self.0.year(), self.0.month())
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// An inclusive, ordered run of quarterly snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotSeries {
    start: Snapshot,
    end: Snapshot,
}

impl SnapshotSeries {
    /// The paper's full 2013-10 ..= 2021-04 series (31 snapshots).
    pub fn study() -> Self {
        Self {
            start: Snapshot::study_start(),
            end: Snapshot::study_end(),
        }
    }

    /// A custom inclusive range. Panics if `end` precedes `start` or the two
    /// are not a whole number of quarters apart.
    pub fn new(start: Snapshot, end: Snapshot) -> Self {
        assert!(start <= end, "snapshot series end precedes start");
        let months = (end.date().year() - start.date().year()) * 12 + i32::from(end.date().month())
            - i32::from(start.date().month());
        assert!(months % 3 == 0, "snapshots must be quarter-aligned");
        Self { start, end }
    }

    pub fn start(&self) -> Snapshot {
        self.start
    }

    pub fn end(&self) -> Snapshot {
        self.end
    }

    /// Number of snapshots in the series.
    pub fn len(&self) -> usize {
        (self.end.study_index() - self.start.study_index() + 1) as usize
    }

    pub fn is_empty(&self) -> bool {
        false // an inclusive range always holds at least one snapshot
    }

    pub fn iter(&self) -> impl Iterator<Item = Snapshot> + '_ {
        let mut cur = self.start;
        let end = self.end;
        std::iter::from_fn(move || {
            if cur > end {
                None
            } else {
                let out = cur;
                cur = cur.next();
                Some(out)
            }
        })
    }

    pub fn contains(&self, s: Snapshot) -> bool {
        s >= self.start && s <= self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_has_31_snapshots() {
        assert_eq!(SnapshotSeries::study().len(), 31);
        let all: Vec<_> = SnapshotSeries::study().iter().collect();
        assert_eq!(all.len(), 31);
        assert_eq!(all[0].label(), "2013-10");
        assert_eq!(all[1].label(), "2014-01");
        assert_eq!(all.last().unwrap().label(), "2021-04");
    }

    #[test]
    fn next_prev_are_inverse() {
        let s = Snapshot::new(2016, 1);
        assert_eq!(s.next().prev(), s);
        assert_eq!(s.next().label(), "2016-04");
        assert_eq!(s.prev().label(), "2015-10");
    }

    #[test]
    fn study_index() {
        assert_eq!(Snapshot::study_start().study_index(), 0);
        assert_eq!(Snapshot::new(2014, 10).study_index(), 4);
        assert_eq!(Snapshot::study_end().study_index(), 30);
    }

    #[test]
    fn series_contains() {
        let s = SnapshotSeries::new(Snapshot::new(2015, 1), Snapshot::new(2016, 1));
        assert_eq!(s.len(), 5);
        assert!(s.contains(Snapshot::new(2015, 7)));
        assert!(!s.contains(Snapshot::new(2016, 4)));
    }
}

#[cfg(test)]
mod alignment_tests {
    use super::*;

    #[test]
    #[should_panic(expected = "quarter-aligned")]
    fn misaligned_series_rejected() {
        let _ = SnapshotSeries::new(Snapshot::new(2015, 1), Snapshot::new(2015, 2));
    }

    #[test]
    #[should_panic(expected = "precedes start")]
    fn reversed_series_rejected() {
        let _ = SnapshotSeries::new(Snapshot::new(2016, 1), Snapshot::new(2015, 1));
    }
}
