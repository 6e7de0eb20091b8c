//! Minimal datetime parsing: ISO-8601 dates and date-times to Unix epoch
//! seconds, from scratch (no chrono). The textifier treats timestamps as
//! binnable numerics, so epoch seconds are all the structure we need.

/// Parses `YYYY-MM-DD`, `YYYY-MM-DDTHH:MM:SS`, or `YYYY-MM-DD HH:MM:SS`
/// into Unix epoch seconds (UTC). Returns `None` for anything else.
pub fn parse_datetime(s: &str) -> Option<i64> {
    let s = s.trim();
    let (date_part, time_part) = match s.split_once(['T', ' ']) {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let mut it = date_part.split('-');
    let year_str = it.next()?;
    // Require exactly four digits: "1-2-3" is a serial code or version
    // string, not a date, and must stay textual.
    if year_str.len() != 4 || !year_str.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let year: i64 = year_str.parse().ok()?;
    let month: u32 = it.next()?.parse().ok()?;
    let day: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&month) {
        return None;
    }
    if day < 1 || day > days_in_month(year, month) {
        return None;
    }
    let mut secs = days_from_civil(year, month, day) * 86_400;
    if let Some(t) = time_part {
        let t = t.trim_end_matches('Z');
        let mut it = t.split(':');
        let h: i64 = it.next()?.parse().ok()?;
        let m: i64 = it.next()?.parse().ok()?;
        let sec: i64 = match it.next() {
            Some(v) => v.parse().ok()?,
            None => 0,
        };
        if it.next().is_some()
            || !(0..24).contains(&h)
            || !(0..60).contains(&m)
            || !(0..60).contains(&sec)
        {
            return None;
        }
        secs += h * 3600 + m * 60 + sec;
    }
    Some(secs)
}

/// Days from the Unix epoch to the given civil date (Howard Hinnant's
/// `days_from_civil` algorithm; exact for the proleptic Gregorian calendar).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m + 9) % 12); // [0, 11], March = 0
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

fn is_leap(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_zero() {
        assert_eq!(parse_datetime("1970-01-01"), Some(0));
        assert_eq!(parse_datetime("1970-01-01T00:00:00"), Some(0));
    }

    #[test]
    fn known_timestamps() {
        // 2000-01-01 = 946684800 (well-known).
        assert_eq!(parse_datetime("2000-01-01"), Some(946_684_800));
        assert_eq!(
            parse_datetime("2000-01-01 12:30:45"),
            Some(946_684_800 + 45045)
        );
        assert_eq!(parse_datetime("2021-06-15T08:00:00Z"), Some(1_623_744_000));
    }

    #[test]
    fn pre_epoch_dates() {
        assert_eq!(parse_datetime("1969-12-31"), Some(-86_400));
    }

    #[test]
    fn leap_years_handled() {
        assert!(parse_datetime("2020-02-29").is_some());
        assert!(parse_datetime("2021-02-29").is_none());
        assert!(parse_datetime("2000-02-29").is_some()); // 400-year rule
        assert!(parse_datetime("1900-02-29").is_none()); // 100-year rule
    }

    #[test]
    fn garbage_rejected() {
        for s in [
            "",
            "hello",
            "2020-13-01",
            "2020-00-10",
            "2020-01-32",
            "2020-1",
            "12:30:00",
            "1-2-3",
            "3-10-5",
            "12345-01-01",
            "0-1-1",
            "-2020-01-01",
            "2020-01-01T25:00:00",
            "2020-01-01T10:61:00",
            "2020-01-01-05",
        ] {
            assert_eq!(parse_datetime(s), None, "{s:?} should not parse");
        }
    }

    #[test]
    fn ordering_is_preserved() {
        let a = parse_datetime("1999-12-31T23:59:59").unwrap();
        let b = parse_datetime("2000-01-01T00:00:00").unwrap();
        assert_eq!(b - a, 1);
    }
}
