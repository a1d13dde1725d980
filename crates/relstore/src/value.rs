//! Typed values: the cell contents of every table.
//!
//! `relstore` supports the same scalar types the MCS schema needs
//! (paper §5: user-defined attributes may be "string, float, date, time
//! and date/time"), plus integers and booleans used by the predefined
//! schema columns.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};

/// The type of a [`Value`] / a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string (VARCHAR/TEXT).
    Str,
    /// Boolean.
    Bool,
    /// Calendar date (year-month-day).
    Date,
    /// Time of day (hour:minute:second).
    Time,
    /// Date + time of day.
    DateTime,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "INTEGER",
            ValueType::Float => "DOUBLE",
            ValueType::Str => "VARCHAR",
            ValueType::Bool => "BOOLEAN",
            ValueType::Date => "DATE",
            ValueType::Time => "TIME",
            ValueType::DateTime => "DATETIME",
        };
        f.write_str(s)
    }
}

/// A calendar date in the proleptic Gregorian calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Year, e.g. 2003.
    pub year: i32,
    /// Month 1..=12.
    pub month: u8,
    /// Day of month 1..=31 (validated against the month).
    pub day: u8,
}

impl Date {
    /// Construct a validated date.
    pub fn new(year: i32, month: u8, day: u8) -> Result<Date> {
        if !(1..=12).contains(&month) {
            return Err(Error::BadLiteral(format!("month {month} out of range")));
        }
        if day == 0 || day > days_in_month(year, month) {
            return Err(Error::BadLiteral(format!("day {day} invalid for {year}-{month:02}")));
        }
        Ok(Date { year, month, day })
    }

    /// Days since 1970-01-01 (may be negative). Uses Howard Hinnant's
    /// `days_from_civil` algorithm.
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
    pub fn from_days_from_epoch(z: i64) -> Date {
        let z = z + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
        let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u8; // [1, 12]
        Date { year: (y + i64::from(m <= 2)) as i32, month: m, day: d }
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Result<Date> {
        let mut split = s.split('-');
        let parts: [&str; 3] = match [split.next(), split.next(), split.next(), split.next()] {
            [Some(y), Some(m), Some(d), None] => [y, m, d],
            // A leading '-' for negative years is not supported; MCS never needs it.
            _ => return Err(Error::BadLiteral(format!("bad date `{s}` (want YYYY-MM-DD)"))),
        };
        let year: i32 = parts[0].parse().map_err(|_| Error::BadLiteral(format!("bad year in `{s}`")))?;
        let month: u8 = parts[1].parse().map_err(|_| Error::BadLiteral(format!("bad month in `{s}`")))?;
        let day: u8 = parts[2].parse().map_err(|_| Error::BadLiteral(format!("bad day in `{s}`")))?;
        Date::new(year, month, day)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// True if `year` is a Gregorian leap year.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in `month` of `year`.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// A time of day with second resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time {
    /// Hour 0..=23.
    pub hour: u8,
    /// Minute 0..=59.
    pub minute: u8,
    /// Second 0..=59.
    pub second: u8,
}

impl Time {
    /// Construct a validated time of day.
    pub fn new(hour: u8, minute: u8, second: u8) -> Result<Time> {
        if hour > 23 || minute > 59 || second > 59 {
            return Err(Error::BadLiteral(format!("bad time {hour:02}:{minute:02}:{second:02}")));
        }
        Ok(Time { hour, minute, second })
    }

    /// Seconds since midnight.
    pub fn seconds_from_midnight(&self) -> u32 {
        u32::from(self.hour) * 3600 + u32::from(self.minute) * 60 + u32::from(self.second)
    }

    /// Parse `HH:MM:SS` (or `HH:MM`).
    pub fn parse(s: &str) -> Result<Time> {
        let mut split = s.split(':');
        let parts: ([&str; 2], Option<&str>) =
            match [split.next(), split.next(), split.next(), split.next()] {
                [Some(h), Some(m), sec, None] => ([h, m], sec),
                _ => return Err(Error::BadLiteral(format!("bad time `{s}` (want HH:MM[:SS])"))),
            };
        let ([h, m], sec) = parts;
        let hour: u8 = h.parse().map_err(|_| Error::BadLiteral(format!("bad hour in `{s}`")))?;
        let minute: u8 =
            m.parse().map_err(|_| Error::BadLiteral(format!("bad minute in `{s}`")))?;
        let second: u8 = match sec {
            Some(sec) => {
                sec.parse().map_err(|_| Error::BadLiteral(format!("bad second in `{s}`")))?
            }
            None => 0,
        };
        Time::new(hour, minute, second)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02}:{:02}:{:02}", self.hour, self.minute, self.second)
    }
}

/// A date + time-of-day pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DateTime {
    /// Date component.
    pub date: Date,
    /// Time component.
    pub time: Time,
}

impl DateTime {
    /// Construct from already-validated parts.
    pub fn new(date: Date, time: Time) -> DateTime {
        DateTime { date, time }
    }

    /// Seconds since the Unix epoch (UTC assumed; may be negative).
    pub fn seconds_from_epoch(&self) -> i64 {
        self.date.days_from_epoch() * 86_400 + i64::from(self.time.seconds_from_midnight())
    }

    /// Inverse of [`DateTime::seconds_from_epoch`].
    pub fn from_seconds_from_epoch(secs: i64) -> DateTime {
        let days = secs.div_euclid(86_400);
        let sod = secs.rem_euclid(86_400) as u32;
        DateTime {
            date: Date::from_days_from_epoch(days),
            time: Time {
                hour: (sod / 3600) as u8,
                minute: ((sod % 3600) / 60) as u8,
                second: (sod % 60) as u8,
            },
        }
    }

    /// Parse `YYYY-MM-DD HH:MM:SS` or `YYYY-MM-DDTHH:MM:SS`.
    pub fn parse(s: &str) -> Result<DateTime> {
        let sep = s.find([' ', 'T']).ok_or_else(|| {
            Error::BadLiteral(format!("bad datetime `{s}` (want YYYY-MM-DD HH:MM:SS)"))
        })?;
        let date = Date::parse(&s[..sep])?;
        let time = Time::parse(&s[sep + 1..])?;
        Ok(DateTime { date, time })
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.date, self.time)
    }
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL. Compares as the smallest value in index order; `=` with
    /// NULL is never true in predicates (three-valued logic collapsed to
    /// false, like MySQL's non-`<=>` comparisons).
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String. `Arc<str>` makes clones (index keys, result rows)
    /// reference-count bumps instead of heap copies.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
    /// Calendar date.
    Date(Date),
    /// Time of day.
    Time(Time),
    /// Date and time.
    DateTime(DateTime),
}

impl Value {
    /// The type of this value, or `None` for NULL (NULL has every type).
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Str(_) => Some(ValueType::Str),
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Date(_) => Some(ValueType::Date),
            Value::Time(_) => Some(ValueType::Time),
            Value::DateTime(_) => Some(ValueType::DateTime),
        }
    }

    /// True if this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Can this value be stored in a column of type `ty`?
    /// Ints are accepted by FLOAT columns (widening); everything else is exact.
    pub fn fits(&self, ty: ValueType) -> bool {
        match (self, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), ValueType::Float) => true,
            (v, t) => v.value_type() == Some(t),
        }
    }

    /// Coerce for storage into a column of type `ty` (applies int→float
    /// widening). Caller must have checked [`Value::fits`].
    pub fn coerce(self, ty: ValueType) -> Value {
        match (self, ty) {
            (Value::Int(i), ValueType::Float) => Value::Float(i as f64),
            (v, _) => v,
        }
    }

    /// SQL-style comparison for predicate evaluation: returns `None` when
    /// either side is NULL or the types are not comparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Time(a), Time(b)) => Some(a.cmp(b)),
            (DateTime(a), DateTime(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used by indexes and ORDER BY. NULL sorts first;
    /// values of different types sort by a fixed type rank (mixed-type
    /// index keys cannot arise through the typed schema, but the ordering
    /// must still be total). NaN sorts above all other floats.
    pub fn index_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Date(_) => 4,
                Value::Time(_) => 5,
                Value::DateTime(_) => 6,
            }
        }
        let (ra, rb) = (rank(self), rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Time(a), Time(b)) => a.cmp(b),
            (DateTime(a), DateTime(b)) => a.cmp(b),
            _ => unreachable!("rank() separated mixed types"),
        }
    }

    /// Parse a string rendering into a value of type `ty` (used by the
    /// MCS attribute layer, which stores typed values in a narrow table).
    pub fn parse_as(s: &str, ty: ValueType) -> Result<Value> {
        Ok(match ty {
            ValueType::Int => {
                Value::Int(s.parse().map_err(|_| Error::BadLiteral(format!("bad int `{s}`")))?)
            }
            ValueType::Float => {
                Value::Float(s.parse().map_err(|_| Error::BadLiteral(format!("bad float `{s}`")))?)
            }
            ValueType::Str => Value::Str(Arc::from(s)),
            ValueType::Bool => match s {
                "true" | "TRUE" | "1" => Value::Bool(true),
                "false" | "FALSE" | "0" => Value::Bool(false),
                _ => return Err(Error::BadLiteral(format!("bad bool `{s}`"))),
            },
            ValueType::Date => Value::Date(Date::parse(s)?),
            ValueType::Time => Value::Time(Time::parse(s)?),
            ValueType::DateTime => Value::DateTime(DateTime::parse(s)?),
        })
    }

    /// Extract an `i64`, erroring on any other type.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(Error::EvalError(format!("expected INTEGER, got {other}"))),
        }
    }

    /// Extract a `&str`, erroring on any other type.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::EvalError(format!("expected VARCHAR, got {other}"))),
        }
    }

    /// Extract a `bool`, erroring on any other type.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::EvalError(format!("expected BOOLEAN, got {other}"))),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Time(t) => write!(f, "{t}"),
            Value::DateTime(dt) => write!(f, "{dt}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip_epoch() {
        let d = Date::new(2003, 11, 15).unwrap(); // SC'03 started Nov 15 2003
        let days = d.days_from_epoch();
        assert_eq!(Date::from_days_from_epoch(days), d);
        assert_eq!(Date::from_days_from_epoch(0), Date::new(1970, 1, 1).unwrap());
    }

    #[test]
    fn date_validation() {
        assert!(Date::new(2003, 2, 29).is_err());
        assert!(Date::new(2004, 2, 29).is_ok()); // leap year
        assert!(Date::new(1900, 2, 29).is_err()); // century non-leap
        assert!(Date::new(2000, 2, 29).is_ok()); // 400-year leap
        assert!(Date::new(2003, 13, 1).is_err());
        assert!(Date::new(2003, 4, 31).is_err());
    }

    #[test]
    fn date_parse_display() {
        let d = Date::parse("2003-11-15").unwrap();
        assert_eq!(d.to_string(), "2003-11-15");
        assert!(Date::parse("2003/11/15").is_err());
        assert!(Date::parse("2003-11").is_err());
    }

    #[test]
    fn time_parse_bounds() {
        assert!(Time::parse("23:59:59").is_ok());
        assert!(Time::parse("24:00:00").is_err());
        assert_eq!(Time::parse("08:30").unwrap(), Time::new(8, 30, 0).unwrap());
        assert_eq!(Time::new(1, 2, 3).unwrap().seconds_from_midnight(), 3723);
    }

    #[test]
    fn datetime_roundtrip() {
        let dt = DateTime::parse("2002-12-31 23:59:59").unwrap();
        assert_eq!(DateTime::from_seconds_from_epoch(dt.seconds_from_epoch()), dt);
        let t = DateTime::parse("1970-01-01T00:00:00").unwrap();
        assert_eq!(t.seconds_from_epoch(), 0);
    }

    #[test]
    fn sql_cmp_null_propagates() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(1)), Some(Ordering::Equal));
    }

    #[test]
    fn sql_cmp_numeric_coercion() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Float(1.5).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn index_cmp_total_order() {
        // NULL first, NaN above all floats, cross-type ordered by rank.
        assert_eq!(Value::Null.index_cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(Value::Float(f64::NAN).index_cmp(&Value::Float(f64::INFINITY)), Ordering::Greater);
        assert_eq!(Value::Int(5).index_cmp(&Value::Str("a".into())), Ordering::Less);
        assert_eq!(Value::Int(3).index_cmp(&Value::Float(3.0)), Ordering::Equal);
    }

    #[test]
    fn fits_and_coerce() {
        assert!(Value::Int(1).fits(ValueType::Float));
        assert!(!Value::Float(1.0).fits(ValueType::Int));
        assert!(Value::Null.fits(ValueType::Date));
        assert_eq!(Value::Int(4).coerce(ValueType::Float), Value::Float(4.0));
    }

    #[test]
    fn parse_as_each_type() {
        assert_eq!(Value::parse_as("42", ValueType::Int).unwrap(), Value::Int(42));
        assert_eq!(Value::parse_as("4.5", ValueType::Float).unwrap(), Value::Float(4.5));
        assert_eq!(Value::parse_as("x", ValueType::Str).unwrap(), Value::Str("x".into()));
        assert_eq!(Value::parse_as("true", ValueType::Bool).unwrap(), Value::Bool(true));
        assert!(Value::parse_as("4.5", ValueType::Int).is_err());
        assert!(matches!(Value::parse_as("2003-01-01", ValueType::Date).unwrap(), Value::Date(_)));
        assert!(matches!(
            Value::parse_as("2003-01-01 10:00:00", ValueType::DateTime).unwrap(),
            Value::DateTime(_)
        ));
    }
}
