//! The repo's one text-format module: every text file the repo commits —
//! the scenario scripts and the bench files — is JSON, read and written
//! through one ordered [`Value`] tree and one [`ParseError`].
//!
//! The sanctioned dependency set has no `serde`, so the reader accepts the
//! shapes the committed files hold and rejects what it cannot represent
//! with a line-numbered error instead of misreading it:
//!
//! - [`parse_json`] reads the scenario scripts and the `BENCH_*.json` files;
//! - [`write_json`] writes the bench files, in one of two [`Layout`]s.
//!
//! Tables keep insertion order, because a bench file's field order is part
//! of its bytes; integers and floats stay distinct (`12` is an integer,
//! `0.5` and `3.0` are floats), so reading a file [`write_json`] wrote and
//! writing it back in the same layout gives back the same bytes.

use std::fmt;

mod json;

pub use json::{parse_json, read_json_file, write_json, Layout};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Value>),
    Table(Table),
}

/// A table (a JSON object): keys in insertion order, each at most once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    entries: Vec<(String, Value)>,
}

/// A parse failure, with the 1-based line it happened on.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl Table {
    pub fn new() -> Self {
        Table::default()
    }

    /// Builder form of [`Table::insert`].
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.insert(key, value.into());
        self
    }

    /// Sets `key` to `value`: in place when the key is present (its
    /// position kept, the old value returned), appended otherwise.
    pub fn insert(&mut self, key: &str, value: Value) -> Option<Value> {
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, old)) => Some(std::mem::replace(old, value)),
            None => {
                self.entries.push((key.to_string(), value));
                None
            }
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Reorders the entries by key.
    pub fn sort_keys(&mut self) {
        self.entries.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

/// `table["key"]` in tests; panics when the key is absent.
#[cfg(test)]
impl std::ops::Index<&str> for Table {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).expect("key present")
    }
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: integers widen to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer view (floats are rejected — a count of `2.5`
    /// is a spec bug, not something to round).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Int(v) => usize::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_table(&self) -> Option<&Table> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }
}

impl From<usize> for Value {
    /// A count, as an integer (saturating at `i64::MAX`).
    fn from(v: usize) -> Self {
        Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
