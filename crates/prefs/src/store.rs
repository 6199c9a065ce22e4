//! The file-backed preferences store.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::error::PrefsError;
use crate::parser::parse_document;
use crate::value::Value;
use crate::writer::write_document;

/// Default file name, the analog of Julia's `LocalPreferences.toml`.
pub const PREFS_FILE_NAME: &str = "RaccPreferences.toml";

/// An in-memory preferences document, optionally bound to a backing file.
///
/// Structure is two-level, like `LocalPreferences.toml`: named tables (one
/// per package/component) holding `key = value` pairs. Keys set before any
/// table header live in the root table `""`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Preferences {
    tables: BTreeMap<String, BTreeMap<String, Value>>,
    path: Option<PathBuf>,
}

impl Preferences {
    /// Create an empty, unbound store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse a store from document text.
    pub fn from_toml(text: &str) -> Result<Self, PrefsError> {
        let mut prefs = Preferences::new();
        for (table, key, value) in parse_document(text)? {
            prefs.tables.entry(table).or_default().insert(key, value);
        }
        Ok(prefs)
    }

    /// Load from a file, binding the store to that path. A missing file
    /// yields an empty store (so first-run works), still bound to the path.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PrefsError> {
        let path = path.as_ref();
        let mut prefs = match fs::read_to_string(path) {
            Ok(text) => Self::from_toml(&text)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Preferences::new(),
            Err(e) => return Err(e.into()),
        };
        prefs.path = Some(path.to_owned());
        Ok(prefs)
    }

    /// Load `RaccPreferences.toml` from `dir`.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Self, PrefsError> {
        Self::load(dir.as_ref().join(PREFS_FILE_NAME))
    }

    /// Serialize to document text.
    pub fn to_toml(&self) -> String {
        write_document(&self.tables)
    }

    /// Save to the bound path (or the given path, which also rebinds).
    pub fn save_to(&mut self, path: impl AsRef<Path>) -> Result<(), PrefsError> {
        let path = path.as_ref();
        fs::write(path, self.to_toml())?;
        self.path = Some(path.to_owned());
        Ok(())
    }

    /// Save to the path this store was loaded from.
    ///
    /// # Panics
    /// Panics if the store is not bound to a path; use [`Self::save_to`].
    pub fn save(&mut self) -> Result<(), PrefsError> {
        let path = self
            .path
            .clone()
            .expect("Preferences::save on an unbound store; use save_to");
        self.save_to(path)
    }

    /// The backing path, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Set `[table].key = value`.
    pub fn set(&mut self, table: &str, key: &str, value: impl Into<Value>) {
        self.tables
            .entry(table.to_owned())
            .or_default()
            .insert(key.to_owned(), value.into());
    }

    /// Remove `[table].key`, returning the previous value.
    pub fn remove(&mut self, table: &str, key: &str) -> Option<Value> {
        let entries = self.tables.get_mut(table)?;
        let old = entries.remove(key);
        if entries.is_empty() {
            self.tables.remove(table);
        }
        old
    }

    /// Look up `[table].key` in the document.
    pub fn get(&self, table: &str, key: &str) -> Option<&Value> {
        self.tables.get(table)?.get(key)
    }

    /// Typed accessor: string.
    pub fn get_str(&self, table: &str, key: &str) -> Option<&str> {
        self.get(table, key)?.as_str()
    }

    /// Typed accessor: integer.
    pub fn get_int(&self, table: &str, key: &str) -> Option<i64> {
        self.get(table, key)?.as_int()
    }

    /// Typed accessor: float (integers widen).
    pub fn get_float(&self, table: &str, key: &str) -> Option<f64> {
        self.get(table, key)?.as_float()
    }

    /// Typed accessor: bool.
    pub fn get_bool(&self, table: &str, key: &str) -> Option<bool> {
        self.get(table, key)?.as_bool()
    }

    /// Typed accessor that errors (rather than returning `None`) when the key
    /// exists with the wrong type — catching config typos loudly.
    pub fn require_str(&self, table: &str, key: &str) -> Result<Option<&str>, PrefsError> {
        match self.get(table, key) {
            None => Ok(None),
            Some(Value::String(s)) => Ok(Some(s)),
            Some(other) => Err(PrefsError::TypeMismatch {
                table: table.to_owned(),
                key: key.to_owned(),
                expected: "string",
                found: other.type_name(),
            }),
        }
    }

    /// Iterate over all `(table, key, value)` triples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &Value)> {
        self.tables.iter().flat_map(|(t, entries)| {
            entries
                .iter()
                .map(move |(k, v)| (t.as_str(), k.as_str(), v))
        })
    }

    /// Total number of stored preferences.
    pub fn len(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// True if no preferences are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut p = Preferences::new();
        assert!(p.is_empty());
        p.set("racc", "backend", "threads");
        p.set("racc", "threads", 8i64);
        p.set("", "root_key", true);
        assert_eq!(p.len(), 3);
        assert_eq!(p.get_str("racc", "backend"), Some("threads"));
        assert_eq!(p.get_int("racc", "threads"), Some(8));
        assert_eq!(p.get_bool("", "root_key"), Some(true));
        assert_eq!(p.get_float("racc", "threads"), Some(8.0));
        assert_eq!(
            p.remove("racc", "backend"),
            Some(Value::String("threads".into()))
        );
        assert_eq!(p.get("racc", "backend"), None);
        assert_eq!(p.remove("racc", "backend"), None);
    }

    #[test]
    fn round_trip_through_text() {
        let mut p = Preferences::new();
        p.set("racc", "backend", "cudasim");
        p.set("racc", "pinned", vec![0i64, 2, 4]);
        p.set("racc-gpusim", "bandwidth_gbs", 1555.0);
        p.set("", "verbose", false);
        p.set("odd table", "odd key", "v");
        let text = p.to_toml();
        let q = Preferences::from_toml(&text).unwrap();
        assert_eq!(p.iter().count(), q.iter().count());
        for (t, k, v) in p.iter() {
            assert_eq!(q.get(t, k), Some(v), "at [{t}].{k}");
        }
    }

    #[test]
    fn later_duplicates_win() {
        let p = Preferences::from_toml("[a]\nk = 1\nk = 2\n").unwrap();
        assert_eq!(p.get_int("a", "k"), Some(2));
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("racc-prefs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Missing file loads as empty but bound.
        let mut p = Preferences::load_dir(&dir).unwrap();
        assert!(p.is_empty());
        assert!(p.path().is_some());
        p.set("racc", "backend", "hipsim");
        p.save().unwrap();
        let q = Preferences::load_dir(&dir).unwrap();
        assert_eq!(q.get_str("racc", "backend"), Some("hipsim"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn require_str_type_mismatch() {
        let mut p = Preferences::new();
        p.set("racc", "backend", 3i64);
        let err = p.require_str("racc", "backend").unwrap_err();
        assert!(err.to_string().contains("expected string"));
        assert!(p.require_str("racc", "missing").unwrap().is_none());
    }
}
