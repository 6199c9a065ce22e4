//! # racc-prefs
//!
//! A small, dependency-free preferences substrate for the RACC programming model.
//!
//! JACC (the system this workspace reproduces) selects its back end through
//! Julia's `Preferences.jl` package, which persists the choice in a
//! `LocalPreferences.toml` file next to the project before precompilation.
//! RACC mirrors that flow: the [`Preferences`] store reads and writes a
//! `RaccPreferences.toml` file, and the front end consults it (after an
//! environment-variable override) when constructing its default context.
//!
//! The file format is a practical subset of TOML:
//!
//! * `[table]` and `[dotted.table]` headers,
//! * `key = value` pairs with string, integer, float, boolean and
//!   homogeneous-array values,
//! * `#` comments and blank lines.
//!
//! The subset is round-trippable: everything [`Preferences::save`] writes,
//! [`Preferences::load`] parses back to an identical store.
//!
//! ```
//! use racc_prefs::{Preferences, Value};
//!
//! let mut prefs = Preferences::new();
//! prefs.set("racc", "backend", "cudasim");
//! prefs.set("racc", "threads", 64i64);
//! let text = prefs.to_toml();
//! let back = Preferences::from_toml(&text).unwrap();
//! assert_eq!(back.get_str("racc", "backend"), Some("cudasim"));
//! assert_eq!(back.get("racc", "threads"), Some(&Value::Integer(64)));
//! ```

mod error;
mod parser;
mod store;
mod tenant;
mod value;
mod writer;

pub use error::{ParseError, PrefsError};
pub use parser::parse_document;
pub use store::{Preferences, PREFS_FILE_NAME};
pub use tenant::{TenantPrefs, TENANT_TABLE_PREFIX};
pub use value::Value;
pub use writer::write_document;
