//! Backend selection through preferences and the environment — JACC's
//! `Preferences.jl` flow, end to end.
//!
//! Environment and working-directory manipulation is process-global, so
//! everything lives in one `#[test]` running scenarios sequentially.

use racc::{Preferences, RaccError, PREFS_FILE_NAME};

/// With a broken preferences file and no `RACC_BACKEND`, resolving the key
/// and building without `.backend()` both fail with an `InvalidConfig` that
/// names the file and `detail`; `default_context` falls back to `threads`.
fn refuses_broken_file(detail: &str) {
    let built = racc::builder().build().err();
    let resolved = racc::preferred_backend_key().err();
    for err in [built, resolved] {
        let err = err.expect("a broken preferences file must not select a backend");
        let msg = err.to_string();
        assert!(matches!(err, RaccError::InvalidConfig(_)), "{msg}");
        assert!(
            msg.contains(PREFS_FILE_NAME) && msg.contains(detail),
            "{msg}"
        );
    }
    assert_eq!(racc::default_context().key(), "threads");
}

#[test]
fn selection_precedence_env_then_file_then_default() {
    let dir = std::env::temp_dir().join(format!("racc-prefsel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let old_cwd = std::env::current_dir().unwrap();
    std::env::set_current_dir(&dir).unwrap();
    std::env::remove_var(racc::BACKEND_ENV);

    // 1. Nothing configured: the Threads default (JACC's default back end).
    assert_eq!(racc::preferred_backend_key().unwrap(), "threads");
    assert_eq!(racc::default_context().key(), "threads");

    // 2. A preferences file selects the backend.
    racc::set_preferred_backend(".", "serial").unwrap();
    assert_eq!(racc::preferred_backend_key().unwrap(), "serial");
    assert_eq!(racc::default_context().key(), "serial");

    // 3. The environment variable overrides the file.
    let env_key = "cudasim";
    std::env::set_var(racc::BACKEND_ENV, env_key);
    assert_eq!(racc::preferred_backend_key().unwrap(), env_key);
    assert_eq!(racc::default_context().key(), env_key);

    // 4. A bogus env value falls back to threads (with a warning).
    std::env::set_var(racc::BACKEND_ENV, "abacus");
    assert_eq!(racc::default_context().key(), "threads");

    // 5. Whitespace-only env values are ignored in favor of the file.
    std::env::set_var(racc::BACKEND_ENV, "   ");
    assert_eq!(racc::preferred_backend_key().unwrap(), "serial");

    // 6. The persisted file is valid TOML-subset that round-trips.
    let prefs = Preferences::load(PREFS_FILE_NAME).unwrap();
    assert_eq!(prefs.get_str("racc", "backend"), Some("serial"));
    let reparsed = Preferences::from_toml(&prefs.to_toml()).unwrap();
    assert_eq!(reparsed.get_str("racc", "backend"), Some("serial"));

    // 7. Updating the preference rewrites, not duplicates.
    let file_key = "hipsim";
    racc::set_preferred_backend(".", file_key).unwrap();
    let prefs = Preferences::load(PREFS_FILE_NAME).unwrap();
    assert_eq!(prefs.len(), 1);
    assert_eq!(prefs.get_str("racc", "backend"), Some(file_key));

    // 8. A file that does not parse is an error naming its line, not a
    //    silent `threads`.
    std::env::remove_var(racc::BACKEND_ENV);
    std::fs::write(PREFS_FILE_NAME, "[racc]\nbackend = \n").unwrap();
    refuses_broken_file("line 2");

    // 9. So is a `backend` that is not a string.
    std::fs::write(PREFS_FILE_NAME, "[racc]\nbackend = 3\n").unwrap();
    refuses_broken_file("expected string, found integer");

    std::env::remove_var(racc::BACKEND_ENV);
    std::env::set_current_dir(old_cwd).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
