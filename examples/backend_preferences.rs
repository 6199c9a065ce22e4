//! The Preferences flow (JACC's `Preferences.jl` / `LocalPreferences.toml`
//! analog): persist a backend choice, show how the default context resolves
//! it, and how the `RACC_BACKEND` environment variable overrides the file.
//!
//! ```text
//! cargo run --release --example backend_preferences
//! ```

use racc::{Preferences, PREFS_FILE_NAME};

fn main() {
    // Work in a scratch directory so we do not disturb the repository.
    let dir = std::env::temp_dir().join(format!("racc-prefs-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // 1. Persist a preference — the analog of
    //    Preferences.set_preferences!(JACC, "backend" => "CUDA").
    racc::set_preferred_backend(&dir, "cudasim").expect("persist preference");
    let file = dir.join(PREFS_FILE_NAME);
    println!("wrote {}:", file.display());
    println!("{}", std::fs::read_to_string(&file).expect("read back"));

    // 2. The resolver consults the file in the *current* directory, so chdir
    //    into the scratch dir for the demonstration.
    std::env::set_current_dir(&dir).expect("chdir");
    std::env::remove_var(racc::BACKEND_ENV);
    println!(
        "preferred key (from file): {}",
        racc::preferred_backend_key().expect("preferences file parses")
    );
    let ctx = racc::default_context();
    println!("default context: {}", ctx.name());
    assert_eq!(ctx.key(), "cudasim");

    // 3. The environment variable wins over the file (handy on clusters,
    //    like the module-driven configuration in the paper's appendix).
    std::env::set_var(racc::BACKEND_ENV, "hipsim");
    println!(
        "preferred key (with {}=hipsim): {}",
        racc::BACKEND_ENV,
        racc::preferred_backend_key().expect("preferences file parses")
    );
    let ctx = racc::default_context();
    println!("default context: {}", ctx.name());
    assert_eq!(ctx.key(), "hipsim");

    // 4. Unknown keys fall back loudly.
    std::env::set_var(racc::BACKEND_ENV, "quantum");
    let ctx = racc::default_context();
    println!("fallback context: {}", ctx.name());
    assert_eq!(ctx.key(), "threads");

    // 5. A typo cannot be persisted in the first place.
    let err = racc::set_preferred_backend(&dir, "quantum").unwrap_err();
    println!("persisting a bad key fails: {err}");

    // Inspect the raw preferences store API as well.
    let prefs = Preferences::load_dir(".").expect("load");
    println!(
        "raw store: [racc].backend = {:?} ({} entries)",
        prefs.get_str("racc", "backend"),
        prefs.len()
    );

    std::env::set_current_dir("/").ok();
    std::fs::remove_dir_all(&dir).ok();
}
