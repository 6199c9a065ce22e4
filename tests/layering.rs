//! The shape of the workspace, checked: the crate graph points downward
//! and equals the layer table of DESIGN.md §2; `racc-core` names no layer
//! above it outside a written list of debts; and the README's `RACC_*`
//! table is the set of variables the sources read, and no longer than the
//! knob budget.
//!
//! Everything is read from the checkout — manifests, sources, the two
//! documents — so a new crate, edge or variable fails here until the
//! documents say it too.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `.rs` files under `dir`, at any depth, sorted.
fn sources(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            found.extend(sources(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            found.push(path);
        }
    }
    found.sort();
    found
}

/// The member crates' directories (the vendored shims stand in for
/// external crates and are not layered).
fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

/// A crate's layer and what it depends on.
type Graph = BTreeMap<String, (u32, BTreeSet<String>)>;

/// A package's name and its non-dev `racc*` dependencies, optional ones
/// included: the keys of `[dependencies]` and the `[dependencies.<name>]`
/// tables.
fn manifest_edges(manifest: &str) -> (String, BTreeSet<String>) {
    let (mut name, mut section, mut deps) = (String::new(), String::new(), BTreeSet::new());
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = header.to_string();
            if let Some(dep) = header.strip_prefix("dependencies.") {
                deps.insert(dep.to_string());
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        match section.as_str() {
            "package" if key.trim() == "name" => name = value.trim().trim_matches('"').to_string(),
            "dependencies" => {
                deps.insert(key.trim().to_string());
            }
            _ => {}
        }
    }
    deps.retain(|dep| dep.starts_with("racc"));
    (name, deps)
}

/// The rows of the one table of DESIGN.md headed `| layer | crate | …`:
/// `| layer | `crate` | `dep`, … |`.
fn layer_table(design: &str) -> Graph {
    let ticked = |cell: &str| -> BTreeSet<String> {
        cell.split('`')
            .skip(1)
            .step_by(2)
            .map(str::to_string)
            .collect()
    };
    let rows = design
        .lines()
        .skip_while(|line| !line.starts_with("| layer | crate |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'));
    let mut table = Graph::new();
    for row in rows {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let [_, layer, name, deps, _] = cells[..] else {
            panic!("not a row of three cells: {row}");
        };
        let layer = layer.parse().unwrap_or_else(|_| panic!("no layer: {row}"));
        let name = ticked(name)
            .pop_first()
            .unwrap_or_else(|| panic!("no crate: {row}"));
        assert!(
            table.insert(name, (layer, ticked(deps))).is_none(),
            "two rows for one crate: {row}"
        );
    }
    table
}

/// Every edge that does not point to a strictly lower layer, and every
/// dependency that has no row. A cycle cannot pass: layers are integers, so
/// at least one of its edges does not descend.
fn upward_edges(graph: &Graph) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, (layer, deps)) in graph {
        for dep in deps {
            match graph.get(dep) {
                None => bad.push(format!("{name} -> {dep} (no such row)")),
                Some((below, _)) if below >= layer => {
                    bad.push(format!("{name} ({layer}) -> {dep} ({below})"))
                }
                Some(_) => {}
            }
        }
    }
    bad
}

#[test]
fn the_crate_graph_is_the_layer_table_of_design_md_and_points_downward() {
    let table = layer_table(&read(&root().join("DESIGN.md")));
    let manifests = std::iter::once(root()).chain(crate_dirs());
    let edges: BTreeMap<String, BTreeSet<String>> = manifests
        .map(|dir| manifest_edges(&read(&dir.join("Cargo.toml"))))
        .collect();
    let documented: BTreeMap<String, BTreeSet<String>> = table
        .iter()
        .map(|(name, (_, deps))| (name.clone(), deps.clone()))
        .collect();
    assert_eq!(
        documented, edges,
        "DESIGN.md §2's layer table (left) is not the [dependencies] of the manifests (right)"
    );
    assert_eq!(upward_edges(&table), Vec::<String>::new());
}

#[test]
fn the_checker_rejects_an_upward_edge_a_cycle_and_a_missing_row() {
    let graph = |rows: &[(&str, u32, &[&str])]| -> Graph {
        rows.iter()
            .map(|&(name, layer, deps)| {
                let deps = deps.iter().map(|d| d.to_string()).collect();
                (name.to_string(), (layer, deps))
            })
            .collect()
    };
    let sound = [
        ("base", 0, &[][..]),
        ("core", 1, &["base"]),
        ("left", 2, &["core"]),
        ("right", 2, &["core", "base"]),
        ("top", 3, &["left", "right"]),
    ];
    assert_eq!(upward_edges(&graph(&sound)), Vec::<String>::new());

    // `core` reaches up to `top`; `left` and `right` depend on each other.
    let mut broken = sound;
    broken[1].2 = &["base", "top"];
    broken[2].2 = &["core", "right"];
    broken[3].2 = &["core", "base", "left"];
    assert_eq!(
        upward_edges(&graph(&broken)),
        [
            "core (1) -> top (3)",
            "left (2) -> right (2)",
            "right (2) -> left (2)"
        ]
    );

    let mut dangling = sound;
    dangling[4].2 = &["left", "gone"];
    assert_eq!(
        upward_edges(&graph(&dangling)),
        ["top -> gone (no such row)"]
    );

    // And the two parsers read what they are meant to.
    let (name, deps) = manifest_edges(
        "[package]\nname = \"racc-x\"\n[dependencies]\nracc-core = { workspace = true }\n\
         parking_lot = \"1\"\n[dependencies.racc-opt]\noptional = true\n\
         [dev-dependencies]\nracc-bench = { workspace = true }\n[dev-dependencies.racc-y]\n",
    );
    assert_eq!(name, "racc-x");
    assert_eq!(
        deps.into_iter().collect::<Vec<_>>(),
        ["racc-core", "racc-opt"]
    );
    let table = layer_table(
        "| 9 | `not` | `this` |\n\n| layer | crate | deps |\n|---|---|---|\n| 0 | `a` | — |\n\
         | 1 | `b` (x) | `a` |\n\n| 9 | `nor` | `this` |\n",
    );
    assert_eq!(table, graph(&[("a", 0, &[]), ("b", 1, &["a"])]));
}

/// The layers above `racc-core`, as its sources would have to spell them.
const UPPER_LAYERS: [&str; 5] = ["serve", "shard", "prim", "fuse", "lazy"];

/// The ROADMAP item that pays off every debt below, by its title.
const TELEMETRY: &str = "Invert the telemetry dependency";

/// Where `racc-core`'s code still names a layer above it: `(file, what the
/// line contains, owner, why it is allowed)`. Every entry is a debt with an
/// owner: the title of the ROADMAP item that pays it off, as the item spells
/// it, so that renumbering the items cannot leave it stale.
const CORE_NAMES_ALLOWED: [(&str, &str, &str, &str); 9] = [
    ("stats.rs", "", TELEMETRY, "the closed `RuntimeStats`"),
    ("lib.rs", "Stats,", TELEMETRY, "re-export of `stats.rs`"),
    ("context.rs", "Counters", TELEMETRY, "counter fields"),
    ("context.rs", "snapshot_", TELEMETRY, "`Context::stats`"),
    ("context.rs", "&self.shard", TELEMETRY, "`shard_counters`"),
    ("context.rs", "&self.serve", TELEMETRY, "`serve_counters`"),
    ("context.rs", "&self.prim", TELEMETRY, "`prim_counters`"),
    ("profile.rs", "fused", TELEMETRY, "picks a trace lane"),
    ("host.rs", "profile.fused", TELEMETRY, "a kind per layer"),
];

/// The knob budget: rows of the README's `RACC_*` table. It may only go
/// down — a change that adds an environment variable raises it in the same
/// diff, where a reviewer sees it.
const KNOBS_MAX: usize = 2;

/// The code of a source line: what precedes a `//` comment. (No string in
/// `racc-core` contains `//`.)
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or("")
}

#[test]
fn racc_core_names_no_layer_above_it_outside_the_written_debts() {
    let mut used = [false; CORE_NAMES_ALLOWED.len()];
    let mut strays = Vec::new();
    for path in sources(&root().join("crates/core/src")) {
        let file = path.file_name().unwrap().to_str().unwrap().to_string();
        for (number, line) in read(&path).lines().enumerate() {
            let lower = code(line).to_ascii_lowercase();
            if !UPPER_LAYERS.iter().any(|layer| lower.contains(layer)) {
                continue;
            }
            let allowed = CORE_NAMES_ALLOWED
                .iter()
                .position(|(f, needle, ..)| *f == file && code(line).contains(needle));
            match allowed {
                Some(entry) => used[entry] = true,
                None => strays.push(format!("{file}:{}: {}", number + 1, line.trim())),
            }
        }
    }
    assert!(
        strays.is_empty(),
        "racc-core names an upper layer:\n{}",
        strays.join("\n")
    );
    let roadmap = read(&root().join("ROADMAP.md"));
    for (entry, used) in CORE_NAMES_ALLOWED.iter().zip(used) {
        assert!(used, "{entry:?} allows nothing any more: delete it");
        // An item's title opens its bold run: `9. **Invert the …`.
        assert!(
            roadmap.contains(&format!("**{}", entry.2)),
            "{entry:?} names no ROADMAP item as its owner"
        );
    }
}

/// Every `"RACC_[A-Z_]+"` string literal in the non-test code of `text`
/// (a file's code ends at its first `#[cfg(test)]`).
fn env_literals(text: &str, into: &mut BTreeSet<String>) {
    let code = text.split("#[cfg(test)]").next().unwrap_or("");
    for (at, _) in code.match_indices("\"RACC_") {
        let rest = &code[at + 1..];
        let end = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
            .unwrap_or(rest.len());
        if rest[end..].starts_with('"') {
            into.insert(rest[..end].to_string());
        }
    }
}

#[test]
fn the_readme_table_lists_exactly_the_variables_the_sources_read() {
    // A row's name is its first column: `RACC_`, then the capitals and
    // underscores up to the closing backtick.
    let readme = read(&root().join("README.md"));
    let rows: Vec<&str> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `RACC_"))
        .collect();
    assert!(
        rows.len() <= KNOBS_MAX,
        "{} `RACC_*` rows exceed the knob budget of {KNOBS_MAX}",
        rows.len()
    );
    let documented: BTreeSet<String> = rows
        .iter()
        .map(|rest| {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || *c == '_')
                .collect();
            format!("RACC_{name}")
        })
        .collect();

    let mut dirs = vec![root().join("src")];
    dirs.extend(crate_dirs().iter().map(|dir| dir.join("src")));
    let mut read_by_sources = BTreeSet::new();
    for path in dirs.iter().flat_map(|dir| sources(dir)) {
        env_literals(&read(&path), &mut read_by_sources);
    }
    assert_eq!(documented.len(), rows.len(), "a variable is listed twice");
    assert_eq!(documented, read_by_sources);
}
