#!/usr/bin/env bash
# Full verification: tests (both feature sets; simsan, fusion and chaos run
# in process as cells of tests/common's matrix), clippy, docs, examples.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --workspace
cargo test --workspace --features racecheck
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
for ex in quickstart portability_tour backend_preferences; do
  cargo run --release --example "$ex" >/dev/null
done
echo "all green"
