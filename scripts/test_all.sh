#!/usr/bin/env bash
# Full verification: tests (both feature sets, and under the simulator's
# sanitizer), clippy, docs, examples.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --workspace
cargo test --workspace --features racecheck
RACC_SANITIZER=1 cargo test -p racc-gpusim -p racc-cudasim -p racc-hipsim -p racc-oneapisim \
  -p racc-blas -p racc-prim -p racc-backend-common
RACC_SANITIZER=1 cargo test -p racc --test prim_differential
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
for ex in quickstart portability_tour backend_preferences; do
  cargo run --release --example "$ex" >/dev/null
done
echo "all green"
