#!/usr/bin/env bash
# A `parallel_for` body has one call site, `racc_core::run_row`, so LLVM
# inlines it into that row loop and never emits it as a function of its
# own. A body left out of line is called once per index: the 3D sweep of
# the heat3d example cost 3-4x its inlined time that way. This builds the
# example in release and fails if its symbol table holds a text symbol for
# one of `main`'s closures (the initialiser and the Jacobi sweep are both
# kernel bodies). Needs `nm` (binutils).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --example heat3d
bin="${CARGO_TARGET_DIR:-target}/release/examples/heat3d"
left="$(nm -C --defined-only "$bin" | awk '$2 == "t" || $2 == "T"' |
    grep -F ' heat3d::main::{{closure}}' || true)"
if [ -n "$left" ]; then
    echo "check_inlined_kernels: a heat3d kernel body is out of line:" >&2
    echo "$left" >&2
    exit 1
fi
echo "check_inlined_kernels: every heat3d kernel body is inlined"
