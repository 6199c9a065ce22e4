#!/usr/bin/env bash
# AddressSanitizer over the two allocators that hand out a payload pointer
# away from the base of its block (`RawStorage`, the simulator heap), the
# unsafe code beside the second, and a block's shared memory as the kernels
# see it (`SharedMem::cells`: a raw slice over the chunk store, which the
# reduction kernels fill through sub-slices): a `dealloc` of the payload
# where the block was meant, or a write past a skewed payload or past the
# cells, is what ASan reports and `cargo test` does not. The primitives'
# leader sweeps (`prim`) run under it too: each walks a whole block's span
# through shared memory and device slices; so do the sort's init and emit
# band walks (`SortInit`, `Emit`: one counted loop over a block's or a
# band's elements through device slices). The `heap` filter also runs the
# device reservations' tests (`Device::reserve`, what every portable array
# on a simulator holds): a reservation shares `Allocation`'s `Drop` with
# real blocks but has no host block, only a null base and a dangling
# payload pointer, so a `Drop` that handed either to `dealloc` would free
# memory the allocator never gave out — ASan's bad-free report, where a
# plain run may corrupt the heap silently. A zeroed `RawStorage` block of
# 2 MiB or more is an anonymous mapping of its own (`mmap`/`munmap`), outside
# ASan's heap: ASan checks neither its bounds nor its lifetime there, and a
# use after unmap is a SIGSEGV, not an ASan report. Needs the nightly
# toolchain's ASan runtime; builds offline into
# `target/x86_64-unknown-linux-gnu/`.
set -euo pipefail
cd "$(dirname "$0")/.."
export RUSTFLAGS="-Zsanitizer=address"
# Leak detection stays on; the one test that forgets a buffer on purpose (to
# read the simulator's own leak report) is named, not switched off with it.
supp="$(mktemp)"
trap 'rm -f "$supp"' EXIT
echo "leak:sanitizer_reports_leaked_allocations" > "$supp"
export LSAN_OPTIONS="suppressions=$supp:print_suppressions=0"
asan() {
  cargo +nightly test --offline --target x86_64-unknown-linux-gnu "$@"
}
asan -p racc-core --lib buffer
asan -p racc-gpusim --lib -- heap arena sanitizer phased
asan -p racc-backend-common --lib -- kernels prim
echo "asan clean"
