#!/usr/bin/env python3
"""Perf-regression gate over the committed bench series.

Two layers, both over the *committed* ``results/BENCH_*.json`` files (run
this before any quick-mode smoke regenerates them):

1. Absolute floors — claims the repo makes about itself:
     * fusion: every ``cg``/``expr`` row must hold ``wall_speedup >= 1.0``
       (compiled plans never lose to eager);
     * steal: the ragged-CSR matvec must hold ``wall_speedup >= 1.2`` over
       the shared-cursor chunk core, and every other workload ``>= 0.98``
       (the deque core must not tax uniform loops);
     * shard: every row must be bit-identical to the single-device run;
       heat3d at 4 devices with overlap must hold ``modeled_speedup >=
       1.7`` (interior-dominated sizes) and ``overlap_gain >= 1.0``
       (overlapping the halo exchange never loses to running it
       serially);
     * serve: every row must be bit-identical to solo contexts with zero
       dropped-job violations; the 4-device reference load must hold
       ``modeled_speedup >= 1.5`` over one context and keep its modeled
       ``p99_ns`` under 1 ms.
     * prim: every particle-binning row must be bit-identical to the
       serial reference (histogram, scans, and sort_by_key included —
       the primitives' cross-backend contract).
     * launch_overhead: on each simulator the ``reduce`` row (DOT, the
       two-kernel tree reduction) may cost at most ``REDUCE_OVER_AXPY``
       (3.0) times the ``axpy`` row of the same shape. Both go through
       ``racc_blas::portable`` on one ``Context`` in one run on one host,
       so the ratio is like for like and does not depend on the host's
       speed: recorded 2.1-2.3 (1.8-2.5 over seven runs; AXPY 0.23 ns
       per element, DOT 0.51) while the reduction kernels run each phase
       as a counted loop (``PhasedKernel::run_phase``), and ~35 if they go
       back to one executor visit per simulated thread (533-565 us against
       the same 15 us AXPY). The vendor-native ``DeviceSlice`` AXPY the simulators'
       ``axpy`` rows timed before is the ``axpy_native`` row; it has no
       gate of its own beyond baseline drift.

2. Baseline drift — every ``results/baselines/BENCH_*.json`` is compared
   row-by-row against its committed counterpart. A row regresses when it
   is worse than baseline by more than ``TOLERANCE`` (1.05x): speedups may
   drop at most 5%, per-launch nanoseconds may grow at most 5%. Modeled
   nanoseconds (the prim rows) are deterministic and must equal the
   baseline exactly, in either direction. Rows are
   keyed by (section/workload, backend, shape) so reordering is harmless;
   a row *missing* from the current results is a failure, new rows are
   fine. To accept an intentional change, regenerate the full-size series
   and copy it over the baseline in the same commit.

Exit code 0 iff every check passes.
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "results"
BASELINES = RESULTS / "baselines"
TOLERANCE = 1.05
REDUCE_OVER_AXPY = 3.0
SIMS = ("cudasim", "hipsim", "oneapisim")

failures = []


def check(ok, msg):
    print(("ok:  " if ok else "FAIL: ") + msg)
    if not ok:
        failures.append(msg)


def rows(doc):
    """Yield (key, row) for every series row in a bench document."""
    if doc["bench"] == "fusion":
        for sec in ("cg", "expr"):
            for row in doc.get(sec, []):
                yield (sec, row["backend"]), row
    else:
        for row in doc.get("series", []):
            key = tuple(
                row[k] for k in ("workload", "backend", "shape") if k in row
            )
            yield key, row


def fmt(key):
    return "/".join(str(k) for k in key)


def gate_absolute(name, doc):
    if doc["bench"] == "fusion":
        for key, row in rows(doc):
            s = row["wall_speedup"]
            check(s >= 1.0, f"{name} {fmt(key)}: wall_speedup {s} >= 1.0")
    elif doc["bench"] == "steal":
        for key, row in rows(doc):
            floor = 1.2 if row["workload"] == "ragged-csr" else 0.98
            s = row["wall_speedup"]
            check(s >= floor, f"{name} {fmt(key)}: wall_speedup {s} >= {floor}")
    elif doc["bench"] == "shard":
        for key, row in rows(doc):
            check(
                row.get("bit_identical") is True,
                f"{name} {fmt(key)}: sharded field bit-identical to one device",
            )
            if (
                row["workload"] == "heat3d"
                and row["devices"] == 4
                and row["overlap"]
            ):
                s = row["modeled_speedup"]
                check(s >= 1.7, f"{name} {fmt(key)}: modeled_speedup {s} >= 1.7")
                g = row["overlap_gain"]
                check(g >= 1.0, f"{name} {fmt(key)}: overlap_gain {g} >= 1.0")
    elif doc["bench"] == "launch_overhead":
        ns = {key: row["ns_per_launch"] for key, row in rows(doc)}
        for backend in SIMS:
            shapes = [s for (w, b, s) in ns if w == "reduce" and b == backend]
            check(bool(shapes), f"{name}: has a reduce row for {backend}")
            for shape in shapes:
                axpy = ns.get(("axpy", backend, shape))
                r = ns["reduce", backend, shape] / axpy if axpy else float("inf")
                check(
                    r <= REDUCE_OVER_AXPY,
                    f"{name} {backend}/{shape}: reduce/axpy ns_per_launch "
                    f"{r:.2f} <= {REDUCE_OVER_AXPY}",
                )
    elif doc["bench"] == "prim":
        for key, row in rows(doc):
            check(
                row.get("bit_identical") is True,
                f"{name} {fmt(key)}: primitives bit-identical to the serial reference",
            )
    elif doc["bench"] == "serve":
        for key, row in rows(doc):
            check(
                row.get("bit_identical") is True,
                f"{name} {fmt(key)}: served results bit-identical to solo contexts",
            )
            v = row.get("dropped_violations")
            check(v == 0, f"{name} {fmt(key)}: dropped_violations {v} == 0")
            if row["devices"] == 4:
                s = row["modeled_speedup"]
                check(s >= 1.5, f"{name} {fmt(key)}: modeled_speedup {s} >= 1.5")
                p99 = row["p99_ns"]
                check(
                    p99 <= 1_000_000,
                    f"{name} {fmt(key)}: reference-load p99 {p99} ns <= 1 ms",
                )


def gate_baseline(name, cur, base):
    cur_rows = dict(rows(cur))
    for key, brow in rows(base):
        crow = cur_rows.get(key)
        if crow is None:
            check(False, f"{name} {fmt(key)}: row present in current results")
            continue
        if "wall_speedup" in brow:
            b, c = brow["wall_speedup"], crow["wall_speedup"]
            check(
                c * TOLERANCE >= b,
                f"{name} {fmt(key)}: wall_speedup {c} within {TOLERANCE}x of baseline {b}",
            )
        elif "modeled_speedup" in brow:
            b, c = brow["modeled_speedup"], crow["modeled_speedup"]
            check(
                c * TOLERANCE >= b,
                f"{name} {fmt(key)}: modeled_speedup {c} within {TOLERANCE}x of baseline {b}",
            )
        elif "ns_per_launch" in brow:
            b, c = brow["ns_per_launch"], crow["ns_per_launch"]
            check(
                c <= b * TOLERANCE,
                f"{name} {fmt(key)}: ns_per_launch {c} within {TOLERANCE}x of baseline {b}",
            )
        elif "modeled_ns" in brow:
            # Analytic-model times are deterministic, so the gate is exact
            # in both directions: any drift means the modeled cost of the
            # primitives changed. (Wall-clock rows carry ``wall_ns`` instead
            # and are informational only.)
            b, c = brow["modeled_ns"], crow["modeled_ns"]
            check(c == b, f"{name} {fmt(key)}: modeled_ns {c} equals baseline {b}")


def main():
    committed = sorted(RESULTS.glob("BENCH_*.json"))
    if not committed:
        print("FAIL: no committed results/BENCH_*.json found")
        return 1
    for path in committed:
        doc = json.load(open(path))
        if doc.get("quick"):
            check(False, f"{path.name}: committed series must be full-size, not quick-mode")
            continue
        gate_absolute(path.name, doc)
        base_path = BASELINES / path.name
        if base_path.exists():
            gate_baseline(path.name, doc, json.load(open(base_path)))
        else:
            print(f"note: no baseline for {path.name} (add one under results/baselines/)")
    for base_path in sorted(BASELINES.glob("BENCH_*.json")):
        check(
            (RESULTS / base_path.name).exists(),
            f"{base_path.name}: baseline has a committed counterpart",
        )
    if failures:
        print(f"\n{len(failures)} bench gate failure(s)")
        return 1
    print("\nall bench gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
