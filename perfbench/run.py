"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload replay_staged --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Prints one line per metric (name, value, unit, sample count) and, as
the last line, a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Exits 1 when an output check
fails and 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.timing import (
        END_TO_END, PER_LAYER, timed_run, traced_run,
    )
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.trace:
        rep, units = traced_run(wl, args.seed), PER_LAYER
    else:
        rep, units = timed_run(wl, args.seed, args.seconds), END_TO_END
    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"loop={wl.loop} attempted={rep.attempted} failed={rep.failed}")
    metrics = {}
    for name, (unit, _better) in units.items():
        value, n, note = rep.values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:32s} {value:16.6g} {unit:6s} n={n:<7d} {note}")
    for err in rep.errors[:20]:
        print(f"CHECK FAILED: {err}")
    print(json.dumps({"correct": rep.correct, "attempted": rep.attempted,
                      "failed": rep.failed, "metrics": metrics}))
    return 0 if rep.correct else 1


if __name__ == "__main__":
    sys.exit(main())
