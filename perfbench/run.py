"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run from the repository root. Prints one ``name = value unit`` line per
metric, a provenance JSON line, and as the last line the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Exits 2 without
a result when the sources under ``src/`` or ``configs/`` are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "verify", "decode-lut-32", "decode-offload-1")

# One thread each, set before NumPy loads, so a run never uses more threads
# than the machine's cores and run-to-run timing does not depend on BLAS
# thread scheduling.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MOLE_RT_THREADS": "1"}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    missing = [str(path.relative_to(ROOT)) for path in
               (ROOT / "src" / "mole" / "__init__.py", ROOT / "configs" / "toy-mole.json",
                ROOT / "configs" / "toy-moe.json") if not path.is_file()]
    if missing:
        print(f"error: the benchmark needs the mole sources; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    os.environ.update(PINNED_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    trace_out = ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
    result = harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
                         trace_out=trace_out)
    for name, value, unit in result.named:
        print(f"{name} = {value:.6g} {unit}")
    if result.per_layer is not None:
        for name, unit, _ in harness.PER_LAYER:
            print(f"{name} = {result.per_layer[name]:.6g} {unit}")
        print(f"# spans: {trace_out.relative_to(ROOT)}")
    print(json.dumps(harness.provenance(ROOT, result)))
    table = harness.PER_LAYER if args.trace else harness.END_TO_END
    values = result.per_layer if args.trace else result.e2e
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
