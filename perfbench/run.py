"""Run one benchmark workload and print its result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-scan --seed 1 \
        --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` adds a traced phase and prints the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  The workload
record (operation fingerprint, cache-relative input properties, span
table) is printed first; the last line of standard output is the JSON
result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-scan", "served-topk", "store-churn")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke test uses a "
                             "small one)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _arguments(argv)
    # SIGTERM unwinds like an exception, so the server child is stopped
    # and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing under "
              f"{ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = catalogue["per_layer" if args.trace else "end_to_end"]
    module = __import__(args.workload.replace("-", "_"))
    with harness.workspace(args.workload) as workdir:
        config = harness.Config(args.seed, args.seconds,
                                bool(args.trace), args.scale, workdir)
        outcome = module.run(config)
    for line in outcome.record:
        print(line)
    metrics = {}
    for metric in wanted:
        value = outcome.metrics.get(metric["name"])
        if value is None or not math.isfinite(value):
            print(f"perfbench: {args.workload} did not measure "
                  f"{metric['name']}", file=sys.stderr)
            return 3
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for name in sorted(metrics):
        print(f"{name:46s} {metrics[name]['value']:14.6f} "
              f"{metrics[name]['unit']}")
    print(json.dumps({"correct": outcome.wrong == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
