"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload kz-monodromy --seeds 1-10 [--seconds N]

Runs ``run.py`` once per seed, one after the other, and prints for each
end-to-end metric its median and the distance between the first and
third quartile as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  ``--seconds`` defaults to ``run_seconds``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench import stats  # noqa: E402


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{out.stdout}")
        row = []
        for name in values:
            values[name].append(result["metrics"][name]["value"])
            row.append(f"{name}={values[name][-1]:.5g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        spread = stats.quartile_spread(vals) if len(vals) > 1 else 0.0
        print(f"{metric['name']:<16} median {statistics.median(vals):.5g} {metric['unit']:<4} "
              f"spread {spread:.3f}  bound {metric['bound']}  "
              f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}")


if __name__ == "__main__":
    main()
