"""Record the teacher values the ``table2-gla`` check compares against.

Run from the root of a checkout, only when the teacher's outputs are
meant to change (the values pin the fp64 reference model)::

    python3 perfbench/record_table2.py --scale 1 --seeds 0-15
    python3 perfbench/record_table2.py --scale 0.05 --seeds 0

Each entry is keyed ``"<data seed>:<items per task>"``.  The student's
scores are stored beside the teacher's for reference; only the teacher's
are checked exactly.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seeds", default="0-15", help="e.g. 0-15 or 3")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    path = harness.EXPECTED_TABLE2
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for seed in range(int(lo), int(hi or lo) + 1):
        inputs, _, _ = harness.table2_setup(seed, args.scale)
        row = harness.table2_eval(inputs)
        recorded[harness.expected_key(inputs)] = {
            "perplexity": row.gpu_perplexity,
            "accuracy": row.gpu_accuracy,
            "student_perplexity": row.pimba_perplexity,
            "student_accuracy": row.pimba_accuracy,
            "geomean_delta": row.geomean_delta,
        }
        print(harness.expected_key(inputs), row.gpu_perplexity,
              row.pimba_perplexity, f"{row.geomean_delta:+.4f}", flush=True)
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
