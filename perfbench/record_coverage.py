"""Record the expected functional coverage of every verification target.

The ``verify`` workload checks each seed's coverage against this table.
It is recorded with the fixpoint oracle, one scalar session per
(target, seed), so the check compares the default engine against an
independent one.  Run from the repository root::

    python3 perfbench/record_coverage.py

It rewrites ``perfbench/coverage.json``.  Re-record only when a target's
stimulus or covergroup changes on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import COVERAGE_FILE, VERIFY_SEED_RANGE, VERIFY_SEEDS  # noqa: E402


def main() -> None:
    from repro.rtl import FIXPOINT
    from repro.verify.session import TARGETS, verify

    seeds = range(VERIFY_SEED_RANGE + VERIFY_SEEDS - 1)
    table = {}
    for name in TARGETS:
        table[name] = [round(verify(name, seed=seed, strategy=FIXPOINT)
                             .coverage_percent, 6) for seed in seeds]
        print(name, sorted(set(table[name])), flush=True)
    lines = ",\n".join(f"  {json.dumps(name)}: {json.dumps(values)}"
                       for name, values in sorted(table.items()))
    COVERAGE_FILE.write_text(
        f'{{"engine": "{FIXPOINT}", "seeds": {len(seeds)}, "coverage": {{\n'
        f"{lines}\n}}}}\n")


if __name__ == "__main__":
    main()
