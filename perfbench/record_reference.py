"""Record the reference CSV rows of every workload on every reference seed.

    python3 perfbench/record_reference.py

Run it on the commit whose outputs are the reference; it overwrites
`perfbench/reference.json`, which maps each CLI seed to the data rows of
every CSV section the workloads write.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from check import read_sections
from run import HERE, ROOT, WORK, workers_for
from workloads import REFERENCE_SEEDS, WORKLOADS


def main() -> int:
    out = WORK / "record"
    reference = {}
    for seed in REFERENCE_SEEDS:
        reference[str(seed)] = rows = {}
        for workload in WORKLOADS.values():
            subprocess.run(
                [sys.executable, str(HERE / "rep.py"), "--workload", workload.name,
                 "--seed", str(seed), "--workers", str(workers_for(workload)),
                 "--out", str(out.relative_to(ROOT))],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            for label, (_, section) in read_sections(out, workload.csvs).items():
                if section:
                    rows[label] = [row.raw for row in section]
            shutil.rmtree(out)
        print(f"seed {seed}: {sum(map(len, rows.values()))} rows", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
