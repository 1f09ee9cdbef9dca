"""Output checks: every CSV row of a run against the recorded reference rows.

A point fails when its row is missing or non-finite, when it breaks the
CSV's own arithmetic or stopping rule, or when its SER is too far from the
reference row's SER at the same position:

* on a seed with recorded rows the run should reproduce them, so the SER
  may differ by at most the reference row's `ser_ci95`;
* on any other seed the run is compared with the default seed's rows. The
  two are independent estimates, so the SER may differ by at most
  EXTRA_SEED_Z times the root-sum-square of both `ser_ci95` values (the
  CSV's Wilson half-widths treat the J symbols of a trial as independent,
  which understates the spread; a factor of 4 keeps false alarms rare
  while a detector that doubles the error rate still fails).
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
EXTRA_SEED_Z = 4.0


@dataclass(frozen=True)
class Row:
    raw: str
    snr_db: float
    trials: int
    sym_errors: int
    ser: float
    ser_ci95: float

    @classmethod
    def parse(cls, line: str) -> "Row":
        f = line.split(",")
        return cls(line, float(f[0]), int(f[1]), int(f[2]), float(f[4]), float(f[6]))


def parse_csv(text: str) -> dict[str, tuple[dict, list[Row]]]:
    """{section: (config echo, data rows)}; `compare` files hold one
    section per `# run=` label, `simulate` files a single '' section."""
    sections: dict[str, tuple[dict, list[Row]]] = {}
    config, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# run="):
            config, rows = {}, []
            sections[line[len("# run="):]] = (config, rows)
        elif line.startswith("# "):
            key, _, value = line[2:].partition("=")
            config[key] = ast.literal_eval(value)
        elif line.startswith("snr_db,"):
            sections.setdefault("", (config, rows))
        elif line:
            rows.append(Row.parse(line))
    return sections


def read_sections(directory: Path, names) -> dict[str, tuple[dict, list[Row]]]:
    """Sections of every named CSV, keyed 'file/section'; a missing file
    yields no sections, so its reference points count as missing."""
    out = {}
    for name in names:
        path = Path(directory) / name
        if path.exists():
            for label, section in parse_csv(path.read_text()).items():
                out[f"{name}/{label}"] = section
    return out


def load_reference() -> dict[int, dict[str, list[Row]]]:
    """{CLI seed: {'file/section': rows}} from reference.json."""
    data = json.loads(REFERENCE_FILE.read_text())
    return {
        int(seed): {label: [Row.parse(line) for line in rows] for label, rows in labels.items()}
        for seed, labels in data.items()
    }


def _row_ok(row: Row, config: dict) -> bool:
    if not all(math.isfinite(v) for v in (row.snr_db, row.ser, row.ser_ci95)):
        return False
    if row.trials < 1 or row.trials > config["max_trials"]:
        return False
    stopped = row.sym_errors >= config["min_errors"] or row.trials == config["max_trials"]
    return stopped and row.ser == row.sym_errors / (row.trials * config["J"])


def close(row: Row, ref: Row, same_seed: bool) -> bool:
    if row.snr_db != ref.snr_db:
        return False
    if same_seed:
        return abs(row.ser - ref.ser) <= ref.ser_ci95
    return abs(row.ser - ref.ser) <= EXTRA_SEED_Z * math.hypot(row.ser_ci95, ref.ser_ci95)


@dataclass
class Verdict:
    points: int = 0
    failed: int = 0
    rows_changed: int = 0  # rows not byte-identical to the same seed's reference
    trials: int = 0
    problems: list[str] = field(default_factory=list)


def check_run(run_dir: Path, names, seed: int, reference, agree=()) -> Verdict:
    """Check one repetition's CSVs against `reference` (from load_reference).
    `agree` names CSVs whose rows must match the first of them within its
    `ser_ci95`."""
    same_seed = seed in reference
    ref = reference[seed if same_seed else DEFAULT_SEED]
    got = read_sections(run_dir, names)
    verdict = Verdict()
    failing = set()
    for label, ref_rows in ref.items():
        if label.split("/", 1)[0] not in names:
            continue
        config, rows = got.get(label, ({}, []))
        for i, expected in enumerate(ref_rows):
            verdict.points += 1
            row = rows[i] if i < len(rows) else None
            if row is None or not (_row_ok(row, config) and close(row, expected, same_seed)):
                failing.add((label, i))
                verdict.problems.append(f"{label} row {i}: {row.raw if row else 'missing'}")
            if same_seed and (row is None or row.raw != expected.raw):
                verdict.rows_changed += 1
        for i in range(len(ref_rows), len(rows)):
            verdict.points += 1
            failing.add((label, i))
            verdict.problems.append(f"{label} row {i}: beyond the reference")
    if agree:
        base = got.get(f"{agree[0]}/", ({}, []))[1]
        for name in agree[1:]:
            for i, row in enumerate(got.get(f"{name}/", ({}, []))[1]):
                if i < len(base) and not abs(row.ser - base[i].ser) <= base[i].ser_ci95:
                    failing.add((f"{name}/", i))
                    verdict.problems.append(f"{name} row {i}: disagrees with {agree[0]}")
    verdict.failed = len(failing)
    verdict.trials = sum(row.trials for _, rows in got.values() for row in rows)
    return verdict
