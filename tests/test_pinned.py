"""The pinned outputs in tests/pinned, recomputed and judged with a roundoff
budget: the `verify all --exploratory` records and the terminal state of the
two acceptance flow solves.  Regenerate them with
`PYTHONPATH=src python tests/pinned/regenerate.py`."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "pinned_regenerate", Path(__file__).parent / "pinned" / "regenerate.py")
pinned = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pinned)

# The roundoff budget: a pinned number may move by C * eps of its scale.  The
# largest record move of fifteen PRs was about 10 eps, and a deliberate
# change to the flow moved its terminals by about 25 eps, so 64 leaves room
# for BLAS threading and a reordered sum and still catches changed
# arithmetic.  Set once; raising it to get a pass loosens the bound.
C = 64
EPS = np.finfo(float).eps


def _record_moves(old, new):
    """(suite case, field, old, new, move) for each lhs, rhs or gap that
    differs, move in units of eps * max(1, |lhs|, |rhs|) of the old record
    (infinite when a value becomes non-finite)."""
    moves = []
    for a, b in zip(old, new):
        scale = max(1.0, abs(a["lhs"]), abs(a["rhs"]))
        for key in ("lhs", "rhs", "gap"):
            x, y = a[key], b[key]
            if x != y:
                move = abs(y - x) / (EPS * scale)
                moves.append((f"{a['suite']} {a['case']}", key, x, y,
                              move if math.isfinite(move) else math.inf))
    return moves


@pytest.mark.bitwise
def test_pinned_outputs_within_roundoff_budget(tmp_path):
    problems = []

    path = tmp_path / "records.csv"
    pinned.write_records(path)
    old, new = pinned.read_records(pinned.RECORDS_CSV), pinned.read_records(path)
    exact = ("suite", "case", "equality_expected", "pass")
    if [[r[key] for key in exact] for r in old] != [[r[key] for key in exact] for r in new]:
        problems.append("record names, equality flags or pass flags changed")
    moves = sorted(_record_moves(old, new), key=lambda m: -m[4])
    over = sum(move > C for *_, move in moves)
    if over:
        problems.append(f"{over} record value(s) moved by more than {C} eps*scale")

    committed = json.loads(pinned.FLOWS_JSON.read_text())
    counts = ("status", "steps", "rejections", "newton_trials")
    for name, got in pinned.flows().items():
        want = committed[name]
        if [got[key] for key in counts] != [want[key] for key in counts]:
            problems.append(f"{name}: {counts} {[got[key] for key in counts]}, "
                            f"pinned {[want[key] for key in counts]}")
        phi = np.asarray(want["phi"])
        move = np.max(np.abs(np.asarray(got["phi"]) - phi)) / (EPS * np.max(np.abs(phi)))
        if not move <= C:
            problems.append(f"{name}: terminal phi moved by {move:.2f} eps*max|phi|")

    if problems and moves:
        problems.append("every moved record value (record, field, old, new, move/(eps*scale)):")
        problems += [f"  {name} {key}: {x!r} -> {y!r} ({move:.2f})"
                     for name, key, x, y, move in moves]
    assert not problems, "\n".join(problems)
