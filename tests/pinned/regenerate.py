"""Pinned outputs: the `verify all --exploratory` records and the terminal
state of the two acceptance flow solves, recomputed through the public API.

    PYTHONPATH=src python tests/pinned/regenerate.py

rewrites `records.csv` (`verify.write_records_csv` of `verify.run_all(
exploratory=True)`, byte for byte what `horocvx verify all --exploratory`
writes) and `flows.json` (status, steps, rejections, Newton trials and
terminal phi of the n=1 k=0 p=2 solve on s1:96 and the n=2 k=1 p=1 solve on
s2:16, the benchmark's flow-s1 and flow-s2 at seed 0) next to this file.
`tests/test_pinned.py` recomputes both and judges each number against a
roundoff budget.  A change that moves a number past that budget reruns this
script, and the diff of the two files shows each moved digit.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from horocvx import flow, verify
from horocvx.flow import FlowConfig
from horocvx.hconvex import SupportField
from horocvx.sphere_grid import make_grid

HERE = Path(__file__).resolve().parent
RECORDS_CSV = HERE / "records.csv"
FLOWS_JSON = HERE / "flows.json"


def flow_s1():
    """n=1, k=0, p=2 on s1:96 from phi = 2, f = 1 + 0.2 cos 2 theta."""
    grid = make_grid(1, 96)
    f = 1.0 + 0.2 * np.cos(2.0 * grid.theta)
    config = FlowConfig(n=1, k=0, p=2.0, f=f, eps_stop=1e-6)
    return flow.run(config, SupportField(grid, np.full(grid.size, 2.0)))


def flow_s2():
    """n=2, k=1, p=1 on s2:16 from the even body 2 (1 + 0.0225 (3 z^2 - 1)
    + 0.06 (x^2 - y^2)), f = 1."""
    grid = make_grid(2, 16)
    x, y, z = grid.nodes.T
    phi = 2.0 * (1.0 + 0.0225 * (3.0 * z ** 2 - 1.0) + 0.06 * (x ** 2 - y ** 2))
    config = FlowConfig(n=2, k=1, p=1.0, eps_stop=1e-6)
    return flow.run(config, SupportField(grid, phi))


def write_records(path) -> None:
    """The records CSV of `verify all --exploratory`, written to path."""
    verify.write_records_csv(path, verify.run_all(exploratory=True))


def read_records(path) -> list[dict]:
    """Rows of a records CSV, lhs, rhs and gap as floats."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in ("lhs", "rhs", "gap"):
            row[key] = float(row[key])
    return rows


def flows() -> dict:
    """The terminal record of each pinned flow solve."""
    out = {}
    for name, solve in (("flow-s1", flow_s1), ("flow-s2", flow_s2)):
        res = solve()
        out[name] = {
            "status": res.status,
            "steps": res.steps,
            "rejections": res.rejections,
            "newton_trials": res.newton_trials,
            "phi": res.terminal.phi.tolist(),
        }
    return out


def main() -> None:
    write_records(RECORDS_CSV)
    FLOWS_JSON.write_text(json.dumps(flows(), indent=1) + "\n")
    print(f"wrote {RECORDS_CSV.name} and {FLOWS_JSON.name}")


if __name__ == "__main__":
    main()
