"""Committed output bytes: the same seed gives the same files across numpy,
scipy and Python versions, not just within one process.

Each file under tests/golden/ is regenerated here and compared byte for
byte; `simulate` runs at 1 and 2 workers. A golden file is regenerated
only with a stated byte change, never to absorb a new numpy or scipy. To
regenerate one, run the argv of its case below with `--out tests/golden/...`.
"""

import csv
import io
import json
from pathlib import Path

import numpy
import pytest
import scipy

from fpplab import cli

GOLDEN = Path(__file__).parent / "golden"

_LAWS = {
    "exp": "exp:rate=1",
    "bernoulli": "bernoulli:a=1,b=2,p=0.5",
    "gamma": "gamma:a=2,b=1",
    "trunc-exp": "trunc(exp:rate=1;k=10,c5=0.5)",
}

# (golden directory or file, argv without --out, files it writes)
_CASES = [
    pytest.param(
        name,
        ["simulate", "--dist", spec, "--n", "10,25,50", "--replicas", "60",
         "--seed", "3", "--workers", str(workers)],
        ("report.json", "scaling.csv"),
        id=f"{name}-w{workers}",
    )
    for name, spec in _LAWS.items()
    for workers in (1, 2)
] + [
    pytest.param("verify-ineq.json", ["verify-ineq", "--n", "4", "--tables", "25",
                                      "--seed", "7"], (), id="verify-ineq"),
    pytest.param("gm-check.json", ["gm-check", "--m", "3"], (), id="gm-check"),
]


def _parsed(name: str, text: str):
    if name.endswith(".json"):
        return json.loads(text)
    return list(csv.reader(io.StringIO(text)))


def _mismatch(name: str, new: str, old: str) -> str:
    diff = cli._first_difference(_parsed(name, new), _parsed(name, old))
    where = "only the formatting differs" if diff is None else (
        f"first difference at {diff[0]}: regenerated {diff[1]!r}, golden {diff[2]!r}"
    )
    return (f"{name}: {where} "
            f"(numpy {numpy.__version__}, scipy {scipy.__version__})")


@pytest.mark.parametrize("target, argv, files", _CASES)
def test_regenerated_outputs_match_the_golden_bytes(target, argv, files, tmp_path):
    out = tmp_path / target
    assert cli.main(argv + ["--out", str(out)]) == 0
    pairs = [(f, out / f, GOLDEN / target / f) for f in files] or [
        (target, out, GOLDEN / target)
    ]
    for name, new, old in pairs:
        new_text = new.read_text(encoding="utf-8")
        old_text = old.read_text(encoding="utf-8")
        assert new_text == old_text, _mismatch(name, new_text, old_text)
