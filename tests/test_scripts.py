"""Smoke tests of the runnable experiments in scripts/."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cauchygap.measures import MeasureParams
from cauchygap.spectral import Discretization

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_deficit_demo_with_trace():
    lines = _run("deficit_demo.py", "--seeds", "1", "--trace")
    for header in ("upper range, n=3 beta=4.5", "mid range, n=3 beta=3.8",
                   "lower range, n=2 beta=1.5  (no extremal exists)",
                   "mid-range integrand along the heat flow (linear input):"):
        assert header in lines
    assert sum(line.lstrip().startswith("bump seed=") for line in lines) == 1
    rows = [line.split() for line in lines if line.lstrip().startswith("t=")]
    assert len(rows) == 9
    # integrand of x_1 at t = 0: (0.4/2.6) * 5.6
    assert rows[0] == ["t=0.00", "integrand", "=", "8.615385e-01"]


def test_lowfact_scan_three_points():
    lines = _run("lowfact_scan.py", "--points", "3")
    assert lines[0] == "n=2 beta=1.5"
    assert lines[3].strip().startswith("resolved sign: plus")
    assert lines[5].split() == ["eps", "rel_err", "D"]
    assert len(lines[6:9]) == 3 and lines[7].endswith("<-- eps0")
    assert lines[-1].strip().startswith("D maximized at eps = 1.5000 (expected 1.5000)")


def test_lowfact_scan_on_the_line():
    # the split family covers n = 1: eps0 = 3/2 - beta, D = (beta - 1/2)^2
    lines = _run("lowfact_scan.py", "--n", "1", "--beta", "1.2", "--points", "3")
    assert lines[0] == "n=1 beta=1.2"
    assert lines[3].strip().startswith("resolved sign: plus (eps0 = +0.300000)")
    assert len(lines[6:9]) == 3 and lines[7].endswith("<-- eps0")
    assert lines[-1].strip() == ("D maximized at eps = 0.3000 (expected 0.3000); "
                                 "D there = 0.490000 vs (beta - n/2)^2 = 0.490000")


def test_band_digest_repeats():
    # one SHA-256 line, the same bytes on a second run
    first = _run("band_digest.py", "--short")
    assert len(first) == 1 and re.fullmatch(r"[0-9a-f]{64}", first[0])
    assert _run("band_digest.py", "--short") == first


def test_identity_digest_repeats():
    # one SHA-256 line, the same bytes on a second run
    first = _run("identity_digest.py", "--short")
    assert len(first) == 1 and re.fullmatch(r"[0-9a-f]{64}", first[0])
    assert _run("identity_digest.py", "--short") == first


@pytest.mark.parametrize("n, beta", [(3, 3.8), (3, 200.0), (1, 54.0)])
def test_oracle_script_builds_the_package_radii(n, beta):
    # the cell pins' grid is written out in the script, not imported: it must
    # stay the package's, bit for bit, with the cap R_beta inactive (3.8) and
    # active (200, 54)
    lines = _run("make_oracle_values.py", "--radii", str(n), str(beta))
    got = np.array([float(x) for x in lines])
    np.testing.assert_array_equal(
        got, Discretization(m=2048, delta=1e-3).radii(MeasureParams(n, beta)))


def test_src_lines_parts_add_up():
    out = _run("src_lines.py")
    lines = dict(line.split() for line in out[:5])
    counts = {kind: int(value) for kind, value in lines.items()}
    assert list(counts) == ["total", "code", "docstring", "comment", "blank"]
    files = sorted((ROOT / "src").rglob("*.py"))
    assert counts["total"] == sum(len(p.read_text().splitlines()) for p in files)
    assert counts["total"] == sum(v for k, v in counts.items() if k != "total")
    assert min(counts.values()) > 0
    # then a header and one row per module, whose parts add up to the totals
    assert out[5].split() == ["module", "code", "docstring", "comment", "blank"]
    rows = [line.split() for line in out[6:]]
    assert [r[0] for r in rows] == [p.relative_to(ROOT / "src").with_suffix("").as_posix()
                                    for p in files]
    for j, kind in enumerate(list(counts)[1:], start=1):
        assert sum(int(r[j]) for r in rows) == counts[kind], kind
    for r, p in zip(rows, files):
        assert sum(map(int, r[1:])) == len(p.read_text().splitlines()), r


def test_mutant_ledger_runs_one_entry():
    # every entry's old text occurs once in the tree as it stands, and the
    # cheapest entry, run on a copy against one test file, is caught
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for name, path, old, *_ in mutants.MUTANTS:
        assert (ROOT / path).read_text().count(old) == 1, name
    lines = _run("mutants.py", "--only", "tail-load-dropped")
    assert len(lines) == 1 and lines[0].split()[0] == "caught", lines
