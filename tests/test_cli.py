import json

import numpy as np
import pytest

from cauchygap import spectral
from cauchygap.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_TOLERANCE,
                           load_config, main)
from cauchygap.measures import MeasureParams
from cauchygap.quadrature import VERIFY_GRID
from cauchygap.semigroup import DeficitMismatch
from cauchygap.spectral import Discretization, GapReport, numeric_gap


def test_gap_json(tmp_path, capsys):
    out = tmp_path / "gap.json"
    code = main(["gap", "--n", "3", "--beta", "5.0", "--m", "256",
                 "--out", str(out)])
    assert code == EXIT_OK
    d = json.loads(out.read_text())
    assert d["n"] == 3 and d["beta"] == 5.0
    assert d["range_tag"] == "upper"
    assert np.isclose(d["closed_form"], 8.0)
    assert abs(d["rel_error"]) < 1e-3
    # mode 1 (floor 8) is solved and mode 0 (floor 10) certified above it;
    # mode 1's value 8 bounds every later mode from below by 8 + 4
    assert d["mode_bottoms"] == [10.0, 8.0]
    assert d["minimizing_mode"] == 1


def test_gap_csv_format(tmp_path):
    out = tmp_path / "gap.csv"
    code = main(["gap", "--n", "2", "--beta", "4.0", "--m", "128",
                 "--delta", "1e-2", "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,beta,range_tag")
    assert len(lines) == 2


def test_gap_invalid_params():
    assert main(["gap", "--n", "2", "--beta", "0.9"]) == EXIT_CONFIG
    assert main(["gap", "--n", "0", "--beta", "2.0"]) == EXIT_CONFIG
    assert main(["gap", "--n", "2"]) == EXIT_CONFIG  # beta missing


def test_gap_numerical_breakdown(tmp_path, capsys, monkeypatch):
    # beta = 200 solves on its grid; with mode 0's first nontrivial
    # closed-form value 1.5x too high (1185 for 790), its shift sits over a
    # Galerkin value: a numerical breakdown, not a configuration error
    argv = ["gap", "--n", "3", "--beta", "200", "--m", "256",
            "--out", str(tmp_path / "gap.json")]
    assert main(argv) == EXIT_OK
    (tmp_path / "gap.json").unlink()
    real = spectral._mode_head

    def skewed(params, ell):
        vals = list(real(params, ell))
        if ell == 0:
            vals[1] *= 1.5
        return vals

    monkeypatch.setattr(spectral, "_mode_head", skewed)
    assert main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown:")
    assert "n=3" in err and "beta=200" in err and "nn=" in err
    assert not (tmp_path / "gap.json").exists()


def test_gap_and_sweep_value_under_its_bottom(tmp_path, capsys, monkeypatch):
    # on the line at beta = 54, with the tail rays' stiffness moments 1e-6
    # of their value, mode 0 has Galerkin values far under its closed-form
    # bottom: a breakdown, and no row is written
    real = spectral._tail_moments
    monkeypatch.setattr(spectral, "_tail_moments", lambda R, cs, d: real(R, cs, d)
                        * (1e-6 if cs.min() == 1 - 3 else 1.0))
    out = tmp_path / "gap.json"
    code = main(["gap", "--n", "1", "--beta", "54", "--m", "512",
                 "--out", str(out)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: mode ell=0 (n=1, beta=54")
    assert "closed-form bottom 210" in err
    assert not out.exists()
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "1", "--beta-min", "52", "--beta-max", "54",
                 "--steps", "3", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert not out.exists()


def test_gap_tolerance_failure(tmp_path):
    # the essential-spectrum edge converges too slowly for the default grid:
    # an honest exit 2, not a wrong answer
    out = tmp_path / "gap.json"
    code = main(["gap", "--n", "1", "--beta", "1.0", "--m", "256",
                 "--out", str(out)])
    assert code == EXIT_TOLERANCE
    d = json.loads(out.read_text())
    assert np.isclose(d["closed_form"], 0.25)
    assert d["rel_error"] > 1e-3


def test_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "2", "--beta-min", "1.2", "--beta-max", "4.0",
                 "--steps", "6", "--m", "96", "--delta", "1e-2",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 7
    # after the row count: the worst |rel_error| of each range tag present,
    # in table order, then the essential-spectrum note for a coarse lower range
    worst = {}
    for row in lines[1:]:
        cols = row.split(",")
        worst[cols[2]] = max(worst.get(cols[2], 0.0), abs(float(cols[5])))
    assert set(worst) == {"lower", "upper"}
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"6 rows -> {out}"
    assert printed[1:3] == [f"  {tag:5s}: worst |rel_error| = {worst[tag]:.3e}"
                            for tag in ("lower", "upper")]
    assert worst["lower"] > 1e-2
    assert printed[3].startswith("  note: the lower range is an "
                                 "essential-spectrum edge")
    assert len(printed) == 4
    # deterministic: a second run writes byte-identical output
    out2 = tmp_path / "sweep2.csv"
    main(["sweep", "--n", "2", "--beta-min", "1.2", "--beta-max", "4.0",
          "--steps", "6", "--m", "96", "--delta", "1e-2", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()
    assert main(["sweep", "--n", "2", "--beta-min", "3.0", "--beta-max", "2.0",
                 "--steps", "4"]) == EXIT_CONFIG


def test_verify_single_point(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--n", "2", "--beta", "2.5", "--trials", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert "; all identities hold" in capsys.readouterr().out
    d = json.loads(out.read_text())
    assert d["all_pass"] is True
    assert len(d["points"]) == 1
    pt = d["points"][0]
    assert pt["n"] == 2 and pt["beta"] == 2.5
    tags = {r["tag"] for r in pt["reports"]}
    assert {"IPP1", "IPP2", "GAMMABIS", "IRG", "LOWFACT"} <= tags
    # eps0 candidates are distinct away from beta = n/2 + 2: plus wins
    assert pt["lowfact_sign"]["resolved"] == "plus"
    assert np.isclose(pt["lowfact_sign"]["resolved_eps0"], 0.5)
    # the line writes its sign check too: eps0 = 3/2 - beta
    assert main(["verify", "--n", "1", "--beta", "1.2", "--trials", "2",
                 "--out", str(out)]) == EXIT_OK
    sign = json.loads(out.read_text())["points"][0]["lowfact_sign"]
    assert sign["resolved"] == "plus"
    assert abs(sign["resolved_eps0"] - 0.3) <= 1e-12


def test_verify_corrupt_control(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--n", "2", "--beta", "3.0", "--trials", "2",
                 "--corrupt-ipp1", "--out", str(out)])
    assert code == EXIT_TOLERANCE
    d = json.loads(out.read_text())
    assert d["all_pass"] is False
    assert d["corrupt_ipp1"] is True
    worst = max(r["rel_err"] for r in d["points"][0]["reports"])
    printed = capsys.readouterr().out.splitlines()
    assert f"worst rel_err = {worst:.3e}; FAILURES present" in printed
    # each identity row prints its own verdict: only the corrupted one fails
    rows = {line.split()[2]: line for line in printed if line.startswith("n=2 ")}
    assert len(rows) == len(d["points"][0]["reports"])
    assert rows.pop("IPP1").endswith(" FAIL")
    assert all(line.endswith(" ok") for line in rows.values())


def test_deficit_csv(tmp_path):
    out = tmp_path / "deficit.csv"
    code = main(["deficit", "--n", "3", "--beta", "4.0", "--range", "upper",
                 "--f", "linear", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "n,beta,range_tag,f,deficit"
    row = lines[1].split(",")
    assert row[:4] == ["3", "4", "upper", "linear"]
    assert abs(float(row[4])) < 1e-8


def test_deficit_past_three_dimensions(tmp_path, capsys):
    # a linear f runs at n = 4; a random bump still needs the n <= 3 rule
    out = tmp_path / "deficit.csv"
    code = main(["deficit", "--n", "4", "--beta", "6", "--range", "upper",
                 "--f", "linear", "--out", str(out)])
    assert code == EXIT_OK
    row = out.read_text().splitlines()[1].split(",")
    assert row[:4] == ["4", "6", "upper", "linear"]
    assert abs(float(row[4])) < 1e-8
    bump = tmp_path / "bump.csv"
    code = main(["deficit", "--n", "4", "--beta", "6", "--range", "upper",
                 "--f", "bump", "--out", str(bump)])
    assert code == EXIT_CONFIG
    assert "n <= 3" in capsys.readouterr().err
    assert not bump.exists()


def test_deficit_lower_bump(tmp_path):
    out = tmp_path / "deficit.csv"
    code = main(["deficit", "--n", "2", "--beta", "1.5", "--range", "lower",
                 "--f", "bump", "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    val = float(out.read_text().splitlines()[1].split(",")[4])
    assert val < -1e-6


def test_deficit_numerical_breakdown(tmp_path, capsys, monkeypatch):
    # a failed factorization in the deficit's eigen route exits 3, not 1,
    # although numpy's LinAlgError is a ValueError
    from scipy import linalg as sla

    from cauchygap import cli
    from cauchygap.functions import SmoothFunction, make_random_test

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    # an even bump: radial with compact support, so the eigen route takes it
    base = make_random_test(0, 1)
    even = SmoothFunction(
        lambda x: 0.5 * (base.value(x) + base.value(-x)),
        lambda x: 0.5 * (base.gradient(x) - base.gradient(-x)),
        lambda x: 0.5 * (base.hessian(x) + base.hessian(-x)),
        base.support_radius, "even bump", base.radial_seams, 0)
    monkeypatch.setattr(cli, "make_random_test", lambda seed, n: even)
    monkeypatch.setattr(sla, "cholesky_banded", failing)
    out = tmp_path / "deficit.csv"
    code = main(["deficit", "--n", "1", "--beta", "2.0", "--range", "upper",
                 "--f", "bump", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: mode ell=0 (n=1, beta=2")
    # the route's first factorization is the mass matrix of the L^2 projection
    assert "banded Cholesky of B failed (not positive definite)" in err
    assert not out.exists()


def test_rayleigh(tmp_path):
    out = tmp_path / "rayleigh.csv"
    code = main(["rayleigh", "--family", "power", "--n", "2", "--beta", "1.8",
                 "--eps-from-limit", "0.05,0.01,0.001", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "family,n,beta,eps_from_limit,epsilon,quotient,limit"
    assert len(lines) == 4
    quots = [float(l.split(",")[5]) for l in lines[1:]]
    limit = float(lines[1].split(",")[6])
    assert np.isclose(limit, (1.8 - 1.0) ** 2)
    # quotients decrease toward the limit as eps approaches admissibility
    assert quots[0] > quots[1] > quots[2] > limit
    # the one-dimensional family rejects n != 1
    assert main(["rayleigh", "--family", "oned", "--n", "2", "--beta", "1.8",
                 "--eps-from-limit", "0.01"]) == EXIT_CONFIG


def test_sample(tmp_path):
    out = tmp_path / "sample.csv"
    code = main(["sample", "--n", "2", "--beta", "3.0", "--count", "500",
                 "--seed", "9", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#") and not l.startswith("x")]
    assert len(data) == 500
    checks = [l for l in lines if l.startswith("# moment_check")]
    assert len(checks) == 2  # omega_inv and mean_sq_norm (beta > n/2 + 1)
    # heavy tail: no second-moment row when it diverges
    out2 = tmp_path / "sample2.csv"
    main(["sample", "--n", "2", "--beta", "1.5", "--count", "100",
          "--seed", "9", "--out", str(out2)])
    checks2 = [l for l in out2.read_text().splitlines()
               if l.startswith("# moment_check")]
    assert len(checks2) == 1


def test_sample_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sample", "--n", "1", "--beta", "2.0", "--count", "64",
          "--seed", "3", "--out", str(a)])
    main(["sample", "--n", "1", "--beta", "2.0", "--count", "64",
          "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["gap", "--n", "2", "--beta", "4.0", "--m", "96", "--delta", "1e-2"],
    ["gap", "--n", "2", "--beta", "4.0", "--m", "96", "--delta", "1e-2",
     "--format", "csv"],
    ["sweep", "--n", "2", "--beta-min", "1.2", "--beta-max", "4.0",
     "--steps", "2", "--m", "96", "--delta", "1e-2"],
    ["verify", "--n", "2", "--beta", "2.5", "--trials", "2"],
    ["deficit", "--n", "3", "--beta", "4.0", "--range", "upper", "--f", "linear"],
    ["rayleigh", "--n", "2", "--beta", "1.8", "--eps-from-limit", "0.1,0.01"],
    ["sample", "--n", "2", "--beta", "3.0", "--count", "10"],
])
def test_every_file_ends_its_lines_in_lf(tmp_path, monkeypatch, argv):
    # one writer for every file: each line ends in "\n", never in "\r\n"
    monkeypatch.setenv("CAUCHYGAP_OUTDIR", str(tmp_path))
    assert main(argv) == EXIT_OK
    (path,) = tmp_path.iterdir()
    data = path.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sampler setup\nn = 2\nbeta = 3.0\ncount = 40\nseed = 5\n")
    vals = load_config(cfg)
    assert vals == {"n": 2, "beta": 3.0, "count": 40, "seed": 5}
    out = tmp_path / "s.csv"
    code = main(["sample", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    rows = [l for l in out.read_text().splitlines()
            if not l.startswith(("#", "x"))]
    assert len(rows) == 40
    # explicit flags take precedence over the file
    out2 = tmp_path / "s2.csv"
    main(["sample", "--config", str(cfg), "--count", "7", "--out", str(out2)])
    rows2 = [l for l in out2.read_text().splitlines()
             if not l.startswith(("#", "x"))]
    assert len(rows2) == 7


def test_config_file_serves_several_commands(tmp_path):
    # keys of other subcommands are typed and checked, then ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nbeta = 4.0\nm = 96\ndelta = 1e-2\ncount = 20\n")
    gap = tmp_path / "gap.json"
    assert main(["gap", "--config", str(cfg), "--out", str(gap)]) == EXIT_OK
    assert json.loads(gap.read_text())["m"] == 96
    out = tmp_path / "s.csv"
    assert main(["sample", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = [l for l in out.read_text().splitlines()
            if not l.startswith(("#", "x"))]
    assert len(rows) == 20


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 12\n")
    with pytest.raises(ValueError):
        load_config(cfg)
    assert main(["sample", "--config", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("argv, line", [
    (["gap", "--n", "2", "--beta", "4.0", "--m", "96"], "format = xml"),
    (["rayleigh", "--n", "2", "--beta", "1.8", "--eps-from-limit", "0.1"],
     "family = power2"),
])
def test_config_values_checked_as_flags(tmp_path, argv, line):
    # a config value outside its flag's choices is a configuration error,
    # before any output is written
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.txt"
    cfg.write_text(line + "\n")
    with pytest.raises(ValueError, match="not one of"):
        load_config(cfg)
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_usage_errors_are_configuration_errors(tmp_path, capsys):
    out = tmp_path / "gap.xml"
    assert main(["gap", "--n", "2", "--beta", "4.0", "--format", "xml",
                 "--out", str(out)]) == EXIT_CONFIG
    assert main(["gap", "--n", "two", "--beta", "4.0"]) == EXIT_CONFIG
    assert not out.exists()
    assert main(["gap", "--help"]) == EXIT_OK
    usage = capsys.readouterr().out
    assert "--format {csv,json}" in usage
    assert "--trials" not in usage and "--seed" not in usage


@pytest.mark.parametrize("argv", [
    ["gap", "--n", "2", "--beta", "4.0", "--m", "96", "--trials", "3"],
    ["sweep", "--n", "2", "--beta-min", "1.2", "--beta-max", "4.0",
     "--steps", "2", "--m", "96", "--tol", "1e-12"],
    ["verify", "--n", "2", "--beta", "2.5", "--trials", "2", "--m", "64"],
    ["deficit", "--n", "3", "--beta", "4.0", "--range", "upper",
     "--f", "linear", "--format", "csv"],
    ["rayleigh", "--n", "2", "--beta", "1.8", "--eps-from-limit", "0.1",
     "--seed", "1"],
    ["sample", "--n", "2", "--beta", "3.0", "--count", "10", "--steps", "2"],
    # the modes solved follow from a proven bound, not a flag
    ["gap", "--n", "2", "--beta", "4.0", "--m", "96", "--ell-max", "3"],
])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, monkeypatch,
                                                        capsys, argv):
    # each subcommand declares only the flags it reads; any other is
    # refused before anything is computed or written
    monkeypatch.setenv("CAUCHYGAP_OUTDIR", str(tmp_path))
    assert main(argv) == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CAUCHYGAP_OUTDIR", str(tmp_path))
    code = main(["gap", "--n", "2", "--beta", "4.0", "--m", "96",
                 "--delta", "1e-2"])
    assert code == EXIT_OK
    assert (tmp_path / "gap_n2_beta4.json").exists()


def _tuples(v):
    """A JSON value with its lists, nested ones too, read back as tuples."""
    return tuple(map(_tuples, v)) if isinstance(v, list) else v


def test_gap_json_writes_a_certified_mode_as_null(tmp_path):
    # upper range: mode 1 is solved, mode 0's count under its sigma proves it
    # above the gap, and its value is written as null
    out = tmp_path / "gap.json"
    assert main(["gap", "--n", "3", "--beta", "5.0", "--out", str(out)]) == EXIT_OK
    d = json.loads(out.read_text())
    assert d["mode_eigs"][0] is None and abs(d["mode_eigs"][1] - 8.0) < 1e-9
    assert d["mode_eigs"][1] == d["numeric_gap"]
    assert d["mode_bottoms"] == [10.0, 8.0]
    # the file reads back as the report
    rep = numeric_gap(MeasureParams(3, 5.0), Discretization(m=512, delta=1e-3))
    assert GapReport(**{k: _tuples(v) for k, v in d.items()}) == rep


# each subcommand that requires flags: a cheap run's other flags, and its
# required flags with a value each
_REQUIRED = [
    ("gap", ["--m", "96", "--delta", "1e-2"], {"n": "2", "beta": "4.0"}),
    ("sweep", ["--steps", "2", "--m", "96", "--delta", "1e-2"],
     {"n": "2", "beta-min": "1.2", "beta-max": "4.0"}),
    ("deficit", [], {"n": "3", "beta": "4.0", "range": "upper", "f": "linear"}),
    ("rayleigh", [], {"n": "2", "beta": "1.8", "eps-from-limit": "0.1,0.01"}),
    ("sample", ["--count", "10"], {"n": "2", "beta": "3.0"}),
]


@pytest.mark.parametrize("command, base, required, missing", [
    (command, base, required, missing)
    for command, base, required in _REQUIRED
    for missing in [(flag,) for flag in required] + [tuple(required)]])
def test_required_flags_come_from_the_command_line_or_the_config(
        tmp_path, monkeypatch, capsys, command, base, required, missing):
    # main checks the required flags once, after the config merge: a flag
    # left out is a configuration error naming it, and the same flag in the
    # --config file runs the command
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setenv("CAUCHYGAP_OUTDIR", str(out))
    given = [tok for flag, value in required.items() if flag not in missing
             for tok in ("--" + flag, value)]
    assert main([command, *base, *given]) == EXIT_CONFIG
    flags = " ".join("--" + flag for flag in missing)
    assert capsys.readouterr().err == (f"configuration error: {command} needs "
                                       f"{flags} (flags or --config keys)\n")
    assert list(out.iterdir()) == []
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{flag} = {required[flag]}\n" for flag in missing))
    assert main([command, *base, *given, "--config", str(cfg)]) == EXIT_OK
    assert len(list(out.iterdir())) == 1


def test_config_line_without_equals_sign(tmp_path):
    cfg, out = tmp_path / "run.cfg", tmp_path / "s.csv"
    cfg.write_text("n = 2\nbeta 3.0\n")
    with pytest.raises(ValueError, match="config line without '=': 'beta 3.0'"):
        load_config(cfg)
    assert main(["sample", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--n", "2"], ["--beta", "2.5"]])
def test_verify_needs_both_of_n_and_beta_or_neither(tmp_path, capsys, flag):
    out = tmp_path / "verify.json"
    assert main(["verify", *flag, "--trials", "1", "--out", str(out)]) == EXIT_CONFIG
    assert "give both --n and --beta, or neither" in capsys.readouterr().err
    assert not out.exists()


def test_verify_default_grid(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--trials", "1", "--out", str(out)]) == EXIT_OK
    d = json.loads(out.read_text())
    assert d["all_pass"] is True and d["trials"] == 1
    assert [(p["n"], p["beta"]) for p in d["points"]] == list(VERIFY_GRID)


def test_deficit_quadratic(tmp_path):
    # the centered quadratic is the mid range's extremal: a zero deficit
    out = tmp_path / "deficit.csv"
    assert main(["deficit", "--n", "3", "--beta", "3.8", "--range", "mid",
                 "--f", "quadratic", "--out", str(out)]) == EXIT_OK
    row = out.read_text().splitlines()[1].split(",")
    assert row[2:4] == ["mid", "quadratic"]
    assert abs(float(row[4])) < 1e-8


def test_deficit_of_an_f_outside_l2_is_refused(tmp_path, capsys):
    # Var(|x|^2) = inf at (2, 3): a configuration error that names f and
    # writes no CSV, where the command wrote nan and exited 0
    out = tmp_path / "deficit.csv"
    code = main(["deficit", "--n", "2", "--beta", "3", "--range", "mid",
                 "--f", "quadratic", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "quadratic_centered" in err and "not in L^2" in err
    assert not out.exists()


def test_deficit_mismatch_is_a_tolerance_failure(tmp_path, monkeypatch, capsys):
    from cauchygap import cli

    def mismatch(f, params, range_tag):
        raise DeficitMismatch("quadrature -1 vs time integral -2")

    monkeypatch.setattr(cli, "deficit", mismatch)
    out = tmp_path / "deficit.csv"
    assert main(["deficit", "--n", "1", "--beta", "2.0", "--range", "upper",
                 "--f", "bump", "--out", str(out)]) == EXIT_TOLERANCE
    assert capsys.readouterr().err == ("tolerance failure: quadrature -1 vs "
                                       "time integral -2\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, key, value", [
    (["gap", "--n", "2", "--beta", "4.0", "--m", "96"], "tol", "-1"),
    (["gap", "--n", "2", "--beta", "4.0", "--m", "96"], "tol", "nan"),
    (["verify", "--n", "2", "--beta", "2.5", "--trials", "1"], "tol", "-1e-9"),
    (["sweep", "--n", "2", "--beta-min", "1.2", "--beta-max", "4.0", "--m", "96"],
     "steps", "0"),
    (["verify", "--n", "2", "--beta", "2.5", "--trials", "1"], "seed", "-1"),
    (["deficit", "--n", "2", "--beta", "1.5", "--range", "lower", "--f", "bump"],
     "seed", "-1"),
    (["sample", "--n", "2", "--beta", "3.0", "--count", "5"], "seed", "-1"),
])
def test_declared_flag_rules_hold_on_the_command_line_and_in_the_config(
        tmp_path, capsys, argv, key, value):
    # a negative or NaN --tol, a --steps under 1 and a negative --seed are
    # refused by the flag's declared type, before anything is computed or
    # written
    out, cfg = tmp_path / "out.txt", tmp_path / "run.cfg"
    assert main(argv + [f"--{key}={value}", "--out", str(out)]) == EXIT_CONFIG
    assert f"argument --{key}: invalid " in capsys.readouterr().err
    cfg.write_text(f"{key} = {value}\n")
    with pytest.raises(ValueError, match=f"'{value}' is not a "):
        load_config(cfg)
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("n = 2\ntol = -1\n", "config line 2, tol = -1: '-1' is not a non-negative float"),
    ("# grid\nm = abc\n",
     "config line 2, m = abc: invalid literal for int() with base 10: 'abc'"),
])
def test_config_type_errors_name_the_key_and_the_line(tmp_path, capsys, text, message):
    cfg, out = tmp_path / "run.cfg", tmp_path / "gap.json"
    cfg.write_text(text)
    with pytest.raises(ValueError) as err:
        load_config(cfg)
    assert str(err.value) == message
    assert main(["gap", "--n", "2", "--beta", "4.0", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("dists, message", [
    (",", "--eps-from-limit needs at least one distance"),
    ("0.1,0", "epsilon = 0.4 is not below 0.4: f is not square-integrable"),
    ("-0.05", "epsilon = 0.45 is not below 0.4: f is not square-integrable"),
])
def test_rayleigh_distances_refused(tmp_path, capsys, dists, message):
    # a distance d <= 0 puts epsilon at or past the family's limit, which
    # the quotient refuses; no row is written
    out = tmp_path / "rayleigh.csv"
    assert main(["rayleigh", "--n", "2", "--beta", "1.8",
                 f"--eps-from-limit={dists}", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()
