import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radial_euler
from radial_euler import cli
from radial_euler.alignment import INFLUENCE_LIBRARY
from radial_euler.config import (SCHEMA, ConfigError, RunConfig, config_hash,
                                 parse_config_text, serialize_config)
from radial_euler.odeint import ClassificationOutcome, Verdict
from radial_euler.profiles import DENSITY_LIBRARY, VELOCITY_LIBRARY

EP_SUB = """
[model]
kind = euler-poisson
n = 1
kappa = 1.0
c = 0.0

[state]
p0 = -1.9
rho0 = 2.0
"""

EP_SUPER = EP_SUB.replace("p0 = -1.9", "p0 = -3.0")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing

def test_config_defaults_and_parse():
    cfg = parse_config_text(EP_SUB)
    assert cfg["model"]["n"] == 1.0
    assert cfg["state"]["p0"] == -1.9
    assert cfg["integrator"]["t_max"] == 200.0      # default
    assert cfg["output"]["format"] == "csv"         # default


def test_config_unknown_section_and_key():
    with pytest.raises(ConfigError):
        parse_config_text("[nosuch]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("[model]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("[model]\nn = not-a-number\n")


def test_config_round_trip_identity():
    cfg = parse_config_text(EP_SUB)
    text = serialize_config(cfg)
    again = parse_config_text(text)
    assert again.values == cfg.values
    assert serialize_config(again) == text
    assert config_hash(again) == config_hash(cfg)


def test_config_bool_parsing():
    cfg = parse_config_text("[integrator]\nconfirm = false\n")
    assert cfg["integrator"]["confirm"] is False
    cfg = parse_config_text("[phase]\nrescaled = on\n")
    assert cfg["phase"]["rescaled"] is True


# ---------------------------------------------------------------------------
# classify

def test_classify_exit_bounded(tmp_path, capsys):
    rc = cli.main(["classify", "--config", write(tmp_path, "a.cfg", EP_SUB)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["verdict"] == "global-bounded"


def test_classify_exit_blowup(tmp_path, capsys):
    rc = cli.main(["classify", "--config", write(tmp_path, "a.cfg", EP_SUPER)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert out["verdict"] == "finite-time-blowup"
    assert 0.3 < out["t_estimate"] < 0.5


def test_classify_exit_inconclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "classify_cells",
        lambda cfg: [ClassificationOutcome(Verdict.INCONCLUSIVE, reason="test")])
    rc = cli.main(["classify", "--config", write(tmp_path, "a.cfg", EP_SUB)])
    assert rc == 3
    assert json.loads(capsys.readouterr().out)["reason"] == "test"


def test_usage_errors(tmp_path, capsys):
    assert cli.main(["classify", "--config", "/nonexistent.cfg"]) == 1
    bad = write(tmp_path, "bad.cfg", "[model]\nwrong = 1\n")
    assert cli.main(["classify", "--config", bad]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_builds_one_parser(capsys):
    # importing the CLI builds no parser; the first main() call builds the
    # one that every later call in the process parses with
    imported = subprocess.run(
        [sys.executable, "-c", "from radial_euler import cli; "
         "print(cli.build_parser.cache_info().currsize)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(radial_euler.__file__).parents[1])))
    assert imported.stdout.strip() == "0"
    cli.build_parser.cache_clear()
    assert cli.main(["--version"]) == 0
    assert cli.main(["classify", "--config", "/nonexistent.cfg"]) == 1
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert "radial-euler" in capsys.readouterr().out


def test_classify_alignment_model(tmp_path, capsys):
    cfg = """
[model]
kind = euler-alignment
n = 2

[alignment]
psi_min = 0.8
psi_max = 1.0
nu = 0.8
C0 = 0.1
kind = q
y0 = -1.5
"""
    rc = cli.main(["classify", "--config", write(tmp_path, "ea.cfg", cfg)])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "finite-time-blowup"


# ---------------------------------------------------------------------------
# sweep

SWEEP_CFG = """
[model]
kind = euler-poisson
n = 1

[integrator]
rel_tol = 1e-6
abs_tol = 1e-8

[sweep]
axis1 = p0
axis1_min = -3.0
axis1_max = 1.0
axis1_steps = 5
axis2 = rho0
axis2_min = 0.5
axis2_max = 2.0
axis2_steps = 4
"""


def test_sweep_deterministic_output(tmp_path, capsys):
    for name, text in (("s", SWEEP_CFG), ("ea", EA_SWEEP_CFG)):
        path = write(tmp_path, f"{name}.cfg", text)
        rc = cli.main(["sweep", "--config", path, "--out", str(tmp_path / f"{name}1"),
                       "--threads", "1"])
        assert rc == 0
        rc = cli.main(["sweep", "--config", path, "--out", str(tmp_path / f"{name}2"),
                       "--threads", "2"])
        assert rc == 0
        a = (tmp_path / f"{name}1" / "sweep.csv").read_bytes()
        b = (tmp_path / f"{name}2" / "sweep.csv").read_bytes()
        assert a == b
    lines = (tmp_path / "s1" / "sweep.csv").read_text().splitlines()
    assert lines[2].startswith("p0\\rho0,")
    assert len(lines) == 3 + 5


def test_sweep_single_cell_matches_classify(tmp_path, capsys):
    cfg = SWEEP_CFG.replace("axis1_min = -3.0", "axis1_min = -3.0"). \
        replace("axis1_steps = 5", "axis1_steps = 1"). \
        replace("axis2_steps = 4", "axis2_steps = 1")
    path = write(tmp_path, "s1.cfg", cfg)
    rc = cli.main(["sweep", "--config", path, "--out", str(tmp_path)])
    assert rc == 0
    body = (tmp_path / "sweep.csv").read_text().splitlines()[-1]
    assert body.split(",")[1] == "2"   # p0 = -3, rho0 = 0.5: blowup


def test_sweep_oversize_grid_refused(tmp_path, capsys):
    cfg = SWEEP_CFG.replace("axis1_steps = 5", "axis1_steps = 2000"). \
        replace("axis2_steps = 4", "axis2_steps = 2000")
    rc = cli.main(["sweep", "--config", write(tmp_path, "big.cfg", cfg)])
    assert rc == 1
    assert "refuse" in capsys.readouterr().err


EA_SWEEP_CFG = """
[model]
kind = euler-alignment
n = 2

[sweep]
axis1 = y0
axis1_min = -1.2
axis1_max = -0.4
axis1_steps = 3
axis2 = C0
axis2_min = 0.001
axis2_max = 0.2
axis2_steps = 3
"""


@pytest.mark.parametrize("base, old, new, key", [
    (SWEEP_CFG, "axis1 = p0", "axis1 = pO", "axis1 ="),       # typo of a state key
    (SWEEP_CFG, "axis1 = p0", "axis1 = C0", "axis1 ="),       # alignment key, EP model
    (SWEEP_CFG, "axis2 = rho0", "axis2 = p0", "axis1 and"),   # one axis twice
    (EA_SWEEP_CFG, "axis1 = y0", "axis1 = p0", "axis1 ="),    # state key, alignment model
    (SWEEP_CFG, "axis1_steps = 5", "axis1_steps = 0", "axis1_steps"),
    (SWEEP_CFG, "axis1_steps = 5", "axis1_steps = -3", "axis1_steps"),
    (EA_SWEEP_CFG, "axis2_steps = 3", "axis2_steps = 0", "axis2_steps"),
    (SWEEP_CFG, "axis1_min = -3.0", "axis1_min = nan", "axis1_min"),
    (SWEEP_CFG, "axis1_max = 1.0", "axis1_max = inf", "axis1_max"),
    (SWEEP_CFG, "axis2_min = 0.5", "axis2_min = -inf", "axis2_min"),
    (EA_SWEEP_CFG, "axis2_max = 0.2", "axis2_max = nan", "axis2_max"),
], ids=["typo", "alignment-key", "repeated", "state-key", "no-steps", "negative-steps",
        "no-steps-axis2", "nan-min", "inf-max", "inf-min-axis2", "nan-max-axis2"])
def test_sweep_bad_axis_refused(tmp_path, capsys, base, old, new, key):
    path = write(tmp_path, "bad.cfg", base.replace(old, new))
    rc = cli.main(["sweep", "--config", path, "--out", str(tmp_path)])
    assert rc == 1
    assert f"error: [sweep] {key}" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


# a 3 x 3 c = 0 grid whose p0 = -4 row blows up
SWEEP_3X3 = """
[model]
kind = euler-poisson
n = 1

[integrator]
{integrator}
[sweep]
axis1 = p0
axis1_min = -4.0
axis1_max = 1.0
axis1_steps = 3
axis2 = rho0
axis2_min = 0.5
axis2_max = 2.0
axis2_steps = 3
"""


@pytest.mark.parametrize("command", ["sweep", "classify"])
@pytest.mark.parametrize("key, value", [
    ("t_max", "-1.0"), ("t_max", "0.0"), ("t_max", "nan"), ("t_max", "inf"),
    ("rel_tol", "nan"), ("rel_tol", "inf"), ("abs_tol", "nan"), ("abs_tol", "inf"),
    ("magnitude_cap", "nan"), ("magnitude_cap", "inf"), ("h_max", "nan"),
])
def test_bad_integrator_setting_refused(tmp_path, capsys, command, key, value):
    # each of these once gave a plausible-looking wrong grid with exit 0
    # (t_max <= 0: all bounded; a NaN tolerance or cap: blowups inconclusive)
    # or an error that named no key
    settings = {"rel_tol": "1e-6", "abs_tol": "1e-8", key: value}
    text = SWEEP_3X3.format(integrator="".join(f"{k} = {v}\n" for k, v in settings.items()))
    if command == "classify":
        text += "\n[state]\np0 = -4.0\nrho0 = 1.0\n"
    rc = cli.main([command, "--config", write(tmp_path, "bad.cfg", text),
                   "--out", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"error: [integrator] {key} must be" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["classify", "sweep", "curves"])
@pytest.mark.parametrize("section, key, value", [
    ("model", "n", "inf"), ("model", "n", "nan"), ("model", "kappa", "nan"),
    ("model", "kappa", "inf"), ("model", "c", "nan"), ("model", "c", "inf"),
    ("model", "kappa_damp", "nan"), ("model", "kappa_damp", "-inf"),
    ("alignment", "nu", "nan"), ("alignment", "nu", "inf"), ("alignment", "psi_min", "nan"),
    ("alignment", "psi_max", "inf"), ("alignment", "C0", "nan"), ("alignment", "C0", "inf"),
])
def test_non_finite_model_setting_refused(tmp_path, capsys, command, section, key, value):
    # these once gave a plausible-looking grid or verdict with exit 0, or an
    # error that named no key (n = inf: "s0 must exceed -c/n = -0.0")
    if section == "model":
        text = f"[model]\nkind = euler-poisson\n{key} = {value}\n"
    else:
        text = (f"[model]\nkind = euler-alignment\nn = 2\n\n[alignment]\n{key} = {value}\n"
                "\n[sweep]\naxis1 = y0\naxis2 = C0\naxis2_min = 0\n")
    out = tmp_path / "out"
    rc = cli.main([command, "--config", write(tmp_path, "bad.cfg", text), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"error: [{section}] {key} must be finite" in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["classify", "sweep"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["p0", "q0", "s0", "rho0", "y0"])
def test_non_finite_state_refused(tmp_path, capsys, command, key, value):
    # n = 1 with rho0 = inf or nan started in the basin and printed
    # global-bounded with exit 0; other values said "initial state must be
    # finite" without naming the key.  A sweep refuses the value also where
    # an axis replaces it: an Euler-alignment sweep always varies y0.
    if key == "y0":
        section = "alignment"
        text = (f"[model]\nkind = euler-alignment\nn = 2\n\n[alignment]\ny0 = {value}\n"
                "\n[sweep]\naxis1 = y0\naxis2 = C0\naxis2_min = 0\n")
    else:
        section = "state"
        axis1, axis2 = [k for k in ("p0", "q0", "s0", "rho0") if k != key][:2]
        text = (f"[model]\nkind = euler-poisson\nn = 1\n\n[state]\n{key} = {value}\n"
                f"\n[sweep]\naxis1 = {axis1}\naxis2 = {axis2}\n")
    text += "axis1_steps = 3\naxis2_steps = 3\n"
    out = tmp_path / "out"
    rc = cli.main([command, "--config", write(tmp_path, "bad.cfg", text), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"error: [{section}] {key} must be finite, got {float(value)!r}" in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_sweep_3x3_grid(tmp_path, capsys):
    # the grid the refusals above guard: blowup exactly where p0 < -sqrt(2 rho0)
    text = SWEEP_3X3.format(integrator="rel_tol = 1e-6\nabs_tol = 1e-8\n")
    rc = cli.main(["sweep", "--config", write(tmp_path, "ok.cfg", text),
                   "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[3:]
    assert [row.split(",")[1:] for row in rows] == [["2", "2", "2"], ["2", "0", "0"],
                                                     ["0", "0", "0"]]


def test_sweep_json_format(tmp_path, capsys):
    path = write(tmp_path, "s.cfg", SWEEP_CFG)
    rc = cli.main(["sweep", "--config", path, "--out", str(tmp_path),
                   "--format", "json"])
    assert rc == 0
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert data["axis_names"] == ["p0", "rho0"]
    assert len(data["codes"]) == 5 and len(data["codes"][0]) == 4


def test_sweep_alignment_region_boundary(tmp_path, capsys):
    # (q0, C0) region: at C0 -> 0 the subcritical boundary sits at -psi_min
    cfg = """
[model]
kind = euler-alignment
n = 2

[alignment]
psi_min = 0.8
psi_max = 1.0
nu = 0.8
kind = q
side = +

[sweep]
axis1 = y0
axis1_min = -1.2
axis1_max = -0.4
axis1_steps = 9
axis2 = C0
axis2_min = 0.001
axis2_max = 0.2
axis2_steps = 4
"""
    path = write(tmp_path, "ea.cfg", cfg)
    rc = cli.main(["sweep", "--config", path, "--out", str(tmp_path)])
    assert rc == 0
    rows = [l.split(",") for l in (tmp_path / "sweep.csv").read_text()
            .splitlines()[3:]]
    first_col = {float(r[0]): int(r[1]) for r in rows}   # C0 ~ 0 column
    # bounded for q0 >= -0.8, blowup below, at the smallest envelope
    assert first_col[-0.4] == 0 and first_col[-0.7] == 0
    assert first_col[-0.9] == 2 and first_col[-1.2] == 2


def test_simulate_flocking_v_slope(tmp_path, capsys):
    cfg = """
[model]
kind = euler-alignment
n = 2

[alignment]
phi = power-law
phi_exponent = 0.5
phi_scale = 1.0

[initial]
rho_profile = indicator
rho_amp = 0.3
rho_radius = 1.0
u_profile = gaussian
u_amp = 0.4
u_width = 0.6
r_max = 1.0
profile_nodes = 201
n_paths = 60

[simulate]
t_end = 15.0
snapshots = 7
"""
    path = write(tmp_path, "fl.cfg", cfg)
    rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    cols = lines[1].split(",")
    it, iv = cols.index("t"), cols.index("V")
    data = np.array([[float(v) for v in l.split(",")] for l in lines[2:]])
    t, v = data[:, it], data[:, iv]
    slope = np.polyfit(t[1:], np.log(v[1:]), 1)[0]
    # nu = phi(2D) * mass with D the observed support (~1.05): comfortably
    # steeper than the guaranteed envelope rate
    mass = 0.3 * np.pi
    nu_env = mass / np.sqrt(1.0 + 2 * 1.2)
    assert slope <= -nu_env


def test_float_format_twelve_digits(tmp_path, capsys):
    path = write(tmp_path, "s.cfg", SWEEP_CFG)
    cli.main(["sweep", "--config", path, "--out", str(tmp_path)])
    line = (tmp_path / "sweep.csv").read_text().splitlines()[3]
    assert re.match(r"^-?\d\.\d{12}e[+-]\d{2},", line)


# ---------------------------------------------------------------------------
# curves

def test_curves_endpoints_and_one_dimension(tmp_path, capsys):
    cfg = """
[model]
kind = euler-alignment
n = 1

[alignment]
psi_min = 0.8
psi_max = 1.0
nu = 0.8

[curves]
x_max = 0.3
samples = 50
"""
    path = write(tmp_path, "c.cfg", cfg)
    assert cli.main(["curves", "--config", path, "--out", str(tmp_path)]) == 0
    rows = [l.split(",") for l in (tmp_path / "curves.csv").read_text()
            .splitlines() if l and not l.startswith(("#", "curve"))]
    by_curve = {}
    for kind, x, v in rows:
        by_curve.setdefault(kind, []).append((float(x), float(v)))
    assert by_curve["sigma_q_plus"][0][1] == pytest.approx(-0.8, abs=1e-9)
    assert by_curve["sigma_q_minus"][0][1] == pytest.approx(-1.0, abs=1e-9)
    for kind in ("sigma_G_plus", "sigma_G_minus"):
        assert all(v == 0.0 for _, v in by_curve[kind])


def test_curves_ep_unsupported_marker(tmp_path, capsys):
    cfg = """
[model]
kind = euler-poisson
n = 2

[curves]
include_ep = true
samples = 20
x_max = 0.2
"""
    path = write(tmp_path, "c2.cfg", cfg)
    assert cli.main(["curves", "--config", path, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "curves.csv").read_text()
    assert "# ep_w0_threshold: unsupported" in text


def test_curves_ep_threshold_emitted(tmp_path, capsys):
    cfg = """
[model]
kind = euler-poisson
n = 3

[curves]
include_ep = true
samples = 10
x_max = 0.2
ep_q0 = 1.0
ep_s0 = 0.01
"""
    path = write(tmp_path, "c3.cfg", cfg)
    assert cli.main(["curves", "--config", path, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "curves.csv").read_text()
    assert "ep_w0_threshold," in text


SIM_SMALL = """
[model]
kind = {kind}
n = 2

[alignment]
phi = {phi}

[initial]
rho_profile = {rho}
u_profile = {u}
profile_nodes = 101
n_paths = 10

[simulate]
t_end = 1.0
snapshots = 2
"""


CURVES_EP = """
[model]
kind = euler-poisson
n = 3

[curves]
include_ep = true
samples = 10
x_max = 0.2
v0_max = 2.0
ep_q0 = 1.0
ep_s0 = 0.01
"""

PHASE = """
[model]
kind = euler-poisson
n = 2

[phase]
seeds = 1:1
t_end = 5.0
samples = 10
"""


def _with_setting(text, key, value):
    return re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)


@pytest.mark.parametrize("command, key, value", [
    ("curves", "samples", "0"), ("curves", "samples", "-3"),
    ("curves", "x_max", "nan"), ("curves", "x_max", "inf"), ("curves", "x_max", "0.0"),
    ("curves", "x_max", "-1.0"),
    ("curves", "v0_max", "nan"), ("curves", "v0_max", "inf"), ("curves", "v0_max", "0.0"),
    ("curves", "v0_max", "-2.0"),
    ("phase-portrait", "t_end", "nan"), ("phase-portrait", "t_end", "inf"),
    ("phase-portrait", "t_end", "0.0"), ("phase-portrait", "t_end", "-1.0"),
    ("phase-portrait", "samples", "0"), ("phase-portrait", "samples", "-3"),
])
def test_bad_output_setting_refused(tmp_path, capsys, command, key, value):
    # each of these once wrote a header-only or NaN file with exit 0, or
    # failed with a message that named no [section] key
    section, base, artifact = (("curves", CURVES_EP, "curves.csv") if command == "curves"
                               else ("phase", PHASE, "portrait.csv"))
    out = tmp_path / "out"
    rc = cli.main([command, "--config",
                   write(tmp_path, "bad.cfg", _with_setting(base, key, value)),
                   "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: [{section}] {key} must be ")
    assert captured.out == ""
    assert not (out / artifact).exists()


_SIM_EP = SIM_SMALL.format(kind="euler-poisson", phi="constant", rho="gaussian-bump",
                           u="rexp")


@pytest.mark.parametrize("command, base, fmt, flag, message", [
    ("sweep", SWEEP_CFG, "xml", False, "[output] format must be csv or json, got 'xml'"),
    *((command, base, "json", flag,
       f"{'--format' if flag else '[output] format'} json: {command} writes csv only; "
       "json applies to sweep")
      for command, base in (("curves", CURVES_EP), ("phase-portrait", PHASE),
                            ("simulate", _SIM_EP))
      for flag in (True, False)),
], ids=["sweep-xml", "curves-flag", "curves-config", "phase-portrait-flag",
        "phase-portrait-config", "simulate-flag", "simulate-config"])
def test_bad_output_format_refused(tmp_path, capsys, command, base, fmt, flag, message):
    # a format other than csv or json once made sweep write sweep.csv with exit 0,
    # and json once made curves, phase-portrait and simulate write csv with exit 0
    out = tmp_path / "out"
    text = base if flag else base + f"\n[output]\nformat = {fmt}\n"
    rc = cli.main([command, "--config", write(tmp_path, "bad.cfg", text), "--out", str(out)]
                  + (["--format", fmt] if flag else []))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_classify_prints_json_whatever_the_format(tmp_path, capsys, fmt):
    rc = cli.main(["classify", "--config", write(tmp_path, "a.cfg", EP_SUB), "--format", fmt])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "global-bounded"


# one config that every writing command reads, so all artifacts share one hash
ALL_COMMANDS_CFG = """
[model]
kind = euler-poisson
n = 3

[state]
q0 = 1.0
s0 = 0.01

[sweep]
axis1_min = -2.0
axis1_max = 0.0
axis1_steps = 2
axis2_min = 0.5
axis2_max = 1.0
axis2_steps = 2

[curves]
samples = 5
x_max = 0.2

[phase]
seeds = 1:1
t_end = 5.0
samples = 5

[initial]
u_profile = rexp
profile_nodes = 101
n_paths = 10

[simulate]
t_end = 1.0
snapshots = 2
"""


def test_every_artifact_carries_one_provenance_line(tmp_path, capsys):
    # sweep artifacts once carried the tool name without its version
    path = write(tmp_path, "run.cfg", ALL_COMMANDS_CFG)
    line = (f"config_sha256={config_hash(parse_config_text(ALL_COMMANDS_CFG))} "
            f"tool=radial-euler {radial_euler.__version__}")
    out = tmp_path / "out"
    for command, fmt in (("sweep", "csv"), ("sweep", "json"), ("curves", "csv"),
                         ("phase-portrait", "csv"), ("simulate", "csv")):
        assert cli.main([command, "--config", path, "--out", str(out),
                         "--format", fmt]) == 0, command
    assert json.loads((out / "sweep.json").read_text())["provenance"] == line
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert csvs == ["curves.csv", "diagnostics.csv", "portrait.csv", "snapshot_000.csv",
                    "snapshot_001.csv", "sweep.csv"]
    for name in csvs:
        assert (out / name).read_text().splitlines()[0] == f"# {line}", name


@pytest.mark.parametrize("command, key, value, message", [
    ("curves", "which", "sigma_q_plus,", "unknown curve kind ''"),
    ("phase-portrait", "seeds", "1:1, 0.5", "bad seed '0.5'; expected q0:s0"),
    ("phase-portrait", "seeds", ",", "phase portrait needs at least one seed"),
    # non-finite seeds once reached the integrator, which named no key
    ("phase-portrait", "seeds", "nan:0.1", "seed 'nan:0.1' must be finite"),
    ("phase-portrait", "seeds", "1:1, 1:inf", "seed '1:inf' must be finite"),
    ("phase-portrait", "seeds", "-inf:0.5", "seed '-inf:0.5' must be finite"),
], ids=["curves-which", "phase-bad-seed", "phase-no-seed", "phase-nan-seed",
        "phase-inf-seed", "phase-minus-inf-seed"])
def test_refusal_names_its_key(tmp_path, capsys, command, key, value, message):
    # these refusals once named no [section] key
    section, base, artifact = (("curves", CURVES_EP, "curves.csv") if command == "curves"
                               else ("phase", PHASE, "portrait.csv"))
    text = (base + f"{key} = {value}\n" if command == "curves"
            else _with_setting(base, key, value))
    out = tmp_path / "out"
    rc = cli.main([command, "--config", write(tmp_path, "bad.cfg", text), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"error: [{section}] {key}: {message}\n"
    assert not (out / artifact).exists()


def test_curves_x_max_inside_series_offset_refused(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["curves", "--config",
                   write(tmp_path, "bad.cfg", _with_setting(CURVES_EP, "x_max", "5e-7")),
                   "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: [curves] x_max must be above the series start "
                                   "offset 1e-06")
    assert not (out / "curves.csv").exists()


def test_curves_unknown_kind_refused_before_any_curve(tmp_path, capsys, monkeypatch):
    # an unknown kind after two valid ones once cost two curve integrations
    calls = []
    monkeypatch.setattr(cli, "enhanced_curve",
                        lambda *args, **kw: calls.append(args) or cli.enhanced_curve(*args))
    out = tmp_path / "out"
    text = CURVES_EP + "which = sigma_q_plus, sigma_G_plus, bogus\n"
    rc = cli.main(["curves", "--config", write(tmp_path, "bad.cfg", text), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: [curves] which: unknown curve kind 'bogus'\n"
    assert calls == []
    assert not (out / "curves.csv").exists()


_KINDS ="['euler-poisson', 'euler-alignment', 'inviscid-burgers', 'damped-burgers']"


def _in_initial(text, lines):
    """A SIM_SMALL config with ``lines`` added to its [initial] section."""
    return text.replace("[initial]\n", f"[initial]\n{lines}\n", 1)


@pytest.mark.parametrize("command, text, message", [
    ("classify", "[state]\nrho0 = -1\n", "[state] rho0 must be nonnegative, got -1.0"),
    ("classify", "[model]\nn = 3\n\n[state]\ns0 = -1\n",
     "[state] s0 must be greater than -c/n = 0.0, got -1.0"),
    ("classify", "[model]\nn = 2\nc = 1\n\n[state]\ns0 = -0.5\n",
     "[state] s0 must be greater than -c/n = -0.5, got -0.5"),
    ("sweep", "[sweep]\naxis2_min = -1\naxis1_steps = 3\naxis2_steps = 3\n",
     "[sweep] axis2_min must be nonnegative, got -1.0"),
    ("sweep", "[model]\nn = 3\n\n[sweep]\naxis1 = s0\naxis1_min = 1\naxis1_max = -1\n"
     "axis1_steps = 3\naxis2_steps = 3\n",
     "[sweep] axis1_max must be greater than -c/n = 0.0, got -1.0"),
    ("sweep", "[sweep]\naxis1_steps = 2000\naxis2_steps = 1000\n",
     "[sweep] axis1_steps * axis2_steps = 2000000 cells; refuse to run more than 1000000"),
    ("curves", "[curves]\nx_max = 5e-7\n",
     "[curves] x_max must be above the series start offset 1e-06, got 5e-07"),
    ("classify", "[model]\nkind = euler-poison\n",
     f"[model] kind must be one of {_KINDS}, got 'euler-poison'"),
    ("simulate", _SIM_EP.replace("profile_nodes = 101", "profile_nodes = 1"),
     "[initial] profile_nodes must be at least 2, got 1"),
    ("simulate", _in_initial(_SIM_EP, "r_max = -1"),
     "[initial] r_max must be finite and positive, got -1.0"),
    ("simulate", _in_initial(_SIM_EP, "rho_width = 0"),
     "[initial] rho_width must be finite and positive, got 0.0"),
    ("simulate", _in_initial(_SIM_EP, "rho_amp = nan"),
     "[initial] rho_amp must be finite and nonnegative, got nan"),
    ("simulate", _in_initial(_SIM_EP, "u_amp = inf"),
     "[initial] u_amp must be finite, got inf"),
    ("classify", "[model]\nkind = euler-alignment\n\n[alignment]\nkind = x\n",
     "[alignment] kind must be 'q' or 'G', got 'x'"),
    ("sweep", "[model]\nkind = euler-alignment\nn = 2\n\n[alignment]\nside = x\n"
     "\n[sweep]\naxis1 = y0\naxis2 = C0\naxis2_min = 0\naxis1_steps = 3\naxis2_steps = 3\n",
     "[alignment] side must be '+' or '-', got 'x'"),
    ("simulate", _SIM_EP.replace("t_end = 1.0", "t_end = inf"),
     "[simulate] t_end must be finite and positive, or 0 with a single snapshot, got inf"),
    ("simulate", _SIM_EP.replace("n = 2", "n = 2.5"),
     "[model] n must be an integer of at most 343 to simulate, got 2.5"),
], ids=["state-rho0", "state-s0", "state-s0-background", "sweep-rho0-min", "sweep-s0-max",
        "sweep-cells", "curves-x_max", "model-kind", "profile-nodes", "profile-r_max",
        "profile-rho_width", "profile-rho_amp", "profile-u_amp", "alignment-kind",
        "alignment-side", "simulate-t_end", "simulate-n"])
def test_refusal_names_the_key_of_its_value(tmp_path, capsys, command, text, message):
    # these refusals once named no [section] key, or named the state
    # variable where the value came from a sweep axis end, the factory
    # argument or the integrator setting it became
    out = tmp_path / "out"
    rc = cli.main([command, "--config", write(tmp_path, "bad.cfg", text), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(out.iterdir()) == []


def test_unread_profile_and_influence_keys_are_not_refused(tmp_path, capsys):
    # an indicator density reads no r_max, a linear velocity no u_width and
    # a power-law influence no phi_value; the [alignment] D no command reads
    text = _in_initial(SIM_SMALL.format(kind="euler-alignment", phi="power-law",
                                        rho="indicator", u="linear"), "r_max = -1\nu_width = 0")
    text = text.replace("phi = power-law", "phi = power-law\nphi_value = nan\nD = -1")
    assert cli.main(["simulate", "--config", write(tmp_path, "u.cfg", text),
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "metadata.json").exists()


def test_state_rule_skips_a_value_an_axis_replaces(tmp_path, capsys):
    # the config's rho0 = -1 is never used: the rho0 axis replaces it
    text = "[state]\nrho0 = -1\n\n[sweep]\naxis1_steps = 2\naxis2_steps = 2\n"
    assert cli.main(["sweep", "--config", write(tmp_path, "s.cfg", text),
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").exists()


def test_version_is_the_one_in_pyproject():
    # the provenance line prints radial_euler.__version__; the package
    # metadata takes the version from pyproject.toml
    import tomllib
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == radial_euler.__version__


def test_curves_v0_max_read_only_with_ep_threshold(tmp_path, capsys):
    text = _with_setting(CURVES_EP, "include_ep", "false")
    path = write(tmp_path, "c.cfg", _with_setting(text, "v0_max", "nan"))
    assert cli.main(["curves", "--config", path, "--out", str(tmp_path)]) == 0
    assert "ep_w0_threshold" not in (tmp_path / "curves.csv").read_text()


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_snapshots_and_diagnostics(tmp_path, capsys):
    cfg = """
[model]
kind = euler-poisson
n = 3

[initial]
rho_profile = gaussian-bump
rho_amp = 1.0
rho_width = 1.0
r_max = 2.5
u_profile = rexp
u_amp = 1.0
u_width = 4.0
profile_nodes = 401
n_paths = 30

[simulate]
t_end = 5.0
snapshots = 3
"""
    path = write(tmp_path, "sim.cfg", cfg)
    rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "snapshot_000.csv").exists()
    assert (tmp_path / "snapshot_002.csv").exists()
    assert (tmp_path / "diagnostics.csv").exists()
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["blowup"] is None
    header = (tmp_path / "snapshot_000.csv").read_text().splitlines()[2]
    assert header == "r,rho,u,p,q"


def test_simulate_crossing_exit_code(tmp_path, capsys):
    cfg = """
[model]
kind = euler-alignment
n = 1

[alignment]
phi = constant
phi_value = 1.0

[initial]
rho_profile = indicator
rho_amp = 0.25
rho_radius = 1.0
u_profile = linear
u_amp = -0.75
profile_nodes = 201
n_paths = 60

[simulate]
t_end = 12.0
snapshots = 4
"""
    path = write(tmp_path, "simx.cfg", cfg)
    rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
    assert rc == 2
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["blowup"]["kind"] == "crossing"
    assert meta["blowup"]["time"] > 0


@pytest.mark.parametrize("kind, phi, rho, u, library", [
    ("euler-poisson", "constant", "top-hat", "linear", DENSITY_LIBRARY),
    ("euler-poisson", "constant", "indicator", "swirl", VELOCITY_LIBRARY),
    ("euler-alignment", "gaussian", "indicator", "linear", INFLUENCE_LIBRARY),
    ("euler-alignment", "", "indicator", "linear", INFLUENCE_LIBRARY),
], ids=["rho_profile", "u_profile", "phi", "phi-default"])
def test_simulate_unknown_library_name(tmp_path, capsys, kind, phi, rho, u, library):
    cfg = SIM_SMALL.format(kind=kind, phi=phi, rho=rho, u=u)
    rc = cli.main(["simulate", "--config", write(tmp_path, "u.cfg", cfg),
                   "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert str(sorted(library)) in err
    assert not (tmp_path / "metadata.json").exists()


@pytest.mark.parametrize("kind, key, value", [
    ("euler-alignment", "n_paths", "1"),
    ("euler-alignment", "n_paths", "0"),
    ("euler-alignment", "t_end", "0"),
    ("euler-alignment", "t_end", "-1"),
    ("euler-alignment", "snapshots", "0"),
    ("euler-alignment", "theta_order", "0"),
    ("euler-alignment", "dt", "-1"),
    ("euler-poisson", "n_paths", "0"),
    ("euler-poisson", "t_end", "0"),
    ("euler-poisson", "snapshots", "0"),
])
def test_simulate_bad_run_size_refused(tmp_path, capsys, kind, key, value):
    cfg = SIM_SMALL.format(kind=kind, phi="power-law", rho="gaussian-bump", u="rexp")
    line = re.compile(rf"^{key} = .*$", re.M)
    cfg = (line.sub(f"{key} = {value}", cfg) if line.search(cfg)
           else cfg + f"{key} = {value}\n")
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", write(tmp_path, "bad.cfg", cfg),
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and f"] {key} must be" in err
    assert list(out.iterdir()) == []


def _config_text(sections):
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for section, keys in sections.items())


def _patched(base, section, key, value):
    sections = {name: dict(keys) for name, keys in base.items()}
    sections.setdefault(section, {})[key] = value
    return _config_text(sections)


# small runs of each command that reads numeric keys a user may get wrong
_SIM_BASE = {"model": {"kind": "euler-alignment", "n": 2}, "alignment": {"phi": "power-law"},
             "initial": {"n_paths": 12, "profile_nodes": 51},
             "simulate": {"t_end": 1, "snapshots": 2, "theta_order": 4}}
_BAD_INPUT_BASES = {
    "simulate-ea": ("simulate", _SIM_BASE),
    "simulate-ep": ("simulate", {**_SIM_BASE, "model": {"kind": "euler-poisson", "n": 2}}),
    "curves": ("curves", {"model": {"n": 3}, "curves": {"include_ep": "true", "samples": 5}}),
}
# the base the runs of the holes below start from
_EA_HOLE_BASE = {"model": {"kind": "euler-alignment", "n": 2}, "alignment": {"phi": "power-law"},
                 "initial": {"n_paths": 20, "profile_nodes": 101},
                 "simulate": {"t_end": 1, "snapshots": 2, "theta_order": 8}}
_EP_HOLE_BASE = {**_EA_HOLE_BASE, "model": {"kind": "euler-poisson", "n": 2}}
_CURVES_HOLE_BASE = {"model": {"n": 3}, "curves": {"include_ep": "true", "samples": 5}}
# the benchmark's simulate-ep config
_EP_BENCH_BASE = {"model": {"kind": "euler-poisson", "n": 3, "kappa": 1, "c": 0},
                  "initial": {"rho_profile": "gaussian-bump", "rho_amp": 1, "rho_width": 1,
                              "r_max": 2.5, "profile_nodes": 801, "u_profile": "rexp",
                              "u_amp": 1, "u_width": 4, "n_paths": 300},
                  "simulate": {"t_end": 20, "snapshots": 11}}
_EP_1D_BASE = {**_EP_BENCH_BASE, "model": {**_EP_BENCH_BASE["model"], "n": 1}}
# the benchmark's simulate-ea config
_EA_BENCH_BASE = {"model": {"kind": "euler-alignment", "n": 2, "kappa": 1},
                  "alignment": {"phi": "power-law", "phi_exponent": 0.5, "phi_scale": 1,
                                "D": 1.6},
                  "initial": {"rho_profile": "indicator", "rho_amp": 0.3, "rho_radius": 1,
                              "profile_nodes": 201, "u_profile": "gaussian", "u_amp": 0.4,
                              "u_width": 0.6, "r_max": 1, "n_paths": 80},
                  "simulate": {"t_end": 25, "snapshots": 11, "theta_order": 32}}
_EA_RADIUS = "[initial] rho_radius must keep the PCHIP pieces of a 201-node profile finite, got "
_EP_SHELLS = ("[initial] r_max must keep the spacing, shell volumes, moments and s of 300 "
              "paths in n = ")
_STEPS = ("[simulate] t_end and dt, or [initial] rho_amp if dt = 0: "
          "the RK4 step count t_end / dt must be at most 1000000, got ")
_PSI_MAX = ("[initial] rho_amp and [alignment] phi_value: "
            "the influence bound psi_max must be finite and positive, got 0.0")
# (command, base, section, key, value, exit code, start of the error line)
_HOLES = {
    "ea-t_end-inf": ("simulate", _EA_HOLE_BASE, "simulate", "t_end", "inf", 1,
                     "[simulate] t_end must be finite and positive, got inf"),
    "ea-t_end-1e300": ("simulate", _EA_HOLE_BASE, "simulate", "t_end", "1e300", 1, _STEPS),
    "ea-dt-1e-300": ("simulate", _EA_HOLE_BASE, "simulate", "dt", "1e-300", 1, _STEPS),
    "ea-rho_amp-1e300": ("simulate", _EA_HOLE_BASE, "initial", "rho_amp", "1e300", 1, _STEPS),
    "ea-rho_amp-0": ("simulate", _EA_HOLE_BASE, "initial", "rho_amp", "0", 1, _PSI_MAX),
    # the shell volumes r^n underflow
    "ea-r_max-1e-300": ("simulate", _EA_HOLE_BASE, "initial", "r_max", "1e-300", 1,
                        "[initial] r_max must keep the spacing, shell volumes and moments of 20 "
                        "paths in n = 2 in float range, got 1e-300"),
    "ea-phi_scale-0": ("simulate", _EA_HOLE_BASE, "alignment", "phi_scale", "0", 1,
                       "[alignment] phi_scale must be finite and positive, got 0.0"),
    "ea-phi_exponent-nan": ("simulate", _EA_HOLE_BASE, "alignment", "phi_exponent", "nan", 1,
                            "[alignment] phi_exponent must be finite and nonnegative, got nan"),
    "ea-phi_exponent--inf": ("simulate", _EA_HOLE_BASE, "alignment", "phi_exponent", "-inf", 1,
                             "[alignment] phi_exponent must be finite and nonnegative, "
                             "got -inf"),
    "ea-phi_scale-nan": ("simulate", _EA_HOLE_BASE, "alignment", "phi_scale", "nan", 1,
                         "[alignment] phi_scale must be finite and positive, got nan"),
    "ea-phi_scale--1": ("simulate", _EA_HOLE_BASE, "alignment", "phi_scale", "-1", 1,
                        "[alignment] phi_scale must be finite and positive, got -1.0"),
    "ea-u_amp-1e300": ("simulate", _EA_HOLE_BASE, "initial", "u_amp", "1e300", 3, None),
    "ea-rho_radius-1e300": ("simulate", _EA_BENCH_BASE, "initial", "rho_radius", "1e300", 1,
                            _EA_RADIUS + "1e+300"),
    "ea-rho_radius-1e-300": ("simulate", _EA_BENCH_BASE, "initial", "rho_radius", "1e-300", 1,
                             _EA_RADIUS + "1e-300"),
    # passes the profile's range check, but the shell moments r^(n + 2) overflow
    "ea-rho_radius-1e90": ("simulate", _EA_BENCH_BASE, "initial", "rho_radius", "1e90", 1,
                           "[initial] rho_radius must keep the spacing, shell volumes and moments "
                           "of 80 paths in n = 2 in float range, got 1e+90"),
    # the inner shell volumes r^343 are normal floats, but their measures
    # sphere_area(343) / 343 times the volumes underflow to 0
    "ea-n-343": ("simulate", _EA_HOLE_BASE, "model", "n", "343", 1,
                 "[initial] r_max must keep the spacing, shell volumes and moments of 20 "
                 "paths in n = 343 in float range, got 4.0"),
    "ep-n-1e300": ("simulate", _EP_HOLE_BASE, "model", "n", "1e300", 1,
                   "[model] n must be an integer of at most 343 to simulate, got 1e+300"),
    # the seeding checks the squared slopes of the paths, at most u_amp^2
    "ep-u_amp-1e300": ("simulate", _EP_BENCH_BASE, "initial", "u_amp", "1e300", 1,
                       "[initial] u_amp must keep the squared slopes p^2 and q^2 of 300 paths "
                       "finite, got 9.99e+299"),
    "ep-r_max-1e-300": ("simulate", _EP_BENCH_BASE, "initial", "r_max", "1e-300", 1,
                        _EP_SHELLS + "3 in float range, got 1e-300"),
    "ep-r_max-1e300": ("simulate", _EP_BENCH_BASE, "initial", "r_max", "1e300", 1,
                       "[initial] r_max must keep the PCHIP pieces of a 801-node profile "
                       "finite, got 1e+300"),
    "ep-n-343": ("simulate", _EP_BENCH_BASE, "model", "n", "343", 1,
                 _EP_SHELLS + "343 in float range, got 2.5"),
    # in n = 1 the shell volumes stay in range, but the squared spacing underflows
    "ep-n-1-r_max-1e-300": ("simulate", _EP_1D_BASE, "initial", "r_max", "1e-300", 1,
                            _EP_SHELLS + "1 in float range, got 1e-300"),
    "curves-ep_q0-1e300": ("curves", _CURVES_HOLE_BASE, "curves", "ep_q0", "1e300", 3,
                           "(q_hat, s_hat) run stopped at t_hat = 0 of 40: non-finite rhs"),
}


def _run_bad_input(tmp_path, capsys, command, text):
    """Run ``command`` on ``text`` in process: its exit code, stderr and artifacts."""
    out = tmp_path / "out"
    rc = cli.main([command, "--config", write(tmp_path, "bad.cfg", text), "--out", str(out)])
    artifacts = {f.name: f.read_text() for f in out.iterdir()} if out.exists() else {}
    return rc, capsys.readouterr().err, artifacts


def _reject_constant(name):
    raise ValueError(f"{name} in JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(_HOLES))
def test_bad_input_hole_ends_cleanly(tmp_path, capsys, name):
    # each of these once raised a traceback, wrote NaN rows and a
    # "radius": NaN that is not JSON, or printed nan threshold rows with exit 0
    command, base, section, key, value, code, message = _HOLES[name]
    rc, err, artifacts = _run_bad_input(tmp_path, capsys, command,
                                        _patched(base, section, key, value))
    assert rc == code
    if message is not None:
        assert err.startswith(f"error: {message}")
        assert artifacts == {}
    else:
        # a real step collapse: the report names the path's last finite radius
        blowup = json.loads(artifacts["metadata.json"],
                            parse_constant=_reject_constant)["blowup"]
        assert blowup["kind"] == "step-collapse"
        assert blowup["radius"] is None or math.isfinite(blowup["radius"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("u_amp, u_width", [("1e150", "1e-10"), ("1.3e154", "1e-3"),
                                            ("-1.3e154", "4"), ("1e200", "1e-10"),
                                            ("-1e300", "1e-10")])
def test_ep_velocity_slope_bound_holds_for_any_width(tmp_path, capsys, u_amp, u_width):
    # the slope of a library velocity is at most |u_amp| whatever u_width is,
    # and the seeding refuses only slopes whose squares overflow on the paths:
    # a u_amp past sqrt(max float) whose velocity has decayed by the first
    # path runs to a blowup or step-collapse report
    base = {**_EP_BENCH_BASE, "initial": {**_EP_BENCH_BASE["initial"], "u_amp": u_amp}}
    rc, err, artifacts = _run_bad_input(tmp_path, capsys, "simulate",
                                        _patched(base, "initial", "u_width", u_width))
    assert rc in (2, 3) and err == ""
    assert json.loads(artifacts["metadata.json"], parse_constant=_reject_constant)["blowup"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["euler-poisson", "inviscid-burgers"])
def test_simulate_runs_an_ensemble_in_one_dimension(tmp_path, capsys, kind):
    # n = 1 once crashed with an OverflowError before the run started
    rc, err, artifacts = _run_bad_input(tmp_path, capsys, "simulate",
                                        _patched(_EP_1D_BASE, "model", "kind", kind))
    assert rc == 0 and err == "" and len(artifacts) == 13
    assert not any(re.search(r"(?i)\b(nan|inf)\b", body) for body in artifacts.values())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_writes_the_density_of_a_tiny_support(tmp_path, capsys):
    # the benchmark's Euler-Poisson run on a support of radius 1e-100, whose
    # inner shell volumes lie below 1e-300: every path starts at the bump's 1
    rc, err, artifacts = _run_bad_input(tmp_path, capsys, "simulate",
                                        _patched(_EP_BENCH_BASE, "initial", "r_max", "1e-100"))
    assert rc == 0 and err == ""
    rows = [line.split(",") for line in artifacts["snapshot_000.csv"].splitlines()
            if not line.startswith("#")]
    rho = [float(row[rows[0].index("rho")]) for row in rows[1:]]
    assert rho == pytest.approx([1.0] * 300, rel=1e-12)


# two ensembles in n = 343 that expand until their outer shell volume r^343
# leaves float range, and a contracting one whose density is too small to blow
# up, whose inner shell keeps a normal volume while its measure underflows:
# (base, snapshots kept, stop time, path, its radius)
_SHELL_OVERFLOWS = {
    "euler-poisson": ({**_EP_BENCH_BASE, "model": {**_EP_BENCH_BASE["model"], "n": 343},
                       "initial": {**_EP_BENCH_BASE["initial"], "n_paths": 2}},
                      2, 4.0, 1, 6.568383178, "shell-overflow"),
    "euler-alignment": ({"model": {"kind": "euler-alignment", "n": 343},
                         "alignment": {"phi": "constant", "phi_value": 1},
                         "initial": {"rho_profile": "indicator", "rho_amp": 0.3,
                                     "rho_radius": 5, "r_max": 5, "profile_nodes": 201,
                                     "u_profile": "linear", "u_amp": 1, "n_paths": 4},
                         "simulate": {"t_end": 5, "snapshots": 6, "theta_order": 4,
                                      "dt": 0.01}},
                        1, 1.0, 3, 8.749999613, "shell-overflow"),
    "inviscid-burgers": ({"model": {"kind": "inviscid-burgers", "n": 343},
                          "initial": {"rho_profile": "constant", "rho_amp": 1e-300, "r_max": 2,
                                      "u_profile": "linear", "u_amp": -0.1, "n_paths": 2},
                          "simulate": {"t_end": 8, "snapshots": 9}},
                         5, 5.0, 0, 0.25, "shell-underflow"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(_SHELL_OVERFLOWS))
def test_simulate_stops_where_shell_volumes_overflow(tmp_path, capsys, kind):
    # the run keeps the snapshots before the one whose shell volumes leave
    # float range and exits 3, as a step collapse does; no artifact holds NaN
    # or inf (the Euler-Poisson case is the benchmark's run with two paths;
    # the inner shell of the contracting Burgers case shrinks below float range)
    base, kept, time, path, radius, shell = _SHELL_OVERFLOWS[kind]
    rc, err, artifacts = _run_bad_input(tmp_path, capsys, "simulate", _config_text(base))
    assert rc == 3 and err == ""
    meta = json.loads(artifacts["metadata.json"], parse_constant=_reject_constant)
    assert meta["snapshots"] == kept and sorted(artifacts) == [
        "diagnostics.csv", "metadata.json", *(f"snapshot_{i:03d}.csv" for i in range(kept))]
    assert meta["blowup"] == {"kind": shell, "path_index": path, "time": time,
                              "radius": pytest.approx(radius)}
    assert not any(re.search(r"(?i)\b(nan|inf)\b", body) for body in artifacts.values())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("support", ["1e7", "1e9", "1e12"])
def test_expanding_ensemble_radius_is_no_blowup(tmp_path, capsys, support):
    # the path radii pass the 1e8 magnitude cap, which watches only p, q, s
    # and rho: a radius past it is no blowup
    base = {"model": {"kind": "euler-poisson", "n": 3},
            "initial": {"rho_profile": "gaussian-bump", "rho_amp": 1e-18,
                        "rho_width": float(support) / 2, "r_max": support,
                        "u_profile": "linear", "u_amp": 0.1, "n_paths": 30},
            "simulate": {"t_end": 1, "snapshots": 3}}
    rc, err, artifacts = _run_bad_input(tmp_path, capsys, "simulate", _config_text(base))
    assert rc == 0 and err == ""
    assert json.loads(artifacts["metadata.json"], parse_constant=_reject_constant) == {
        "blowup": None, "n_paths": 30, "snapshots": 3}
    assert not any(re.search(r"(?i)\b(nan|inf)\b", body) for body in artifacts.values())


def _extremes_config(kind, n, paths, support, amp, u_amp=None):
    """A simulate config of the combined-extremes grid: every length scale is
    ``support``, the density amplitude is ``amp`` and the velocity's is
    ``u_amp`` (default ``amp``)."""
    if kind == "euler-alignment":
        initial = {"rho_profile": "indicator", "rho_radius": support,
                   "u_profile": "gaussian", "u_width": float(support) / 2}
        extra = {"alignment": {"phi": "constant"}}
    else:
        initial = {"rho_profile": "gaussian-bump", "rho_width": float(support) / 2,
                   "u_profile": "rexp", "u_width": support}
        extra = {}
    return _config_text({"model": {"kind": kind, "n": n}, **extra,
                         "initial": {**initial, "r_max": support, "rho_amp": amp,
                                     "u_amp": amp if u_amp is None else u_amp,
                                     "profile_nodes": 201, "n_paths": paths},
                         "simulate": {"t_end": 1, "snapshots": 3}})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 3, 343])
@pytest.mark.parametrize("kind", ["euler-poisson", "inviscid-burgers", "euler-alignment"])
def test_simulate_extremes_end_finite_or_refused(tmp_path, capsys, kind, n):
    # supports from 1e-100 to 1e10 and amplitudes from 1e-300 to 1e150
    # together, rather than one key at a time: each run is refused with one
    # error line and no artifact, or writes only finite numbers, and none
    # reports a path radius as a blowup.  The runs cover the shell-measure
    # refusal, the radius past the cap and PCHIP slopes of tiny amplitudes
    # on wide supports.  A contracting velocity (u_amp -1) on the smallest
    # support reaches the mid-run shell-measure stop in n = 3.
    runs = [(paths, support, amp, amp) for paths, support, amp in itertools.product(
        (2, 30), ("1e-100", "1", "1e10"), ("1e-300", "1", "1e150"))]
    runs += [(30, "1e-100", amp, "-1") for amp in ("1e-300", "1", "1e150")]
    stops = set()
    for paths, support, amp, u_amp in runs:
        case = tmp_path / f"{paths}-{support}-{amp}-{u_amp}"
        case.mkdir()
        rc, err, artifacts = _run_bad_input(case, capsys, "simulate", _extremes_config(
            kind, n, paths, support, amp, u_amp))
        where = (paths, support, amp, u_amp, rc, err)
        if rc == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, where
            assert artifacts == {}, where
            continue
        assert rc in (0, 2, 3) and err == "", where
        for name, body in artifacts.items():
            assert not re.search(r"(?i)\b(nan|inf|infinity)\b", body), (where, name)
        blowup = json.loads(artifacts["metadata.json"], parse_constant=_reject_constant)["blowup"]
        assert blowup is None or blowup["kind"] != "r", where
        stops.add(blowup and blowup["kind"])
    assert ("shell-underflow" in stops) == (n == 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("support", ["1e-100", "1"])
def test_alignment_path_through_the_origin_is_a_crossing(tmp_path, capsys, n, support):
    # an RK4 step that carries the first path past the origin ends the run as
    # a crossing of that path with its mirror image (exit 2), before any
    # snapshot reads a radius r <= 0; it once exited 1 with "the first path
    # must lie at r > 0", as if the input were bad
    rc, err, artifacts = _run_bad_input(tmp_path, capsys, "simulate", _extremes_config(
        "euler-alignment", n, 2, support, "1", "-1e10"))
    assert rc == 2 and err == ""
    meta = json.loads(artifacts["metadata.json"], parse_constant=_reject_constant)
    assert meta["blowup"]["kind"] == "crossing" and meta["blowup"]["path_index"] == 0
    assert meta["blowup"]["radius"] <= 0.0 and meta["snapshots"] >= 1
    assert not any(re.search(r"(?i)\b(nan|inf)\b", body) for body in artifacts.values())


def _bad_input_cases():
    numeric ={section: [key for key, (typ, _) in keys.items() if typ in (int, float)]
               for section, keys in SCHEMA.items()}
    read = {"simulate-ea": ["model", "initial", "simulate",
                            ("alignment", ["phi_value", "phi_exponent", "phi_scale"])],
            "simulate-ep": ["model", "initial", "simulate", "integrator"],
            "curves": ["model", ("alignment", ["psi_min", "psi_max", "nu", "C0"]), "curves"]}
    cases = []
    for run, sections in read.items():
        command, base = _BAD_INPUT_BASES[run]
        for entry in sections:
            section, keys = entry if isinstance(entry, tuple) else (entry, numeric[entry])
            cases += [pytest.param(command, _patched(base, section, key, value),
                                   id=f"{run}-{section}.{key}={value}")
                      for key in keys
                      for value in ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300")
                      # an Euler-Poisson run to t = 1e300 steps for minutes
                      if (run, section, key, value) != ("simulate-ep", "simulate", "t_end",
                                                        "1e300")]
    return cases + [pytest.param(command, _patched(base, section, key, value), id=name)
                    for name, (command, base, section, key, value, *_) in _HOLES.items()]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, text", _bad_input_cases())
def test_bad_input_never_crashes(tmp_path, capsys, command, text):
    # every numeric key simulate (both kinds) and curves read, set to a value
    # a user may get wrong, from nan to 1e300: no traceback, an exit code the
    # CLI documents, an error line for a refusal that writes nothing, and no
    # NaN or infinity in any artifact
    rc, err, artifacts = _run_bad_input(tmp_path, capsys, command, text)
    assert rc in (0, 1, 2, 3)
    if rc == 1:
        assert err.startswith("error: ") and artifacts == {}
    for name, body in artifacts.items():
        assert not re.search(r"(?i)\b(nan|inf|infinity)\b", body), name
        if name.endswith(".json"):
            json.loads(body, parse_constant=_reject_constant)


@pytest.mark.parametrize("theta_order, block", [(32, "55 pairs x 32 nodes"),
                                                (192, "32 pairs x 192 nodes")])
def test_simulate_logs_kernel_time_and_blocks(tmp_path, capsys, caplog,
                                              theta_order, block):
    cfg = (SIM_SMALL.format(kind="euler-alignment", phi="power-law",
                            rho="gaussian-bump", u="rexp")
           + f"theta_order = {theta_order}\n")
    with caplog.at_level("INFO", logger="radial_euler"):
        assert cli.main(["simulate", "--config", write(tmp_path, "k.cfg", cfg),
                         "--out", str(tmp_path)]) == 0
    text = "\n".join(r.getMessage() for r in caplog.records)
    # 10 paths make 55 pairs; 192 nodes leave room for 32 pairs per block
    found = re.search(r"\d+ RK4 steps, (\d+) kernel calls of power-law\(0\.5,1\.0\), "
                      r"(\d+) phi evaluations, 2 snapshots "
                      r"\(\d+\.\d{3} s in kernel calls, blocks of " + block
                      + r"; \d+\.\d{3} s reconstructing\) in \d+\.\d{3} s", text)
    assert found
    calls, evals = int(found.group(1)), int(found.group(2))
    assert calls > 0 and evals == calls * 55 * theta_order


def test_simulate_logs_the_n1_kernel_evaluations(tmp_path, capsys, caplog):
    # at n = 1 phi runs at |r_i - r_j| and r_i + r_j of each of the 55 pairs
    cfg = SIM_SMALL.format(kind="euler-alignment", phi="exponential",
                           rho="gaussian-bump", u="rexp").replace("n = 2", "n = 1")
    with caplog.at_level("INFO", logger="radial_euler"):
        assert cli.main(["simulate", "--config", write(tmp_path, "k.cfg", cfg),
                         "--out", str(tmp_path)]) == 0
    text = "\n".join(r.getMessage() for r in caplog.records)
    found = re.search(r"\d+ RK4 steps, (\d+) kernel calls of exponential\(1\.0\), "
                      r"(\d+) phi evaluations, 2 snapshots \(\d+\.\d{3} s in kernel "
                      r"calls, all 55 pairs at once; \d+\.\d{3} s reconstructing\)", text)
    assert found
    calls, evals = int(found.group(1)), int(found.group(2))
    assert calls > 0 and evals == calls * 2 * 55


@pytest.mark.parametrize("command, cfg, message", [
    ("curves", """
[model]
kind = euler-alignment
n = 2

[alignment]
psi_min = 0.1
psi_max = 1.0
nu = 0.05

[curves]
which = sigma_q_plus
""", "curve integration stalled"),
    ("phase-portrait", """
[model]
kind = euler-poisson
n = 1.5

[phase]
seeds = -2.0:0.3
t_end = 100
""", "integration collapsed"),
], ids=["curves", "phase-portrait"])
def test_numerical_failure_is_inconclusive(tmp_path, capsys, command, cfg, message):
    rc = cli.main([command, "--config", write(tmp_path, "f.cfg", cfg),
                   "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and message in err


# ---------------------------------------------------------------------------
# phase portrait

def test_phase_portrait_csv(tmp_path, capsys):
    cfg = """
[model]
kind = euler-poisson
n = 2
c = 0.0

[phase]
seeds = 1:1, -0.5:0.01
t_end = 50.0
samples = 40
"""
    path = write(tmp_path, "ph.cfg", cfg)
    assert cli.main(["phase-portrait", "--config", path,
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "portrait.csv").read_text().splitlines()
    assert lines[1] == "seed,t,q,s"
    seeds = {l.split(",")[0] for l in lines[2:]}
    assert seeds == {"0", "1"}
    assert len(lines) == 2 + 2 * 40


def test_phase_portrait_rescaled(tmp_path, capsys):
    cfg = """
[model]
kind = euler-poisson
n = 3

[phase]
seeds = 0.5:0.5
t_end = 40.0
rescaled = true
samples = 30
"""
    path = write(tmp_path, "ph2.cfg", cfg)
    assert cli.main(["phase-portrait", "--config", path,
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "portrait.csv").read_text().splitlines()
    assert lines[1] == "seed,t,qhat,shat"
    # rescaled trajectory approaches the attractor (1, 0)
    last = lines[-1].split(",")
    assert float(last[2]) == pytest.approx(1.0, abs=0.05)
    assert float(last[3]) == pytest.approx(0.0, abs=0.05)


@pytest.mark.parametrize("c, seeds", [("0.0", "1:-1, 0.5:0"), ("0.3", "1:-0.1, 0:-0.5")],
                         ids=["c0", "c-positive"])
def test_phase_portrait_without_valid_seed_refused(tmp_path, capsys, c, seeds):
    # seeds with s0 <= -c/n (s0 <= 0 at c = 0) once gave two warnings, a
    # header-only portrait.csv and exit 0
    out = tmp_path / "out"
    cfg = f"[model]\nn = 3\nc = {c}\n\n[phase]\nseeds = {seeds}\nt_end = 5.0\n"
    rc = cli.main(["phase-portrait", "--config", write(tmp_path, "ph.cfg", cfg),
                   "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: [phase] seeds: no valid seed; each needs s0 > -c/n\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_phase_portrait_bad_seed(tmp_path, capsys):
    cfg = "[phase]\nseeds = 1:1, oops\n"
    rc = cli.main(["phase-portrait", "--config",
                   write(tmp_path, "ph3.cfg", cfg)])
    assert rc == 1


def test_ct_log_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CT_LOG", "INFO")
    rc = cli.main(["classify", "--config", write(tmp_path, "a.cfg", EP_SUB)])
    assert rc == 0


@pytest.mark.parametrize("kind", ["euler-poisson", "euler-alignment"])
def test_simulate_logs_phases(tmp_path, capsys, caplog, kind):
    cfg = f"""
[model]
kind = {kind}
n = 2

[alignment]
phi = power-law

[initial]
rho_profile = gaussian-bump
r_max = 2.0
u_profile = rexp
profile_nodes = 201
n_paths = 20

[simulate]
t_end = 1.0
snapshots = 3
"""
    path = write(tmp_path, "sim.cfg", cfg)
    with caplog.at_level("INFO", logger="radial_euler"):
        assert cli.main(["simulate", "--config", path, "--out",
                         str(tmp_path / "logged")]) == 0
    text = "\n".join(r.getMessage() for r in caplog.records)
    assert "seeded 20 paths in" in text
    if kind == "euler-poisson":
        assert "20 lanes in" in text and "lockstep iterations" in text
        assert "integrated 20 lanes (1 run) in" in text
        assert "reconstructed 3 snapshots in" in text
    else:
        assert re.search(r"\d+ RK4 steps, \d+ kernel calls of power-law\(0\.5,1\.0\), "
                         r"\d+ phi evaluations, 3 snapshots", text)
    assert "wrote 5 files in" in text
    # logging leaves the artifacts alone
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "quiet")]) == 0
    for name in ("snapshot_000.csv", "snapshot_002.csv", "diagnostics.csv",
                 "metadata.json"):
        assert ((tmp_path / "logged" / name).read_bytes()
                == (tmp_path / "quiet" / name).read_bytes())


_NO_SCIPY_SCRIPT = """
import json, sys
from radial_euler import cli, constant_influence, eval_psi, indicator
out, runs = sys.argv[1], json.loads(sys.argv[2])
codes = [cli.main([cmd, "--config", path] + (["--out", f"{out}/{i}"] if cmd != "classify" else []))
         for i, (cmd, path) in enumerate(runs)]
before, masked = "scipy" in sys.modules, "numpy.ma" in sys.modules
rho = indicator(1.0, 1.0)
psi = eval_psi(rho, constant_influence(0.7), 0.4, 2) / (0.7 * rho.mass(2))
print(json.dumps({"codes": codes, "before": before, "after": "scipy" in sys.modules,
                  "psi": psi, "masked": masked}))
"""


def test_commands_run_without_scipy(tmp_path):
    sim_ep = SIM_SMALL.format(kind="euler-poisson", phi="constant", rho="gaussian-bump",
                              u="rexp")
    sim_ea = SIM_SMALL.format(kind="euler-alignment", phi="power-law",
                              rho="gaussian-bump", u="rexp")
    curves = "[model]\nkind = euler-alignment\nn = 1\n\n[curves]\nsamples = 20\n"
    # the c = 1 sweep has blowups, which the exact n = 1 orbit settles
    sweep_c1 = SWEEP_CFG.replace("n = 1\n", "n = 1\nc = 1.0\n")
    runs = [("sweep", write(tmp_path, "s.cfg", SWEEP_CFG)),
            ("sweep", write(tmp_path, "s1.cfg", sweep_c1)),
            ("classify", write(tmp_path, "c.cfg", EP_SUB)),
            ("curves", write(tmp_path, "k.cfg", curves)),
            ("simulate", write(tmp_path, "ep.cfg", sim_ep)),
            ("simulate", write(tmp_path, "ea.cfg", sim_ea))]
    env = dict(os.environ, PYTHONPATH=str(Path(radial_euler.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path / "out"),
                          json.dumps(runs)], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0, 0]
    # no command loads scipy; kernel quadrature still imports it when asked
    assert result["before"] is False and result["after"] is True
    # nor numpy.ma, which np.unique imports and which costs about 1 MB of peak RSS
    assert result["masked"] is False
    assert result["psi"] == pytest.approx(1.0, rel=1e-10)


_TRACER_SCRIPT = """
import json, sys
from tracer import Tracer, layer_metrics
from radial_euler import alignment, cli, euler_poisson, odeint, pde, sweep
tracer = Tracer()
tracer.install()
points = {"sweep.classify_ep": sweep.classify_ep,
          "euler_poisson.integrate": euler_poisson.integrate,
          "alignment.integrate": alignment.integrate, "pde.integrate": pde.integrate,
          "cli.run_sweep": cli.run_sweep, "SweepResult.to_csv": sweep.SweepResult.to_csv,
          "SweepResult.to_json": sweep.SweepResult.to_json,
          "odeint.TrajectoryRecord.sample": odeint.TrajectoryRecord.sample}
out, runs = sys.argv[1], json.loads(sys.argv[2])
codes = [cli.main([cmd, "--config", path] + (["--out", f"{out}/{i}"] if cmd != "classify" else []))
         for i, (cmd, path) in enumerate(runs)]
metrics, counts = layer_metrics(tracer.spans)
print(json.dumps({"unwrapped": [name for name, fn in points.items()
                                if not hasattr(fn, "__wrapped__")],
                  "codes": codes, "spans": sorted({span[0] for span in tracer.spans}),
                  "integrate_calls": counts["odeint.calls"]}))
"""


def test_benchmark_tracer_installs_on_the_package(tmp_path):
    # perfbench/tracer.py wraps module attributes of the package by name; a
    # renamed or removed one breaks the traced benchmark, not the program
    sim_ep = SIM_SMALL.format(kind="euler-poisson", phi="constant", rho="gaussian-bump",
                              u="rexp")
    runs = [("sweep", write(tmp_path, "s.cfg", SWEEP_3X3.format(integrator=""))),
            ("classify", write(tmp_path, "c.cfg", EP_SUB)),
            ("simulate", write(tmp_path, "ep.cfg", sim_ep))]
    root = Path(radial_euler.__file__).parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(radial_euler.__file__).parents[1]), str(root / "perfbench")]))
    run = subprocess.run([sys.executable, "-c", _TRACER_SCRIPT, str(tmp_path / "out"),
                          json.dumps(runs)], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["unwrapped"] == [] and result["codes"] == [0, 0, 0]
    assert {"cli.command", "sweep.run_sweep", "sweep.format", "odeint.integrate",
            "pde.simulate", "pde.reconstruct_fields", "profiles.integrate_weighted",
            "cli.format", "cli.write"} <= set(result["spans"])
    assert result["integrate_calls"] > 0
