import json
import os
import re

import numpy as np
import pytest

from radial_euler import cli
from radial_euler.alignment import INFLUENCE_LIBRARY
from radial_euler.config import (ConfigError, RunConfig, config_hash,
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
        cli, "classify_from_config",
        lambda cfg: ClassificationOutcome(Verdict.INCONCLUSIVE, reason="test"))
    rc = cli.main(["classify", "--config", write(tmp_path, "a.cfg", EP_SUB)])
    assert rc == 3
    assert json.loads(capsys.readouterr().out)["reason"] == "test"


def test_usage_errors(tmp_path, capsys):
    assert cli.main(["classify", "--config", "/nonexistent.cfg"]) == 1
    bad = write(tmp_path, "bad.cfg", "[model]\nwrong = 1\n")
    assert cli.main(["classify", "--config", bad]) == 1
    assert "error:" in capsys.readouterr().err


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
    path = write(tmp_path, "s.cfg", SWEEP_CFG)
    rc = cli.main(["sweep", "--config", path, "--out", str(tmp_path / "o1")])
    assert rc == 0
    rc = cli.main(["sweep", "--config", path, "--out", str(tmp_path / "o2"),
                   "--threads", "2"])
    assert rc == 0
    a = (tmp_path / "o1" / "sweep.csv").read_bytes()
    b = (tmp_path / "o2" / "sweep.csv").read_bytes()
    assert a == b
    lines = a.decode().splitlines()
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


@pytest.mark.parametrize("base, old, new", [
    (SWEEP_CFG, "axis1 = p0", "axis1 = pO"),       # typo of a state key
    (SWEEP_CFG, "axis1 = p0", "axis1 = C0"),       # alignment key, EP model
    (SWEEP_CFG, "axis2 = rho0", "axis2 = p0"),     # one axis twice
    (EA_SWEEP_CFG, "axis1 = y0", "axis1 = p0"),    # state key, alignment model
], ids=["typo", "alignment-key", "repeated", "state-key"])
def test_sweep_bad_axis_refused(tmp_path, capsys, base, old, new):
    path = write(tmp_path, "bad.cfg", base.replace(old, new))
    rc = cli.main(["sweep", "--config", path, "--out", str(tmp_path)])
    assert rc == 1
    assert "error: [sweep]" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


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
        assert re.search(r"\d+ RK4 steps, \d+ kernel calls, 3 snapshots", text)
    assert "wrote 5 files in" in text
    # logging leaves the artifacts alone
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "quiet")]) == 0
    for name in ("snapshot_000.csv", "snapshot_002.csv", "diagnostics.csv",
                 "metadata.json"):
        assert ((tmp_path / "logged" / name).read_bytes()
                == (tmp_path / "quiet" / name).read_bytes())
