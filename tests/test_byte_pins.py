"""Byte pins: CLI outputs and exit codes that must not move.

Each case runs one command in process on a small config and compares its
exit code and output with ``tests/data/pins/<case>.out``: the JSON that
``classify`` prints, the file that ``curves``, ``sweep`` or
``phase-portrait`` writes, or for ``simulate`` its ``metadata.json``,
``diagnostics.csv`` and last snapshot, each headed by a
``== <file name> ==`` line.  The first line of a pin file is
``exit <code>``.  A case may add a third item, integrator fields the
config file has no key for (``max_steps``), which the sweep's
``integrator_from`` then sets.

The classify cases take every exit path of both classifiers: a blowup
with its fitted time, the basin at t = 0 and as an event, the one-period
return, the amplitude certificate, the re-run to the horizon, a confirm
flip, the supercritical refusal, a step collapse, and the four
Euler-alignment kind/side pairs.  The curves cases have nu != psi_min.
The phase-portrait cases read their orbits back by Hermite sampling, one
of them with non-terminal events located by bisection.

To write the pins of new cases, run this file as a script:
``PYTHONPATH=src python tests/test_byte_pins.py``.  It writes only the
pins that are missing, and exits 1 naming every existing pin whose output
the current code no longer reproduces; such a pin is never rewritten.
"""

import contextlib
import io
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from radial_euler import cli, sweep

PINS = Path(__file__).parent / "data" / "pins"

TIGHT = "[integrator]\nrel_tol = 1e-6\nabs_tol = 1e-8\n"
COARSE = "[integrator]\nrel_tol = 1e-3\nabs_tol = 1e-5\n"
PINNED = "[integrator]\nrel_tol = 1e-6\nabs_tol = 1e-8\nh_min = 1e-2\nh_init = 1e-2\n"


def _ep(n, c, p0, rho0, q0=0.0, s0=0.0, integrator="", kind="euler-poisson", extra=""):
    return (f"[model]\nkind = {kind}\nn = {n}\nc = {c}\n{extra}\n"
            f"[state]\np0 = {p0}\nq0 = {q0}\ns0 = {s0}\nrho0 = {rho0}\n\n{integrator}")


def _ea(kind, side, y0, C0, n=2, psi_min=0.8, psi_max=1.0, nu=0.8):
    return (f"[model]\nkind = euler-alignment\nn = {n}\n\n"
            f"[alignment]\npsi_min = {psi_min}\npsi_max = {psi_max}\nnu = {nu}\n"
            f"C0 = {C0}\nkind = {kind}\nside = {side}\ny0 = {y0}\n")


def _curves(n, psi_min, psi_max, nu, x_max, samples, ep=""):
    return (f"[model]\nn = {n}\n\n"
            f"[alignment]\npsi_min = {psi_min}\npsi_max = {psi_max}\nnu = {nu}\n\n"
            f"[curves]\nx_max = {x_max}\nsamples = {samples}\n{ep}")


def _sweep(model, axes, integrator=""):
    return f"{model}\n[sweep]\n{axes}\n{integrator}"


def _phase(c, phase):
    return f"[model]\nn = 3\nc = {c}\n\n[phase]\n{phase}"


def _simulate(model, initial, simulate, alignment=""):
    return (f"[model]\n{model}\n{alignment}\n[initial]\n{initial}\n"
            f"[simulate]\n{simulate}")


EP3_BUMP = ("rho_profile = gaussian-bump\nrho_amp = 1.0\nrho_width = 1.0\nr_max = 2.5\n"
            "u_width = 1.0\nprofile_nodes = 201\nn_paths = 24\n")
EA_INDICATOR = ("rho_profile = indicator\nrho_amp = 0.3\nrho_radius = 1.0\nr_max = 1.0\n"
                "u_profile = gaussian\nu_amp = 0.4\nu_width = 0.6\nprofile_nodes = 101\n"
                "n_paths = 16\n")
EA_SHORT = "t_end = 2\nsnapshots = 3\ntheta_order = 8\n"


CASES = {
    # Euler-Poisson and Burgers: (command, config)
    "classify-ep1-blowup": ("classify", _ep(1, 0.0, -3.0, 2.0)),
    "classify-ep1-blowup-no-confirm": ("classify", _ep(1, 0.0, -3.0, 2.0, integrator=(
        "[integrator]\nconfirm = false\n"))),
    "classify-ep1-basin-event": ("classify", _ep(1, 0.0, -1.9, 2.0)),
    "classify-ep1-basin-start": ("classify", _ep(1, 0.0, 0.5, 1.0)),
    "classify-ep1-step-collapse": ("classify", _ep(1, 0.0, -3.0, 0.5, integrator=PINNED)),
    "classify-ep1c-closed": ("classify", _ep(1, 1.0, -2.358974358974359, 3.4,
                                             integrator=TIGHT)),
    "classify-ep1c-certified": ("classify", _ep(1, 1.0, -2.564102564102564, 3.8,
                                                integrator=TIGHT)),
    "classify-ep1c-rerun": ("classify", _ep(1, 1.0, 0.3, 1.16, integrator=COARSE)),
    "classify-ep1c-confirm-flip": ("classify", _ep(1, 1.0, 1.8, 2.125, integrator=COARSE)),
    "classify-ep1c-refused": ("classify", _ep(1, 1.0, 0.0, 0.49997500124993755,
                                              integrator=COARSE)),
    "classify-ep1c-blowup": ("classify", _ep(1, 1.0, -4.0, 0.1)),
    "classify-ep3-blowup": ("classify", _ep(3, 0.0, -3.0, 0.5, q0=0.3, s0=0.05)),
    "classify-ep3-bounded": ("classify", _ep(3, 0.0, -1.0, 2.0, q0=0.3, s0=0.05,
                                             integrator=TIGHT)),
    "classify-ep2c-bounded": ("classify", _ep(2, 0.5, -1.0, 4.0, q0=0.3, s0=0.2,
                                              integrator="[integrator]\nt_max = 40\n")),
    "classify-damped-burgers-blowup": ("classify", _ep(3, 0.0, -0.8, 1.0, q0=0.3,
                                                       kind="damped-burgers",
                                                       extra="kappa_damp = 0.5\n")),
    "classify-inviscid-burgers-blowup": ("classify", _ep(2, 0.0, -0.1, 1.0, q0=0.5,
                                                         kind="inviscid-burgers")),
    # Euler-alignment comparison systems
    "classify-ea-q-plus-switch": ("classify", _ea("q", "+", -0.5, 0.1)),
    "classify-ea-q-plus-blowup": ("classify", _ea("q", "+", -1.5, 0.1)),
    "classify-ea-q-plus-basin-start": ("classify", _ea("q", "+", 0.0, 0.0)),
    "classify-ea-q-minus": ("classify", _ea("q", "-", -0.9, 0.1, psi_max=1.2, nu=0.5)),
    "classify-ea-q-minus-blowup": ("classify", _ea("q", "-", -1.5, 0.3)),
    "classify-ea-G-plus": ("classify", _ea("G", "+", 0.5, 0.2, n=3, nu=0.6)),
    "classify-ea-G-plus-blowup": ("classify", _ea("G", "+", -0.4, 0.2, n=3)),
    "classify-ea-G-minus": ("classify", _ea("G", "-", 0.3, 0.1, psi_max=1.2)),
    "classify-ea-G-minus-blowup": ("classify", _ea("G", "-", -1.0, 0.5, n=1)),
    # threshold curves
    "curves-nu-below-psi-min": ("curves", _curves(2, 0.8, 1.2, 0.5, 0.5, 41)),
    "curves-nu-above-psi-min": ("curves", _curves(3, 0.6, 1.0, 0.9, 0.3, 31)),
    "curves-with-ep-bound": ("curves", _curves(3, 0.8, 1.0, 0.8, 0.4, 11, ep=(
        "include_ep = true\nv0_max = 2.0\n"))),
    "curves-ep-unsupported": ("curves", _curves(2, 0.8, 1.0, 0.8, 0.4, 11, ep=(
        "include_ep = true\n"))),
    # sweeps: lockstep batches (at least 20 lanes), and two batches small enough
    # for the scalar loop
    "sweep-ep1c": ("sweep", _sweep(
        "[model]\nn = 1\nc = 1.0\n",
        "axis1_min = -3\naxis1_max = 3\naxis1_steps = 8\n"
        "axis2_min = 0.2\naxis2_max = 3\naxis2_steps = 8\n", TIGHT)),
    # straddles the c = 1 threshold |p0| = sqrt(2 rho0 - 1): blowups, amplitude
    # certificates, re-runs to the horizon and a confirm flip
    "sweep-ep1c-channel": ("sweep", _sweep(
        "[model]\nn = 1\nc = 1.0\n",
        "axis1_min = 2.6\naxis1_max = 2.75\naxis1_steps = 8\n"
        "axis2_min = 4.0\naxis2_max = 4.2\naxis2_steps = 8\n", COARSE)),
    # codes-only n = 1 grids that mix far supercritical states (|p0| up to
    # 302), which the exact orbit settles, and a row within 1e-4 of the
    # threshold on both sides, whose subcritical cells spike to rho ~ 1e5 and
    # run as lanes
    "sweep-ep1-channel-mix": ("sweep", _sweep(
        "[model]\nn = 1\nc = 0.0\n",
        "axis1_min = -302\naxis1_max = -2\naxis1_steps = 6\n"
        "axis2_min = 1.9998\naxis2_max = 2.00022\naxis2_steps = 8\n", TIGHT)),
    "sweep-ep1c-channel-mix": ("sweep", _sweep(
        "[model]\nn = 1\nc = 1.0\n",
        "axis1_min = -297\naxis1_max = 3\naxis1_steps = 6\n"
        "axis2_min = 4.9995\naxis2_max = 5.00055\naxis2_steps = 8\n", TIGHT)),
    # n = 1 grids whose blowup lanes, and at c = 1 the lanes of large |p0|,
    # run out of a 200-attempt step budget (code 3) beside cells that finish
    "sweep-ep1-budget": ("sweep", _sweep(
        "[model]\nn = 1\nc = 0.0\n",
        "axis1_min = -4\naxis1_max = 1\naxis1_steps = 8\n"
        "axis2_min = 0.5\naxis2_max = 3\naxis2_steps = 8\n"), {"max_steps": 200}),
    "sweep-ep1c-budget": ("sweep", _sweep(
        "[model]\nn = 1\nc = 1.0\n",
        "axis1_min = -3\naxis1_max = 3\naxis1_steps = 8\n"
        "axis2_min = 0.2\naxis2_max = 3\naxis2_steps = 8\n"), {"max_steps": 200}),
    # supercritical n = 1 cells whose blowup times (0.25 ... 2) straddle t_max
    "sweep-ep1-horizon": ("sweep", _sweep(
        "[model]\nn = 1\nc = 0.0\n",
        "axis1_min = -4\naxis1_max = -1\naxis1_steps = 8\n"
        "axis2_min = 0.5\naxis2_max = 3\naxis2_steps = 8\n", "[integrator]\nt_max = 0.5\n")),
    # blowups and basin events at n = 1, c = 0
    "sweep-ep1-lanes": ("sweep", _sweep(
        "[model]\nn = 1\nc = 0.0\n",
        "axis1_min = -3\naxis1_max = 1\naxis1_steps = 6\n"
        "axis2_min = 0.5\naxis2_max = 3\naxis2_steps = 6\n")),
    "sweep-ep3-lanes": ("sweep", _sweep(
        "[model]\nn = 3\n\n[state]\nq0 = 0.3\ns0 = 0.05\n",
        "axis1_min = -3\naxis1_max = 1\naxis1_steps = 6\n"
        "axis2_min = 0.5\naxis2_max = 2\naxis2_steps = 5\n")),
    "sweep-ea-lanes": ("sweep", _sweep(
        "[model]\nkind = euler-alignment\nn = 2\n\n[alignment]\nC0 = 0.1\n",
        "axis1 = y0\naxis1_min = -2\naxis1_max = 0.5\naxis1_steps = 6\n"
        "axis2 = C0\naxis2_min = 0\naxis2_max = 0.5\naxis2_steps = 5\n")),
    "sweep-ep3-small": ("sweep", _sweep(
        "[model]\nn = 3\n\n[state]\nq0 = 0.3\ns0 = 0.05\n",
        "axis1_min = -3\naxis1_max = 1\naxis1_steps = 3\n"
        "axis2_min = 0.5\naxis2_max = 2\naxis2_steps = 3\n", TIGHT)),
    # zero-background multi-D p0 x rho0 grids share one (q0, s0) orbit; the
    # positive-background grid and the p0 x q0 grid (five orbits) do not
    "sweep-ep2-p0-rho0": ("sweep", _sweep(
        "[model]\nn = 2\n\n[state]\nq0 = 0.5\ns0 = 0.1\n",
        "axis1_min = -3\naxis1_max = 1\naxis1_steps = 6\n"
        "axis2_min = 0.5\naxis2_max = 2.5\naxis2_steps = 5\n")),
    "sweep-ep3-coarse": ("sweep", _sweep(
        "[model]\nn = 3\n\n[state]\nq0 = 1.0\ns0 = 0.01\n",
        "axis1_min = -3\naxis1_max = 1\naxis1_steps = 6\n"
        "axis2_min = 0.25\naxis2_max = 3\naxis2_steps = 5\n", COARSE)),
    "sweep-ep2c": ("sweep", _sweep(
        "[model]\nn = 2\nc = 0.5\n\n[state]\nq0 = 0.3\ns0 = 0.2\n",
        "axis1_min = -3\naxis1_max = 1\naxis1_steps = 6\n"
        "axis2_min = 0.5\naxis2_max = 2.5\naxis2_steps = 5\n")),
    "sweep-ep2-p0-q0": ("sweep", _sweep(
        "[model]\nn = 2\n\n[state]\ns0 = 0.1\nrho0 = 1.0\n",
        "axis1_min = -3\naxis1_max = 1\naxis1_steps = 6\n"
        "axis2 = q0\naxis2_min = -1\naxis2_max = 1\naxis2_steps = 5\n")),
    "sweep-ea-small": ("sweep", _sweep(
        "[model]\nkind = euler-alignment\nn = 2\n\n[alignment]\nC0 = 0.1\n",
        "axis1 = y0\naxis1_min = -2\naxis1_max = 1\naxis1_steps = 4\n"
        "axis2 = C0\naxis2_min = 0\naxis2_max = 0.4\naxis2_steps = 3\n")),
    # ensembles: four of the 24 Euler-Poisson paths blow up in p (the run
    # then probes again where each path ended), none do, and Euler-alignment
    "simulate-ep3-blowup": ("simulate", _simulate(
        "kind = euler-poisson\nn = 3\n",
        EP3_BUMP + "u_profile = rexp\nu_amp = -1.0\n", "t_end = 5\nsnapshots = 4\n")),
    "simulate-ep3-bounded": ("simulate", _simulate(
        "kind = euler-poisson\nn = 3\n",
        EP3_BUMP + "u_profile = gaussian\nu_amp = -0.5\n", "t_end = 5\nsnapshots = 4\n")),
    "simulate-ea2": ("simulate", _simulate(
        "kind = euler-alignment\nn = 2\n", EA_INDICATOR, EA_SHORT,
        "\n[alignment]\nphi = power-law\nphi_exponent = 0.5\nD = 1.6\n")),
    # the same ensemble through every influence branch: both library
    # influences at scale 1 and off it, n = 3, and the n = 1 kernel
    "simulate-ea2-exponential": ("simulate", _simulate(
        "kind = euler-alignment\nn = 2\n", EA_INDICATOR, EA_SHORT,
        "\n[alignment]\nphi = exponential\nD = 1.6\n")),
    "simulate-ea2-exponential-scaled": ("simulate", _simulate(
        "kind = euler-alignment\nn = 2\n", EA_INDICATOR, EA_SHORT,
        "\n[alignment]\nphi = exponential\nphi_scale = 0.6\nD = 1.6\n")),
    "simulate-ea2-power-law-scaled": ("simulate", _simulate(
        "kind = euler-alignment\nn = 2\n", EA_INDICATOR, EA_SHORT,
        "\n[alignment]\nphi = power-law\nphi_exponent = 1.5\nphi_scale = 0.7\nD = 1.6\n")),
    "simulate-ea3": ("simulate", _simulate(
        "kind = euler-alignment\nn = 3\n", EA_INDICATOR, EA_SHORT,
        "\n[alignment]\nphi = power-law\nphi_exponent = 0.5\nD = 1.6\n")),
    "simulate-ea1": ("simulate", _simulate(
        "kind = euler-alignment\nn = 1\n", EA_INDICATOR, EA_SHORT,
        "\n[alignment]\nphi = power-law\nphi_exponent = 0.5\nD = 1.6\n")),
    # (q, s) portraits: orbits drawn to the origin (default seeds), and closed
    # orbits whose q-falling crossings are non-terminal events, rescaled
    "phase-portrait-c0": ("phase-portrait", _phase(0.0, "")),
    "phase-portrait-periodic": ("phase-portrait", _phase(
        0.5, "seeds = 1:1, -0.5:0.01, 0.3:0.2\nt_end = 100\nrescaled = true\n")),
}

ARTIFACT = {"curves": "curves.csv", "sweep": "sweep.csv", "phase-portrait": "portrait.csv"}


def run_case(name: str, out_dir: str) -> str:
    """``exit <code>`` and the case's output, as its pin file holds them."""
    command, text, *fields = CASES[name]
    out_dir = os.path.join(out_dir, name)     # no file left by another case
    os.makedirs(out_dir)
    path = os.path.join(out_dir, f"{name}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    stdout, built = io.StringIO(), sweep.integrator_from
    try:
        if fields:
            sweep.integrator_from = lambda cfg: replace(built(cfg), **fields[0])
        with contextlib.redirect_stdout(stdout):
            code = cli.main([command, "--config", path, "--out", out_dir])
    finally:
        sweep.integrator_from = built

    def read(file):
        with open(os.path.join(out_dir, file), encoding="utf-8") as fh:
            return fh.read()

    if command == "simulate":
        last = max(file for file in os.listdir(out_dir) if file.startswith("snapshot_"))
        output = "".join(f"== {file} ==\n{read(file)}"
                         for file in ("metadata.json", "diagnostics.csv", last))
    elif command in ARTIFACT:
        output = read(ARTIFACT[command])
    else:
        output = stdout.getvalue()
    return f"exit {code}\n{output}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(tmp_path, name):
    want = (PINS / f"{name}.out").read_text(encoding="utf-8")
    assert run_case(name, str(tmp_path)) == want


def write_missing_pins() -> int:
    """Write the missing pins; 1 if an existing pin differs from its output."""
    PINS.mkdir(parents=True, exist_ok=True)
    moved = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            pin, output = PINS / f"{name}.out", run_case(name, tmp)
            if not pin.exists():
                pin.write_text(output, encoding="utf-8")
                print(f"wrote {pin.name}", file=sys.stderr)
            elif pin.read_text(encoding="utf-8") != output:
                moved.append(pin.name)
    for name in moved:
        print(f"differs from its pin, left unchanged: {name}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(write_missing_pins())
