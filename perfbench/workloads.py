"""The benchmark's workloads: seeded configs, CLI command lists and oracles.

Each workload is a batch job of ``radial-euler`` commands built from four
parts: ``sweep-1d`` (the two acceptance-criterion-1 sweeps, on 40 x 40
grids over the criterion's ranges), ``grid-3d``
(an n = 3 sweep plus the curves with the explicit bound), ``simulate-ep``
and ``simulate-ea`` (the two PDE ensembles).  ``sweeps`` runs the first
two and ``ensembles`` the last two: one timed run of a workload then
covers about twice the work, which steadies it against the host's CPU
speed, and every layer is still exercised.

``configs(seed)`` returns the config values; seed 0 gives the reference
configs exactly, any other seed shifts axis ranges and profile
amplitudes by at most 1% (seeded), which keeps every part in the same
regime.  ``check`` reads the artifacts a pass wrote and counts attempted
and failed operations: an operation is a sweep cell or a CLI command.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

REFERENCE_SEED = 0
JITTER = 0.01          # largest relative shift a non-reference seed applies
PSI_REL_TOL = 5e-5     # particle psi vs eval_psi at t = 0 (observed <= 8e-6)
ENVELOPE_SLACK = 1e-9  # same relative slack as acceptance criterion 10b


class Outcome:
    """Attempted/failed operation counts plus a note for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def cells(self, total: int, bad: int, what: str):
        self.attempted += total
        self.failed += bad
        if bad:
            self.notes.append(f"{bad}/{total} cells {what}")

    def command(self, name: str, rc, problems: list):
        """One CLI command: fails on a wrong exit code or any failed check."""
        if rc != 0:
            problems = [f"exit code {rc}"] + problems
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.append(f"{name}: " + "; ".join(problems))


@dataclass(frozen=True)
class Command:
    command: str      # radial-euler subcommand
    config: str       # config name (file cfg/<config>.cfg)
    out: str          # output subdirectory
    reference: str = "python"  # kind of reference work that scales its time

    @property
    def key(self) -> str:
        return f"{self.command}:{self.config}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: Callable[[int], dict]      # seed -> {config name: {section: {key: value}}}
    commands: tuple
    check: Callable[[dict, str, dict, Outcome], None]


def _shift(rng, value):
    return value if rng is None else value * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


def _rng(name: str, seed: int):
    return None if seed == REFERENCE_SEED else random.Random(f"{name}:{seed}")


def config_text(sections: dict) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value!r}" if isinstance(value, float)
                         else f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _read_sweep(path):
    """(axis1, axis2, codes) as printed in a sweep.csv."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    axis2 = [float(v) for v in rows[0][1:]]
    axis1 = [float(r[0]) for r in rows[1:]]
    codes = [[int(v) for v in r[1:]] for r in rows[1:]]
    return axis1, axis2, codes


def _axes(sweep: dict):
    return (np.linspace(sweep["axis1_min"], sweep["axis1_max"], sweep["axis1_steps"]),
            np.linspace(sweep["axis2_min"], sweep["axis2_max"], sweep["axis2_steps"]))


def _printed_axes_match(printed, exact) -> bool:
    return len(printed) == len(exact) and all(
        abs(a - b) <= 1e-11 * max(abs(b), 1.0) for a, b in zip(printed, exact))


def _one_cell_band(exact):
    """Cells whose 8-neighbourhood (edge-padded) crosses the exact boundary."""
    padded = np.pad(exact, 1, mode="edge")
    band = np.zeros_like(exact, dtype=bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            band |= padded[di:di + exact.shape[0], dj:dj + exact.shape[1]] != exact
    return band


def _read_columns(path):
    """Header-keyed columns of a CSV artifact, values kept as printed."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


# ---------------------------------------------------------------------------
# sweep-1d: the two acceptance-criterion-1 sweeps (40 x 40 over its ranges)


def _sweep_1d_configs(seed):
    rng = _rng("sweep-1d", seed)
    out = {}
    for tag, c in (("c0", 0.0), ("c1", 1.0)):
        out[tag] = {
            "model": {"kind": "euler-poisson", "n": 1.0, "kappa": 1.0, "c": c},
            "integrator": {"rel_tol": 1e-6, "abs_tol": 1e-8, "confirm": True},
            "sweep": {"axis1": "p0", "axis1_min": _shift(rng, -4.0),
                      "axis1_max": _shift(rng, 4.0), "axis1_steps": 40,
                      "axis2": "rho0", "axis2_min": _shift(rng, 0.1),
                      "axis2_max": _shift(rng, 4.0), "axis2_steps": 40},
        }
    return out


def _check_sweep_1d(cfgs, out_dir, rcs, res: Outcome):
    """Cells agree with sigma_1d outside the one-cell band (criterion 1)."""
    from radial_euler.core import Region
    from radial_euler.euler_poisson import sigma_1d
    for tag in ("c0", "c1"):
        cfg = cfgs[tag]
        sw = cfg["sweep"]
        n_cells = sw["axis1_steps"] * sw["axis2_steps"]
        path = os.path.join(out_dir, tag, "sweep.csv")
        if not os.path.exists(path):
            res.command(f"sweep {tag}", rcs.get(f"sweep:{tag}"), ["no sweep.csv"])
            res.cells(n_cells, n_cells, "missing")
            continue
        axis1, axis2 = _axes(sw)
        p_axis1, p_axis2, codes = _read_sweep(path)
        problems = [] if _printed_axes_match(p_axis1, axis1) and \
            _printed_axes_match(p_axis2, axis2) else ["printed axes differ from the grid"]
        res.command(f"sweep {tag}", rcs.get(f"sweep:{tag}"), problems)
        c, kappa = cfg["model"]["c"], cfg["model"]["kappa"]
        exact = np.array([[0 if sigma_1d(float(p), float(r), kappa, c) is Region.SUBCRITICAL
                           else 2 for r in axis2] for p in axis1])
        bad = int(np.sum((np.array(codes) != exact) & ~_one_cell_band(exact)))
        res.cells(n_cells, bad, f"contradict sigma_1d at c={c}")


# ---------------------------------------------------------------------------
# grid-3d: n = 3 sweep plus the enhanced curves with the explicit EP bound

_Q0, _S0 = 1.0, 0.01
_SUPER_MARGIN = 0.05   # same margin as acceptance criterion 6


def _grid_3d_configs(seed):
    rng = _rng("grid-3d", seed)
    return {"grid": {
        "model": {"kind": "euler-poisson", "n": 3.0, "kappa": 1.0, "c": 0.0},
        "state": {"q0": _Q0, "s0": _S0},
        "sweep": {"axis1": "p0", "axis1_min": _shift(rng, -3.0),
                  "axis1_max": _shift(rng, 1.0), "axis1_steps": 20,
                  "axis2": "rho0", "axis2_min": _shift(rng, 0.25),
                  "axis2_max": _shift(rng, 3.0), "axis2_steps": 20},
        "curves": {"include_ep": True, "ep_q0": _Q0, "ep_s0": _S0, "samples": 200},
    }}


def _check_grid_3d(cfgs, out_dir, rcs, res: Outcome):
    """Certified cells are bounded, cells below -C blow up, curves complete.

    A cell with p0/rho0 > -sigma_+(1/rho0) is certified bounded by the
    explicit n = 3 bound; a cell with p0/rho0 < -C - margin must blow up.
    Cells between the two have no exact answer and cannot fail.
    """
    from radial_euler.core import ModelParams
    from radial_euler.euler_poisson import (compute_threshold_constants,
                                            explicit_sigma_plus)
    cfg = cfgs["grid"]
    sw, m = cfg["sweep"], cfg["model"]
    n_cells = sw["axis1_steps"] * sw["axis2_steps"]
    path = os.path.join(out_dir, "grid", "sweep.csv")
    if not os.path.exists(path):
        res.command("sweep", rcs.get("sweep:grid"), ["no sweep.csv"])
        res.cells(n_cells, n_cells, "missing")
    else:
        axis1, axis2 = _axes(sw)
        p_axis1, p_axis2, codes = _read_sweep(path)
        problems = [] if _printed_axes_match(p_axis1, axis1) and \
            _printed_axes_match(p_axis2, axis2) else ["printed axes differ from the grid"]
        res.command("sweep", rcs.get("sweep:grid"), problems)
        params = ModelParams(n=m["n"], kappa=m["kappa"], c=m["c"])
        consts = compute_threshold_constants(params, (_Q0, _S0))
        bad = 0
        for i, p0 in enumerate(axis1):
            for j, rho0 in enumerate(axis2):
                w0 = float(p0) / float(rho0)
                if w0 > explicit_sigma_plus(1.0 / float(rho0), consts, m["kappa"], m["n"]):
                    bad += codes[i][j] != 0
                elif w0 < -consts.C - _SUPER_MARGIN:
                    bad += codes[i][j] != 2
        res.cells(n_cells, bad, "contradict the explicit n=3 bounds")
    curves = os.path.join(out_dir, "grid", "curves.csv")
    samples = cfg["curves"]["samples"]
    problems = ["no curves.csv"]
    if os.path.exists(curves):
        with open(curves, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        problems = [line for line in lines if "unsupported" in line]
        ep_rows = sum(1 for line in lines if line.startswith("ep_w0_threshold,"))
        if ep_rows != samples:
            problems.append(f"{ep_rows} ep_w0_threshold rows, expected {samples}")
    res.command("curves", rcs.get("curves:grid"), problems)


# ---------------------------------------------------------------------------
# simulate-ep / simulate-ea: the two PDE ensembles


def _simulate_ep_configs(seed):
    rng = _rng("simulate-ep", seed)
    return {"ep": {
        "model": {"kind": "euler-poisson", "n": 3.0, "kappa": 1.0, "c": 0.0},
        "initial": {"rho_profile": "gaussian-bump", "rho_amp": _shift(rng, 1.0),
                    "rho_width": 1.0, "r_max": 2.5, "profile_nodes": 801,
                    "u_profile": "rexp", "u_amp": _shift(rng, 1.0), "u_width": 4.0,
                    "n_paths": 300},
        "simulate": {"t_end": 20.0, "snapshots": 11},
    }}


def _simulate_problems(out, snapshots: int, exact_count: bool):
    """Problems with metadata.json, plus the diagnostics.csv columns.

    ``simulate_ea`` adds a final snapshot when its step count is not a
    multiple of the snapshot spacing, so it is held to a minimum count.
    """
    meta_path = os.path.join(out, "metadata.json")
    if not os.path.exists(meta_path):
        return ["no metadata.json"], None
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    problems = []
    if meta["blowup"] is not None:
        problems.append(f"blowup {meta['blowup']}")
    if meta["snapshots"] < snapshots or (exact_count and meta["snapshots"] != snapshots):
        problems.append(f"{meta['snapshots']} snapshots, expected {snapshots}")
    diag = _read_columns(os.path.join(out, "diagnostics.csv"))
    if len(set(diag["mass_total"])) != 1:
        problems.append("mass_total is not constant")
    return problems, diag


def _check_simulate_ep(cfgs, out_dir, rcs, res: Outcome):
    """Exit 0, no blowup, and mass_total exactly constant."""
    problems, _ = _simulate_problems(os.path.join(out_dir, "ep"),
                                     cfgs["ep"]["simulate"]["snapshots"], True)
    res.command("simulate", rcs.get("simulate:ep"), problems)


def _simulate_ea_configs(seed):
    rng = _rng("simulate-ea", seed)
    return {"ea": {
        "model": {"kind": "euler-alignment", "n": 2.0, "kappa": 1.0},
        "alignment": {"phi": "power-law", "phi_exponent": 0.5, "phi_scale": 1.0,
                      "D": 1.6},
        "initial": {"rho_profile": "indicator", "rho_amp": _shift(rng, 0.3),
                    "rho_radius": 1.0, "profile_nodes": 201,
                    "u_profile": "gaussian", "u_amp": _shift(rng, 0.4),
                    "u_width": 0.6, "r_max": 1.0, "n_paths": 80},
        "simulate": {"t_end": 25.0, "snapshots": 11, "theta_order": 32},
    }}


def _check_simulate_ea(cfgs, out_dir, rcs, res: Outcome):
    """Flocking envelope, exact mass, and t = 0 psi against eval_psi."""
    from radial_euler.alignment import compute_bounds, eval_psi, power_law_influence
    from radial_euler.profiles import gaussian_velocity, indicator
    cfg = cfgs["ea"]
    out = os.path.join(out_dir, "ea")
    problems, diag = _simulate_problems(out, cfg["simulate"]["snapshots"], False)
    if diag is not None:
        a, ini, n = cfg["alignment"], cfg["initial"], int(cfg["model"]["n"])
        rho = indicator(ini["rho_amp"], ini["rho_radius"], ini["profile_nodes"])
        u = gaussian_velocity(ini["u_amp"], ini["u_width"], rho.r_max,
                              ini["profile_nodes"])
        phi = power_law_influence(a["phi_exponent"], a["phi_scale"])
        nu = compute_bounds(rho, u, phi, D=a["D"], n=n).nu
        t = [float(v) for v in diag["t"]]
        v = [float(x) for x in diag["V"]]
        if any(vk > v[0] * math.exp(-nu * tk) * (1.0 + ENVELOPE_SLACK)
               for tk, vk in zip(t, v)):
            problems.append("V(t) exceeds V(0) exp(-nu t)")
        snap = _read_columns(os.path.join(out, "snapshot_000.csv"))
        n_paths = len(snap["r"])
        worst = 0.0
        for i in sorted({0, n_paths // 4, n_paths // 2, 3 * n_paths // 4, n_paths - 1}):
            exact = eval_psi(rho, phi, float(snap["r"][i]), n)
            worst = max(worst, abs(float(snap["psi"][i]) - exact) / abs(exact))
        if worst > PSI_REL_TOL:
            problems.append(f"t=0 psi differs from eval_psi by {worst:.3g} relative")
    res.command("simulate", rcs.get("simulate:ea"), problems)


def _both(first, second):
    def check(*args):
        first(*args)
        second(*args)
    return check


def _merged(first, second):
    return lambda seed: {**first(seed), **second(seed)}


WORKLOADS = {w.name: w for w in (
    Workload("sweeps",
             "1D 40x40 EP sweeps at c=0,1 (early exits, rejected steps, confirm "
             "re-run), then an n=3 20x20 sweep and curves; one process, one thread",
             _merged(_sweep_1d_configs, _grid_3d_configs),
             (Command("sweep", "c0", "c0"), Command("sweep", "c1", "c1"),
              Command("sweep", "grid", "grid"), Command("curves", "grid", "grid")),
             _both(_check_sweep_1d, _check_grid_3d)),
    Workload("ensembles",
             "EP n=3 ensemble (full-horizon paths read back by Hermite sampling, profile "
             "quadrature), then EA n=2 ensemble (N^2 x theta kernel sum, no integrator)",
             _merged(_simulate_ep_configs, _simulate_ea_configs),
             (Command("simulate", "ep", "ep"),
              Command("simulate", "ea", "ea", reference="numpy")),
             _both(_check_simulate_ep, _check_simulate_ea)),
)}
