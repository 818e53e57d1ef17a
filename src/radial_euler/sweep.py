"""Classification dispatch and deterministic parameter sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import AlignmentBounds, classify_ea_many
from .config import ConfigError, RunConfig, config_hash
from .core import Model, ModelParams
# classify_ep is not called here; perfbench/tracer.py wraps sweep.classify_ep
from .euler_poisson import Verdicts, classify_ep, classify_ep_columns  # noqa: F401
from .odeint import IntegratorConfig

MAX_SWEEP_CELLS = 1_000_000

# the config keys a sweep axis may vary, by model family
_STATE_AXES = ("p0", "q0", "s0", "rho0")
_ALIGNMENT_AXES = ("y0", "C0")

_MODEL_KINDS = {
    "euler-poisson": Model.EULER_POISSON,
    "euler-alignment": Model.EULER_ALIGNMENT,
    "inviscid-burgers": Model.INVISCID_BURGERS,
    "damped-burgers": Model.DAMPED_BURGERS,
}


def model_params_from(cfg: RunConfig) -> ModelParams:
    m = cfg["model"]
    if m["kind"] not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind {m['kind']!r}")
    try:
        return ModelParams(n=m["n"], kappa=m["kappa"], c=m["c"],
                           model=_MODEL_KINDS[m["kind"]], kappa_damp=m["kappa_damp"])
    except ValueError as exc:
        # the message starts with the parameter's name, which is its config key
        raise ConfigError(f"[model] {exc}") from exc


def integrator_from(cfg: RunConfig) -> IntegratorConfig:
    i = cfg["integrator"]
    try:
        return IntegratorConfig(rel_tol=i["rel_tol"], abs_tol=i["abs_tol"],
                                h_init=i["h_init"], h_min=i["h_min"],
                                h_max=i["h_max"], t_max=i["t_max"],
                                magnitude_cap=i["magnitude_cap"])
    except ValueError as exc:
        # the message starts with the setting's name, which is its config key
        raise ConfigError(f"[integrator] {exc}") from exc


def bounds_from(cfg: RunConfig) -> AlignmentBounds:
    a = cfg["alignment"]
    try:
        return AlignmentBounds.explicit(psi_min=a["psi_min"], psi_max=a["psi_max"],
                                        nu=a["nu"], C0=a["C0"])
    except ValueError as exc:
        # the message starts with the bound's name, which is its config key
        raise ConfigError(f"[alignment] {exc}") from exc


def classify_cells(cfg: RunConfig, *, outcomes: bool = True, **axes: np.ndarray) -> Verdicts:
    """Classify the configured initial state once per cell.

    ``axes`` maps axis names to one value per cell: p0, q0, s0, rho0 patch
    the characteristic state; y0, C0 patch the alignment comparison
    inputs.  Without axes there is one cell, the configured state.  All
    cells run as one lockstep batch.  Without ``outcomes`` the verdicts
    hold the codes only.
    """
    params = model_params_from(cfg)
    integ = integrator_from(cfg)
    if integ.t_max <= 0:
        # a zero horizon would call every state bounded
        raise ConfigError(f"[integrator] t_max must be positive to classify, "
                          f"got {integ.t_max!r}")
    alignment = params.model is Model.EULER_ALIGNMENT
    section, keys = ("alignment", ("y0",)) if alignment else ("state", _STATE_AXES)
    for key in keys:
        # also where an axis replaces the value: a config never means a non-finite one
        if not np.isfinite(cfg[section][key]):
            raise ConfigError(f"[{section}] {key} must be finite, got {cfg[section][key]!r}")
    n_cells = len(next(iter(axes.values()))) if axes else 1

    def column(section, key):
        return axes[key] if key in axes else np.full(n_cells, cfg[section][key], dtype=float)

    if alignment:
        a = cfg["alignment"]
        return classify_ea_many(a["kind"], column("alignment", "y0"),
                                column("alignment", "C0"), bounds_from(cfg), params.n,
                                config=integ, side=a["side"], outcomes=outcomes)
    return classify_ep_columns(np.array([column("state", key) for key in _STATE_AXES]),
                               params, integ, confirm=cfg["integrator"]["confirm"],
                               outcomes=outcomes)


@dataclass
class SweepResult:
    axis_names: tuple[str, str]
    axis1: np.ndarray
    axis2: np.ndarray
    codes: np.ndarray          # shape (len(axis1), len(axis2)), row-major
    provenance: str

    def to_csv(self) -> str:
        """Header row carries axis2 values; one row per axis1 value."""
        lines = [f"# {self.provenance}",
                 f"# rows: {self.axis_names[0]}, columns: {self.axis_names[1]}, "
                 "codes: 0=global-bounded 2=finite-time-blowup 3=inconclusive"]
        header = [f"{self.axis_names[0]}\\{self.axis_names[1]}"] + \
                 ["%.12e" % v for v in self.axis2]
        lines.append(",".join(header))
        for i, v1 in enumerate(self.axis1):
            row = ["%.12e" % v1] + [str(int(c)) for c in self.codes[i]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json
        payload = {
            "provenance": self.provenance,
            "axis_names": list(self.axis_names),
            "axis1": [float("%.12e" % v) for v in self.axis1],
            "axis2": [float("%.12e" % v) for v in self.axis2],
            "codes": self.codes.tolist(),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _check_axes(cfg: RunConfig):
    s = cfg["sweep"]
    alignment = model_params_from(cfg).model is Model.EULER_ALIGNMENT
    allowed = _ALIGNMENT_AXES if alignment else _STATE_AXES
    for key in ("axis1", "axis2"):
        if s[key] not in allowed:
            raise ConfigError(f"[sweep] {key} = {s[key]!r} is not a sweep axis of "
                              f"kind {cfg['model']['kind']}; expected one of "
                              f"{', '.join(allowed)}")
    if s["axis1"] == s["axis2"]:
        raise ConfigError(f"[sweep] axis1 and axis2 are both {s['axis1']!r}")
    for axis in ("axis1", "axis2"):
        key = f"{axis}_steps"
        if s[key] < 1:
            raise ConfigError(f"[sweep] {key} must be at least 1, got {s[key]!r}")
        for key in (f"{axis}_min", f"{axis}_max"):
            if not np.isfinite(s[key]):
                raise ConfigError(f"[sweep] {key} must be finite, got {s[key]!r}")


def run_sweep(cfg: RunConfig) -> SweepResult:
    """Row-major sweep over the two configured axes; deterministic output.

    Every cell of the grid is classified in one lockstep batch.
    """
    _check_axes(cfg)
    s = cfg["sweep"]
    axis1 = np.linspace(s["axis1_min"], s["axis1_max"], s["axis1_steps"])
    axis2 = np.linspace(s["axis2_min"], s["axis2_max"], s["axis2_steps"])
    n_cells = len(axis1) * len(axis2)
    if n_cells > MAX_SWEEP_CELLS:
        raise ValueError(f"sweep grid has {n_cells} cells "
                         f"(limit {MAX_SWEEP_CELLS}); refuse to run")
    name1, name2 = s["axis1"], s["axis2"]
    # row-major: cell i len(axis2) + j is (axis1[i], axis2[j])
    verdicts = classify_cells(cfg, outcomes=False,
                              **{name1: np.repeat(axis1, len(axis2)),
                                 name2: np.tile(axis2, len(axis1))})
    matrix = verdicts.codes.reshape(len(axis1), len(axis2))
    prov = f"config_sha256={config_hash(cfg)} tool=radial-euler"
    return SweepResult((name1, name2), axis1, axis2, matrix, prov)
