"""Classification dispatch and deterministic parameter sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import AlignmentBounds, classify_ea_many
from .config import (ConfigError, RunConfig, check_keys, csv_text, json_number, provenance,
                     refusing)
from .core import AT_LEAST_ONE, FINITE, Model, ModelParams
# classify_ep is not called here; perfbench/tracer.py wraps sweep.classify_ep
from .euler_poisson import (STATE_KEYS, Verdicts, classify_ep,  # noqa: F401
                            classify_ep_columns, state_rules)
from .odeint import VERDICT_CODES, IntegratorConfig

MAX_SWEEP_CELLS = 1_000_000

# the config keys a sweep axis may vary, by model family
_ALIGNMENT_AXES = ("y0", "C0")


def model_params_from(cfg: RunConfig) -> ModelParams:
    m, kinds = cfg["model"], [kind.value for kind in Model]
    check_keys(cfg, "model", kind=(lambda v: v in kinds, f"one of {kinds}"))
    with refusing("model", *m):     # here and below each parameter is named as its key
        return ModelParams(n=m["n"], kappa=m["kappa"], c=m["c"], model=Model(m["kind"]),
                           kappa_damp=m["kappa_damp"])


def integrator_from(cfg: RunConfig) -> IntegratorConfig:
    i = cfg["integrator"]
    with refusing("integrator", *i):
        return IntegratorConfig(**{key: v for key, v in i.items() if key != "confirm"})


def bounds_from(cfg: RunConfig) -> AlignmentBounds:
    a = cfg["alignment"]
    with refusing("alignment", *a):
        return AlignmentBounds(**{key: a[key] for key in ("psi_min", "psi_max", "nu", "C0")})


def classify_cells(cfg: RunConfig, *, outcomes: bool = True, **axes: np.ndarray) -> Verdicts:
    """Classify the configured initial state once per cell.

    ``axes`` maps axis names to one value per cell: p0, q0, s0, rho0 patch
    the characteristic state; y0, C0 patch the alignment comparison
    inputs.  Without axes there is one cell, the configured state.  All
    cells run as one lockstep batch.  Without ``outcomes`` the verdicts
    hold the codes only.
    """
    params, integ = model_params_from(cfg), integrator_from(cfg)
    # a zero horizon would call every state bounded
    check_keys(cfg, "integrator", t_max=(lambda v: v > 0, "positive to classify"))
    alignment = params.model is Model.EULER_ALIGNMENT
    if alignment:
        check_keys(cfg, "alignment", y0=FINITE,
                   kind=(lambda v: v in ("q", "G"), "'q' or 'G'"),
                   side=(lambda v: v in ("+", "-"), "'+' or '-'"))
    else:
        # finite also where an axis replaces the value: a config never means NaN or inf
        check_keys(cfg, "state", **dict.fromkeys(STATE_KEYS, FINITE))
        check_keys(cfg, "state", **{key: rule for key, rule in state_rules(params).items()
                                    if key not in axes})
    n_cells = len(next(iter(axes.values()))) if axes else 1

    def column(section, key):
        return axes[key] if key in axes else np.full(n_cells, cfg[section][key], dtype=float)

    if alignment:
        a = cfg["alignment"]
        return classify_ea_many(a["kind"], column("alignment", "y0"),
                                column("alignment", "C0"), bounds_from(cfg), params.n,
                                config=integ, side=a["side"], outcomes=outcomes)
    return classify_ep_columns(np.array([column("state", key) for key in STATE_KEYS]),
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
        name1, name2 = self.axis_names
        legend = "codes: " + " ".join(f"{c}={v.value}" for v, c in VERDICT_CODES.items())
        rows = ([v1, *codes] for v1, codes in zip(self.axis1, self.codes.astype(str)))
        return csv_text([self.provenance, f"rows: {name1}, columns: {name2}, {legend}"],
                        [[f"{name1}\\{name2}", *self.axis2], *rows])

    def to_json(self) -> str:
        import json
        payload = {
            "provenance": self.provenance,
            "axis_names": list(self.axis_names),
            "axis1": [json_number(v) for v in self.axis1],
            "axis2": [json_number(v) for v in self.axis2],
            "codes": self.codes.tolist(),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _check_axes(cfg: RunConfig):
    s = cfg["sweep"]
    params = model_params_from(cfg)
    allowed = _ALIGNMENT_AXES if params.model is Model.EULER_ALIGNMENT else STATE_KEYS
    rules = state_rules(params)    # of state axes only: no alignment axis has one
    for key in ("axis1", "axis2"):
        if s[key] not in allowed:
            raise ConfigError(f"[sweep] {key} = {s[key]!r} is not a sweep axis of "
                              f"kind {cfg['model']['kind']}; expected one of "
                              f"{', '.join(allowed)}")
    if s["axis1"] == s["axis2"]:
        raise ConfigError(f"[sweep] axis1 and axis2 are both {s['axis1']!r}")
    for axis in ("axis1", "axis2"):
        ends = (f"{axis}_min", f"{axis}_max")
        check_keys(cfg, "sweep", **{f"{axis}_steps": AT_LEAST_ONE},
                   **dict.fromkeys(ends, FINITE))
        if s[axis] in rules:
            check_keys(cfg, "sweep", **dict.fromkeys(ends, rules[s[axis]]))


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
        raise ConfigError(f"[sweep] axis1_steps * axis2_steps = {n_cells} cells; "
                          f"refuse to run more than {MAX_SWEEP_CELLS}")
    name1, name2 = s["axis1"], s["axis2"]
    # row-major: cell i len(axis2) + j is (axis1[i], axis2[j])
    verdicts = classify_cells(cfg, outcomes=False,
                              **{name1: np.repeat(axis1, len(axis2)),
                                 name2: np.tile(axis2, len(axis1))})
    matrix = verdicts.codes.reshape(len(axis1), len(axis2))
    return SweepResult((name1, name2), axis1, axis2, matrix, provenance(cfg))
