"""Command-line interface: classify | sweep | curves | simulate | phase-portrait.

All numeric output is bit-stable: numbers print by ``config.format_number``
and rows follow the configured axis order, so identical configs produce
byte-identical files.  Every CSV file starts with the provenance line
``# config_sha256=<hash> tool=radial-euler <version>`` (``sweep.json``
has it as ``provenance``).  Format ``json`` applies to ``sweep``;
``classify`` always prints JSON, and the other commands refuse ``json``.
``--threads`` is ignored; the benchmark harness passes it.  Exit codes:

    0  globally bounded, or the command succeeded
    1  usage or config error (including an unknown profile or influence name)
    2  finite-time blowup (or a path crossing)
    3  inconclusive: a verdict flipped under tighter tolerances, a step
       collapsed, or a numerical method did not converge
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .alignment import CURVE_KINDS, INFLUENCE_LIBRARY, enhanced_curve
from .config import (AT_LEAST_ONE, FINITE_POSITIVE, ConfigError, RunConfig, check_keys,
                     csv_text, format_number, json_number, parse_config, provenance)
from .core import Model
from .euler_poisson import (compute_threshold_constants, explicit_sigma_plus,
                            qs_phase_portrait)
from .odeint import VERDICT_CODES, IntegrationFailure
from .pde import diagnostics_series, run_size_problem, simulate_ea, simulate_ep
from .profiles import DENSITY_LIBRARY, VELOCITY_LIBRARY
from .sweep import (bounds_from, classify_cells, integrator_from, model_params_from,
                    run_sweep)

log = logging.getLogger("radial_euler")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BLOWUP = 2
EXIT_INCONCLUSIVE = 3


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    log.info("wrote %s", path)


def _emit(out_dir: str, name: str, text: str) -> int:
    """Write a command's one artifact and print its path: the command succeeded."""
    path = os.path.join(out_dir, name)
    _write(path, text)
    print(path)
    return EXIT_OK


def _from_library(library: dict, cfg: RunConfig, section: str, key: str, **values):
    """Call the ``library`` entry ``[section] key`` names with those of ``values``
    its parameters name."""
    check_keys(cfg, section, **{key: (lambda v: v in library, f"one of {sorted(library)}")})
    factory = library[cfg[section][key]]
    accepted = inspect.signature(factory).parameters
    return factory(**{k: v for k, v in values.items() if k in accepted})


def _influence_from(cfg: RunConfig):
    a = cfg["alignment"]
    return _from_library(INFLUENCE_LIBRARY, cfg, "alignment", "phi", value=a["phi_value"],
                         exponent=a["phi_exponent"], scale=a["phi_scale"])


def _profiles_from(cfg: RunConfig):
    ini = cfg["initial"]
    nodes = ini["profile_nodes"]
    rho = _from_library(DENSITY_LIBRARY, cfg, "initial", "rho_profile", amp=ini["rho_amp"],
                        width=ini["rho_width"], radius=ini["rho_radius"],
                        k=ini["rho_k"], r_max=ini["r_max"], n_nodes=nodes)
    u = _from_library(VELOCITY_LIBRARY, cfg, "initial", "u_profile", amp=ini["u_amp"],
                      width=ini["u_width"], r_max=rho.r_max, n_nodes=nodes)
    return rho, u


def cmd_classify(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    out = classify_cells(cfg)[0]
    payload = {"verdict": out.verdict.value}
    if out.t_estimate is not None:
        payload["t_estimate"] = json_number(out.t_estimate)
    if out.reason:
        payload["reason"] = out.reason
    diag = {key: json_number(out.diagnostics[key])
            for key in ("t_final", "max_norm") if key in out.diagnostics}
    if "early_exit" in out.diagnostics:
        diag["early_exit"] = out.diagnostics["early_exit"]
    payload["diagnostics"] = diag
    print(json.dumps(payload, sort_keys=True, indent=2))
    return VERDICT_CODES[out.verdict]


def cmd_sweep(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    result = run_sweep(cfg)
    return _emit(out_dir, f"sweep.{fmt}",
                 result.to_json() if fmt == "json" else result.to_csv())


def cmd_curves(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    cur = cfg["curves"]
    check_keys(cfg, "curves", samples=AT_LEAST_ONE, x_max=FINITE_POSITIVE,
               **({"v0_max": FINITE_POSITIVE} if cur["include_ep"] else {}))
    params, bounds = model_params_from(cfg), bounds_from(cfg)
    check_keys(cfg, "curves", x_max=(lambda v: v > bounds.series_offset,
                                     f"above the series start offset {bounds.series_offset:g}"))
    which = (list(CURVE_KINDS) if cur["which"] == "all"
             else [w.strip() for w in cur["which"].split(",")])
    rows = [("curve", "x", "value")]
    xs = np.linspace(0.0, cur["x_max"], cur["samples"])
    for kind in which:
        if kind not in CURVE_KINDS:
            raise ConfigError(f"[curves] which: unknown curve kind {kind!r}")
        curve = enhanced_curve(kind, bounds, params.n, cur["x_max"])
        rows += [(kind, x, v) for x, v in zip(xs, curve(xs))]
    if cur["include_ep"]:
        try:
            consts = compute_threshold_constants(params, (cur["ep_q0"], cur["ep_s0"]))
            v0s = np.linspace(cur["v0_max"] / cur["samples"], cur["v0_max"],
                              cur["samples"])
            for v0 in v0s:
                rows.append(("ep_w0_threshold", v0, explicit_sigma_plus(
                    float(v0), consts, params.kappa, params.n)))
        except ValueError as exc:
            # a one-cell row: the marker comment follows the rows written so far
            rows.append((f"# ep_w0_threshold: unsupported ({exc})",))
    return _emit(out_dir, "curves.csv", csv_text([provenance(cfg)], rows))


def _snapshot_csv(snap, prov: str) -> str:
    cols = {"r": snap.r, "rho": snap.rho, "u": snap.u, "p": snap.p, "q": snap.q}
    if snap.extras.get("psi") is not None:
        cols.update(psi=snap.extras["psi"], G=snap.extras["G"])
    return csv_text([prov, f"t = {format_number(snap.time)}"],
                    [list(cols), *zip(*cols.values())])


# config (section, key) of each run-size argument of simulate_ep/simulate_ea
_RUN_SIZE_KEYS = {"n_paths": ("initial", "n_paths"), "t_end": ("simulate", "t_end"),
                  "n_snapshots": ("simulate", "snapshots"),
                  "theta_order": ("simulate", "theta_order"), "dt": ("simulate", "dt")}


def _check_run_size(cfg: RunConfig, model: Model):
    """Refuse, before any file is written, run sizes the simulation refuses."""
    ini, sim = cfg["initial"], cfg["simulate"]
    problem = run_size_problem(model, ini["n_paths"], sim["t_end"], sim["snapshots"],
                               sim["theta_order"], sim["dt"])
    if problem is not None:
        name, wanted = problem
        section, key = _RUN_SIZE_KEYS[name]
        raise ConfigError(f"[{section}] {key} must be {wanted}, "
                          f"got {cfg[section][key]!r}")


def cmd_simulate(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    params = model_params_from(cfg)
    _check_run_size(cfg, params.model)
    rho0, u0 = _profiles_from(cfg)
    sim, ini = cfg["simulate"], cfg["initial"]
    if params.model is Model.EULER_ALIGNMENT:
        phi = _influence_from(cfg)
        result = simulate_ea(rho0, u0, phi, params, n_paths=ini["n_paths"],
                             t_end=sim["t_end"], n_snapshots=sim["snapshots"],
                             theta_order=sim["theta_order"], dt=sim["dt"])
    else:
        result = simulate_ep(rho0, u0, params, n_paths=ini["n_paths"],
                             config=integrator_from(cfg), t_end=sim["t_end"],
                             n_snapshots=sim["snapshots"])
    clock = time.perf_counter()
    prov = provenance(cfg)
    for i, snap in enumerate(result.snapshots):
        _write(os.path.join(out_dir, f"snapshot_{i:03d}.csv"),
               _snapshot_csv(snap, prov))
    series = diagnostics_series(result.snapshots)    # one column per key, in order
    _write(os.path.join(out_dir, "diagnostics.csv"),
           csv_text([prov], [list(series), *zip(*series.values())]))

    meta = {"snapshots": len(result.snapshots), "n_paths": result.n_paths,
            "blowup": None}
    if result.blowup is not None:
        meta["blowup"] = {"time": json_number(result.blowup.time),
                          "kind": result.blowup.kind,
                          "path_index": result.blowup.path_index,
                          "radius": json_number(result.blowup.radius)}
    _write(os.path.join(out_dir, "metadata.json"),
           json.dumps(meta, sort_keys=True, indent=2) + "\n")
    log.info("wrote %d files in %.3f s", len(result.snapshots) + 2,
             time.perf_counter() - clock)
    print(os.path.join(out_dir, "metadata.json"))
    if result.blowup is not None:
        return EXIT_INCONCLUSIVE if result.blowup.kind == "step-collapse" \
            else EXIT_BLOWUP
    return EXIT_OK


def cmd_phase_portrait(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    ph = cfg["phase"]
    check_keys(cfg, "phase", t_end=FINITE_POSITIVE, samples=AT_LEAST_ONE)
    params = model_params_from(cfg)
    integ = replace(integrator_from(cfg), t_max=ph["t_end"])
    seeds = []
    for chunk in filter(None, (c.strip() for c in ph["seeds"].split(","))):
        try:
            q0, s0 = (float(v) for v in chunk.split(":"))
        except ValueError:
            raise ConfigError(f"[phase] seeds: bad seed {chunk!r}; expected q0:s0")
        if not (math.isfinite(q0) and math.isfinite(s0)):
            raise ConfigError(f"[phase] seeds: seed {chunk!r} must be finite")
        seeds.append((q0, s0))
    if not seeds:
        raise ConfigError("[phase] seeds: phase portrait needs at least one seed")
    trajectories = qs_phase_portrait(params, seeds, integ)
    if all(traj.record is None for traj in trajectories):
        raise ConfigError("[phase] seeds: no valid seed; each needs s0 > -c/n")
    rescaled = ph["rescaled"]
    rows = [("seed", "t", "qhat", "shat") if rescaled else ("seed", "t", "q", "s")]
    for idx, traj in enumerate(trajectories):
        if traj.record is None:
            log.warning("seed %s invalid (s0 <= -c/n); skipped", traj.seed)
            continue
        tt = np.linspace(0.0, traj.record.t_final, ph["samples"])
        for t, (q, s) in zip(tt, traj.record.sample_many(tt)):
            if rescaled:
                q, s = (t + 1.0) * q, (t + 1.0) ** 2 * s
            rows.append((str(idx), t, q, s))
    return _emit(out_dir, "portrait.csv", csv_text([provenance(cfg)], rows))


COMMANDS = {
    "classify": cmd_classify,
    "sweep": cmd_sweep,
    "curves": cmd_curves,
    "simulate": cmd_simulate,
    "phase-portrait": cmd_phase_portrait,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radial-euler",
        description="Critical-threshold classification and simulation for "
                    "radially symmetric pressure-less Eulerian flow.")
    parser.add_argument("--version", action="version",
                        version=f"radial-euler {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: it does not change the run or its output")
        p.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("CT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = parse_config(args.config)
        check_keys(cfg, "output", format=(lambda v: v in ("csv", "json"), "csv or json"))
        source = "--format" if args.format is not None else "[output] format"
        fmt = args.format or cfg["output"]["format"]
        # classify always prints JSON and sweep writes sweep.json; the rest write CSV
        if fmt == "json" and args.command not in ("classify", "sweep"):
            raise ConfigError(f"{source} json: {args.command} writes csv only; "
                              "json applies to sweep")
        out_dir = args.out if args.out is not None else cfg["output"]["out_dir"]
        os.makedirs(out_dir, exist_ok=True)
        return COMMANDS[args.command](cfg, out_dir, fmt)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
