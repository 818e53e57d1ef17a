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
import functools
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
from .config import (ConfigError, RunConfig, check_keys, csv_text, format_number,
                     json_number, parse_config, provenance, refusing)
from .core import (AT_LEAST_ONE, AT_LEAST_TWO, FINITE, FINITE_NONNEGATIVE, FINITE_POSITIVE,
                   MAX_SPHERE_DIMENSION, Model)
from .euler_poisson import (compute_threshold_constants, explicit_sigma_plus,
                            qs_phase_portrait)
from .odeint import VERDICT_CODES, IntegrationFailure, Termination, Verdict
from .pde import ShellRangeError, diagnostics_series, run_size_rules, simulate_ea, simulate_ep
from .profiles import DENSITY_LIBRARY, VELOCITY_LIBRARY
from .sweep import (bounds_from, classify_cells, integrator_from, model_params_from,
                    run_sweep)

log = logging.getLogger("radial_euler")

EXIT_OK = 0
EXIT_USAGE = 1


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


def _from_library(library: dict, cfg: RunConfig, section: str, key: str, keys: dict,
                  **values):
    """Call the ``library`` entry ``[section] key`` names with ``values`` and, once
    their rules hold, the values of the ``(config key, rule)`` or ``(config
    key,)`` entries that ``keys`` gives for its parameters: a key the entry
    does not read is not checked.  A ValueError of the entry that starts with
    one of those parameters is refused as a config error of its key."""
    check_keys(cfg, section, **{key: (lambda v: v in library, f"one of {sorted(library)}")})
    factory = library[cfg[section][key]]
    taken = {p: spec for p, spec in keys.items() if p in inspect.signature(factory).parameters}
    check_keys(cfg, section, **{spec[0]: spec[1] for spec in taken.values() if len(spec) == 2})
    with refusing(section, **{p: spec[0] for p, spec in taken.items()}):
        return factory(**{p: cfg[section][spec[0]] for p, spec in taken.items()}, **values)


def _influence_from(cfg: RunConfig):
    # phi must be nonnegative, bounded and Lipschitz
    return _from_library(INFLUENCE_LIBRARY, cfg, "alignment", "phi", dict(
        value=("phi_value", FINITE_NONNEGATIVE), exponent=("phi_exponent", FINITE_NONNEGATIVE),
        scale=("phi_scale", FINITE_POSITIVE)))


def _profiles_from(cfg: RunConfig):
    """The density and velocity profiles."""
    nodes = ("profile_nodes", AT_LEAST_TWO)
    rho = _from_library(DENSITY_LIBRARY, cfg, "initial", "rho_profile", dict(
        amp=("rho_amp", FINITE_NONNEGATIVE), width=("rho_width", FINITE_POSITIVE),
        radius=("rho_radius", FINITE_POSITIVE), k=("rho_k", FINITE),
        r_max=("r_max", FINITE_POSITIVE), n_nodes=nodes))
    # the velocity spans the density's support
    u = _from_library(VELOCITY_LIBRARY, cfg, "initial", "u_profile", dict(
        amp=("u_amp", FINITE), width=("u_width", FINITE_POSITIVE), n_nodes=nodes,
        r_max=(_support_key(cfg),)))
    return rho, u


def _support_key(cfg: RunConfig) -> str:
    """The ``[initial]`` key of the density's support: its radius, if it has one."""
    return ("rho_radius" if "radius" in inspect.signature(
        DENSITY_LIBRARY[cfg["initial"]["rho_profile"]]).parameters else "r_max")


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
    for kind in which:    # every kind before any curve is integrated
        if kind not in CURVE_KINDS:
            raise ConfigError(f"[curves] which: unknown curve kind {kind!r}")
    rows = [("curve", "x", "value")]
    xs = np.linspace(0.0, cur["x_max"], cur["samples"])
    for kind in which:
        curve = enhanced_curve(kind, bounds, params.n, cur["x_max"])
        rows += [(kind, x, v) for x, v in zip(xs, curve(xs))]
    if cur["include_ep"]:
        try:
            consts = compute_threshold_constants(params, (cur["ep_q0"], cur["ep_s0"]))
            v0s = np.linspace(cur["v0_max"] / cur["samples"], cur["v0_max"],
                              cur["samples"])
            rows += [("ep_w0_threshold", v0, w0) for v0, w0 in zip(
                v0s, explicit_sigma_plus(v0s, consts, params.kappa, params.n))]
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


# the keys that set each quantity simulate_ea refuses once the paths are seeded
_EA_SET_BY = {"the RK4 step count": "[simulate] t_end and dt, or [initial] rho_amp if dt = 0",
              "the influence bound": "[initial] rho_amp and [alignment] phi_value"}


def cmd_simulate(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    params = model_params_from(cfg)
    # the shells of an ensemble need an integer n with a finite sphere area
    check_keys(cfg, "model", n=(lambda v: v == int(v) and v <= MAX_SPHERE_DIMENSION,
                                f"an integer of at most {MAX_SPHERE_DIMENSION} to simulate"))
    sim, ini = cfg["simulate"], cfg["initial"]
    # the run sizes simulate_ep and simulate_ea refuse, by config key
    sizes = run_size_rules(params.model, sim["snapshots"])
    check_keys(cfg, "initial", n_paths=sizes.pop("n_paths"))
    check_keys(cfg, "simulate", **{"snapshots" if name == "n_snapshots" else name: rule
                                   for name, rule in sizes.items()})
    rho0, u0 = _profiles_from(cfg)
    # the seeding refuses a support whose spacing, shell measures, moments or
    # s leave float range, and a velocity whose squared slopes do; the slope
    # of every library velocity is at most |u_amp|
    with refusing("initial", r_max=_support_key(cfg), u0="u_amp"):
        if params.model is Model.EULER_ALIGNMENT:
            phi = _influence_from(cfg)
            try:
                result = simulate_ea(rho0, u0, phi, params, n_paths=ini["n_paths"],
                                     t_end=sim["t_end"], n_snapshots=sim["snapshots"],
                                     theta_order=sim["theta_order"], dt=sim["dt"])
            except ValueError as exc:
                for start, keys in _EA_SET_BY.items():
                    if str(exc).startswith(start):
                        raise ConfigError(f"{keys}: {exc}") from exc
                raise
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
    if result.blowup is None:
        return EXIT_OK
    return VERDICT_CODES[Verdict.INCONCLUSIVE
                         if result.blowup.kind in (Termination.STEP_COLLAPSE.value,
                                                   *ShellRangeError.KINDS)
                         else Verdict.FINITE_TIME_BLOWUP]


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call in a process, never at import.
    Parsing leaves it unchanged, so every :func:`main` call shares it."""
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
        return VERDICT_CODES[Verdict.INCONCLUSIVE]


if __name__ == "__main__":
    sys.exit(main())
