"""Spans and counters around the package's layers, installed from outside.

``Tracer.install()`` replaces module attributes of ``radial_euler`` in
the current process with timing wrappers; nothing under ``src/`` is
edited.  Every span records its name, start, end, parent and a few
attributes; spans stay in memory and ``layer_metrics`` derives the
per-layer numbers (including self times) from them at the end.

``integrate`` is wrapped where ``euler_poisson``, ``alignment`` and
``pde`` import it, and each call's system rhs and event functions are
wrapped with counters only (no spans), so step, rejection and
evaluation counts are measured where the work happens.
"""

from __future__ import annotations

import dataclasses
import functools
from time import perf_counter

# span fields
NAME, START, END, PARENT, ATTRS = range(5)

# percentile ladder for the reported tail: the highest one with at least
# ten samples beyond it
TAIL_LEVELS = (50.0, 90.0, 95.0, 99.0, 99.9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def close(self, span: list, attrs: dict | None = None):
        span[END] = perf_counter()
        self._stack.pop()
        span[ATTRS] = attrs

    def wrap(self, fn, name: str, attrs=None):
        """A span around every call of ``fn``; ``attrs(args, result)`` annotates it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span)
                raise
            self.close(span, attrs(args, result) if attrs else None)
            return result
        return wrapper

    def _counting_integrate(self, integrate):
        tracer = self

        @functools.wraps(integrate)
        def wrapper(system, y0, config, events=(), t0=0.0):
            counts = [0, 0]        # rhs evaluations, event evaluations
            rhs = system.rhs

            def counted_rhs(t, y):
                counts[0] += 1
                return rhs(t, y)

            def counted(func):
                def g(t, y):
                    counts[1] += 1
                    return func(t, y)
                return g

            system = dataclasses.replace(system, rhs=counted_rhs)
            events = tuple(dataclasses.replace(ev, func=counted(ev.func)) for ev in events)
            span = tracer.open("odeint.integrate")
            try:
                rec = integrate(system, y0, config, events, t0)
            except BaseException:
                tracer.close(span)
                raise
            tracer.close(span, {
                "rel_tol": config.rel_tol, "rhs": counts[0], "events": counts[1],
                "steps": len(rec.ts) - 1, "term": rec.termination.value,
                "bytes": rec.ts.nbytes + rec.ys.nbytes + rec.fs.nbytes})
            return rec
        return wrapper

    def install(self):
        """Wrap the layer entry points of the imported package in place."""
        from radial_euler import (alignment, cli, euler_poisson, odeint, pde,
                                  profiles, sweep)

        def patch(owner, attr, name, attrs=None):
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs))

        for module in (euler_poisson, alignment, pde):
            module.integrate = self._counting_integrate(module.integrate)
        patch(sweep, "classify_ep", "euler_poisson.classify_ep", _classify_attrs)
        patch(cli, "run_sweep", "sweep.run_sweep")
        patch(sweep.SweepResult, "to_csv", "sweep.format")
        patch(sweep.SweepResult, "to_json", "sweep.format")
        patch(cli, "compute_threshold_constants", "euler_poisson.bound")
        patch(cli, "explicit_sigma_plus", "euler_poisson.bound")
        patch(cli, "enhanced_curve", "alignment.enhanced_curve")
        patch(alignment, "_kernel_integral", "alignment.kernel_integral")
        patch(cli, "simulate_ep", "pde.simulate")
        patch(cli, "simulate_ea", "pde.simulate")
        patch(pde, "_particle_kernels", "pde.particle_kernels", _kernel_attrs)
        patch(pde, "reconstruct_fields", "pde.reconstruct_fields")
        patch(odeint.TrajectoryRecord, "sample", "odeint.sample")
        for module in (euler_poisson, pde, profiles):
            patch(module, "integrate_weighted", "profiles.integrate_weighted")
        patch(cli, "_snapshot_csv", "cli.format")
        patch(cli, "_write", "cli.write", lambda args, _: {"bytes": len(args[1].encode())})
        for command in list(cli.COMMANDS):
            cli.COMMANDS[command] = self.wrap(cli.COMMANDS[command], "cli.command")


def _classify_attrs(args, out):
    from radial_euler.euler_poisson import DEFAULT_CONFIG
    config = args[2] if len(args) > 2 else DEFAULT_CONFIG
    return {"rel_tol": config.rel_tol, "early_exit": "early_exit" in out.diagnostics}


def _kernel_attrs(args, _):
    r, n, cos_theta = args[0], args[2], args[3]
    return {"phi_evals": len(r) ** 2 * (2 if n == 1 else len(cos_theta))}


def _percentile(sorted_vals, pct):
    """Linear-interpolation percentile of an ascending list."""
    if not sorted_vals:
        return 0.0
    pos = (len(sorted_vals) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_level(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    levels = [p for p in TAIL_LEVELS if n * (1.0 - p / 100.0) >= 10.0]
    return levels[-1] if levels else 0.0


def layer_metrics(spans: list) -> tuple[dict, dict]:
    """Per-layer metrics and the exact counts a repeat run must reproduce.

    Layer numbers cover the spans under a ``cli.command`` span, except
    ``alignment.quadrature_s``, which the output check exercises.
    """
    in_cli = []
    under_sim = []
    for span in spans:
        parent = span[PARENT]
        if parent < 0:
            in_cli.append(span[NAME] == "cli.command")
            under_sim.append(False)
        else:
            in_cli.append(in_cli[parent] or span[NAME] == "cli.command")
            under_sim.append(under_sim[parent] or spans[parent][NAME] == "pde.simulate")

    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += dur[i]

    def attr(i, key):
        """An attribute of span i; spans of calls that raised have none."""
        return (spans[i][ATTRS] or {}).get(key, 0)

    def select(name, cli_only=True):
        return [i for i, s in enumerate(spans)
                if s[NAME] == name and (in_cli[i] or not cli_only)]

    def total(idx):
        return sum(dur[i] for i in idx)

    def self_time(idx):
        return sum(dur[i] - child_time[i] for i in idx)

    integ = select("odeint.integrate")
    ia = [spans[i][ATTRS] for i in integ if spans[i][ATTRS]]
    steps = sum(a["steps"] for a in ia)
    rhs = sum(a["rhs"] for a in ia)
    terms = {t: sum(a["term"] == t for a in ia)
             for t in ("reached-horizon", "event", "blowup-detected", "step-collapse")}
    # every call evaluates k1 once, every attempted step six more stages,
    # and a terminal event once more at the located event time
    attempts = (rhs - len(ia) - terms["event"]) // 6
    integ_s = total(integ)

    classify = select("euler_poisson.classify_ep")
    cells_ms = sorted(dur[i] * 1e3 for i in classify)
    classify_integ_s = confirm_s = 0.0
    for i in integ:
        parent = spans[i][PARENT]
        if parent >= 0 and spans[parent][NAME] == "euler_poisson.classify_ep":
            classify_integ_s += dur[i]
            # the confirm re-run integrates at 10x tightened rel_tol
            if attr(i, "rel_tol") < 0.5 * attr(parent, "rel_tol"):
                confirm_s += dur[i]
    tail = tail_level(len(cells_ms))
    early_exits = sum(attr(i, "early_exit") for i in classify)

    run_sweep = select("sweep.run_sweep")
    kernels = select("pde.particle_kernels")
    writes = select("cli.write")
    commands = select("cli.command")
    samples = [i for i in select("odeint.sample") if under_sim[i]]
    weighted = select("profiles.integrate_weighted")

    metrics = {
        "odeint.calls": (len(integ), "count"),
        "odeint.s": (integ_s, "s"),
        "odeint.steps": (steps, "count"),
        "odeint.rejected": (attempts - steps, "count"),
        "odeint.accept_ratio": (steps / attempts if attempts else 0.0, "ratio"),
        "odeint.rhs_evals": (rhs, "count"),
        "odeint.event_evals": (sum(a["events"] for a in ia), "count"),
        "odeint.steps_per_s": (steps / integ_s if integ_s else 0.0, "1/s"),
        "odeint.record_bytes": (sum(a["bytes"] for a in ia), "B"),
        "odeint.term.horizon": (terms["reached-horizon"], "count"),
        "odeint.term.event": (terms["event"], "count"),
        "odeint.term.blowup": (terms["blowup-detected"], "count"),
        "odeint.term.collapse": (terms["step-collapse"], "count"),
        "euler_poisson.classify_calls": (len(classify), "count"),
        "euler_poisson.classify_s": (total(classify), "s"),
        "euler_poisson.cell_ms_p50": (_percentile(cells_ms, 50.0), "ms"),
        "euler_poisson.cell_ms_tail": (_percentile(cells_ms, tail) if tail else 0.0, "ms"),
        "euler_poisson.cell_tail_pct": (tail, "%"),
        "euler_poisson.confirm_share": (confirm_s / classify_integ_s
                                        if classify_integ_s else 0.0, "ratio"),
        "euler_poisson.early_exit_frac": (early_exits / len(classify) if classify else 0.0,
                                          "ratio"),
        "euler_poisson.bound_s": (total(select("euler_poisson.bound")), "s"),
        "sweep.s": (total(run_sweep), "s"),
        "sweep.dispatch_s": (self_time(run_sweep), "s"),
        "sweep.format_s": (total(select("sweep.format")), "s"),
        "pde.simulate_s": (total(select("pde.simulate")), "s"),
        "pde.kernels_s": (total(kernels), "s"),
        "pde.kernels_calls": (len(kernels), "count"),
        "pde.kernel_phi_evals": (sum(attr(i, "phi_evals") for i in kernels), "count"),
        "pde.sample_s": (total(samples), "s"),
        "pde.reconstruct_s": (total(select("pde.reconstruct_fields")), "s"),
        "profiles.integrate_weighted_s": (total(weighted), "s"),
        "profiles.integrate_weighted_calls": (len(weighted), "count"),
        "alignment.curve_s": (total(select("alignment.enhanced_curve")), "s"),
        "alignment.quadrature_s": (total(select("alignment.kernel_integral",
                                                cli_only=False)), "s"),
        "cli.format_s": (self_time(commands) + total(select("cli.format")), "s"),
        "cli.write_s": (total(writes), "s"),
        "cli.bytes_written": (sum(attr(i, "bytes") for i in writes), "B"),
    }
    counts = {name: value for name, (value, unit) in metrics.items()
              if unit in ("count", "B")}
    counts["euler_poisson.early_exits"] = early_exits
    return metrics, counts
