"""One benchmark pass in a fresh interpreter: run a workload's CLI commands.

    python3 perfbench/worker.py WORKLOAD RUN_DIR PASS_NAME SPAWNED_AT MODE

MODE is ``setup`` (import and parse only), ``timed`` or ``traced``.
Every command runs with ``--threads 1``, on the core the speed probe samples.
The interpreter first imports ``radial_euler.cli`` and parses the configs
that ``run.py`` wrote under RUN_DIR/cfg, before anything else is
imported; SPAWNED_AT (``time.monotonic()`` of the parent when it started
this process) to that point is the pass's set-up time.  Then it runs
each command through ``radial_euler.cli.main`` into RUN_DIR/out and
times each command (wall and CPU time of this process and its
children).  A ``reference.SpeedProbe`` samples the host's speed while
the commands run, and each command's times are also given at the
reference speed; ``reference_s`` is the mean reference sample right
after set-up.  Outside the timed window it checks the artifacts against
the workload's oracle and hashes them.  In ``traced`` mode the layer
wrappers are installed first, the per-layer metrics are added and the
spans ([name, start, end, parent index]) go to RUN_DIR/PASS_NAME-spans.json.
The result is written to RUN_DIR/PASS_NAME.json.
"""

import os
import sys
import time

# Module level on purpose: the set-up sample ends before anything that
# only this script needs is imported.
WORKLOAD, RUN_DIR, PASS_NAME, SPAWNED_AT, MODE = sys.argv[1:6]
CONFIGS = sorted(os.listdir(os.path.join(RUN_DIR, "cfg")))

import radial_euler.cli as cli  # noqa: E402

for _name in CONFIGS:
    cli.parse_config(os.path.join(RUN_DIR, "cfg", _name))
SETUP_S = time.monotonic() - float(SPAWNED_AT)

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402

import reference  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _sha256_tree(root: str) -> dict:
    out = {}
    for dirpath, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine()}


def _write_result(result: dict):
    with open(os.path.join(RUN_DIR, f"{PASS_NAME}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def main() -> int:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.commonpath([os.path.abspath(cli.__file__), src]) != src:
        print(f"radial_euler imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    reference.measure(20)  # warm-up: the first runs in a fresh interpreter are slower
    after_setup = reference.measure()
    if MODE == "setup":
        _write_result({"setup_s": SETUP_S, "reference_s": after_setup})
        return 0
    wl = WORKLOADS[WORKLOAD]
    tracer = None
    if MODE == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    with open(os.path.join(RUN_DIR, "configs.json"), encoding="utf-8") as fh:
        cfgs = json.load(fh)
    out_dir = os.path.join(RUN_DIR, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    rcs, walls, cpus, scales, errors = {}, {}, {}, {}, []
    probe = reference.SpeedProbe()
    probe.start()
    root = tracer.open("workload") if tracer else None
    for cmd in wl.commands:
        argv = [cmd.command,
                "--config", os.path.join(RUN_DIR, "cfg", f"{cmd.config}.cfg"),
                "--out", os.path.join(out_dir, cmd.out),
                "--threads", "1"]
        window = probe.mark()
        t_cmd, c_cmd = time.perf_counter(), _cpu_seconds()
        try:
            rcs[cmd.key] = cli.main(argv)
        except Exception:
            rcs[cmd.key] = "exception"
            errors.append(traceback.format_exc())
        walls[cmd.key] = time.perf_counter() - t_cmd
        cpus[cmd.key] = _cpu_seconds() - c_cmd
        scales[cmd.key] = probe.scale(window, cmd.reference)
    probe.stop()
    if tracer:
        tracer.close(root)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    outcome = Outcome()
    check = tracer.open("check") if tracer else None
    try:
        wl.check(cfgs, out_dir, rcs, outcome)
    except Exception:
        errors.append(traceback.format_exc())
        outcome.command("check", 0, ["the output check raised"])
    if tracer:
        tracer.close(check)

    result = {"setup_s": SETUP_S, "reference_s": after_setup, "speed_scale": scales,
              "probe_samples": len(probe.samples),
              "wall_s": sum(walls.values()), "cpu_s": sum(cpus.values()),
              "ref_wall_s": sum(walls[k] * scales[k] for k in walls),
              "ref_cpu_s": sum(cpus[k] * scales[k] for k in cpus),
              "peak_rss_mb": rss_kb / 1024.0, "command_wall_s": walls,
              "command_cpu_s": cpus, "exit_codes": rcs,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "notes": outcome.notes, "errors": errors,
              "sha256": _sha256_tree(out_dir), "environment": environment()}
    if tracer:
        from tracer import layer_metrics
        result["layers"], result["counts"] = layer_metrics(tracer.spans)
        result["spans"] = len(tracer.spans)
        with open(os.path.join(RUN_DIR, f"{PASS_NAME}-spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump([span[:4] for span in tracer.spans], fh)
    _write_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
