"""Benchmark of the radial-euler CLI: batch workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  ``--seed`` generates
the workload configs (seed 0 gives the reference configs), and the
program only ever sees those config files.

``--trace 0`` measures what a user waits for, with no wrappers
installed.  It runs whole passes of the workload, each in a fresh
interpreter and every command with ``--threads 1``, while a further
pass should still end within ``--seconds`` (at least ``MIN_PASSES``).
Each interpreter first imports ``radial_euler.cli`` and parses the
workload configs; the time from its start to that point is a
``setup_s`` sample (set-up-only interpreters top the samples up to
``SETUP_SAMPLES``).  Every pass is checked against the workload's oracle
and must write byte-identical artifacts.

On a shared virtual machine the speed of a core switches between levels
up to about 2x apart for seconds to minutes at a time, so raw seconds of
runs made minutes apart spread by more than any bound worth setting.
Every timing is therefore given at the reference speed of
``reference.py``: the worker samples the reference work on its own core
while each command runs and scales the command's time by it, and the
set-up sample is scaled by the reference work timed in this parent right
before the interpreter starts and in the interpreter right after set-up.
One process on one core is what keeps the probe on the core that does
the work, so the sweeps run without their process pool.  ``wall_s`` and
``cpu_s`` are the median over passes of the workload's commands in
reference-speed seconds, ``setup_s`` the median of the set-up samples in
reference-speed seconds, and ``peak_rss_mb`` the largest peak of any
pass.  The raw seconds and the scale of every command are in the record.

``--trace 1`` runs one untraced pass and two traced passes, whatever
``--seconds`` says.  It reports the per-layer metrics of the first traced
pass, the tracing overhead (reference-speed seconds) against the
untraced pass, and whether the two traced passes counted exactly the
same work.

The last line of standard output is the result object; the full record
(environment, every sample, artifact hashes, failure notes) is printed on
the line before and written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 1
DEADLINE_S = 165.0   # a run ends well inside the 180 s a run may take

def _source_id() -> dict:
    """The git commit if the checkout has one, and a hash of src/ always."""
    ident = {}
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_name = ref[5:]
            ref_file = ROOT / ".git" / ref_name
            if ref_file.is_file():
                ident["git_sha"] = ref_file.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref_name):
                        ident["git_sha"] = line.split()[0]
        else:
            ident["git_sha"] = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    ident["src_sha256"] = digest.hexdigest()
    return ident


class Runner:
    def __init__(self, workload: str, run_dir: Path):
        self.started = time.perf_counter()
        self.wl = WORKLOADS[workload]
        self.run_dir = run_dir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), CT_LOG="WARNING")
        # one core: the speed probe samples the core the commands run on
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def run_pass(self, name: str, mode: str = "timed") -> dict:
        """One fresh worker interpreter; mode is setup, timed or traced."""
        result_path = self.run_dir / f"{name}.json"
        before = reference.measure()
        spawned_at = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), self.wl.name, str(self.run_dir),
               name, repr(spawned_at), mode]
        timeout = max(self.started + DEADLINE_S - time.perf_counter(), 1.0)
        # a session of its own, so a timeout also stops anything the worker started
        with subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, start_new_session=True) as proc:
            try:
                _, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return {"name": name, "crashed": f"timed out after {timeout:.0f} s"}
        if proc.returncode != 0 or not result_path.is_file():
            return {"name": name, "crashed": stderr.decode(errors="replace")[-2000:]}
        result = json.loads(result_path.read_text())
        result["name"] = name
        result["ref_setup_s"] = result["setup_s"] * reference.REFERENCE_S["python"] / (
            0.5 * (before + result["reference_s"]))
        return result


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def _tally(passes, record):
    """Attempted/failed over all passes, plus one op per repeat's artifact hashes."""
    attempted = failed = 0
    first_hashes = None
    for p in passes:
        if "crashed" in p:
            attempted += 1
            failed += 1
            record["notes"].append(f"{p['name']}: worker failed: {p['crashed']}")
            continue
        attempted += p["attempted"]
        failed += p["failed"]
        record["notes"] += [f"{p['name']}: {n}" for n in p["notes"]]
        record["errors"] += p["errors"]
        if first_hashes is None:
            first_hashes = p["sha256"]
            record["sha256"] = first_hashes
        else:
            attempted += 1
            if p["sha256"] != first_hashes:
                failed += 1
                record["notes"].append(f"{p['name']}: artifacts differ from the first pass")
    return attempted, failed


def timed(runner: Runner, seconds: int, record) -> tuple[int, int, dict]:
    """End-to-end metrics over fresh-interpreter passes of the whole workload."""
    passes = []
    start = time.perf_counter()
    # a further pass only if it should end within the run's seconds
    while len(passes) < MIN_PASSES or (time.perf_counter() - start) * (
            len(passes) + 1) / len(passes) <= seconds:
        passes.append(runner.run_pass(f"pass{len(passes):02d}"))
        if "crashed" in passes[-1]:
            break
    attempted, failed = _tally(passes, record)
    good = [p for p in passes if "crashed" not in p]
    setups = list(good)
    while good and len(setups) < SETUP_SAMPLES:
        extra = runner.run_pass(f"setup{len(setups):02d}", "setup")
        attempted += 1
        if "crashed" in extra:
            failed += 1
            record["notes"].append(f"{extra['name']}: set-up failed: {extra['crashed']}")
            break
        setups.append(extra)
    samples = {"setup_s": [p["ref_setup_s"] for p in setups],
               "wall_s": [p["ref_wall_s"] for p in good],
               "cpu_s": [p["ref_cpu_s"] for p in good],
               "peak_rss_mb": [p["peak_rss_mb"] for p in good],
               "raw_setup_s": [p["setup_s"] for p in setups],
               "raw_wall_s": [p["wall_s"] for p in good],
               "raw_cpu_s": [p["cpu_s"] for p in good]}
    record["speed_scale"] = [p["speed_scale"] for p in good]
    record["command_wall_s"] = {c.key: statistics.fmean(p["command_wall_s"][c.key]
                                                        for p in good)
                                for c in runner.wl.commands} if good else {}
    record["samples"] = samples
    record["quartiles"] = {k: _quartiles(v) for k, v in samples.items()}
    record["sample_counts"] = {k: len(v) for k, v in samples.items()}
    record["environment"] = good[0]["environment"] if good else None
    if not good:
        return attempted, failed, {}
    metrics = {"setup_s": (statistics.median(samples["setup_s"]), "s"),
               "wall_s": (statistics.median(samples["wall_s"]), "s"),
               "cpu_s": (statistics.median(samples["cpu_s"]), "s"),
               "peak_rss_mb": (max(samples["peak_rss_mb"]), "MB"),
               "ok_frac": (1.0 - failed / attempted, "ratio")}
    return attempted, failed, metrics


def traced(runner: Runner, record) -> tuple[int, int, dict]:
    """Per-layer metrics of one traced pass, checked against a second one."""
    untraced = runner.run_pass("untraced")
    first = runner.run_pass("traced-a", "traced")
    second = runner.run_pass("traced-b", "traced")
    passes = [untraced, first, second]
    attempted, failed = _tally(passes, record)
    if any("crashed" in p for p in passes):
        return attempted, failed, {}
    attempted += 1
    identical = first["counts"] == second["counts"]
    if not identical:
        failed += 1
        record["notes"].append("traced counts differ between two traced passes: "
                               f"{first['counts']} vs {second['counts']}")
    record["counts"] = first["counts"]
    record["command_wall_s"] = {"untraced": untraced["command_wall_s"],
                                "traced": first["command_wall_s"]}
    record["environment"] = first["environment"]
    record["sample_counts"] = {"traced_passes": 2, "untraced_passes": 1,
                               "cells": first["layers"]["euler_poisson.classify_calls"][0]}
    metrics = dict(first["layers"])
    overhead = first["ref_wall_s"] - untraced["ref_wall_s"]
    metrics.update({"trace.wall_s": (first["ref_wall_s"], "s"),
                    "trace.untraced_wall_s": (untraced["ref_wall_s"], "s"),
                    "trace.overhead_s": (overhead, "s"),
                    "trace.overhead_frac": (overhead / untraced["ref_wall_s"], "ratio"),
                    "trace.spans": (first["spans"], "count"),
                    "trace.repeat_identical": (1 if identical else 0, "count")})
    record["derived"] = {
        "odeint.rejected": "(rhs_evals - calls - event terminations) / 6 - steps",
        "pde.kernel_phi_evals": "computed as the sum of N^2 * theta nodes over kernel "
                                "calls, not counted",
        "euler_poisson.cell_ms_tail": "percentile cell_tail_pct of classify_calls cells"}
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "radial_euler" / "cli.py").is_file():
        print(f"error: no radial_euler sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    run_dir = ROOT / ".perfbench_out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "cfg").mkdir(parents=True)
    cfgs = wl.configs(args.seed)
    for name, sections in cfgs.items():
        (run_dir / "cfg" / f"{name}.cfg").write_text(config_text(sections), encoding="utf-8")
    (run_dir / "configs.json").write_text(json.dumps(cfgs, indent=1), encoding="utf-8")

    record = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "source": _source_id(), "notes": [], "errors": []}
    runner = Runner(wl.name, run_dir)
    if args.trace:
        attempted, failed, metrics = traced(runner, record)
    else:
        attempted, failed, metrics = timed(runner, args.seconds, record)
    result = {"correct": failed == 0 and not record["errors"],
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record["result"] = result
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
