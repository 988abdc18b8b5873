#!/usr/bin/env python3
"""semap benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload identify-relabelled --seed 1 \\
        --seconds 12 --trace 0

Builds the workload's inputs here, then runs them in a fresh worker
process (``worker.py``) that times the import of semap and the operations.
With ``--trace 0`` the result holds every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` a traced run gives every per-layer
metric instead.  Timings are reported at one reference speed of the
machine (see ``paced``); the line before the result stamps the
environment and gives the same timings as measured on the wall clock.
Exits non-zero, printing no result, when the program cannot be found or
the worker fails.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import worker  # noqa: E402  (after the path tweak, and imports no semap)

SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the worker included
MIN_OPS = 100      # the 90th percentile then has ten samples beyond it
WORKER_TIMEOUT_S = 170
# worker.reference_work() on an idle core of a 2-vCPU Intel Xeon VM
REFERENCE_WORK_S = 2.5e-3
PACE_WINDOW = 5    # reference timings taken into account on each side of an operation


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def call_worker(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def paced_setup(result: dict) -> float:
    """The worker's import time at the reference speed."""
    return result["setup_s"] * REFERENCE_WORK_S / result["setup_reference_s"]


def measure(spec: dict) -> dict:
    """Run the worker, plus fresh import-only processes for setup_s."""
    result = call_worker(spec)
    runs = [result]
    if not spec["trace"]:
        for _ in range(SETUP_SAMPLES - 1):
            runs.append(call_worker(dict(spec, items=[], import_only=True)))
    result["setup_samples"] = [paced_setup(r) for r in runs]
    result["setup_wall_samples"] = [r["setup_s"] for r in runs]
    return result


def paced(latencies: list[float], reference: list[float]) -> list[float]:
    """Each latency at the reference speed of the machine.

    The machine is shared, and how fast it runs Python drifts by tens of
    percent over seconds and minutes.  ``reference[i]`` is the time of the
    fixed reference work just before operation ``i`` (the last entry comes
    after the last operation).  Each latency is scaled by REFERENCE_WORK_S
    over the median of the reference timings nearest that operation, so a
    slow spell of the machine slows both and cancels, while a change to
    the program moves only the latency.
    """
    return [
        t * REFERENCE_WORK_S
        / statistics.median(reference[max(0, i - PACE_WINDOW): i + PACE_WINDOW + 2])
        for i, t in enumerate(latencies)
    ]


def timings(latencies: list[float], verified: int) -> dict[str, float]:
    ms = [t * 1e3 for t in latencies]
    return {
        "ops_per_s": verified / sum(latencies),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[-1],
    }


def end_to_end(result: dict) -> dict[str, float]:
    attempted = len(result["latencies"])
    verified = attempted - len(result["failures"])
    return {
        **timings(paced(result["latencies"], result["reference"]), verified),
        "setup_s": statistics.median(result["setup_samples"]),
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
        "success_ratio": verified / attempted,
    }


def report(result: dict, declared: dict, trace: int) -> dict:
    """The result line: every metric BENCHMARK.json lists for this mode."""
    if trace:
        values, listed = result["layers"], declared["per_layer"]
    else:
        values, listed = end_to_end(result), declared["end_to_end"]
    return {
        "correct": result["wrong"] == 0,
        "attempted": len(result["latencies"]),
        "failed": len(result["failures"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semap" / "__init__.py").is_file():
        print(f"no semap package under {SRC}", file=sys.stderr)
        return 2
    declared = benchmark_spec()
    sys.path.insert(0, str(SRC))
    import inputs
    import semap

    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "min_ops": MIN_OPS,
        "trace": args.trace,
        "src": str(SRC),
        "items": inputs.ITEMS[args.workload](),
    }
    if args.trace:
        spec["geometry_items"] = inputs.realize_items()
    result = measure(spec)
    try:
        line = report(result, declared, args.trace)
    except KeyError as exc:
        print(f"metric not computed: {exc}", file=sys.stderr)
        return 1

    for failure in result["failures"][:20]:
        print(failure, file=sys.stderr)
    print(json.dumps({
        "env": {
            "kernel": semap.KERNEL_NAME,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "cpu_count": os.cpu_count(),
            "git_sha": git_sha(),
            "workload": args.workload,
            "seed": args.seed,
        },
        "run": {
            "operations": len(result["latencies"]),
            "pass_seconds": result["pass_seconds"],
            "reference_work_ms": statistics.median(result["reference"]) * 1e3,
            "setup_samples": result["setup_samples"],
        },
        "wall": {
            **timings(result["latencies"], len(result["latencies"]) - len(result["failures"])),
            "setup_s": statistics.median(result["setup_wall_samples"]),
        },
    }))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
