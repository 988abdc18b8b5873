#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

A short run of every workload, on a few cheap inputs, must emit every
end-to-end metric named in BENCHMARK.json with its unit; a traced run
must emit every per-layer metric.  An injected wrong verdict and an
injected SemapError must each be counted as a failed operation, without
raising.  Prints one line per problem and exits 1 if there is any.
"""
from __future__ import annotations

import math
import sys

import run  # imports no semap, so the path below still decides which is used

sys.path.insert(0, str(run.SRC))
import inputs  # noqa: E402

SMALL = {
    "identify-relabelled": ("tetrahedron", "prism-5", "rp2-icosahedron"),
    "drum-symmetry": ("prism/prism-12", "prism/antiprism-12"),
    "ingest-large": (
        "truncate(rectify^2(icosidodecahedron))",
        "dual(rectify^2(icosidodecahedron))",
    ),
    "realize-sphere": ("tetrahedron", "prism-5"),
}


def small_items(workload: str) -> list[dict]:
    return [it for it in inputs.ITEMS[workload]() if it["label"] in SMALL[workload]]


def small_spec(workload: str, trace: int) -> dict:
    spec = {
        "workload": workload,
        "seed": 7,
        "seconds": 0,
        "min_ops": 1,
        "trace": trace,
        "src": str(run.SRC),
        "items": small_items(workload),
    }
    if trace:
        spec["geometry_items"] = small_items("realize-sphere")
    return spec


def metric_problems(result: dict, declared: dict, trace: int, where: str) -> list[str]:
    try:
        line = run.report(result, declared, trace)
    except KeyError as exc:
        return [f"{where}: metric {exc} not computed"]
    problems = []
    if line["failed"] or not line["correct"]:
        problems.append(f"{where}: clean run gave {line['failed']} failures")
    for metric in declared["per_layer" if trace else "end_to_end"]:
        got = line["metrics"][metric["name"]]
        if got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{where}: {metric['name']} emitted as {got}")
    return problems


def injection_problems() -> list[str]:
    """Wrong name for the tetrahedron, a SemapError for prism-5."""
    import worker
    from semap import classify
    from semap.errors import ClassificationViolation

    real = classify.identify

    def faulty(m):
        verdict = real(m)
        if verdict.name == "prism-5":
            raise ClassificationViolation("injected")
        if verdict.name == "tetrahedron":
            return classify.Verdict("cube", verdict.witness)
        return verdict

    classify.identify = faulty
    try:
        result = worker.run(small_spec("identify-relabelled", 0))
    except Exception as exc:
        return [f"injected faults raised {type(exc).__name__}: {exc}"]
    finally:
        classify.identify = real
    result["setup_samples"] = [run.paced_setup(result)]
    line = run.report(result, run.benchmark_spec(), 0)
    expected = {"correct": False, "attempted": 3, "failed": 2}
    got = {key: line[key] for key in expected}
    problems = [] if got == expected else [f"injected faults gave {got}, expected {expected}"]
    if line["metrics"]["success_ratio"]["value"] != 1 / 3:
        problems.append(f"success_ratio {line['metrics']['success_ratio']} after injection")
    return problems


def main() -> int:
    declared = run.benchmark_spec()
    problems = []
    for workload in run.worker.WORKLOADS:  # realize-sphere too, though unlisted
        problems += metric_problems(run.measure(small_spec(workload, 0)), declared, 0, workload)
    traced = run.measure(small_spec("drum-symmetry", 1))
    problems += metric_problems(traced, declared, 1, "traced drum-symmetry")
    problems += injection_problems()
    for problem in problems:
        print(problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
