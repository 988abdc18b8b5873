"""Acceptance gate: one verification suite per exit criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or check
the captured output).  Runtime budgets are enforced inside the suites
themselves, so a pass here certifies both correctness and speed.
"""
import ast
import glob
import os
import subprocess
import sys

import pytest

from semap.verification import SUITES, run_suite

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

_ORDERED = [
    ("admissible", "1 enumeration exactness at max-gon 50"),
    ("counts", "2 sporadic vertex-count table"),
    ("catalog", "3 catalog integrity, 37 pairwise non-isomorphic entries"),
    ("square-types", "4 square-neighbour signatures of the two 24-vertex twins"),
    ("operator-laws", "5 truncation/rectification laws and inverse round trips"),
    ("surgery", "6 deep-blue matchings and the snub surgeries"),
    ("identify", "7 classification with witnesses, projective catalog"),
    ("transitivity", "8 vertex transitivity and the one exception"),
    ("uniqueness", "9 exhaustive uniqueness of the regular base cases"),
    ("geometry", "10 every entry realized convex within 1e-12, OFF round trip"),
]


def test_every_criterion_has_a_suite():
    assert [name for name, _ in _ORDERED] == list(SUITES)


@pytest.mark.parametrize("suite,label", _ORDERED, ids=[s for s, _ in _ORDERED])
def test_criterion(suite, label):
    result = run_suite(suite)
    print(f"criterion {label}: {result.line()}")
    assert result.passed, result.detail


def test_no_assert_in_package():
    # python -O strips assert statements, so no check may rely on one
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "semap", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found.extend(
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert not found, f"assert statements in src/semap: {found}"


# identify lifts every rp2 entry through double_cover; surgery closes
# both snubs with insert_diagonal_matching; transitivity checks the
# automorphism groups and free_involutions; geometry certifies every
# realization
@pytest.mark.parametrize("suite", ["identify", "surgery", "transitivity", "geometry"])
def test_suite_passes_under_optimize(suite):
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "semap.cli", "verify", "--suite", suite],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith(f"PASS {suite}:")
