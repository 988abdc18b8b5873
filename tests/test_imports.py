"""The module graph of ``semap``: acyclic, imports at the top, numpy
loaded only by ``semap.geometry``, and no public name without a caller."""
import ast
import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "semap")

# the only imports inside functions: each keeps numpy off the paths
# that never touch geometry
LAZY_IMPORTS = {("cli", "_cmd_export"), ("verification", "_suite_geometry")}


def _trees():
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
                yield filename[:-3], ast.parse(fh.read())


def _semap_imports(node) -> set[str]:
    """Modules of semap that an import statement names."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("semap.")}
    if node.module == "semap":
        return {a.name for a in node.names}
    if node.module and node.module.startswith("semap."):
        return {node.module.split(".")[1]}
    return set()


def _import_in_fresh_interpreter(modules: list[str]) -> bool:
    code = "import sys\n" + "".join(f"import {m}\n" for m in modules) + "print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_numpy_loads_only_with_geometry():
    exact = [
        "semap",
        "semap.cli",
        "semap.classify",
        "semap.catalog",
        "semap.symmetry",
        "semap.operators",
        "semap.vtype",
        "semap.verification",
    ]
    assert not _import_in_fresh_interpreter(exact)
    assert _import_in_fresh_interpreter(["semap.geometry"])


def test_imports_sit_at_the_top_of_an_acyclic_graph():
    lazy = set()
    graph = {}
    for name, tree in _trees():
        graph[name] = set()
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                graph[name] |= _semap_imports(node)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lazy.update(
                    (name, func.name)
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert lazy == LAZY_IMPORTS
    assert "classify" not in graph["catalog"]

    # repeatedly drop the modules that import nothing left; a cycle stays
    remaining = dict(graph)
    while remaining:
        leaves = {m for m, deps in remaining.items() if not deps & remaining.keys()}
        assert leaves, f"import cycle among {sorted(remaining)}"
        for m in leaves:
            del remaining[m]


def test_every_public_name_is_reached_from_the_package_or_perfbench():
    lines = {}
    for folder in (PACKAGE, os.path.join(ROOT, "perfbench")):
        for filename in sorted(os.listdir(folder)):
            if filename.endswith(".py"):
                with open(os.path.join(folder, filename), encoding="utf-8") as fh:
                    lines[os.path.join(folder, filename)] = fh.read().splitlines()
    unreached = []
    for name, tree in _trees():
        own = os.path.join(PACKAGE, name + ".py")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                word = re.compile(rf"\b{node.name}\b")
                if not any(
                    word.search(line)
                    for path, text in lines.items()
                    for number, line in enumerate(text, 1)
                    if (path, number) != (own, node.lineno)
                ):
                    unreached.append(f"{name}.{node.name}")
    assert not unreached, f"public names only tests reach: {unreached}"
