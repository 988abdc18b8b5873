"""The module graph of ``semap``: acyclic, imports at the top, and numpy
loaded only by ``semap.geometry``."""
import ast
import os
import subprocess
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "semap")

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
