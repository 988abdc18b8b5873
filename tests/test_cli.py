import json
import os
import subprocess
import sys
import textwrap

import pytest

from semap.catalog import archimedean
from semap.cli import main
from semap.map_core import face_key, format_map_text, parse_map_text

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_writes_file_and_summary(capsys, tmp_path):
    out = tmp_path / "snub.map"
    code, stdout, _ = run(capsys, "build", "snub-cube", "--out", str(out))
    assert code == 0
    assert stdout.strip() == "[3^4,4] 24"
    m = parse_map_text(out.read_text())
    assert m.vertex_count == 24


def test_build_pseudo_summary(capsys, tmp_path):
    out = tmp_path / "p.map"
    code, stdout, _ = run(capsys, "build", "pseudo-rhombicuboctahedron", "--out", str(out))
    assert code == 0
    assert stdout.strip() == "[3,4^3] 24"


def test_build_unknown_name(capsys, tmp_path):
    code, _, stderr = run(capsys, "build", "megahedron", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "UnknownName" in stderr


def test_build_stdout_map(capsys):
    code, stdout, stderr = run(capsys, "build", "cube")
    assert code == 0
    assert stdout.startswith("map 8\n")
    assert "[4^3] 8" in stderr


def test_json_requires_out_for_maps(capsys):
    code, _, stderr = run(capsys, "build", "cube", "--json")
    assert code == 2
    assert "usage" in stderr


def test_build_json(capsys, tmp_path):
    out = tmp_path / "c.map"
    code, stdout, _ = run(capsys, "build", "cube", "--json", "--out", str(out))
    assert code == 0
    assert json.loads(stdout) == {"name": "cube", "type": "[4^3]", "count": 8}


def test_apply_truncate(capsys, tmp_path):
    src = tmp_path / "tet.map"
    dst = tmp_path / "t.map"
    assert run(capsys, "build", "tetrahedron", "--out", str(src))[0] == 0
    code, stdout, _ = run(capsys, "apply", "truncate", "--in", str(src), "--out", str(dst))
    assert code == 0
    assert "before: [3^3] 4" in stdout and "after: [3,6^2] 12" in stdout
    assert parse_map_text(dst.read_text()).vertex_count == 12


def test_apply_quotient_rejected_for_truncated_cube(capsys, tmp_path):
    src = tmp_path / "tc.map"
    run(capsys, "build", "truncated-cube", "--out", str(src))
    code, _, stderr = run(capsys, "apply", "quotient", "--in", str(src), "--out", str(tmp_path / "q.map"))
    assert code == 1
    assert "NonPolyhedralQuotient" in stderr


def test_apply_remove_deep_blue(capsys, tmp_path):
    src = tmp_path / "sd.map"
    dst = tmp_path / "o.map"
    run(capsys, "build", "snub-dodecahedron", "--out", str(src))
    code, stdout, _ = run(
        capsys, "apply", "remove-deep-blue", "--in", str(src), "--out", str(dst)
    )
    assert code == 0
    assert "after: [3,4,5,4] 60" in stdout


def test_apply_insert_matching_with_seed(capsys, tmp_path):
    src = tmp_path / "srco.map"
    dst = tmp_path / "s.map"
    run(capsys, "build", "small-rhombicuboctahedron", "--out", str(src))
    code, stdout, _ = run(
        capsys, "apply", "insert-matching", "--in", str(src), "--out", str(dst), "--seed", "0,3"
    )
    assert code == 0 and "after: [3^4,4] 24" in stdout
    code, _, stderr = run(
        capsys, "apply", "insert-matching", "--in", str(src), "--out", str(dst), "--seed", "0,1"
    )
    assert code == 1 and "NotEligibleSquare" in stderr
    code, _, stderr = run(
        capsys, "apply", "insert-matching", "--in", str(src), "--out", str(dst), "--seed", "zero"
    )
    assert code == 2


def test_classify(capsys, tmp_path):
    src = tmp_path / "ti.map"
    run(capsys, "build", "truncated-icosahedron", "--out", str(src))
    code, stdout, _ = run(capsys, "classify", "--in", str(src))
    assert code == 0
    assert stdout.startswith("name=truncated-icosahedron witness=")


def test_classify_json(capsys, tmp_path):
    src = tmp_path / "p7.map"
    run(capsys, "build", "prism-7", "--out", str(src))
    code, stdout, _ = run(capsys, "classify", "--in", str(src), "--json")
    assert code == 0
    assert json.loads(stdout)["name"] == "prism-7"


def test_isom(capsys, tmp_path):
    a = tmp_path / "a.map"
    b = tmp_path / "b.map"
    run(capsys, "build", "prism-4", "--out", str(a))
    run(capsys, "build", "cube", "--out", str(b))
    code, stdout, _ = run(capsys, "isom", str(a), str(b))
    assert code == 0 and stdout.strip() == "isomorphic: true"
    run(capsys, "build", "octahedron", "--out", str(b))
    code, stdout, _ = run(capsys, "isom", str(a), str(b))
    assert code == 0 and stdout.strip() == "isomorphic: false"


def test_autgroup_pseudo(capsys, tmp_path):
    src = tmp_path / "p.map"
    run(capsys, "build", "pseudo-rhombicuboctahedron", "--out", str(src))
    code, stdout, _ = run(capsys, "autgroup", "--in", str(src))
    assert code == 0
    lines = stdout.splitlines()
    assert "order: 16" in lines
    assert "vertex-transitive: false" in lines
    # the generators follow the three header lines; they must close to
    # 16 permutations that preserve the face set
    m = parse_map_text(src.read_text())
    generators = [_from_cycles(line, m.vertex_count) for line in lines[3:]]
    group = {tuple(range(m.vertex_count))}
    frontier = list(group)
    while frontier:
        products = {tuple(g[v] for v in p) for p in frontier for g in generators}
        frontier = list(products - group)
        group |= products
    assert len(group) == 16
    keys = {face_key(f) for f in m.faces}
    assert all({face_key(tuple(p[v] for v in f)) for f in m.faces} == keys for p in group)


def _from_cycles(text, n):
    """The permutation of range(n) written as ``text`` in cycle notation."""
    sigma = list(range(n))
    for cycle in text.strip("()").split(")("):
        points = [int(x) for x in cycle.split()]
        for a, b in zip(points, points[1:] + points[:1]):
            sigma[a] = b
    return tuple(sigma)


def test_enum_types_counts(capsys):
    code, stdout, _ = run(capsys, "enum-types", "--max-gon", "12")
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 19 + 8 + 9
    assert "[3^4,5] 60" in lines
    assert "[4^2,12] 24" in lines


def test_enum_types_json(capsys):
    code, stdout, _ = run(capsys, "enum-types", "--max-gon", "12", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert len(payload["sporadic"]) == 19
    assert payload["violations"] == []
    members = {m["type"] for fam in payload["families"] for m in fam["members"]}
    assert "[3^3,12]" in members


def test_enum_types_guard(capsys):
    code, _, stderr = run(capsys, "enum-types", "--max-gon", "11")
    assert code == 2


def test_export_svg(capsys, tmp_path):
    src = tmp_path / "oct.map"
    dst = tmp_path / "oct.svg"
    run(capsys, "build", "octahedron", "--out", str(src))
    code, _, _ = run(capsys, "export", "--in", str(src), "--format", "svg", "--out", str(dst))
    assert code == 0
    assert dst.read_bytes().startswith(b"<?xml")


def test_rp2_catalog_command(capsys, tmp_path):
    out = tmp_path / "rp2"
    code, stdout, _ = run(capsys, "rp2-catalog", "--out", str(out))
    assert code == 0
    maps = sorted(p.name for p in out.glob("*.map"))
    assert len(maps) == 10
    manifest = (out / "manifest.tsv").read_text().splitlines()
    assert len(manifest) == 10


def test_sphere_catalog_command(capsys, tmp_path):
    out = tmp_path / "s2"
    code, stdout, _ = run(capsys, "sphere-catalog", "--out", str(out), "--max-gon", "12")
    assert code == 0
    assert len(list(out.glob("*.map"))) == 37


def test_verify_single_suite(capsys):
    code, stdout, _ = run(capsys, "verify", "--suite", "counts")
    assert code == 0
    assert stdout.startswith("PASS counts:")


def test_parse_error_is_usage(capsys, tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text("map 4\nf 0 1\n")
    code, _, stderr = run(capsys, "classify", "--in", str(bad))
    assert code == 2
    assert "parse error" in stderr


def test_pipeline_build_apply_classify(capsys, tmp_path):
    a = tmp_path / "a.map"
    b = tmp_path / "b.map"
    run(capsys, "build", "dodecahedron", "--out", str(a))
    run(capsys, "apply", "rectify", "--in", str(a), "--out", str(b))
    code, stdout, _ = run(capsys, "classify", "--in", str(b))
    assert code == 0
    assert stdout.startswith("name=icosidodecahedron")


def test_semap_threads_is_not_read(capsys, monkeypatch):
    monkeypatch.setenv("SEMAP_THREADS", "zero")
    code, stdout, stderr = run(capsys, "verify", "--suite", "counts")
    assert code == 0
    assert stdout.startswith("PASS counts:")
    assert stderr == ""


@pytest.mark.parametrize("content", [None, b"map 4\n\xff\xfe\n"], ids=["missing", "not-utf8"])
def test_unreadable_input_file_is_usage_error(capsys, tmp_path, content):
    path = tmp_path / "in.map"
    if content is not None:
        path.write_bytes(content)
    code, _, stderr = run(capsys, "classify", "--in", str(path))
    assert code == 2
    assert f"usage error: cannot read {path}" in stderr


def test_superscript_digit_header_is_parse_error(capsys, tmp_path):
    # "²".isdigit() holds, but int() rejects it
    bad = tmp_path / "bad.map"
    bad.write_text("map ²\nf 0 1 2\n", encoding="utf-8")
    code, _, stderr = run(capsys, "classify", "--in", str(bad))
    assert code == 2
    assert "parse error" in stderr and "malformed map header" in stderr


def test_superscript_digit_family_parameter_is_unknown_name(capsys, tmp_path):
    code, _, stderr = run(capsys, "build", "prism-²", "--out", str(tmp_path / "p.map"))
    assert code == 1
    assert "UnknownName" in stderr


def test_closed_stdout_reader_exits_cleanly():
    # The read end of the pipe is closed before the child starts, so its
    # first write to stdout fails whatever the scheduling.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "semap.cli", "autgroup"],
            input=format_map_text(archimedean("snub-cube").map),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error: BrokenPipeError" in proc.stderr


@pytest.mark.parametrize("suite,budget", [("admissible", 5.0), ("counts", None)])
def test_verify_json_reports_budget(capsys, suite, budget):
    code, stdout, _ = run(capsys, "verify", "--suite", suite, "--json")
    assert code == 0
    [report] = json.loads(stdout)
    assert report["suite"] == suite
    assert report["budget"] == budget


def test_oversized_header_number_is_parse_error(capsys, tmp_path):
    # past the 4300 digits int() accepts by default
    bad = tmp_path / "big.map"
    bad.write_text("map " + "9" * 5000 + "\nf 0 1 2\n", encoding="utf-8")
    code, _, stderr = run(capsys, "classify", "--in", str(bad))
    assert code == 2
    assert "parse error" in stderr and "map header number too long" in stderr


def test_oversized_family_parameter_is_too_large(capsys, tmp_path):
    code, _, stderr = run(capsys, "build", "prism-" + "9" * 5000, "--out", str(tmp_path / "p.map"))
    assert code == 1
    assert "error: TooLarge: prism-N needs N <= 10000" in stderr


def test_huge_family_parameter_is_refused_in_bounded_memory(tmp_path):
    # Run in a child capped at 1 GiB of address space, so that building
    # a 2*10**8-vertex drum fails with MemoryError there instead of
    # exhausting the machine.
    script = textwrap.dedent(
        """
        import resource, sys
        limit = 1024 ** 3
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        from semap.cli import main
        sys.exit(main(["build", "prism-100000000", "--out", sys.argv[1]]))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "p.map")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error: TooLarge: prism-N needs N <= 10000" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["enum-types", "--max-gon", "100000000"], ["sphere-catalog", "--max-gon", "100000000", "--out", "catalog"]],
    ids=["enum-types", "sphere-catalog"],
)
def test_huge_max_gon_is_too_large(tmp_path, argv):
    # Capped at 1 GiB of address space like the test above, so that an
    # unbounded enumeration or catalog fails in the child, not the machine.
    script = textwrap.dedent(
        """
        import resource, sys
        limit = 1024 ** 3
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        from semap.cli import main
        sys.exit(main(sys.argv[1:]))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error: TooLarge: max_gon 100000000 >" in proc.stderr
    assert not (tmp_path / "catalog").exists()


def test_export_past_the_vertex_bound_is_too_large(tmp_path):
    # Capped at 1 GiB of address space: without the bound, the dense
    # layout system of prism-10000 ends in a MemoryError there.
    script = textwrap.dedent(
        """
        import resource, sys
        limit = 1024 ** 3
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        from semap.cli import main
        if main(["build", "prism-10000", "--out", sys.argv[1]]) != 0:
            sys.exit("build failed")
        sys.exit(main(["export", "--in", sys.argv[1], "--format", "off", "--out", sys.argv[2]]))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "p.map"), str(tmp_path / "p.off")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "error: TooLarge: spherical realization takes at most 2000 vertices, got 20000" in proc.stderr


def test_autgroup_of_a_large_drum_fits_in_512_mib(tmp_path):
    # prism-4000 has 16 000 automorphisms of 8 000 vertices each; the
    # group is kept as generators and a flag orbit, so it fits in a
    # child capped at 512 MiB of address space
    script = textwrap.dedent(
        """
        import resource, sys
        limit = 512 * 1024 ** 2
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        from semap.cli import main
        if main(["build", "prism-4000", "--out", sys.argv[1]]) != 0:
            sys.exit("build failed")
        sys.exit(main(["autgroup", "--in", sys.argv[1]]))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "p.map")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "order: 16000" in proc.stdout.splitlines()
