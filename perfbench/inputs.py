"""Seed-independent input pools for the four workloads.

Runs in the parent process only.  Building the catalog here, not in the
worker, keeps every process-wide cache inside semap cold when the worker
starts timing.  Each item carries the face list of a reference map plus
what the worker needs to check the answer; the worker relabels every item
from its own seeded generator, so the program only ever sees map text.
"""
from __future__ import annotations

DRUM_SIZES = (12, 16, 24, 32, 48)
INGEST_DRUM_SIZES = (100, 200, 300, 400)
FORWARD_OPERATORS = ("truncate", "rectify", "dual")


def _faces(m) -> list[list[int]]:
    return [list(f) for f in m.faces]


def identify_items() -> list[dict]:
    """The 47 catalog maps; rp2 entries must be named after their base."""
    from semap.catalog import entry_by_name, rp2_catalog, sphere_catalog

    items = []
    for entry in sphere_catalog(12):
        items.append(
            {"label": entry.name, "faces": _faces(entry.map), "double_cover": False,
             "expect": entry.name, "target": _faces(entry.map)}
        )
    for entry in rp2_catalog():
        base = entry.name[len("rp2-"):]
        items.append(
            {"label": entry.name, "faces": _faces(entry.map), "double_cover": True,
             "expect": base, "target": _faces(entry_by_name(base).map)}
        )
    return items


def drum_items() -> list[dict]:
    """Per size: two self-pairs (isomorphic) and two prism/antiprism pairs."""
    from semap.catalog import antiprism, prism

    items = []
    for n in DRUM_SIZES:
        p = _faces(prism(n).map)
        a = _faces(antiprism(n).map)
        for label, first, second, same in (
            ("prism/prism", p, p, True),
            ("antiprism/antiprism", a, a, True),
            ("prism/antiprism", p, a, False),
            ("antiprism/prism", a, p, False),
        ):
            items.append(
                {"label": f"{label}-{n}", "faces": first, "other": second,
                 "same": same, "n": n}
            )
    return items


def ingest_items() -> list[dict]:
    """Large maps, each paired once with every forward operator."""
    from semap.catalog import antiprism, archimedean, prism
    from semap.operators import rectify, truncate

    bases = []
    for n in INGEST_DRUM_SIZES:
        bases.append((f"prism-{n}", prism(n).map))
        bases.append((f"antiprism-{n}", antiprism(n).map))
    m = archimedean("icosidodecahedron").map
    for k in range(1, 5):
        m = rectify(m)
        if k >= 2:
            bases.append((f"rectify^{k}(icosidodecahedron)", m))
    m = archimedean("snub-dodecahedron").map
    for k in range(1, 3):
        m = truncate(m)
        bases.append((f"truncate^{k}(snub-dodecahedron)", m))
    return [
        {"label": f"{op}({name})", "faces": _faces(m), "op": op}
        for name, m in bases
        for op in FORWARD_OPERATORS
    ]


def realize_items() -> list[dict]:
    """The 37 entries of sphere_catalog(12): 19 sporadic maps and 18 drums."""
    from semap.catalog import sphere_catalog

    return [{"label": e.name, "faces": _faces(e.map)} for e in sphere_catalog(12)]


ITEMS = {
    "identify-relabelled": identify_items,
    "drum-symmetry": drum_items,
    "ingest-large": ingest_items,
    "realize-sphere": realize_items,
}
