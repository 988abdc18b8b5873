"""Fuzz gates: bad input ends in a SemapError or an exit code, never a
traceback."""
import contextlib
import io
import os
import sys
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from semap.catalog import archimedean, platonic, prism
from semap.cli import main
from semap.errors import MapFormatError, SemapError
from semap.geometry import export, parse_off, prism_coordinates
from semap.map_core import format_map_text, parse_map_text

_MAP_TEXTS = [
    format_map_text(platonic("tetrahedron").map),
    format_map_text(platonic("cube").map),
    format_map_text(archimedean("truncated-tetrahedron").map),
    format_map_text(prism(5).map),
]

# numbers that int() rejects, that are sparse or huge, and small ones
_number = st.one_of(
    st.integers(-1, 12).map(str),
    st.sampled_from(["²", "9" * 5000, "99999999999"]),
)
_map_line = st.one_of(
    _number.map("map {}".format),
    st.lists(_number, min_size=1, max_size=6).map(lambda ids: "f " + " ".join(ids)),
    st.lists(st.one_of(st.sampled_from(["map", "f", "#"]), _number, st.text(max_size=4)), max_size=7).map(" ".join),
)


@st.composite
def _mutated_map_text(draw):
    """A valid map text with a few lines replaced, dropped or repeated."""
    lines = draw(st.sampled_from(_MAP_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["replace", "drop", "repeat"]))
        if action == "replace":
            lines[i] = draw(_map_line)
        elif action == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
        if not lines:
            break
    return "\n".join(lines)


_map_text = st.one_of(
    st.text(),
    st.lists(_map_line, max_size=12).map("\n".join),
    _mutated_map_text(),
    st.sampled_from(_MAP_TEXTS),
)


_HUGE_HEADER = "map " + "9" * 5000 + "\nf 0 1 2\n"


@settings(max_examples=300, deadline=None)
@given(_map_text)
@example(_HUGE_HEADER)
def test_parse_map_text_raises_only_semap_errors(text):
    try:
        parse_map_text(text)
    except SemapError:
        pass


_OFF = export(prism_coordinates(3), prism(3).map, "off")
_off_line = st.one_of(
    st.lists(st.one_of(_number, st.sampled_from(["x", "1.5", "nan", "-0"])), max_size=5).map(" ".join),
    st.binary(max_size=6).map(lambda b: b.decode("latin-1")),
)


@st.composite
def _broken_off(draw):
    """The OFF export of a prism, cut short or with lines replaced."""
    lines = _OFF.decode("ascii").splitlines()
    for _ in range(draw(st.integers(0, 3))):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(_off_line)
    return "\n".join(lines).encode("latin-1")[: draw(st.integers(0, len(_OFF)))]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(), _broken_off()))
def test_parse_off_raises_only_map_format_errors(data):
    try:
        parse_off(data)
    except MapFormatError:
        pass


# Commands that write catalogs, run every suite or realize geometry are
# left out: they are slow or write outside the working directory.
_COMMANDS = ["build", "apply", "classify", "isom", "autgroup", "enum-types"]
_arg_token = st.one_of(
    st.sampled_from(["--json", "--in", "--out", "--seed", "--max-gon", "-", "-h"]),
    st.sampled_from(
        [
            "truncate", "rectify", "dual", "remove-deep-blue", "insert-matching",
            "quotient", "double-cover",
        ]
    ),
    st.sampled_from(["cube", "icosahedron", "snub-cube", "0,1", "0,2", "x,y"]),
    st.tuples(st.sampled_from(["prism-", "antiprism-"]), _number).map("".join),
    st.integers(-3, 60).map(str),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz-,_", max_size=6),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(_COMMANDS),
    args=st.lists(_arg_token, max_size=5),
    stdin=_map_text,
)
@example(command="classify", args=[], stdin=_HUGE_HEADER)
@example(command="build", args=["prism-" + "9" * 5000], stdin="")
@example(command="enum-types", args=["--max-gon", "100000000"], stdin="")
def test_cli_main_returns_an_exit_code(command, args, stdin):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    saved_stdin = sys.stdin
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # any --out lands here
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, *args])
        finally:
            sys.stdin = saved_stdin
            os.chdir(cwd)
    assert code in (0, 1, 2), (command, args, code)
