"""Fuzz: ``classify --module-file`` on a mutated module document exits 0 or 2, never with a traceback.

Each example of the first fuzz takes the ``to_json`` document of a built
window and makes one mutation that ``WindowedModule.from_json`` must
refuse: a value of the wrong JSON type (floats, bools and numeric
strings where an integer is read; floats and bools where a rational is
read; a container of the other kind, such as an empty object for an
empty array), a required key or list element removed, or an unknown key
added to an object.  The second fuzz changes
one value within its type (a range bound, a weight-space dimension, a
matrix shape, a column-margin list length or an action source), which
from_json or a size cap may refuse, or which may still classify.

Each example writes a new file: truncating the same file again can cost
tens of milliseconds, more than the example itself.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blocklie import cli  # noqa: E402
from blocklie.cli import main  # noqa: E402
from blocklie.modules import IntermediateSpec, build_window  # noqa: E402

DOCUMENT = build_window(IntermediateSpec("Aab", Fraction(1, 2), Fraction(2)), -2, 2).to_json()
# DOCUMENT's arrays are all nonempty; these windows classify with an empty array, where
# an empty object passed as the empty list: no generator, no action and no column margin
BARE = {"variant": "Vir", "offset": "0", "range": [0, 1], "dims": {"0": 1, "1": 0}, "generators": [], "actions": []}
# a window whose one generator acts at no index, so that its weight spaces take any size
OPEN = {
    "variant": "Vir", "offset": "1/2", "range": [0, 1], "central": "0", "dims": {"0": 1, "1": 1},
    "generators": [{"alpha": 3, "level": 0}], "actions": [],
}
EMPTY_SPACE = dict(BARE, dims={"0": 0, "1": 1}, col_margins={"0": [], "1": [3]})
EMPTY_ARRAYS = [(BARE, ("generators",)), (BARE, ("actions",)), (OPEN, ("actions",)), (EMPTY_SPACE, ("col_margins", "0"))]

# how from_json reads the children of each container kind
CHILDREN = {
    "module": {
        "variant": "string", "offset": "rational", "central": "rational",
        "range": "range", "dims": "dims", "generators": "generators", "actions": "actions",
    },
    "generator": {"alpha": "int", "level": "int"},
    "action": {"alpha": "int", "level": "int", "source": "int", "matrix": "matrix"},
    "matrix": {"rows": "int", "cols": "int", "entries": "entries"},
}
ELEMENTS = {"range": "int", "dims": "int", "generators": "generator", "actions": "action", "entries": "rational"}
# the keys from_json reads with no default; any dims key or list element is required too
REQUIRED = {
    "module": {"variant", "offset", "range", "dims", "generators", "actions"},
    "generator": {"alpha", "level"},
    "action": {"alpha", "level", "source", "matrix"},
    "matrix": {"rows", "cols"},
    "dims": None,
    "range": None,
    "generators": None,
    "actions": None,
}
OBJECTS = {"module", "generator", "action", "matrix", "dims", "entries"}


def _sites(value, path=(), kind="module"):
    """(path, kind) of the document and of every value inside it."""
    yield path, kind
    if kind in CHILDREN:
        for key, child in CHILDREN[kind].items():
            yield from _sites(value[key], path + (key,), child)
    elif kind in ELEMENTS:
        keys = value if isinstance(value, dict) else range(len(value))
        for key in keys:
            yield from _sites(value[key], path + (key,), ELEMENTS[kind])


SITES = list(_sites(DOCUMENT))

_scalars = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
_json = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=4)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_containers = st.lists(_json, max_size=2) | st.dictionaries(st.text(max_size=3), _json, max_size=2)


def _wrong_type(kind: str, value):
    """Values of a JSON type that from_json refuses where it reads ``kind``."""
    if kind == "int":
        return _floats | st.booleans() | st.just(str(value)) | st.none() | _containers | st.text(max_size=4)
    if kind == "rational":
        return _floats | st.booleans() | st.none() | _containers
    if kind == "string":
        return _floats | st.booleans() | st.integers() | st.none() | _containers
    other = st.lists(_json, max_size=2) if kind in OBJECTS else st.dictionaries(st.text(max_size=3), _json, max_size=2)
    return other | _floats | st.booleans() | st.integers() | st.none() | st.text(max_size=4)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutations(draw):
    doc = copy.deepcopy(DOCUMENT)
    how = draw(st.sampled_from(["type", "type", "empty", "missing", "extra"]))
    if how == "empty":
        source, path = draw(st.sampled_from(EMPTY_ARRAYS))
        doc = copy.deepcopy(source)
        _at(doc, path[:-1])[path[-1]] = {}
        return doc, f"{path} -> {{}} in {source}"
    if how == "type":
        path, kind = draw(st.sampled_from(SITES))
        value = draw(_wrong_type(kind, _at(doc, path)))
        if not path:
            return value, f"document -> {value!r}"
        _at(doc, path[:-1])[path[-1]] = value
        return doc, f"{path} -> {value!r}"
    if how == "missing":
        path, kind = draw(st.sampled_from([(p, k) for p, k in SITES if k in REQUIRED]))
        node = _at(doc, path)
        keys = sorted(REQUIRED[kind]) if REQUIRED[kind] else list(node if isinstance(node, dict) else range(len(node)))
        key = draw(st.sampled_from(keys))
        del node[key]
        return doc, f"{path} without {key!r}"
    path, kind = draw(st.sampled_from([(p, k) for p, k in SITES if k in OBJECTS]))
    key = "x" + draw(st.text(max_size=3))
    _at(doc, path)[key] = draw(_json)
    return doc, f"{path} with extra {key!r}"


# the value fuzz lowers classify's weight-space cap to SPACE_CAP, so that every
# window it accepts classifies in milliseconds (tests/test_cli.py holds the real cap)
SPACE_CAP = 6
# DOCUMENT with column margins
MARGINED = dict(DOCUMENT, col_margins={k: [1] * d for k, d in DOCUMENT["dims"].items()})
_ints = st.integers(-3, 2 * SPACE_CAP + 2) | st.integers(-(10**12), 10**12)


@st.composite
def _value_mutations(draw):
    doc = copy.deepcopy(draw(st.sampled_from([MARGINED, OPEN])))
    kind = draw(st.sampled_from(["range", "dims"] + (["rows", "cols", "margins", "source"] if doc["actions"] else [])))
    if kind == "range":
        doc["range"][draw(st.integers(0, 1))] = value = draw(_ints)
    elif kind == "dims":
        doc["dims"][draw(st.sampled_from(sorted(doc["dims"])))] = value = draw(_ints)
    elif kind == "margins":
        doc["col_margins"][draw(st.sampled_from(sorted(doc["col_margins"])))] = value = [1] * draw(st.integers(0, 3))
    else:
        action = draw(st.sampled_from(doc["actions"]))
        target = action if kind == "source" else action["matrix"]
        target[kind] = value = draw(_ints)
    return doc, f"{kind} -> {value!r}"


def _classify(tmp_path_factory, doc) -> tuple[int, str, str]:
    path = tmp_path_factory.mktemp("mutated") / "module.json"
    path.write_text(json.dumps(doc))
    with redirect_stdout(io.StringIO()) as stdout, redirect_stderr(io.StringIO()) as stderr:
        code = main(["classify", "--module-file", str(path)])
    return code, stdout.getvalue(), stderr.getvalue()


def test_the_unmutated_document_is_accepted(tmp_path_factory):
    for doc in (DOCUMENT, MARGINED):
        assert _classify(tmp_path_factory, doc) == (0, "intermediate-series\n", "")
    for doc in (BARE, OPEN, EMPTY_SPACE):
        assert _classify(tmp_path_factory, doc)[0] == 0


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_mutations())
def test_mutated_module_documents_exit_2_with_an_error_line(tmp_path_factory, mutation):
    doc, what = mutation
    code, out, err = _classify(tmp_path_factory, doc)
    assert code == 2, what
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (what, err)
    assert "Traceback" not in err


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_value_mutations())
def test_value_mutations_exit_0_or_2_with_at_most_an_error_line(tmp_path_factory, mutation):
    doc, what = mutation
    with mock.patch.object(cli, "VERMA_SPACE_CAP", SPACE_CAP):
        code, out, err = _classify(tmp_path_factory, doc)
    assert code in (0, 2), what
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (what, err)
    else:
        assert err == "" and out.count("\n") == 1, (what, out, err)
    assert "Traceback" not in out + err
