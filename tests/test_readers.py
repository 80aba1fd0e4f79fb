"""The built record readers against the generic loop they replace.

``_read`` below is the generic reader ``lanesim.model`` used before each
table got a reader of its own, kept verbatim as the oracle: it walks a
table and applies the one rule to every field. Each built reader, and
``_field`` for single reads, must give the same list or refuse with the
same ``MalformedDocument`` text for every field of every table set to each
value of ``_VALUES`` (absent too), for several hostile fields at once, and
for a record that is no object.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lanesim import model, scenario
from lanesim.model import MalformedDocument, _NUMBER, _REQUIRED, _at, _field

# what a hostile document may hold in a field; golden/refusals.py also
# writes what the command line answers to documents that hold them
from golden.refusals import ABSENT as _ABSENT, HOSTILE as _VALUES

_FLOAT_MAX = sys.float_info.max
_NUMBERS = frozenset(_NUMBER)


def _read(doc: dict, table: tuple, path: tuple) -> list:
    """One record's fields, in table order: the one rule for every field.

    Each entry is (key, kinds, default, convert). doc[key] must be one of
    the kinds; an absent or null field gives the default, and with no
    default it is required. A bool is no number, nor is a number or a
    string such as "false" a bool. A number must be finite and inside
    float range: JSON reads NaN and Infinity as floats, an int can pass the
    largest float, and NaN fails every comparison. ``convert``, if given,
    maps a value the document holds; defaults are given converted. The
    record's path becomes text only for a refusal."""
    if not isinstance(doc, dict):
        doc = {}        # a record that is no object lacks its first field
    get = doc.get
    out = []
    for key, kinds, default, convert in table:
        value = get(key)
        if value is None:
            if default is not _REQUIRED:
                out.append(default)
                continue
            if key not in doc:
                raise MalformedDocument(
                    f"{_at(path)}: missing required field '{key}'")
        cls = value.__class__
        if not isinstance(value, kinds) or cls is bool and kinds is not bool:
            raise MalformedDocument(
                f"{_at(path)}: field '{key}' has the wrong type")
        if cls in _NUMBERS and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise MalformedDocument(f"{_at(path)}: field '{key}' must be finite")
        out.append(value if convert is None else convert(value))
    return out


_TABLES = {
    "task": (model._TASK, model._read_task),
    "message": (model._MESSAGE, model._read_message),
    "application": (model._APPLICATION, model._read_application),
    "state_model": (model._STATE_MODEL, model._read_state_model),
    "processor": (model._PROCESSOR, model._read_processor),
    "fault": (scenario._FAULT, scenario._read_fault),
    **{f"{kind.value}_target": (table, scenario._READ_TARGET[kind])
       for kind, table in scenario._TARGET.items()},
}
_PATH = ("system", "applications", 0, "tasks", 3)


def _valid(kinds):
    """A value of the kinds that every reader takes."""
    first = kinds[0] if type(kinds) is tuple else kinds
    return {int: 2, float: 2.5, str: "transfer", bool: True, list: [],
            dict: {}}[first if kinds is not _NUMBER else float]


def _outcome(read):
    """What a read gives: the values with their classes, or the class and
    text of what it raised (a conversion may raise past the rule: a float
    subclass holding infinity passes it, and ``frac`` cannot read it)."""
    try:
        values = read()
    except Exception as exc:
        return type(exc), str(exc)
    return values, [type(v) for v in values]


def _record(table, changes: dict) -> dict:
    doc = {key: _valid(kinds) for key, kinds, _, _ in table}
    for key, value in changes.items():
        if value is _ABSENT:
            del doc[key]
        else:
            doc[key] = value
    return doc


def _same(table, reader, doc):
    want = _outcome(lambda: _read(doc, table, _PATH))
    got = _outcome(lambda: reader(doc, _PATH))
    assert got == want, (doc, got, want)


@pytest.mark.parametrize("name", _TABLES)
def test_each_field_of_a_built_reader_reads_as_the_generic_loop(name):
    table, reader = _TABLES[name]
    _same(table, reader, _record(table, {}))
    for key, _, _, _ in table:
        for value in _VALUES:
            _same(table, reader, _record(table, {key: value}))


@pytest.mark.parametrize("name", _TABLES)
@pytest.mark.parametrize("doc", [5, "x", [], [{}], None, True, 1.5, math.nan])
def test_a_record_that_is_no_object_reads_as_the_generic_loop(name, doc):
    table, reader = _TABLES[name]
    _same(table, reader, doc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_TABLES)), st.data())
def test_several_hostile_fields_refuse_as_the_generic_loop(name, data):
    # the first field in table order that breaks the rule is the one refused
    table, reader = _TABLES[name]
    changes = data.draw(st.dictionaries(
        st.sampled_from([key for key, _, _, _ in table]),
        st.sampled_from(_VALUES)))
    _same(table, reader, _record(table, changes))


@pytest.mark.parametrize("kinds", [int, str, bool, list, dict, _NUMBER])
@pytest.mark.parametrize("default", [_REQUIRED, None, 0.5, "x", Fraction(3, 4)])
def test_single_reads_match_the_generic_loop(kinds, default):
    entry = (("f", kinds, default, None),)
    for value in _VALUES:
        doc = {} if value is _ABSENT else {"f": value}
        want = _outcome(lambda: _read(doc, entry, _PATH))
        got = _outcome(lambda: [_field(doc, "f", kinds, _PATH, default)])
        assert got == want, (kinds, default, value, got, want)
    for doc in (5, [], None):
        want = _outcome(lambda: _read(doc, entry, _PATH))
        got = _outcome(lambda: [_field(doc, "f", kinds, _PATH, default)])
        assert got == want, (kinds, default, doc, got, want)
