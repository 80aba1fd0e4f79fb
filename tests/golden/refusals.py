"""Refusals of hostile documents: the exit code and text of each.

``HOSTILE`` is what a hostile document may hold in a field.
``tests/test_readers.py`` sets every field of every record table to each
of these values; this script writes, for a fixed and seeded set of about
200 documents, what ``lanesim validate`` answers. Each document is a
generated one (``generated.generated_document``) with one field set to
one value of ``HOSTILE`` (removed, for ``ABSENT``): the field of a record
kind drawn at random, so that every kind of record is hit. A document is
parsed and brought into initial service by ``Engine`` (not run), and its
line gives its name, the exit code ``lanesim`` maps the outcome to and
the refusal text (``OK`` when it passes; an exception the command line
would not catch reads ``uncaught``). Two checkouts that refuse alike
write the same file:

    PYTHONPATH=src python3 tests/golden/refusals.py --out refusals.tsv
"""

import argparse
import copy
import math
import random
import sys
from collections import OrderedDict
from pathlib import Path

from lanesim.cli import EXIT_OK, _failure
from lanesim.scenario import parse_scenario
from lanesim.sim import Engine

try:
    from generated import generated_document
except ImportError:     # imported as golden.refusals
    from golden.generated import generated_document


class _Absent:
    """A field left out of its record."""

    def __repr__(self):
        return "absent"


class _Int(int):
    pass


class _Float(float):
    pass


ABSENT = _Absent()
_FLOAT_MAX = sys.float_info.max
# what a hostile document may hold in a field, plus subclasses of the
# kinds: an int or float subclass passes where its kind is asked for,
# unchecked for range (a bool does not)
HOSTILE = (ABSENT, None, True, False, 0, 7, -3, 1.5, "1", [], {}, [1, 2],
           math.nan, math.inf, -math.inf, 10**400, -10**400, _FLOAT_MAX,
           _Int(4), _Float(2.5), _Float(math.inf), OrderedDict())

ROUNDS = range(9)   # generated documents; each takes every hostile value once


def _records(value, path=()):
    """(path, record) for every object in a document, the document first."""
    if isinstance(value, dict):
        yield path, value
        for key, item in value.items():
            yield from _records(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _records(item, path + (i,))


def hostile_documents():
    """(name, document) for every document of the set, in a fixed order."""
    for seed in ROUNDS:
        doc = generated_document(seed)
        kinds = {}      # the record's path without list indexes -> its records
        for path, record in _records(doc):
            if record:
                kinds.setdefault(tuple(s for s in path if type(s) is str),
                                 []).append(path)
        rng = random.Random(f"refusals-{seed}")
        for value in HOSTILE:
            path = rng.choice(kinds[rng.choice(sorted(kinds))])
            hostile = copy.deepcopy(doc)
            record = hostile
            for step in path:
                record = record[step]
            key = rng.choice(sorted(record))
            if value is ABSENT:
                del record[key]
            else:
                record[key] = copy.deepcopy(value)
            where = "/".join(str(step) for step in path + (key,))
            yield f"{seed} {where} {value!r}", hostile


def refusal(doc) -> tuple:
    """(exit code, text) of a document, as ``lanesim validate`` gives them."""
    try:
        Engine(parse_scenario(doc))
    except Exception as exc:
        try:
            code = _failure(exc)[0]
        except StopIteration:
            return "uncaught", f"{type(exc).__name__}: {exc}"
        return code, str(exc)
    return EXIT_OK, "OK"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="the file to write one line per document to")
    args = parser.parse_args(argv)
    lines = []
    for name, doc in hostile_documents():
        code, text = refusal(doc)
        lines.append(f"{name}\t{code}\t{text}".replace("\n", "\\n"))
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out} ({len(lines)} documents)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
