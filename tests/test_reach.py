"""Every function of src/lanesim is reached by a scenario run, or README
says why it is kept.

A fresh import of the package, the golden scenarios (parse, ``run``,
``write_outputs`` and the results digest), ``lanesim validate``, ``run``,
``generate`` and ``batch``, and the documents of the refusal sweep run
under ``sys.setprofile``. Every ``def`` in ``src/lanesim`` that none of
them calls must be named in README's list "Functions no scenario
reaches", and every name on that list must be a ``def`` that none of them
calls: a function that loses its last caller is either deleted or given a
reason there.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import lanesim
from lanesim.cli import main as cli_main

from golden.refusals import hostile_documents, refusal
from golden.rehash import SCENARIOS, output_digests

SRC = Path(lanesim.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
SECTION = "### Functions no scenario reaches"


def defs() -> dict:
    """(path, first line, name) -> ``module.qualname`` of every def in
    src/lanesim.

    The first line is the line a function's code object starts at: its
    first decorator's, or else its ``def``'s.
    """
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(path, first, child.name)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return found


def listed() -> list:
    """The ``module.qualname`` of each entry of README's list, in its
    order: every backticked ``lanesim.module.qualname`` on its bullets."""
    text = README.read_text(encoding="utf-8")
    assert SECTION in text, f"README has no section {SECTION!r}"
    section = re.split(r"^#", text.split(SECTION, 1)[1], maxsplit=1,
                       flags=re.M)[0]
    bullets = section[section.index("\n- "):]
    return re.findall(r"`lanesim\.([^`]+)`", bullets)


def _import_afresh():
    """Run the package's module bodies again, as a first import does (some
    build their tables by calling a function), and leave the modules every
    other test imported in place."""
    saved = {name: module for name, module in sys.modules.items()
             if name == "lanesim" or name.startswith("lanesim.")}
    try:
        for name in saved:
            del sys.modules[name]
        for path in sorted(SRC.glob("*.py")):
            importlib.import_module(
                "lanesim" if path.stem == "__init__" else f"lanesim.{path.stem}")
    finally:
        for name in [n for n in sys.modules
                     if n == "lanesim" or n.startswith("lanesim.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def reached(tmp_path) -> set:
    """(path, first line, name) of every code object that the scenario
    runs call."""
    codes = set()
    add = codes.add
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: add(frame.f_code))
    try:
        _import_afresh()
        for path in sorted(SCENARIOS.glob("*.json")):
            output_digests(path, tmp_path / "golden" / path.stem)
        for _, doc in hostile_documents():
            refusal(doc)
        one = str(SCENARIOS / "triplex_processor_transient.json")
        generated = tmp_path / "batch" / "generated.json"
        generated.parent.mkdir()
        for argv in (["validate", one],
                     ["run", one, "--out-dir", str(tmp_path / "run"), "--seed", "1"],
                     ["generate", "--faults", "2", "--horizon-ms", "40",
                      "-o", str(generated)],
                     ["batch", str(generated.parent), "--out-dir",
                      str(tmp_path / "batch-out"), "--horizon-ms", "40"]):
            assert cli_main(argv) == 0, argv
    finally:
        sys.setprofile(previous)
    files = {name: Path(name).resolve() for name in {c.co_filename for c in codes}}
    return {(files[c.co_filename], c.co_firstlineno, c.co_name) for c in codes}


def test_every_function_is_reached_or_listed_with_its_reason(tmp_path):
    names = defs()
    hit = reached(tmp_path)
    unreached = {name for place, name in names.items() if place not in hit}
    on_list = listed()

    assert len(set(on_list)) == len(on_list), "README lists a name twice"
    gone = sorted(set(on_list) - set(names.values()))
    assert not gone, f"README lists functions src/lanesim no longer defines: {gone}"
    now_reached = sorted(set(on_list) - unreached)
    assert not now_reached, f"README lists functions a scenario reaches: {now_reached}"
    missing = sorted(unreached - set(on_list))
    assert not missing, (
        f"no scenario reaches these functions, and README's list "
        f"{SECTION[4:]!r} does not name them: {missing}")
