"""No engine function reads a Health, FaultKind or TargetKind member off
its class.

Reading a member off its Enum class goes through the class's attribute
lookup, about ten times a module global's read, and the engine reads
these on every release, vote and fault. So each module that reads one in a
function reads it once, into a module constant (``lanesim.sim`` states the
rule). The test parses the four modules and fails on any function body,
lambdas included, that reads ``Health.X``, ``FaultKind.X`` or
``TargetKind.X``.
"""

import ast
from pathlib import Path

import lanesim

SRC = Path(lanesim.__file__).resolve().parent
MODULES = ("sim.py", "coverage.py", "reconfig.py", "fault.py")
ENUMS = {"Health", "FaultKind", "TargetKind"}


def member_reads(source: str) -> list:
    """(line, ``Enum.MEMBER``) of each member read off one of ENUMS inside
    a function of the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Attribute)
                        and isinstance(inner.value, ast.Name)
                        and inner.value.id in ENUMS):
                    found.append((inner.lineno, f"{inner.value.id}.{inner.attr}"))
    # a nested function is walked once per enclosing one
    return sorted(set(found))


def test_no_function_reads_an_enum_member_off_its_class():
    reads = {name: member_reads((SRC / name).read_text(encoding="utf-8"))
             for name in MODULES}
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_scan_sees_a_member_read_in_a_method_and_a_lambda():
    source = ("_ACTIVE = Health.ACTIVE\n"
              "class Engine:\n"
              "    def withdraw(self, rt):\n"
              "        rt.health = Health.SHUTDOWN\n"
              "KINDS = {1: lambda f: f.kind is FaultKind.BYZANTINE}\n")
    assert member_reads(source) == [(4, "Health.SHUTDOWN"),
                                    (5, "FaultKind.BYZANTINE")]
