"""README's "Library entry points" block runs as written.

The block runs with its ``scenario.json`` replaced by a golden scenario,
so a name it imports or reads that is gone fails here.
"""

import re
from pathlib import Path

from golden.rehash import SCENARIOS

README = Path(__file__).resolve().parents[1] / "README.md"


def entry_points_block() -> str:
    """The first python block under README's "Library entry points",
    after blank lines that keep each of its lines at its README number."""
    text = README.read_text(encoding="utf-8")
    block = re.compile(r"```python\n(.*?)```", re.S).search(
        text, text.index("## Library entry points"))
    return "\n" * text.count("\n", 0, block.start(1)) + block.group(1)


def test_readme_library_entry_points_run():
    block = entry_points_block()
    assert re.search(r"^from lanesim\.", block, re.M)
    assert '"scenario.json"' in block
    golden = SCENARIOS / "triplex_processor_transient.json"
    namespace = {}
    exec(compile(block.replace('"scenario.json"', repr(str(golden))),
                 str(README), "exec"), namespace)
    assert namespace["result"].records
