"""Golden corpus: every scenario under tests/golden/ writes pinned bytes.

Byte-identical reruns (acceptance criterion 8) compare two runs of the same
code; this test compares a run with the bytes the corpus recorded, so a
refactor can show that it changed nothing. See tests/golden/rehash.py.
"""

import json

import pytest

from lanesim.scenario import parse_scenario

from golden.generated import SEEDS, generated_scenario
from golden.refusals import HOSTILE, ROUNDS
from golden.refusals import main as write_refusals
from golden.rehash import (GENERATED_HASHES, HASHES, RESULTS, SCENARIOS,
                           _rewrite, output_digests, scenario_digests)
from golden.same import first_refusal_difference, first_seed_difference
from golden.same import main as same

EXPECTED = json.loads(HASHES.read_text(encoding="utf-8"))
GENERATED = json.loads(GENERATED_HASHES.read_text(encoding="utf-8"))


def test_corpus_and_hashes_name_the_same_scenarios():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_outputs_match_the_recorded_hashes(name, tmp_path):
    got = output_digests(SCENARIOS / f"{name}.json", tmp_path)
    changed = [f for f in sorted(EXPECTED[name]) if got.get(f) != EXPECTED[name][f]]
    assert not changed, f"golden scenario {name}: {', '.join(changed)} differ"


def test_every_entry_pins_the_three_files_and_the_results():
    # the results digest pins SimResult.completions, deadline_misses and
    # counters element by element, which the files do not write out in full
    files = {"coverage.csv", "metrics.json", "trace.tsv", RESULTS}
    for name, digests in [*EXPECTED.items(), *GENERATED.items()]:
        assert set(digests) == files, name


def test_every_generated_seed_is_hashed():
    assert sorted(GENERATED, key=int) == [str(seed) for seed in SEEDS]


@pytest.mark.parametrize("first", range(SEEDS.start, SEEDS.stop, 20))
def test_generated_outputs_match_the_recorded_hashes(first, tmp_path):
    changed = []
    for seed in range(first, min(first + 20, SEEDS.stop)):
        got = scenario_digests(generated_scenario(seed), tmp_path / str(seed))
        want = GENERATED[str(seed)]
        changed += [f"{seed} {f}" for f in sorted(want) if got.get(f) != want[f]]
    assert not changed, f"generated seeds differ: {', '.join(changed)}"


def test_the_customer_cap_refuses_a_spare_the_plain_bound_admits(tmp_path):
    # two 0.3-utilization tasks lose their lane with one spare left: under
    # the 0.69 bound it takes both, under the cap of 1/2 only the first
    doc = json.loads((SCENARIOS / "customer_cap_refuses_spare.json")
                     .read_text(encoding="utf-8"))
    assert doc["system"]["timing"]["customer_cap_mode"] is True
    capped = scenario_digests(parse_scenario(doc), tmp_path / "capped")
    doc["system"]["timing"]["customer_cap_mode"] = False
    plain = scenario_digests(parse_scenario(doc), tmp_path / "plain")
    assert capped == EXPECTED["customer_cap_refuses_spare"]
    assert all(capped[name] != plain[name] for name in capped)


def test_a_sweep_into_a_new_file_lists_no_digest_as_changed(tmp_path, capsys):
    path = tmp_path / "d.json"
    digests = {"0": {"trace.tsv": "a", RESULTS: "b"}, "1": {"trace.tsv": "c"}}
    _rewrite(path, digests, "seeds")
    assert capsys.readouterr().out == f"wrote {path} (2 seeds, new file)\n"
    assert json.loads(path.read_text(encoding="utf-8")) == digests

    _rewrite(path, {"0": {"trace.tsv": "a", RESULTS: "x"}}, "seeds")
    assert capsys.readouterr().out == (
        f"changed: 0 {RESULTS}\nremoved: 1\nwrote {path} (1 seeds)\n")


def test_the_refusal_sweep_is_fixed_and_every_answer_is_an_exit_code(tmp_path):
    # CI compares the file this writes with its base's: one line per
    # hostile document, the same on every run, and no answer uncaught
    first, again = tmp_path / "first.tsv", tmp_path / "again.tsv"
    write_refusals(["--out", str(first)])
    write_refusals(["--out", str(again)])
    assert first.read_bytes() == again.read_bytes()
    lines = first.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(ROUNDS) * len(HOSTILE)
    codes = {line.split("\t")[1] for line in lines}
    assert codes == {"0", "1", "2"}


def test_the_same_behaviour_command_names_the_first_difference():
    # same.py compares a base's sweeps with the head's: the first seed in
    # seed order, not in text order, and the first refused document
    base = {"2": {"trace.tsv": "a"}, "10": {"trace.tsv": "b", RESULTS: "c"}}
    assert first_seed_difference(base, base) is None
    head = {"2": {"trace.tsv": "a"}, "10": {"trace.tsv": "x", RESULTS: "y"},
            "9": {"trace.tsv": "z"}}
    assert first_seed_difference(base, head) == "seed 9 (trace.tsv)"
    del head["9"]
    assert first_seed_difference(base, head) == f"seed 10 ({RESULTS}, trace.tsv)"
    lines = "0 a 1\t0\tOK\n0 b 2\t2\tbad\n"
    assert first_refusal_difference(lines, lines) is None
    assert first_refusal_difference(lines, lines.replace("bad", "worse")) == (
        "document '0 b 2'")
    assert first_refusal_difference(lines, lines + "1 c 3\t0\tOK\n") == (
        "2 documents against 3")


def test_same_compares_two_sweep_files(tmp_path, capsys):
    # CI's one line for each pair of sweeps: equal, or the first difference
    def written(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def verdict(base, head):
        code = same(["--compare", base, head])
        return code, capsys.readouterr().out

    seeds = {"2": {"trace.tsv": "a"}, "10": {"trace.tsv": "b"}}
    base = written("base.json", json.dumps(seeds))
    assert verdict(base, written("head.json", json.dumps(seeds))) == (0, "equal\n")
    seeds["10"]["trace.tsv"] = "x"
    assert verdict(base, written("moved.json", json.dumps(seeds))) == (
        1, "seed 10 (trace.tsv)\n")

    lines = "0 a 1\t0\tOK\n0 b 2\t2\tbad\n"
    base = written("base.tsv", lines)
    assert verdict(base, written("head.tsv", lines)) == (0, "equal\n")
    assert verdict(base, written("worse.tsv", lines.replace("bad", "worse"))) == (
        1, "document '0 b 2'\n")
    assert verdict(base, written("short.tsv", lines.splitlines(True)[0])) == (
        1, "2 documents against 1\n")
