"""The paper-experiment table and the DESIGN.md experiment index agree."""

import pathlib
import re

from benchmarks.bench_paper import EXPERIMENTS

DESIGN = pathlib.Path(__file__).resolve().parent.parent / "DESIGN.md"


def _index_ids():
    text = DESIGN.read_text()
    section = text[text.index("## 4. Experiment index"):
                   text.index("## 5. ")]
    return re.findall(r"^\| ([A-Z0-9]+(?:-[A-Z0-9]+)*) \|", section,
                      flags=re.MULTILINE)


def test_the_table_is_the_experiment_index():
    ids = _index_ids()
    assert ids and len(ids) == len(set(ids)), ids
    assert list(EXPERIMENTS) == ids


def test_results_names_are_unique():
    names = [exp.results for exp in EXPERIMENTS.values()]
    assert len(names) == len(set(names)), names

