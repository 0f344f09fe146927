import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from eigenuq import forest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_matrix.py"


@pytest.fixture(scope="module")
def output_matrix():
    spec = importlib.util.spec_from_file_location("output_matrix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


class TestCompare:
    def test_identical_directories(self, output_matrix, tmp_path, capsys):
        for side in ("a", "b"):
            write(tmp_path / side / "run" / "out.csv", "y,U\n0,1\n")
        assert output_matrix.compare(tmp_path / "a", tmp_path / "b") == 0
        assert capsys.readouterr().out == "0 of 1 files differ\n"

    def test_lists_differences_with_column_deltas(self, output_matrix, tmp_path, capsys):
        write(tmp_path / "a" / "run" / "out.csv", "y,U,kind\n0,1,p\n1,nan,p\n")
        write(tmp_path / "b" / "run" / "out.csv", "y,U,kind\n0,1.25,q\n1,nan,p\n")
        write(tmp_path / "a" / "run" / "manifest.json", "{}")
        write(tmp_path / "b" / "run" / "manifest.json", "{ }")
        write(tmp_path / "b" / "extra.txt", "x")
        assert output_matrix.compare(tmp_path / "a", tmp_path / "b") == 1
        assert capsys.readouterr().out.splitlines() == [
            f"only in {tmp_path / 'b'}: extra.txt",
            "differs: run/manifest.json",
            "differs: run/out.csv",
            "  y: max |delta| 0.000e+00",
            "  U: max |delta| 2.500e-01",
            "  kind: text differs",
            "3 of 3 files differ",
        ]

    def test_reports_a_changed_shape(self, output_matrix, tmp_path, capsys):
        write(tmp_path / "a" / "out.csv", "y\n0\n1\n")
        write(tmp_path / "b" / "out.csv", "y\n0\n")
        assert output_matrix.compare(tmp_path / "a", tmp_path / "b") == 1
        assert "header or row count differs (2 against 1 rows)" in capsys.readouterr().out

    def test_lists_the_differing_keys_of_json_files(self, output_matrix, tmp_path, capsys):
        write(tmp_path / "a" / "manifest.json", json.dumps({
            "forest": {"path": "f.json", "sha256": "aa"}, "runs": [1, 2], "n": 1,
            "trees": [{"t": "x"}], "gone": None, "nan": float("nan"),
        }))
        write(tmp_path / "b" / "manifest.json", json.dumps({
            "forest": {"path": "f.json", "sha256": "bb"}, "runs": [1, 3], "n": 1.0,
            "trees": [{"t": "x"}, {"t": "y"}], "nan": float("nan"), "new": True,
        }))
        assert output_matrix.compare(tmp_path / "a", tmp_path / "b") == 1
        assert capsys.readouterr().out.splitlines() == [
            "differs: manifest.json",
            '  forest.sha256: "aa" -> "bb"',
            "  runs.1: 2 -> 3",
            "  n: 1 -> 1.0",
            "  trees: differs",
            "  gone: in one file only",
            "  new: in one file only",
            "1 of 1 files differ",
        ]

    def test_summarises_the_trees_of_forest_files(self, output_matrix, tmp_path, capsys):
        # two saved forests whose last leaf value differs by one ulp
        rng = np.random.default_rng(0)
        hp = forest.ForestHyperparams(max_depth=3, min_samples_split=2, max_features=2, n_trees=3)
        fitted = forest.fit(rng.random((40, 3)), rng.random((40, 2)), hp)
        for side in "ab":
            (tmp_path / side).mkdir()
        forest.save(fitted, tmp_path / "a" / "forest.json")
        old = fitted.value[-1, -1]
        fitted.value[-1, -1] = new = np.nextafter(old, np.inf)
        forest.save(fitted, tmp_path / "b" / "forest.json")
        values = fitted.value.shape[1] * np.count_nonzero(fitted.feature[fitted.roots[-1]:] < 0)
        assert output_matrix.compare(tmp_path / "a", tmp_path / "b") == 1
        assert capsys.readouterr().out.splitlines() == [
            "differs: forest.json",
            "  trees.split_feature: differs in 0 of 3 trees",
            "  trees.threshold: differs in 0 of 3 trees",
            f"  trees.leaf_value: differs in 1 of 3 trees (1 of their {values} values), "
            f"max |delta| {new - old:.3e}, max relative |delta| {(new - old) / new:.3e}",
            "1 of 1 files differ",
        ]

    def test_json_file_that_does_not_parse(self, output_matrix, tmp_path, capsys):
        write(tmp_path / "a" / "forest.json", '{"version": 3}')
        write(tmp_path / "b" / "forest.json", '{"version": 3')
        assert output_matrix.compare(tmp_path / "a", tmp_path / "b") == 1
        assert f"  not valid JSON: {tmp_path / 'b' / 'forest.json'}" in capsys.readouterr().out


AB_TIME = SCRIPT.with_name("ab_time.py")
ROOT = str(SCRIPT.parents[1])


@pytest.fixture
def ab_time():
    spec = importlib.util.spec_from_file_location("ab_time", AB_TIME)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [name for name in sys.modules if name.split(".")[0] in ("eigenuq_a", "eigenuq_b")]:
        del sys.modules[name]


class TestAbTime:
    def test_a_checkout_against_itself(self, ab_time, tmp_path, capsys):
        config = tmp_path / "small.ini"
        config.write_text("[channel]\nn_cells = 32\n")
        times = ab_time.main([ROOT, ROOT, "--pairs", "2", "--",
                              "baseline", "--re-tau", "180", "--config", str(config)])
        assert [len(times[side]) for side in ("a", "b")] == [2, 2]
        # each side runs the package imported under its own name
        assert sys.modules["eigenuq_a.channel"] is not sys.modules["eigenuq_b.channel"]
        number = r"\d+\.\d{3}"
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        for side, line in zip("AB", lines):
            assert re.fullmatch(
                rf"{side} {re.escape(ROOT)}: median {number} ms \(q1 {number}, q3 {number}\)",
                line), line
        assert re.fullmatch(r"B/A: median ratio \d+\.\d{4} over 2 pairs "
                            r"\(q1 \d+\.\d{4}, q3 \d+\.\d{4}\); B faster in [0-2] of 2", lines[2])
        # baseline.csv, baseline_trace.csv and manifest.json
        assert lines[3] == "outputs identical (3 files)"

    def test_outputs_that_differ_are_named(self, ab_time, tmp_path):
        # a differing CSV names how far each numeric column moved, as
        # output_matrix.py --compare does; another file only its name
        for side, files in (("a", {"same.csv": "1\n", "changed.csv": "y,U,kind\n0,1,p\n1,nan,p\n",
                                   "changed.json": "{}", "a_only": ""}),
                            ("b", {"same.csv": "1\n", "changed.csv": "y,U,kind\n0,1.25,q\n1,nan,p\n",
                                   "changed.json": "{ }", "sub/b_only": ""})):
            for name, text in files.items():
                write(tmp_path / side / name, text)
        assert ab_time.compare_outputs(tmp_path / "a", tmp_path / "b") == (
            "outputs differ: a_only, changed.csv (y: max |delta| 0.000e+00; "
            "U: max |delta| 2.500e-01; kind: text differs), changed.json, sub/b_only")
        assert ab_time.compare_outputs(tmp_path / "a", tmp_path / "a") == (
            "outputs identical (4 files)")

    @pytest.mark.parametrize("argv, message", [
        ([ROOT, ROOT, "baseline"], "no eigenuq command given after --"),
        ([ROOT, ROOT, "--"], "no eigenuq command given after --"),
        ([ROOT, ROOT, "--", "baseline", "--out", "x"], "the command takes no --out"),
        ([ROOT, ROOT, "--pairs", "1", "--", "baseline"], "--pairs must be at least 2"),
    ])
    def test_usage_errors(self, ab_time, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_:
            ab_time.main(argv)
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err
