import ast
import base64
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eigenuq import channel, cli, dns, features, forest, pipeline
from eigenuq.pipeline import ConfigError, DataError

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = SRC.parent / "perfbench"

FAST = [
    ("channel", "re_tau", "180"),
    ("channel", "n_cells", "96"),
]


def fast_settings(extra=()):
    return pipeline.load_settings(overrides=FAST + list(extra))


def run_python(*args):
    """A fresh interpreter on ``args`` that imports this checkout's eigenuq."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def run_main(monkeypatch, capsys, *args):
    """The exit code and stderr of ``cli.main()`` on ``args``, run in
    process."""
    monkeypatch.setattr(sys, "argv", ["eigenuq", *args])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    return exit_.value.code, capsys.readouterr().err


def main_without_solving(monkeypatch, capsys, *args):
    """``run_main`` with every solve failing the test: ``channel.solve``
    and ``uq_envelope`` both solve through ``channel._solve_rows``."""

    def no_solve(*_args, **_kwargs):
        pytest.fail("solved before the arguments were rejected")

    monkeypatch.setattr(channel, "_solve_rows", no_solve)
    return run_main(monkeypatch, capsys, *args)


def save_small_forest(path, mode, names=True):
    """Save a two-tree forest of 20 random rows of features, with the
    names ``train`` gives a forest of ``mode`` unless ``names`` is false:
    fitted to random targets for 'p', to zeros, on which the uq solves
    the baseline, for 'pcorr_angles'."""
    rng = np.random.default_rng(0)
    hp = forest.ForestHyperparams(max_depth=2, min_samples_split=2, max_features=3, n_trees=2)
    X = rng.uniform(size=(20, 6))
    Y = rng.uniform(size=(20, 1)) if mode == "p" else np.zeros((20, 5))
    names = (features.DEFAULT_FEATURES, dns.TARGET_NAMES[mode]) if names else ()
    forest.save(forest.fit(X, Y, hp, *names), path)


def unreadable_inputs(tmp_path):
    """Inputs that exist but cannot be read: a directory, a file that is
    not UTF-8, a config whose [data] names that directory, and a run
    directory whose manifest is a directory."""
    paths = {"directory": tmp_path / "directory", "not_utf8": tmp_path / "latin1.txt",
             "data_directory": tmp_path / "data.ini", "run": tmp_path / "run",
             "manifest": tmp_path / "run" / "manifest.json"}
    paths["directory"].mkdir()
    paths["manifest"].mkdir(parents=True)
    paths["not_utf8"].write_bytes(b"# caf\xe9\n")
    paths["data_directory"].write_text(
        "[channel]\nre_tau = 180\nn_cells = 32\n"
        f"[train]\ntrain_re_tau = 180\nholdout_re_tau = 550\n[data]\n180 = {paths['directory']}\n")
    return {name: str(path) for name, path in paths.items()}


def assert_solve_record(man):
    """The manifest of a one-solve command says how its solve ended."""
    picard, newton = man["picard_sweeps"], man["newton_steps"]
    assert man["iterations"] == picard + newton
    # each attempt's first step evaluates the Jacobian; a later one may
    # be a chord step on its factors
    assert (man["jacobians"] > 0) == (newton > 0) and man["jacobians"] <= newton
    assert picard > 0 and picard % channel.PICARD_BLOCK == 0
    assert man["fixed_point_residual"] <= channel.NEWTON_TOL


class TestSettings:
    def test_defaults(self):
        s = pipeline.load_settings()
        assert s.channel["re_tau"] == "1000"
        assert s.channel["n_cells"] == "192"
        assert s.uq["mode"] == "datafree"
        assert s.train["seed"] == "0"
        assert s.data == {}

    @pytest.mark.parametrize("re_tau", [180.0, 1000.0])
    def test_channel_defaults_are_channel_config_s(self, re_tau):
        config = pipeline.build_channel_config(pipeline.load_settings(), re_tau=re_tau)
        assert config == channel.ChannelConfig(re_tau=re_tau)

    def test_overrides_win(self):
        s = pipeline.load_settings(overrides=[("channel", "re_tau", 550.0)])
        assert s.channel["re_tau"] == "550.0"

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 395\nn_cells = 32\n")
        s = pipeline.load_settings(cfg, overrides=[("channel", "re_tau", "180")])
        assert s.channel["re_tau"] == "180"  # flag beats file
        assert s.channel["n_cells"] == "32"  # file beats default

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            pipeline.load_settings("/nonexistent/run.ini")

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("re_tau = 395\n")  # key before any section header
        with pytest.raises(ConfigError, match="malformed"):
            pipeline.load_settings(cfg)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[channel]\nn_cell = 16\n", r"unknown key\(s\) in \[channel\]: n_cell"),
            ("[uqq]\nmode = p\n", r"unknown config section \[uqq\]"),
            ("[channel]\nresidual_tol = 1e-8\n", r"unknown key\(s\) in \[channel\]: residual_tol"),
        ],
    )
    def test_unknown_config_entries_rejected(self, tmp_path, text, message):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        with pytest.raises(ConfigError, match=message):
            cli.run(["baseline", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert not (tmp_path / "d").exists()

    def test_data_section_keys_are_free(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[data]\n1000 = synthetic\n395 = profiles/retau395.dat\n")
        assert pipeline.load_settings(cfg).data == {
            1000.0: "synthetic", 395.0: "profiles/retau395.dat"
        }

    @pytest.mark.parametrize("key", ["1000", "1000.0", "1e3", "01000"])
    def test_data_keys_name_a_re_tau(self, tmp_path, key):
        # every spelling of Re_tau 1000 reaches the profile lookup
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\n{key} = /nonexistent.dat\n")
        assert pipeline.load_settings(cfg).data == {1000.0: "/nonexistent.dat"}
        with pytest.raises(DataError, match="not found: /nonexistent.dat"):
            cli.run(["propagate-dns", "--config", str(cfg), "--re-tau", "1000",
                     "--out", str(tmp_path / "d")])
        assert not (tmp_path / "d").exists()

    def test_data_keys_keep_full_precision(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[data]\n1234567 = a.dat\n1234568 = b.dat\n")
        s = pipeline.load_settings(cfg)
        assert s.data == {1234567.0: "a.dat", 1234568.0: "b.dat"}
        with pytest.raises(DataError, match="not found: b.dat"):
            pipeline.load_reference_profile(s, 1234568.0)

    @pytest.mark.parametrize(
        "keys, message",
        [
            (["abc"], "'abc' is not a finite positive Re_tau"),
            (["0"], "'0' is not a finite positive Re_tau"),
            (["-180"], "'-180' is not a finite positive Re_tau"),
            (["inf"], "'inf' is not a finite positive Re_tau"),
            (["nan"], "'nan' is not a finite positive Re_tau"),
            (["1000", "1000.0"], "names Re_tau=1000 more than once"),
            (["1e3", "1000"], "names Re_tau=1000 more than once"),
        ],
        ids=["word", "zero", "negative", "inf", "nan", "trailing_zero", "exponent"],
    )
    def test_bad_data_keys_rejected(self, tmp_path, keys, message):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[data]\n" + "".join(f"{key} = synthetic\n" for key in keys))
        with pytest.raises(ConfigError, match=message):
            cli.run(["propagate-dns", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert not (tmp_path / "d").exists()

    def test_invalid_channel_value(self):
        with pytest.raises(ConfigError, match="channel.n_cells"):
            pipeline.load_settings(overrides=[("channel", "n_cells", "many")])

    def test_unphysical_channel_value(self):
        s = pipeline.load_settings(overrides=[("channel", "re_tau", "-5")])
        with pytest.raises(ConfigError, match="re_tau"):
            pipeline.build_channel_config(s)


class TestBaselineCommand:
    def test_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert pipeline.cmd_baseline(fast_settings(), out) == pipeline.EXIT_OK
        assert (out / "baseline.csv").exists()
        assert (out / "baseline_trace.csv").exists()
        man = pipeline.read_manifest(out)
        assert man["command"] == "baseline"
        assert man["settings"]["channel"]["re_tau"] == "180"
        assert man["realizability_violations"] == 0
        assert man["total_shear_error"] < 0.01
        assert_solve_record(man)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline.cmd_baseline(fast_settings(), a)
        pipeline.cmd_baseline(fast_settings(), b)
        for name in ("baseline.csv", "baseline_trace.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestTrainCommand:
    @pytest.mark.parametrize("kind", ["p", "pcorr_angles"])
    def test_stacked_baselines_train_the_forest_of_one_by_one_solves(
            self, settings, kind, tmp_path, monkeypatch):
        # train solves its Re_tau as one stack; a training that solves
        # them one by one gives the same forest file and metrics
        fitted, metrics, _ = pipeline.train_forest(settings, kind)
        monkeypatch.setattr(channel, "solve_baselines", lambda cfg, re_taus: [
            channel.solve(replace(cfg, re_tau=re_tau)) for re_tau in re_taus])
        reference, reference_metrics, _ = pipeline.train_forest(settings, kind)
        assert metrics == reference_metrics
        stacked, one_by_one = tmp_path / "stacked.json", tmp_path / "reference.json"
        forest.save(fitted, stacked)
        forest.save(reference, one_by_one)
        assert stacked.read_bytes() == one_by_one.read_bytes()

    def test_forest_stores_the_names_of_its_columns(self, trained_forests):
        for kind, fitted in trained_forests.items():
            assert fitted.feature_names == features.DEFAULT_FEATURES, kind
            assert fitted.target_names == dns.TARGET_NAMES[kind], kind

    def test_failing_re_tau_exit_three(self, tmp_path, monkeypatch, capsys):
        # with a zero Newton tolerance every Re_tau fails; train reports
        # the first of its list with the message of that Re_tau's own
        # solve, as solving them in turn did, and leaves no output
        monkeypatch.setattr(channel, "NEWTON_TOL", 0.0)
        with pytest.raises(channel.SolverError) as first:
            channel.solve(channel.ChannelConfig(re_tau=2000.0, n_cells=32, max_iters=60))
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nn_cells = 32\nmax_iters = 60\n"
                       "[train]\ntrain_re_tau = 2000, 180\nholdout_re_tau = 5200\n")
        code, stderr = run_main(monkeypatch, capsys, "train", "--config", str(cfg),
                                "--out", str(tmp_path / "d"))
        assert code == 3
        assert stderr == f"numerical failure: {first.value}\n"
        assert not (tmp_path / "d").exists()

    def test_laminar_baseline_exit_two(self, tmp_path, monkeypatch, capsys):
        # up to Re_tau 10 the baseline's k is below K_FLOOR at every node
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nn_cells = 32\n[train]\ntrain_re_tau = 1, 2\nholdout_re_tau = 3\n")
        code, stderr = run_main(monkeypatch, capsys, "train", "--target", "p", "--config",
                                str(cfg), "--out", str(tmp_path / "d"))
        assert code == 2
        assert stderr == ("configuration error: the baseline at Re_tau=1 is laminar at every "
                          "node (k below 1e-12): no training rows\n")
        assert not (tmp_path / "d").exists()

    def test_reference_without_stresses_exit_four(self, tmp_path, monkeypatch, capsys):
        # a profile whose stresses are all 0 is well formed and covers the
        # channel, but its k is below K_FLOOR at every node
        profile = dns.synthetic_profile(180.0)
        dns.write_profile(replace(profile, **{name: np.zeros_like(profile.U_plus) for name in
                                              ("uu_plus", "vv_plus", "ww_plus", "uv_plus")}),
                          tmp_path / "zero.dat")
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nn_cells = 32\n[train]\ntrain_re_tau = 180\n"
                       f"holdout_re_tau = 1000\n[data]\n180 = {tmp_path / 'zero.dat'}\n")
        code, stderr = run_main(monkeypatch, capsys, "train", "--target", "p", "--config",
                                str(cfg), "--out", str(tmp_path / "d"))
        assert code == 4
        assert stderr == ("data error: the reference at Re_tau=180 leaves no training row: its "
                          "k is below 1e-12 at every node where the baseline's is not\n")
        assert not (tmp_path / "d").exists()


@pytest.fixture(scope="module")
def small_grid_datafree_uq(tmp_path_factory):
    """The benchmark's datafree uq at Re_tau 180 on the 32-cell grid of
    perfbench/uq-small-grid.ini: 1C and 2C reach their fixed points by
    Newton steps, 3C by Picard sweeps alone."""
    out = tmp_path_factory.mktemp("small_grid") / "uq"
    assert cli.run(["uq", "--mode", "datafree", "--delta-b", "1.0", "--re-tau", "180",
                    "--config", str(PERFBENCH / "uq-small-grid.ini"),
                    "--out", str(out)]) == pipeline.EXIT_OK
    return out


@pytest.fixture(scope="module")
def pcorr_angles_forest(trained_forests, tmp_path_factory):
    """The default-settings pcorr_angles forest, saved."""
    path = tmp_path_factory.mktemp("forest") / "forest_pcorr_angles.json"
    forest.save(trained_forests["pcorr_angles"], path)
    return path


SMALL_GRID_UQ = ["uq", "--re-tau", "180", "--config", str(PERFBENCH / "uq-small-grid.ini")]


class TestUqCommand:
    def test_datafree_zero_delta_artifacts(self, tmp_path):
        out = tmp_path / "uq"
        s = fast_settings(extra=[("uq", "delta_b", "0.0")])
        assert pipeline.cmd_uq(s, out) == pipeline.EXIT_OK
        for name in (
            "baseline.csv",
            "envelope.csv",
            "corner_1C.csv",
            "corner_2C.csv",
            "corner_3C.csv",
            "trace_1C.csv",
        ):
            assert (out / name).exists(), name
        man = pipeline.read_manifest(out)
        assert man["command"] == "uq"
        assert man["mode"] == "datafree"
        assert man["settings"]["uq"] == {"delta_b": "0.0", "mode": "datafree"}
        assert man["realizability_violations"] == 0
        assert set(man["iterations"]) == {"1C", "2C", "3C"}
        header = (out / "envelope.csv").read_text().split("\n")[0]
        assert header == "y_plus,U_baseline,U_min,U_max,width"

    def test_manifest_records_how_each_corner_ended(self, small_grid_datafree_uq):
        man = pipeline.read_manifest(small_grid_datafree_uq)
        fields = ("iterations", "picard_sweeps", "newton_steps", "jacobians",
                  "fixed_point_residual", "stress_consistency", "total_shear_error")
        for field in fields:
            assert set(man[field]) == {"1C", "2C", "3C"}, field
        for corner in ("1C", "2C", "3C"):
            picard, newton = man["picard_sweeps"][corner], man["newton_steps"][corner]
            assert man["iterations"][corner] == picard + newton
            assert picard > 0 and picard % channel.PICARD_BLOCK == 0
            assert (newton > 0) == (corner != "3C")
            assert (man["jacobians"][corner] > 0) == (newton > 0)
            assert man["jacobians"][corner] <= newton
            assert man["fixed_point_residual"][corner] <= channel.NEWTON_TOL
            assert man["stress_consistency"][corner] <= 1e-6
            assert man["total_shear_error"][corner] <= 1e-8

    def test_manifest_flags_the_laminar_corner(self, small_grid_datafree_uq):
        # at delta_b 1 the 3C corner is the laminar fixed point: k dies
        # out and the centreline U+ is Re_tau / 2
        man = pipeline.read_manifest(small_grid_datafree_uq)
        assert man["laminar"] == {"1C": False, "2C": False, "3C": True}
        for corner in ("1C", "2C", "3C"):
            rows = (small_grid_datafree_uq / f"corner_{corner}.csv").read_text().splitlines()
            assert man["centerline_U"][corner] == float(rows[-1].split(",")[1]), corner
        assert man["centerline_U"]["3C"] == pytest.approx(90.0, rel=channel.LAMINAR_U_RTOL)
        assert man["centerline_U"]["1C"] < 10.0

    def test_corner_free_mode_solves_once(self, settings, tmp_path, monkeypatch):
        # the forest of a default-settings training, on a 32-cell grid
        fitted, _, _ = pipeline.train_forest(settings, "pcorr_angles")
        forest_path = tmp_path / "forest_pcorr_angles.json"
        forest.save(fitted, forest_path)
        solves = []
        solve_rows = channel._solve_rows

        def counting_solve_rows(cfg, injections):
            # the rows that reach _solve_rows; the baseline's row is not counted
            solves.extend(injection for injection in injections if injection is not None)
            return solve_rows(cfg, injections)

        monkeypatch.setattr(channel, "_solve_rows", counting_solve_rows)
        out = tmp_path / "uq"
        s = pipeline.load_settings(
            overrides=[("channel", "re_tau", "180"), ("channel", "n_cells", "32"),
                       ("uq", "mode", "pcorr_angles")]
        )
        code = pipeline.cmd_uq(s, out, forest_path=str(forest_path))
        assert code == pipeline.EXIT_OK
        assert len(solves) == 1
        for prefix in ("corner", "trace"):
            first = (out / f"{prefix}_1C.csv").read_bytes()
            assert (out / f"{prefix}_2C.csv").read_bytes() == first
            assert (out / f"{prefix}_3C.csv").read_bytes() == first
        iterations = pipeline.read_manifest(out)["iterations"]
        assert iterations["1C"] == iterations["2C"] == iterations["3C"]

    def test_forest_file_is_read_once(self, pcorr_angles_forest, tmp_path, monkeypatch):
        opened = []
        builtin_open = open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == pcorr_angles_forest:
                opened.append(file)
            return builtin_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        out = tmp_path / "uq"
        args = [*SMALL_GRID_UQ, "--mode", "pcorr_angles", "--forest", str(pcorr_angles_forest)]
        assert cli.run([*args, "--out", str(out)]) == pipeline.EXIT_OK
        assert len(opened) == 1
        digest = hashlib.sha256(pcorr_angles_forest.read_bytes()).hexdigest()
        assert pipeline.read_manifest(out)["forest"]["sha256"] == digest

    def test_data_driven_mode_requires_forest(self):
        with pytest.raises(ConfigError, match="forest"):
            pipeline.run_uq(fast_settings(), "p", forest_path=None)

    def test_missing_forest_file(self):
        with pytest.raises(DataError, match="not found"):
            pipeline.run_uq(fast_settings(), "p", forest_path="/nonexistent.json")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown uq mode"):
            pipeline.run_uq(fast_settings(), "noisy")


class TestOutputFiles:
    @pytest.mark.parametrize(
        "args, traces",
        [
            (["baseline", "--re-tau", "180", "--config", str(PERFBENCH / "uq-small-grid.ini")], 1),
            ([*SMALL_GRID_UQ, "--mode", "datafree", "--delta-b", "1.0"], 4),
            ([*SMALL_GRID_UQ, "--mode", "pcorr_angles", "--forest", "{forest}"], 2),
        ],
        ids=["baseline", "datafree", "pcorr_angles"],
    )
    def test_one_trace_per_distinct_state(self, pcorr_angles_forest, tmp_path, monkeypatch,
                                          args, traces):
        traced = []
        barycentric_trace = channel.barycentric_trace

        def counting_trace(state):
            traced.append(id(state))
            return barycentric_trace(state)

        monkeypatch.setattr(channel, "barycentric_trace", counting_trace)
        args = [arg.format(forest=pcorr_angles_forest) for arg in args]
        assert cli.run([*args, "--out", str(tmp_path / "run")]) == pipeline.EXIT_OK
        assert len(traced) == len(set(traced)) == traces

    @pytest.mark.parametrize(
        "args, files",
        [
            (["uq", "--mode", "datafree", "--delta-b", "1.0", "--re-tau", "180"], 8),
            (["baseline", "--re-tau", "180"], 2),
            (["propagate-dns", "--re-tau", "180"], 1),
        ],
        ids=["uq-datafree", "baseline", "propagate-dns"],
    )
    def test_each_distinct_column_is_formatted_once(self, tmp_path, monkeypatch, args, files):
        writes, formatted = [], []
        write_tables, format_columns = pipeline.write_tables, pipeline._format_columns

        def spy_write(tables):
            writes.append(tables)
            write_tables(tables)

        def spy_format(columns):
            formatted.extend(column.tobytes() for column in columns)
            return format_columns(columns)

        monkeypatch.setattr(pipeline, "write_tables", spy_write)
        monkeypatch.setattr(pipeline, "_format_columns", spy_format)
        assert cli.run([*args, "--out", str(tmp_path / "run")]) == pipeline.EXIT_OK
        # one write call per command, and each column known by its bytes
        # formatted by exactly one ``%`` operation of it
        [tables] = writes
        assert sum(len(paths) for paths, *_ in tables) == files
        columns = [column.tobytes() for *_, table in tables for column in table]
        assert sorted(formatted) == sorted(set(columns))


class TestRowCells:
    """The cell bytes of metrics.csv and summary.csv (``_write_rows``)."""

    def test_text_integers_and_nan(self, tmp_path):
        path = tmp_path / "rows.csv"
        pipeline._write_rows(path, [
            {"run": "uq", "n": 3, "m": np.int64(-7), "x": 0.1},
            {"run": "", "n": 0, "m": np.int64(2**40), "x": np.nan},
        ])
        assert path.read_bytes() == (
            b"run,n,m,x\nuq,3,-7,0.10000000000000001\n,0,1099511627776,nan\n")

    @pytest.mark.parametrize("value", [
        0.1, 1 / 3, -0.0, 6.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
        np.float64(2.5e-7), np.inf, -np.inf,
    ])
    def test_float_is_17g_and_parses_back(self, tmp_path, value):
        path = tmp_path / "rows.csv"
        pipeline._write_rows(path, [{"x": value}])
        assert path.read_bytes() == b"x\n" + (b"%.17g\n" % value)
        cell = np.float64(path.read_text().splitlines()[1])
        assert cell == value and np.signbit(cell) == np.signbit(value)


class TestPropagateCommand:
    def test_synthetic_reference(self, tmp_path):
        out = tmp_path / "prop"
        assert pipeline.cmd_propagate_dns(fast_settings(), out) == pipeline.EXIT_OK
        man = pipeline.read_manifest(out)
        assert "dns" not in man
        assert man["rel_l2_error_U"] < 0.01
        assert man["total_shear_error"] <= 1e-8
        assert_solve_record(man)
        rows = (out / "metrics.csv").read_text().strip().split("\n")
        assert rows[0] == "re_tau,noise,noise_seed,rel_l2_error_U,iterations"
        assert len(rows) == 2

    def test_profile_file(self, tmp_path):
        prof = dns.synthetic_profile(180.0)
        path = tmp_path / "ref.dat"
        dns.write_profile(prof, path)
        out = tmp_path / "prop"
        code = pipeline.cmd_propagate_dns(fast_settings(), out, dns_path=str(path))
        assert code == pipeline.EXIT_OK
        man = pipeline.read_manifest(out)
        assert man["rel_l2_error_U"] < 0.01
        # the profile it propagated, by base name and the digest of its bytes
        assert man["dns"] == {"file": "ref.dat",
                              "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}

    def test_data_profile_file_is_recorded_as_a_dns_profile(self, tmp_path):
        path = tmp_path / "profiles" / "ref.dat"
        path.parent.mkdir()
        dns.write_profile(dns.synthetic_profile(180.0), path)
        settings = fast_settings()
        settings.data[180.0] = str(path)
        out = tmp_path / "prop"
        assert pipeline.cmd_propagate_dns(settings, out) == pipeline.EXIT_OK
        assert pipeline.read_manifest(out)["dns"] == {
            "file": "ref.dat", "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}

    def test_missing_profile_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            pipeline.cmd_propagate_dns(
                fast_settings(), tmp_path / "x", dns_path="/nonexistent.dat"
            )

    def test_malformed_profile_file(self, tmp_path):
        bad = tmp_path / "bad.dat"
        bad.write_text("1.0 2.0\n1.0\n")  # ragged rows
        with pytest.raises(DataError):
            pipeline.cmd_propagate_dns(fast_settings(), tmp_path / "x", dns_path=str(bad))


# the laminar record of a uq manifest whose corners are all turbulent
TURBULENT = dict.fromkeys(channel.CORNER_SLOTS, False)


class TestReportCommand:
    def test_aggregation_and_width_ratio(self, tmp_path):
        s = fast_settings()
        runs = []
        for mode, width in (("datafree", 300.0), ("p", 50.0)):
            d = tmp_path / f"uq_{mode}"
            d.mkdir()
            pipeline.write_manifest(
                d, "uq", s, {"mode": mode, "integrated_width": width,
                             "realizability_violations": 0, "iterations": {},
                             "laminar": TURBULENT},
            )
            runs.append(str(d))
        out = tmp_path / "report"
        assert pipeline.cmd_report(runs, out) == pipeline.EXIT_OK
        lines = (out / "summary.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[-1] == "width_ratio_datafree_over_datadriven"
        ratio = float(lines[1].split(",")[-1])
        assert ratio == pytest.approx(6.0)

    @pytest.mark.parametrize("modes", [["datafree"], ["datafree", "p"]],
                             ids=["without_ratio", "with_ratio"])
    def test_rows_hold_the_header_s_columns_in_its_order(self, tmp_path, modes):
        manifests = {
            "propagated": ("propagate-dns", {"rel_l2_error_U": 0.25,
                                             "realizability_violations": 2, "iterations": 7}),
            "datafree": ("uq", {"mode": "datafree", "integrated_width": 300.0,
                                "realizability_violations": 0,
                                "iterations": {"1C": 5, "2C": 6, "3C": 7},
                                "laminar": {**TURBULENT, "3C": True}}),
            "p": ("uq", {"mode": "p", "integrated_width": 50.0, "iterations": {},
                         "laminar": TURBULENT}),
        }
        expected = {
            "propagated": ["propagate-dns", "", "180", "nan", "0.25", "2", "7", "0"],
            "datafree": ["uq", "datafree", "180", "300", "nan", "0",
                         '{"1C": 5; "2C": 6; "3C": 7}', "1"],
            "p": ["uq", "p", "180", "50", "nan", "nan", "{}", "0"],
        }
        names = ["propagated", *modes]
        for name in names:
            (tmp_path / name).mkdir()
            command, extra = manifests[name]
            pipeline.write_manifest(tmp_path / name, command, fast_settings(), extra)
        out = tmp_path / "report"
        assert pipeline.cmd_report([str(tmp_path / name) for name in names], out) == 0
        header, *rows = (out / "summary.csv").read_text().splitlines()
        ratio = ["width_ratio_datafree_over_datadriven"] if len(modes) > 1 else []
        assert header.split(",") == ["run", "command", "mode", "re_tau", "integrated_width",
                                     "rel_l2_error_U", "realizability_violations",
                                     "iterations", "laminar_corners", *ratio]
        assert [row.split(",") for row in rows] == [
            [name, *expected[name], *(["6"] if ratio else [])] for name in names]

    def test_no_runs_is_a_one_line_error(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            pipeline.cmd_report([], tmp_path / "out")
        assert str(info.value) == "report needs at least one run directory"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("delta_b, laminar_corners", [("1.0", 1), ("0.5", 0)])
    def test_laminar_corner_count(self, tmp_path, delta_b, laminar_corners):
        # at Re_tau 180 the datafree 3C corner is laminar past the fold
        # near delta_b 0.52; a baseline row holds 0
        runs = {"uq": ["uq", "--mode", "datafree", "--delta-b", delta_b],
                "baseline": ["baseline"]}
        for name, args in runs.items():
            assert cli.run([*args, "--re-tau", "180", "--out", str(tmp_path / name)]) == 0
        out = tmp_path / "report"
        assert cli.run(["report", *(str(tmp_path / name) for name in runs),
                        "--out", str(out)]) == 0
        header, *rows = (out / "summary.csv").read_text().splitlines()
        assert header.split(",")[-1] == "laminar_corners"
        assert [row.split(",")[-1] for row in rows] == [str(laminar_corners), "0"]

    @pytest.mark.parametrize("laminar", [
        None, [False, False, True], {"1C": False, "2C": False},
        {**TURBULENT, "4C": False}, {**TURBULENT, "3C": 1}, {**TURBULENT, "2C": "true"},
    ], ids=["missing", "list", "slot_missing", "extra_slot", "integer", "text"])
    def test_malformed_laminar_exit_four(self, tmp_path, monkeypatch, capsys, laminar):
        run = tmp_path / "run"
        run.mkdir()
        doc = {"command": "uq", "mode": "datafree", "integrated_width": 3.0}
        if laminar is not None:
            doc["laminar"] = laminar
        (run / "manifest.json").write_text(json.dumps(doc))
        code, stderr = run_main(monkeypatch, capsys,
                                "report", str(run), "--out", str(tmp_path / "d"))
        assert code == 4
        assert re.match(rf"data error: manifest of {re.escape(str(run))}: laminar(\.\dC)? "
                        "cannot be ", stderr), stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "driven_channel, message",
        [
            ({"re_tau": "1000.0"}, "settings.channel.re_tau ('180' and '1000.0')"),
            ({"n_cells": "64"}, "settings.channel.n_cells ('96' and '64')"),
            ({"stretch": None}, "settings.channel.stretch ('0.5' and None)"),
            ({"re_tau": "180.0", "max_iters": "4e4"}, "settings.channel.max_iters ('40000' and '4e4')"),
            ({"re_tau": "180.0", "n_cells": "096"}, None),
        ],
        ids=["re_tau", "n_cells", "missing", "uncast", "same_values"],
    )
    def test_width_ratio_needs_one_channel(self, tmp_path, driven_channel, message):
        # each channel key, as the channel reads it: "180" and "180.0" agree
        channels = {"free": {"re_tau": "180", "n_cells": "96", "stretch": "0.5",
                             "max_iters": "40000"}}
        channels["driven"] = {**channels["free"], **driven_channel}
        channels["driven"] = {k: v for k, v in channels["driven"].items() if v is not None}
        for name, mode, width in (("free", "datafree", 300.0), ("driven", "pcorr", 50.0)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "manifest.json").write_text(json.dumps(
                {"command": "uq", "mode": mode, "integrated_width": width,
                 "settings": {"channel": channels[name]}, "laminar": TURBULENT}))
        runs, out = [str(tmp_path / "free"), str(tmp_path / "driven")], tmp_path / "out"
        if message is None:
            assert pipeline.cmd_report(runs, out) == pipeline.EXIT_OK
            assert float((out / "summary.csv").read_text().split("\n")[1].split(",")[-1]) == 6.0
            return
        with pytest.raises(DataError) as info:
            pipeline.cmd_report(runs, out)
        assert str(info.value) == (f"uq runs free and driven differ in {message}: "
                                   "no width ratio between them")
        assert not out.exists()

    @pytest.mark.parametrize(
        "names, message",
        [
            (["free_a", "free_b", "drv_p"], r"2 datafree uq runs \(free_a, free_b\)"),
            (["free_a", "drv_p", "drv_pcorr"], r"2 data-driven uq runs \(drv_p, drv_pcorr\)"),
        ],
    )
    def test_ambiguous_uq_runs_rejected(self, tmp_path, names, message):
        modes = {"free_a": "datafree", "free_b": "datafree", "drv_p": "p", "drv_pcorr": "pcorr"}
        for name in names:
            (tmp_path / name).mkdir()
            pipeline.write_manifest(
                tmp_path / name, "uq", fast_settings(),
                {"mode": modes[name], "integrated_width": 1.0, "laminar": TURBULENT},
            )
        with pytest.raises(DataError, match=message):
            pipeline.cmd_report([str(tmp_path / n) for n in names], tmp_path / "out")

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "no manifest.json in"),
            (b'{"command": "uq", "mode"', "unreadable manifest"),
            (b"[1, 2]", "is not a JSON object"),
            (b'{"command": "\xff"}', "unreadable manifest"),
        ],
        ids=["missing", "truncated", "not_an_object", "not_utf8"],
    )
    def test_missing_manifest(self, tmp_path, content, message):
        if content is not None:
            (tmp_path / "manifest.json").write_bytes(content)
        with pytest.raises(DataError, match=message) as info:
            pipeline.cmd_report([str(tmp_path)], tmp_path / "out")
        assert str(tmp_path) in str(info.value)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"settings": []}, "settings"),
            ({"settings": {"channel": "180"}}, "settings.channel"),
            ({"integrated_width": "wide"}, "integrated_width"),
            ({"rel_l2_error_U": None}, "rel_l2_error_U"),
            ({"realizability_violations": True}, "realizability_violations"),
            ({"mode": "data,free"}, "mode"),
            ({"command": "uq\n"}, "command"),
            ({"settings": {"channel": {"re_tau": "180\r"}}}, "re_tau"),
            ({"mode": ["datafree"]}, "mode"),
            ({}, "run name"),
        ],
    )
    def test_malformed_field_rejected(self, tmp_path, fields, name):
        # a field summary.csv cannot hold, beside a well-formed
        # data-driven run that a width ratio would be taken against
        run = tmp_path / ("data,free" if name == "run name" else "datafree")
        driven = tmp_path / "driven"
        for d in (run, driven):
            d.mkdir()
        doc = {"command": "uq", "mode": "datafree", "integrated_width": 3.0,
               "settings": {"channel": {"re_tau": "180"}}, **fields}
        (run / "manifest.json").write_text(json.dumps(doc))
        pipeline.write_manifest(driven, "uq", fast_settings(),
                                {"mode": "p", "integrated_width": 1.0})
        with pytest.raises(DataError, match=rf": {name} cannot be ") as info:
            pipeline.cmd_report([str(run), str(driven)], tmp_path / "out")
        assert str(run) in str(info.value)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", [None, "", "data-driven", "Datafree", 3])
    def test_uq_mode_must_be_known(self, tmp_path, mode):
        # a uq run of no mode or an unknown one is not the data-driven run
        # a width ratio would be taken against; a baseline needs no mode
        free, run, base = (tmp_path / name for name in ("free", "run", "base"))
        for d in (free, run, base):
            d.mkdir()
        (free / "manifest.json").write_text(
            json.dumps({"command": "uq", "mode": "datafree", "integrated_width": 300.0,
                        "laminar": TURBULENT}))
        doc = {"command": "uq", "integrated_width": 50.0}
        if mode is not None:
            doc["mode"] = mode
        (run / "manifest.json").write_text(json.dumps(doc))
        (base / "manifest.json").write_text(json.dumps({"command": "baseline"}))
        with pytest.raises(DataError) as info:
            pipeline.cmd_report([str(free), str(run), str(base)], tmp_path / "out")
        assert str(info.value) == f"manifest of {run}: mode cannot be {mode!r}"
        assert not (tmp_path / "out").exists()
        assert pipeline.cmd_report([str(free), str(base)], tmp_path / "out") == 0


class TestBenchmarkChecks:
    """The benchmark's own output checks pass on the outputs of a uq run
    and a report over it, so a format or API break shows up here before
    it turns into failed benchmark ops."""

    def test_uq_and_report_outputs_pass(self, small_grid_datafree_uq, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        checks = importlib.import_module("checks")
        report = tmp_path / "report"
        assert cli.run(["report", str(small_grid_datafree_uq), "--out", str(report)]) == 0
        for out in (small_grid_datafree_uq, report):
            assert checks.check_outputs(out, 0) == [], out.name
        quality = checks.quality(small_grid_datafree_uq)
        assert np.isfinite(quality["stress_consistency_max"])


class TestCli:
    """Exit codes and messages of ``cli.main()``. Two cases start
    ``python -m eigenuq.cli`` for the entry point and its stderr; the
    others run in process."""

    def run_cli(self, *args):
        return run_python("-m", "eigenuq.cli", *args)

    def test_baseline_success_exit_zero(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 180\nn_cells = 64\n")
        proc = self.run_cli("baseline", "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "d" / "manifest.json").exists()

    # the arguments of a baseline, and the start of its exit-2 message
    CONFIG_ERRORS = [
        (["--re-tau", "0"], "re_tau must be finite and positive"),
        (["--config", "{directory}"], "unreadable config file {directory}: "),
        (["--config", "{not_utf8}"],
         "unreadable config file {not_utf8}: 'utf-8' codec can't decode byte 0xe9"),
        (["--config", "{no_header}"], "malformed config file {no_header}: File contains no "
         "section headers. file: '{no_header}', line: 1 're_tau = 180\\n'"),
        (["--config", "{stray_line}"], "malformed config file {stray_line}: Source contains "
         "parsing errors: '{stray_line}' [line  2]: 'garbage\\n'"),
        (["--out", "{not_utf8}"], "output path {not_utf8} exists and is not a directory"),
        (["--out", "{not_utf8}/sub"],
         "output path {not_utf8}/sub lies under {not_utf8}, which exists and is not a directory"),
        (["--out", ""], "output path is empty"),
    ]

    def test_config_error_exit_two(self, tmp_path, monkeypatch, capsys):
        # each in one line, before any solve
        paths = unreadable_inputs(tmp_path)
        for name, text in (("no_header", "re_tau = 180\n"),
                           ("stray_line", "[channel]\ngarbage\nre_tau = 180\n")):
            paths[name] = str(tmp_path / f"{name}.ini")
            Path(paths[name]).write_text(text)
        for args, message in self.CONFIG_ERRORS:
            code, stderr = main_without_solving(monkeypatch, capsys, "baseline", "--out",
                                                str(tmp_path / "d"),
                                                *(arg.format(**paths) for arg in args))
            assert code == 2, args
            assert stderr.startswith(f"configuration error: {message.format(**paths)}"), stderr
            assert stderr.count("\n") == 1, stderr
            assert not (tmp_path / "d").exists()

    def test_numerical_error_exit_three(self, tmp_path, monkeypatch, capsys):
        # with a zero Newton tolerance no solve converges, whatever max_iters
        monkeypatch.setattr(channel, "NEWTON_TOL", 0.0)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 180\nn_cells = 64\nmax_iters = 10\n")
        code, stderr = run_main(monkeypatch, capsys,
                                "baseline", "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 3
        assert "numerical failure" in stderr
        assert not (tmp_path / "d").exists()

    def test_failing_uq_baseline_exit_three(self, tmp_path, monkeypatch, capsys):
        # the data-free baseline is the first row of the corners' stack;
        # its failure is reported as a failing baseline command reports it
        monkeypatch.setattr(channel, "NEWTON_TOL", 0.0)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 180\nn_cells = 32\nmax_iters = 10\n")
        code, stderr = run_main(monkeypatch, capsys, "uq", "--mode", "datafree", "--delta-b",
                                "1.0", "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 3
        assert re.search(r"^numerical failure: no fixed point after 10 Picard sweeps and \d+ "
                         r"Newton steps", stderr), stderr
        assert not (tmp_path / "d").exists()

    def test_corner_without_fixed_point_exit_three(self, tmp_path):
        # 100 sweeps bring the 1C and 2C corners at Re_tau 5200 and
        # delta_b 0.5 to their fixed points but leave 3C outside Newton's
        # basin
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 5200\nmax_iters = 100\n")
        proc = self.run_cli("uq", "--mode", "datafree", "--delta-b", "0.5", "--config", str(cfg),
                            "--out", str(tmp_path / "d"))
        assert proc.returncode == 3, proc.stderr
        assert re.search(r"numerical failure: corner 3C failed: no fixed point after 100 Picard "
                         r"sweeps and \d+ Newton steps \(no Newton step lowers the scaled F \S+ "
                         r"at step \d+\)", proc.stderr), proc.stderr
        assert not (tmp_path / "d").exists()

    # the arguments of a command, and the start of its exit-4 message
    DATA_ERRORS = [
        (["propagate-dns", "--dns", "/nonexistent.dat"],
         "reference profile for Re_tau=180 not found: /nonexistent.dat"),
        (["propagate-dns", "--dns", "{directory}"], "unreadable reference profile {directory}: "),
        (["propagate-dns", "--dns", "{not_utf8}"],
         "unreadable reference profile {not_utf8}: 'utf-8' codec can't decode byte 0xe9"),
        (["uq", "--mode", "p", "--forest", "{directory}"], "unreadable forest file {directory}: "),
        (["uq", "--mode", "p", "--forest", "{not_utf8}"],
         "unreadable forest file {not_utf8}: 'utf-8' codec can't decode byte 0xe9"),
        (["train"], "unreadable reference profile {directory}: "),
        (["report", "{run}"], "unreadable manifest {manifest}: "),
    ]

    def test_data_error_exit_four(self, tmp_path, monkeypatch, capsys):
        # each in one line; of the config, whose [data] names a directory,
        # only train reads that section
        paths = unreadable_inputs(tmp_path)
        for args, message in self.DATA_ERRORS:
            if args[0] != "report":
                args = [*args, "--config", paths["data_directory"]]
            code, stderr = run_main(monkeypatch, capsys, *(arg.format(**paths) for arg in args),
                                    "--out", str(tmp_path / "d"))
            assert code == 4, args
            assert stderr.startswith(f"data error: {message.format(**paths)}"), stderr
            assert stderr.count("\n") == 1, stderr
            assert not (tmp_path / "d").exists()

    def test_unreadable_manifest_exit_four(self, tmp_path, monkeypatch, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "manifest.json").write_text('{"command": "uq"')
        code, stderr = run_main(monkeypatch, capsys,
                                "report", str(run), "--out", str(tmp_path / "d"))
        assert code == 4
        assert f"data error: unreadable manifest {run / 'manifest.json'}" in stderr
        assert not (tmp_path / "d").exists()

    def test_malformed_manifest_field_exit_four(self, tmp_path, monkeypatch, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "manifest.json").write_text('{"command": "uq", "settings": []}')
        code, stderr = run_main(monkeypatch, capsys,
                                "report", str(run), "--out", str(tmp_path / "d"))
        assert code == 4
        assert f"data error: manifest of {run}: settings cannot be []" in stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["uq", "--mode", "datafree", "--delta-b", "2.0"], "delta_b must be in [0, 1]"),
            (["uq", "--mode", "pcorr", "--forest", "{p_forest}"],
             "forest targets are ['p'], uq mode 'pcorr' needs ['p_corr_x', 'p_corr_y']"),
            (["uq", "--mode", "datafree", "--forest", "{p_forest}"], "does not take --forest"),
            (["uq", "--mode", "pcorr", "--delta-b", "0.3"], "does not take --delta-b"),
            (["propagate-dns", "--noise", "-5"], "must be finite and >= 0, got -5"),
            (["propagate-dns", "--noise", "inf"], "must be finite and >= 0, got inf"),
            (["baseline", "--re-tau", "inf"], "re_tau must be finite and positive"),
            (["baseline", "--re-tau", "nan"], "re_tau must be finite and positive"),
            (["train", "--target", "p", "--seed", "-1"], "seed must be a non-negative integer"),
            (["propagate-dns", "--seed", "-1"], "seed must be a non-negative integer"),
        ],
        ids=["delta_b", "forest_kind", "forest_datafree", "delta_b_pcorr", "noise_negative",
             "noise_inf", "re_tau_inf", "re_tau_nan", "seed_train", "seed_propagate"],
    )
    def test_bad_arguments_rejected_before_solving(self, tmp_path, monkeypatch, capsys, args,
                                                   message):
        # in process, with every solve failing the test
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 180\nn_cells = 64\n")
        p_forest = tmp_path / "forest_p.json"
        save_small_forest(p_forest, "p")
        args = [arg.format(p_forest=p_forest) for arg in args]
        code, stderr = main_without_solving(monkeypatch, capsys, *args, "--config", str(cfg),
                                            "--out", str(tmp_path / "d"))
        assert code == 2, stderr
        assert "configuration error" in stderr
        assert message in stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[uq]\ndelta_b = abc\n", "uq.delta_b"),
            ("[propagate]\nnoise = xyz\n", "propagate.noise"),
            ("[train]\nseed = 1.5\n", "train.seed"),
            ("[train]\ntrain_re_tau = 180, x\n", "train.train_re_tau"),
        ],
        ids=["uq", "propagate", "train_seed", "train_re_tau"],
    )
    def test_malformed_value_rejected_by_any_command(self, tmp_path, monkeypatch, capsys, text,
                                                     key):
        # a value of a section the baseline does not read is cast all the same
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        code, stderr = main_without_solving(monkeypatch, capsys, "baseline", "--re-tau", "180",
                                            "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 2, stderr
        assert f"configuration error: invalid value for {key}" in stderr
        assert not (tmp_path / "d").exists()

    def test_malformed_forest_exit_four(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "forest_p.json"
        save_small_forest(path, "p")
        doc = json.loads(path.read_text())
        doc["trees"][0]["split_feature"][0] = 6  # the forest has features 0-5
        path.write_text(json.dumps(doc))
        code, stderr = run_main(
            monkeypatch, capsys,
            "uq", "--mode", "p", "--forest", str(path), "--re-tau", "180",
            "--out", str(tmp_path / "d"),
        )
        assert code == 4, stderr
        assert "data error" in stderr
        assert r"split feature outside [-1, 6)" in stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("max_depth", 2.5, "max_depth must be a positive integer, got 2.5"),
            ("seed", True, "seed must be a non-negative integer, got True"),
            ("n_trees", "2", "n_trees must be a positive integer, got '2'"),
            ("feature_names", "abcdef", "feature_names is not a list of texts"),
            ("feature_names", [1, 2, 3, 4, 5, {}], "feature_names is not a list of texts"),
        ],
        ids=["max_depth_float", "seed_true", "n_trees_text", "feature_names_text",
             "feature_names_entries"],
    )
    def test_forest_head_of_another_type_exit_four(self, tmp_path, monkeypatch, capsys, key,
                                                   value, message):
        # rejected before any solve
        path = tmp_path / "forest_p.json"
        save_small_forest(path, "p")
        doc = json.loads(path.read_text())
        if key == "feature_names":
            doc[key] = value
        else:
            doc["hyperparams"][key] = value
        path.write_text(json.dumps(doc))
        code, stderr = main_without_solving(
            monkeypatch, capsys,
            "uq", "--mode", "p", "--forest", str(path), "--re-tau", "180",
            "--out", str(tmp_path / "d"),
        )
        assert code == 4, stderr
        assert f"data error: {path}: malformed forest file ({message})" in stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "key, names",
        [
            ("feature_names", features.DEFAULT_FEATURES[::-1]),
            ("target_names", ["p_corr_x", "p_corr_y", "beta", "alpha", "gamma"]),
            ("feature_names", [*features.DEFAULT_FEATURES[:-1], "y_star"]),
            ("target_names", ["p_corr_x", "p_corr_y", "alpha", "beta", "theta"]),
        ],
        ids=["swapped_features", "reordered_targets", "renamed_feature", "renamed_target"],
    )
    def test_forest_of_other_columns_exit_two(self, pcorr_angles_forest, tmp_path, monkeypatch,
                                              capsys, key, names):
        # the counts match; the names say the columns mean something else
        doc = json.loads(pcorr_angles_forest.read_text())
        doc[key] = names
        path = tmp_path / "forest_pcorr_angles.json"
        path.write_text(json.dumps(doc))
        code, stderr = main_without_solving(
            monkeypatch, capsys, *SMALL_GRID_UQ, "--mode", "pcorr_angles", "--forest", str(path),
            "--out", str(tmp_path / "d"))
        what, needed = {"feature_names": ("features", features.DEFAULT_FEATURES),
                        "target_names": ("targets", dns.TARGET_NAMES["pcorr_angles"])}[key]
        assert code == 2, stderr
        assert stderr == (f"configuration error: forest {what} are {names}, "
                          f"uq mode 'pcorr_angles' needs {needed}\n")
        assert not (tmp_path / "d").exists()

    def test_forest_without_names_exit_two(self, tmp_path, monkeypatch, capsys):
        # a forest of library fit stores no names: nothing says what its
        # columns are, so uq does not apply it
        path = tmp_path / "forest_pcorr_angles.json"
        save_small_forest(path, "pcorr_angles", names=False)
        code, stderr = main_without_solving(
            monkeypatch, capsys, *SMALL_GRID_UQ, "--mode", "pcorr_angles", "--forest", str(path),
            "--out", str(tmp_path / "d"))
        assert code == 2, stderr
        assert stderr == ("configuration error: forest features are [], uq mode 'pcorr_angles' "
                          f"needs {features.DEFAULT_FEATURES}\n")
        assert not (tmp_path / "d").exists()

    def test_non_finite_forest_exit_four(self, tmp_path, monkeypatch, capsys):
        # an infinite leaf value would reach the solver as an infinite target
        path = tmp_path / "forest_p.json"
        save_small_forest(path, "p")
        doc = json.loads(path.read_text())
        leaves = doc["trees"][0]["split_feature"].count(-1)
        doc["trees"][0]["leaf_value"] = base64.b64encode(
            np.full(leaves, np.inf).astype("<f8").tobytes()).decode("ascii")
        path.write_text(json.dumps(doc))
        code, stderr = run_main(
            monkeypatch, capsys,
            "uq", "--mode", "p", "--forest", str(path), "--re-tau", "180",
            "--out", str(tmp_path / "d"),
        )
        assert code == 4, stderr
        assert "tree 0: leaf_value holds a non-finite entry" in stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_schema_1_forest_exit_four(self, tmp_path, monkeypatch, capsys, version):
        path = tmp_path / "forest_p.json"
        save_small_forest(path, "p")
        doc = json.loads(path.read_text())
        doc["version"] = version  # the tag alone decides: no older layout is parsed
        path.write_text(json.dumps(doc))
        code, stderr = run_main(
            monkeypatch, capsys,
            "uq", "--mode", "p", "--forest", str(path), "--re-tau", "180",
            "--out", str(tmp_path / "d"),
        )
        assert code == 4, stderr
        assert f"data error: {path}: schema-{version} forest file" in stderr
        assert "re-run train" in stderr
        assert not (tmp_path / "d").exists()

    def test_forest_with_byte_order_mark_exit_four(self, tmp_path, monkeypatch, capsys):
        # the CLI and forest.loads on the file's UTF-8 text say the same
        path = tmp_path / "forest_p.json"
        save_small_forest(path, "p")
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        with pytest.raises(forest.ForestFormatError) as caught:
            forest.loads(path.read_text(encoding="utf-8"), str(path))
        assert str(caught.value) == f"{path}: not valid JSON (line 1)"
        code, stderr = main_without_solving(
            monkeypatch, capsys,
            "uq", "--mode", "p", "--forest", str(path), "--re-tau", "180",
            "--out", str(tmp_path / "d"),
        )
        assert code == 4, stderr
        assert stderr == f"data error: {caught.value}\n"
        assert not (tmp_path / "d").exists()

    DEFECT_MESSAGES = {
        "truncated": "covers y+ up to",
        "starts_above_wall": "profile starts at y+",
        "nan": "non-finite value in uv_plus",
    }

    @staticmethod
    def write_bad_profile(tmp_path, defect):
        """The synthetic Re_tau = 180 profile with one defect, as a file."""
        prof = dns.synthetic_profile(180.0)
        path = tmp_path / "ref.dat"
        dns.write_profile(prof, path)
        lines = path.read_text().splitlines()
        if defect == "truncated":  # rows up to y+ = 60 of 180
            lines = lines[:2] + lines[2:][: int(np.searchsorted(prof.y_plus, 60.0, "right"))]
        elif defect == "starts_above_wall":  # rows from y+ = 30 on
            lines = lines[:2] + lines[2:][int(np.searchsorted(prof.y_plus, 30.0)):]
        else:
            lines[10] = lines[10].replace(lines[10].split()[6], "nan")
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("defect", ["truncated", "starts_above_wall", "nan"])
    def test_bad_training_profile_exit_four(self, tmp_path, monkeypatch, capsys, defect):
        path = self.write_bad_profile(tmp_path, defect)
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[channel]\nn_cells = 32\n"
            "[train]\ntrain_re_tau = 180\nholdout_re_tau = 550\n"
            f"[data]\n180 = {path}\n"
        )
        code, stderr = run_main(monkeypatch, capsys,
                                "train", "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 4, stderr
        assert "data error" in stderr
        assert self.DEFECT_MESSAGES[defect] in stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("defect", ["missing", "truncated"])
    def test_training_profiles_read_before_solving(self, tmp_path, monkeypatch, capsys, defect):
        # the bad profile is that of a training Re_tau after the first
        path = (tmp_path / "absent.dat" if defect == "missing"
                else self.write_bad_profile(tmp_path, "truncated"))
        calls, solve_baselines = [], channel.solve_baselines

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_baselines(*args, **kwargs)

        monkeypatch.setattr(channel, "solve_baselines", counted)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nn_cells = 32\n[train]\ntrain_re_tau = 550, 180\n"
                       f"holdout_re_tau = 1000\n[data]\n180 = {path}\n")
        code, stderr = run_main(monkeypatch, capsys,
                                "train", "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 4, stderr
        assert stderr.startswith("data error: ") and stderr.count("\n") == 1
        assert calls == []
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("train_re_tau, holdout_re_tau, message", [
        ("180, 1000", "1000", "train.holdout_re_tau 1000 is also a training Re_tau"),
        ("180, 1e3", "1000.0", "train.holdout_re_tau 1000 is also a training Re_tau"),
        ("180, 550, 180.0", "1000", "train.train_re_tau names Re_tau=180 more than once"),
        ("180, -5", "1000", "train Re_tau -5 is not finite and positive"),
        ("180", "nan", "train Re_tau nan is not finite and positive"),
    ], ids=["holdout_trained_on", "holdout_as_another_float", "training_named_twice",
            "training_negative", "holdout_nan"])
    def test_train_re_tau_checked_before_reading(self, tmp_path, monkeypatch, capsys,
                                                 train_re_tau, holdout_re_tau, message):
        # a holdout among the training rows once gave a holdout_mse below
        # the train_mse, and exit 0; a Re_tau of -5 or nan ended in a
        # traceback from the synthetic profile
        calls, solve_baselines = [], channel.solve_baselines

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_baselines(*args, **kwargs)

        monkeypatch.setattr(channel, "solve_baselines", counted)
        monkeypatch.setattr(pipeline, "load_reference_profile",
                            lambda *_: pytest.fail("read a profile before the check"))
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[channel]\nn_cells = 32\n[train]\ntrain_re_tau = {train_re_tau}\n"
                       f"holdout_re_tau = {holdout_re_tau}\n")
        code, stderr = run_main(monkeypatch, capsys,
                                "train", "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 2, stderr
        assert message in stderr and stderr.count("\n") == 1
        assert calls == []
        assert not (tmp_path / "d").exists()

    def test_profile_of_another_re_tau_exit_four(self, tmp_path, monkeypatch, capsys):
        # the synthetic Re_tau 1000 profile given for 180: it covers [0, 180],
        # and propagating it once gave rel_l2_error_U 1.86 with exit 0
        path = tmp_path / "ref_1000.dat"
        dns.write_profile(dns.synthetic_profile(1000.0), path)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[channel]\nn_cells = 32\n[data]\n180 = {path}\n")
        code, stderr = run_main(monkeypatch, capsys, "propagate-dns", "--config", str(cfg),
                                "--re-tau", "180", "--out", str(tmp_path / "d"))
        assert code == 4, stderr
        # line 3 holds the wall, where y+ is 0 at any Re_tau
        assert re.fullmatch(r"data error: line 4: y/delta \S+ at y\+ \S+ implies "
                            r"Re_tau = 1000, not 180\n", stderr), stderr
        assert not (tmp_path / "d").exists()

    def test_baseline_past_1024_cells(self, tmp_path, monkeypatch, capsys):
        # make_grid's search for a ratio once overflowed at r**1099 here
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nn_cells = 1100\n")
        code, stderr = run_main(monkeypatch, capsys, "baseline", "--config", str(cfg),
                                "--re-tau", "1000", "--out", str(tmp_path / "d"))
        assert code == 0 or code in (2, 3) and stderr.count("\n") == 1, (code, stderr)

    def test_width_ratio_of_two_channels_exit_four(self, small_grid_datafree_uq,
                                                   pcorr_angles_forest, tmp_path, monkeypatch,
                                                   capsys):
        # the datafree uq at Re_tau 180 against pcorr_angles at 1000 once
        # gave a width ratio of 0.46; against pcorr_angles at 180 it stands
        driven = {}
        for re_tau in ("180", "1000"):
            driven[re_tau] = tmp_path / f"pcorr_angles_{re_tau}"
            assert cli.run(["uq", "--mode", "pcorr_angles", "--forest", str(pcorr_angles_forest),
                            "--re-tau", re_tau, "--config", str(PERFBENCH / "uq-small-grid.ini"),
                            "--out", str(driven[re_tau])]) == pipeline.EXIT_OK
        out = tmp_path / "report"
        code, stderr = run_main(monkeypatch, capsys, "report", str(small_grid_datafree_uq),
                                str(driven["1000"]), "--out", str(out))
        assert code == 4, stderr
        assert stderr == ("data error: uq runs uq and pcorr_angles_1000 differ in "
                          "settings.channel.re_tau ('180.0' and '1000.0'): "
                          "no width ratio between them\n")
        assert not (out / "summary.csv").exists()
        code, stderr = run_main(monkeypatch, capsys, "report", str(small_grid_datafree_uq),
                                str(driven["180"]), "--out", str(out))
        assert code == 0, stderr
        free, drv = (pipeline.read_manifest(d)["integrated_width"]
                     for d in (small_grid_datafree_uq, driven["180"]))
        header, row, *_ = (out / "summary.csv").read_text().splitlines()
        assert header.endswith(",width_ratio_datafree_over_datadriven")
        assert float(row.split(",")[-1]) == free / drv

    def test_propagated_profile_above_wall_exit_four(self, tmp_path, monkeypatch, capsys):
        # interpolation would clamp the uncovered wall region to y+ = 30
        path = self.write_bad_profile(tmp_path, "starts_above_wall")
        code, stderr = run_main(
            monkeypatch, capsys,
            "propagate-dns", "--re-tau", "180", "--dns", str(path), "--out", str(tmp_path / "d")
        )
        assert code == 4, stderr
        assert self.DEFECT_MESSAGES["starts_above_wall"] in stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("args, section, key",
                             [(["train", "--target", "p"], "train", "seed"),
                              (["propagate-dns"], "propagate", "noise_seed")],
                             ids=["train", "propagate"])
    def test_seed_flag_sets_only_its_command_s_key(self, tmp_path, monkeypatch, args, section,
                                                   key):
        ran = []
        monkeypatch.setattr(pipeline, f"cmd_{args[0].replace('-', '_')}",
                            lambda settings, *_args, **_kwargs: ran.append(settings) or 0)
        assert cli.run([*args, "--seed", "7", "--out", str(tmp_path / "d")]) == 0
        (settings,) = ran
        seeds = {("train", "seed"): settings.train["seed"],
                 ("propagate", "noise_seed"): settings.propagate["noise_seed"]}
        assert seeds == {**dict.fromkeys(seeds, "0"), (section, key): "7"}

    @pytest.mark.parametrize("args", [["baseline", "--seed", "1"], ["uq", "--seed", "1"],
                                      ["train", "--re-tau", "550"]],
                             ids=["baseline_seed", "uq_seed", "train_re_tau"])
    def test_flag_of_a_setting_the_command_does_not_read_rejected(self, tmp_path, monkeypatch,
                                                                  capsys, args):
        code, stderr = main_without_solving(monkeypatch, capsys, *args,
                                            "--out", str(tmp_path / "d"))
        assert code == 2
        assert f"unrecognized arguments: {' '.join(args[1:])}" in stderr
        assert not (tmp_path / "d").exists()

    def test_override_flags_name_settings_keys(self):
        # the dest of an override flag is the "section.key" it sets
        (subs,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        dests = {action.dest for sub in subs.choices.values() for action in sub._actions}
        overrides = sorted(dest for dest in dests if "." in dest)
        assert overrides == ["channel.re_tau", "propagate.noise", "propagate.noise_seed",
                             "train.seed", "uq.delta_b", "uq.mode"]
        for dest in overrides:
            section, key = dest.split(".")
            assert key in pipeline.DEFAULTS[section]

    def test_report_into_one_of_its_runs_exit_two(self, tmp_path, monkeypatch, capsys):
        # however the path is spelled, before any manifest is read
        monkeypatch.chdir(tmp_path)
        run = tmp_path / "run1"
        run.mkdir()
        pipeline.write_manifest(run, "baseline", fast_settings(), {"centerline_U": 1.0})
        before = (run / "manifest.json").read_bytes()
        monkeypatch.setattr(pipeline, "read_manifest", lambda _: pytest.fail("read a manifest"))
        for runs, out in ((["run1"], "run1"), (["run1/"], "./run1"),
                          (["missing", "./run1"], str(run))):
            code, stderr = run_main(monkeypatch, capsys, "report", *runs, "--out", out)
            assert code == 2
            assert stderr == (f"configuration error: output path {out} is one of the runs "
                              "to report\n")
        assert os.listdir(run) == ["manifest.json"]
        assert (run / "manifest.json").read_bytes() == before


class TestStartup:
    def test_commands_load_only_the_compiled_lapack_of_scipy(self, tmp_path):
        # every command is a fresh process and pays for what it imports:
        # of scipy only the compiled LAPACK wrappers, no package __init__
        script = (
            "import sys\n"
            "from eigenuq import cli\n"
            "for i, argv in enumerate(sys.argv[2:]):\n"
            "    code = cli.run([*argv.split(), '--out', f'{sys.argv[1]}/{i}'])\n"
            "    assert code == 0, (argv, code)\n"
            "print(sorted(sys.modules))\n"
        )
        proc = run_python("-c", script, str(tmp_path),
                          "propagate-dns --re-tau 180 --noise 0.02",
                          "uq --mode datafree --re-tau 180")
        assert proc.returncode == 0, proc.stderr
        loaded = ast.literal_eval(proc.stdout)
        assert "scipy.linalg._flapack" in loaded
        for absent in ("scipy.linalg", "scipy.ndimage", "scipy._lib", "numpy.f2py",
                       "numpy.testing", "numpy.ma"):
            assert absent not in loaded, absent
        for heavy in ("scipy.interpolate", "scipy.optimize", "scipy.integrate", "scipy.special",
                      "scipy.sparse"):
            assert not [m for m in loaded if m == heavy or m.startswith(heavy + ".")], heavy


class TestManifest:
    @pytest.mark.parametrize(
        "args, section, recorded",
        [
            (["uq", "--mode", "pcorr_angles", "--forest", "{forest}"], "uq",
             {"mode": "pcorr_angles"}),
            (["propagate-dns", "--noise", "0.02"], "propagate",
             {"noise": "0.02", "noise_seed": "0"}),
        ],
        ids=["uq_mode", "propagate_noise"],
    )
    def test_records_the_settings_that_ran(self, tmp_path, args, section, recorded):
        # a forest fitted to zero targets: the pcorr_angles uq solves the baseline
        path = tmp_path / "forest.json"
        save_small_forest(path, "pcorr_angles")
        args = [arg.format(forest=path) for arg in args]
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 180\nn_cells = 32\n")
        out = tmp_path / "run"
        assert cli.run([*args, "--config", str(cfg), "--out", str(out)]) == pipeline.EXIT_OK
        assert pipeline.read_manifest(out)["settings"][section] == recorded

    def test_runs_of_one_process_share_no_arguments(self, tmp_path, capsys):
        # the parser is built once per process: neither a run's flags nor
        # a rejected command line carries over to the next run
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 180\nn_cells = 32\n")
        args = ["uq", "--mode", "datafree", "--config", str(cfg)]
        assert cli.run([*args, "--delta-b", "0.5", "--out", str(tmp_path / "a")]) == 0
        with pytest.raises(SystemExit) as exit_:
            cli.run([*args, "--delta-b", "half", "--out", str(tmp_path / "b")])
        assert exit_.value.code == 2
        assert "invalid float value: 'half'" in capsys.readouterr().err
        assert cli.run([*args, "--out", str(tmp_path / "c")]) == 0
        assert cli.build_parser() is cli.build_parser()
        assert not (tmp_path / "b").exists()
        for run, delta_b in (("a", "0.5"), ("c", "1.0")):
            assert pipeline.read_manifest(tmp_path / run)["settings"]["uq"]["delta_b"] == delta_b

    def test_train_records_the_data_files_it_read(self, tmp_path, monkeypatch):
        # two profiles that differ in a comment line alone: the same
        # forest and metrics, and manifests that differ in the digest alone
        for side in ("a", "b"):
            run = tmp_path / side
            run.mkdir()
            dns.write_profile(dns.synthetic_profile(180.0), run / "ref.dat")
            (run / "ref.dat").write_text(f"% copy {side}\n" + (run / "ref.dat").read_text())
            (run / "run.ini").write_text("[channel]\nn_cells = 32\n[train]\ntrain_re_tau = 180\n"
                                         "holdout_re_tau = 550\n[data]\n180 = ref.dat\n")
            monkeypatch.chdir(run)
            args = ["train", "--target", "p", "--config", "run.ini", "--out", "out"]
            assert cli.run(args) == pipeline.EXIT_OK
        a, b = (pipeline.read_manifest(tmp_path / side / "out") for side in "ab")
        for man, side in ((a, "a"), (b, "b")):
            digest = hashlib.sha256((tmp_path / side / "ref.dat").read_bytes()).hexdigest()
            # one entry per Re_tau read from a file: 550 is synthetic
            assert man.pop("data") == {"180.0": {"file": "ref.dat", "sha256": digest}}
        assert a == b
        for name in ("forest_p.json", "metrics.csv"):
            assert (tmp_path / "a" / "out" / name).read_bytes() == (
                tmp_path / "b" / "out" / name).read_bytes()

    def test_uq_records_the_forest_it_ran_with(self, tmp_path):
        path = tmp_path / "a" / "forest.json"
        path.parent.mkdir()
        save_small_forest(path, "pcorr_angles")
        copy = tmp_path / "b" / "forest.json"
        copy.parent.mkdir()
        copy.write_bytes(path.read_bytes())
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 180\nn_cells = 32\n")
        for forest_path, out in ((path, tmp_path / "run_a"), (copy, tmp_path / "run_b")):
            args = ["uq", "--mode", "pcorr_angles", "--forest", str(forest_path)]
            assert cli.run([*args, "--config", str(cfg), "--out", str(out)]) == pipeline.EXIT_OK
        man = pipeline.read_manifest(tmp_path / "run_a")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert man["forest"] == {"file": "forest.json", "sha256": digest,
                                 "queried_on": "baseline"}
        assert sorted(man["settings"]) == ["channel", "uq"]
        # the same forest in another directory: the same manifest
        assert (tmp_path / "run_a" / "manifest.json").read_bytes() == (
            tmp_path / "run_b" / "manifest.json"
        ).read_bytes()

    def test_round_trip(self, tmp_path):
        s = fast_settings()
        pipeline.write_manifest(tmp_path, "baseline", s, {"extra_key": 1})
        man = pipeline.read_manifest(tmp_path)
        assert man["command"] == "baseline"
        assert man["extra_key"] == 1
        assert man["tool_version"]
        assert man["settings"]["channel"]["n_cells"] == "96"

    def test_json_is_stable(self, tmp_path):
        s = fast_settings()
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        pipeline.write_manifest(a, "uq", s, {"z": 1, "a": 2})
        pipeline.write_manifest(b, "uq", s, {"a": 2, "z": 1})
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
