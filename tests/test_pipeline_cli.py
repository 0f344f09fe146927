import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigenuq import channel, cli, dns, forest, pipeline
from eigenuq.pipeline import ConfigError, DataError

SRC = Path(__file__).resolve().parents[1] / "src"

FAST = [
    ("channel", "re_tau", "180"),
    ("channel", "n_cells", "96"),
]


def fast_settings(extra=()):
    return pipeline.load_settings(overrides=FAST + list(extra))


class TestSettings:
    def test_defaults(self):
        s = pipeline.load_settings()
        assert s.channel["re_tau"] == "1000"
        assert s.channel["n_cells"] == "192"
        assert s.uq["mode"] == "datafree"
        assert s.train["seed"] == "0"
        assert s.data == {}

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
            "1000": "synthetic", "395": "profiles/retau395.dat"
        }

    def test_invalid_channel_value(self):
        s = pipeline.load_settings(overrides=[("channel", "n_cells", "many")])
        with pytest.raises(ConfigError, match="channel.n_cells"):
            pipeline.build_channel_config(s)

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

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline.cmd_baseline(fast_settings(), a)
        pipeline.cmd_baseline(fast_settings(), b)
        for name in ("baseline.csv", "baseline_trace.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


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

    def test_manifest_records_how_each_corner_ended(self, tmp_path, monkeypatch):
        # on 32 cells with a 200-iteration stall limit the 1C and 2C
        # stresses freeze and 3C converges coupled
        monkeypatch.setattr(channel, "FREEZE_STALL", 200)
        out = tmp_path / "uq"
        s = pipeline.load_settings(
            overrides=[("channel", "re_tau", "180"), ("channel", "n_cells", "32"),
                       ("uq", "delta_b", "1.0")]
        )
        assert pipeline.cmd_uq(s, out) == pipeline.EXIT_OK
        man = pipeline.read_manifest(out)
        frozen_at, iterations = man["frozen_at"], man["iterations"]
        assert set(frozen_at) == set(man["total_shear_error"]) == {"1C", "2C", "3C"}
        for corner in ("1C", "2C"):
            assert 200 < frozen_at[corner] < iterations[corner]
            assert man["total_shear_error"][corner] <= 1e-8
        assert frozen_at["3C"] is None
        assert man["total_shear_error"]["3C"] < 0.01

    def test_corner_free_mode_solves_once(self, settings, tmp_path, monkeypatch):
        # the forest of a default-settings training, on a 32-cell grid
        fitted, _ = pipeline.train_forest(settings, "pcorr_angles")
        forest_path = tmp_path / "forest_pcorr_angles.json"
        forest.save(fitted, forest_path)
        solves = []
        solve = channel.solve_with_injection

        def counting_solve(cfg, injection):
            solves.append(injection)
            return solve(cfg, injection)

        monkeypatch.setattr(channel, "solve_with_injection", counting_solve)
        out = tmp_path / "uq"
        s = pipeline.load_settings(
            overrides=[("channel", "re_tau", "180"), ("channel", "n_cells", "32"),
                       ("uq", "mode", "pcorr_angles")]
        )
        code = pipeline.cmd_uq(s, out, forest_path=str(forest_path))
        assert code == pipeline.EXIT_OK
        assert len(solves) == 1
        first = (out / "corner_1C.csv").read_bytes()
        assert (out / "corner_2C.csv").read_bytes() == first
        assert (out / "corner_3C.csv").read_bytes() == first
        iterations = pipeline.read_manifest(out)["iterations"]
        assert iterations["1C"] == iterations["2C"] == iterations["3C"]

    def test_data_driven_mode_requires_forest(self):
        with pytest.raises(ConfigError, match="forest"):
            pipeline.run_uq(fast_settings(), "p", forest_path=None)

    def test_missing_forest_file(self):
        with pytest.raises(DataError, match="not found"):
            pipeline.run_uq(fast_settings(), "p", forest_path="/nonexistent.json")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown uq mode"):
            pipeline.run_uq(fast_settings(), "noisy")


class TestPropagateCommand:
    def test_synthetic_reference(self, tmp_path):
        out = tmp_path / "prop"
        assert pipeline.cmd_propagate_dns(fast_settings(), out) == pipeline.EXIT_OK
        man = pipeline.read_manifest(out)
        assert man["rel_l2_error_U"] < 0.01
        assert man["total_shear_error"] <= 1e-8
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
        assert pipeline.read_manifest(out)["rel_l2_error_U"] < 0.01

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


class TestReportCommand:
    def test_aggregation_and_width_ratio(self, tmp_path):
        s = fast_settings()
        runs = []
        for mode, width in (("datafree", 300.0), ("p", 50.0)):
            d = tmp_path / f"uq_{mode}"
            d.mkdir()
            pipeline.write_manifest(
                d, "uq", s, {"mode": mode, "integrated_width": width,
                             "realizability_violations": 0, "iterations": {}},
            )
            runs.append(str(d))
        out = tmp_path / "report"
        assert pipeline.cmd_report(runs, out) == pipeline.EXIT_OK
        lines = (out / "summary.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[-1] == "width_ratio_datafree_over_datadriven"
        ratio = float(lines[1].split(",")[-1])
        assert ratio == pytest.approx(6.0)

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
                {"mode": modes[name], "integrated_width": 1.0},
            )
        with pytest.raises(DataError, match=message):
            pipeline.cmd_report([str(tmp_path / n) for n in names], tmp_path / "out")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            pipeline.cmd_report([str(tmp_path)], tmp_path / "out")


class TestCli:
    def run_cli(self, *args):
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "eigenuq.cli", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )

    def test_baseline_success_exit_zero(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 180\nn_cells = 64\n")
        proc = self.run_cli("baseline", "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "d" / "manifest.json").exists()

    def test_config_error_exit_two(self, tmp_path):
        proc = self.run_cli(
            "baseline", "--out", str(tmp_path / "d"), "--re-tau", "0"
        )
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr
        assert not (tmp_path / "d").exists()

    def test_numerical_error_exit_three(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 180\nn_cells = 64\nmax_iters = 10\n")
        proc = self.run_cli("baseline", "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert proc.returncode == 3
        assert "numerical failure" in proc.stderr
        assert not (tmp_path / "d").exists()

    def test_data_error_exit_four(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 180\nn_cells = 64\n")
        proc = self.run_cli(
            "propagate-dns",
            "--config", str(cfg),
            "--out", str(tmp_path / "d"),
            "--dns", "/nonexistent.dat",
        )
        assert proc.returncode == 4
        assert "data error" in proc.stderr
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["uq", "--mode", "datafree", "--delta-b", "2.0"], "delta_b must be in [0, 1]"),
            (["uq", "--mode", "pcorr", "--forest", "{p_forest}"], "needs 2 forest targets, got 1"),
            (["uq", "--mode", "datafree", "--forest", "{p_forest}"], "does not take --forest"),
            (["uq", "--mode", "pcorr", "--delta-b", "0.3"], "does not take --delta-b"),
            (["propagate-dns", "--noise", "-5"], "must be finite and >= 0, got -5"),
            (["propagate-dns", "--noise", "inf"], "must be finite and >= 0, got inf"),
            (["baseline", "--re-tau", "inf"], "re_tau must be finite and positive"),
            (["baseline", "--re-tau", "nan"], "re_tau must be finite and positive"),
        ],
        ids=["delta_b", "forest_kind", "forest_datafree", "delta_b_pcorr", "noise_negative",
             "noise_inf", "re_tau_inf", "re_tau_nan"],
    )
    def test_bad_arguments_rejected_before_solving(self, tmp_path, args, message):
        # every solve fails (exit 3) within 10 iterations, so exit 2 shows
        # that the arguments were rejected before the first solve
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 180\nn_cells = 64\nmax_iters = 10\n")
        rng = np.random.default_rng(0)
        hp = forest.ForestHyperparams(max_depth=2, min_samples_split=2, max_features=3, n_trees=2)
        p_forest = tmp_path / "forest_p.json"
        forest.save(forest.fit(rng.uniform(size=(20, 6)), rng.uniform(size=(20, 1)), hp), p_forest)
        args = [arg.format(p_forest=p_forest) for arg in args]
        proc = self.run_cli(*args, "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert proc.returncode == 2, proc.stderr
        assert "configuration error" in proc.stderr
        assert message in proc.stderr
        assert not (tmp_path / "d").exists()

    def test_malformed_forest_exit_four(self, tmp_path):
        rng = np.random.default_rng(0)
        hp = forest.ForestHyperparams(max_depth=2, min_samples_split=2, max_features=3, n_trees=2)
        path = tmp_path / "forest_p.json"
        forest.save(forest.fit(rng.uniform(size=(20, 6)), rng.uniform(size=(20, 1)), hp), path)
        doc = json.loads(path.read_text())
        doc["trees"][0]["split_feature"][0] = 6  # the forest has features 0-5
        path.write_text(json.dumps(doc))
        proc = self.run_cli(
            "uq", "--mode", "p", "--forest", str(path), "--re-tau", "180",
            "--out", str(tmp_path / "d"),
        )
        assert proc.returncode == 4, proc.stderr
        assert "data error" in proc.stderr
        assert r"split feature outside [-1, 6)" in proc.stderr
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
    def test_bad_training_profile_exit_four(self, tmp_path, defect):
        path = self.write_bad_profile(tmp_path, defect)
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[channel]\nn_cells = 32\n"
            "[train]\ntrain_re_tau = 180\nholdout_re_tau = 180\n"
            f"[data]\n180 = {path}\n"
        )
        proc = self.run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert proc.returncode == 4, proc.stderr
        assert "data error" in proc.stderr
        assert self.DEFECT_MESSAGES[defect] in proc.stderr
        assert not (tmp_path / "d").exists()

    def test_propagated_profile_above_wall_exit_four(self, tmp_path):
        # interpolation would clamp the uncovered wall region to y+ = 30
        path = self.write_bad_profile(tmp_path, "starts_above_wall")
        proc = self.run_cli(
            "propagate-dns", "--re-tau", "180", "--dns", str(path), "--out", str(tmp_path / "d")
        )
        assert proc.returncode == 4, proc.stderr
        assert self.DEFECT_MESSAGES["starts_above_wall"] in proc.stderr
        assert not (tmp_path / "d").exists()

    def test_seed_flag_reaches_both_sections(self):
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--out", "x", "--seed", "7"])
        assert args.seed == 7
        s = pipeline.load_settings(
            overrides=[("train", "seed", 7), ("propagate", "noise_seed", 7)]
        )
        assert s.train["seed"] == "7"
        assert s.propagate["noise_seed"] == "7"


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
        rng = np.random.default_rng(0)
        hp = forest.ForestHyperparams(max_depth=2, min_samples_split=2, max_features=3, n_trees=2)
        path = tmp_path / "forest.json"
        forest.save(forest.fit(rng.uniform(size=(20, 6)), np.zeros((20, 5)), hp), path)
        args = [arg.format(forest=path) for arg in args]
        cfg = tmp_path / "run.ini"
        cfg.write_text("[channel]\nre_tau = 180\nn_cells = 32\n")
        out = tmp_path / "run"
        assert cli.run([*args, "--config", str(cfg), "--out", str(out)]) == pipeline.EXIT_OK
        assert pipeline.read_manifest(out)["settings"][section] == recorded

    def test_uq_records_the_forest_it_ran_with(self, tmp_path):
        rng = np.random.default_rng(0)
        hp = forest.ForestHyperparams(max_depth=2, min_samples_split=2, max_features=3, n_trees=2)
        path = tmp_path / "a" / "forest.json"
        path.parent.mkdir()
        forest.save(forest.fit(rng.uniform(size=(20, 6)), np.zeros((20, 5)), hp), path)
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
        assert man["forest"] == {"file": "forest.json", "sha256": digest}
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
