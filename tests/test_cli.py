import csv
import os

import numpy as np
import pytest

from dpwsim.cli import EXIT_CONFIG, EXIT_OK, main
from dpwsim.config import ConfigError, PROFILES, SimConfig, apply_profile, load_config


def tiny_ini(tmp_path, seed=3):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\n"
        "profile = ci\n"
        f"seed = {seed}\n"
        "[episode]\n"
        "ues_per_episode = 20\n"
        "slots_per_step = 40\n"
        "train_episodes = 2\n"
        "train_steps = 3\n"
        "eval_episodes = 2\n"
        "eval_steps = 2\n"
        "[agent]\n"
        "buffer_size = 8\n"
        "batch_size = 4\n"
    )
    return path


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.profile == "desk"
        assert cfg.episode.ues_per_episode == PROFILES["desk"]["episode"]["ues_per_episode"]

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.ini"
        with pytest.raises(ConfigError) as err:
            load_config(missing)
        assert str(missing) in str(err.value)

    def test_profile_and_overrides(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nprofile = ci\nseed = 7\n[cell]\nn_rx = 2\n")
        cfg = load_config(path)
        assert cfg.profile == "ci"
        assert cfg.seed == 7
        assert cfg.cell.n_rx == 2
        assert cfg.episode.slots_per_step == PROFILES["ci"]["episode"]["slots_per_step"]

    def test_cli_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nprofile = ci\nseed = 7\n")
        cfg = load_config(path, profile="paper", seed=99)
        assert cfg.profile == "paper"
        assert cfg.seed == 99

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, profile="galactic")

    def test_mpr_and_mcs_parsing(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[power]\n"
            "mpr_db = cp-ofdm/qpsk:4.0, dft-s-ofdm/qpsk:2.0\n"
            "[mcs]\n"
            "table = -2.0:0.5, 4.0:1.5, 10.0:3.0\n"
        )
        cfg = load_config(path)
        assert cfg.power.mpr_db[("cp-ofdm", "qpsk")] == 4.0
        assert len(cfg.mcs.entries) == 3
        assert cfg.mcs.entries[2] == (10.0, 3.0)

    def test_bad_values_are_config_errors(self, tmp_path):
        for body in (
            "[power]\nalpha = 2.0\n",
            "[dpws]\ncounter = 9\nwindow_srs = 3\n",
            "[mcs]\ntable = 1.0:1.0, 0.5:2.0\n",
            "[episode]\nslots_per_step = 101\n",
            "[agent]\nlearning_rate = not-a-number\n",
        ):
            path = tmp_path / "bad.ini"
            path.write_text(body)
            with pytest.raises(ConfigError):
                load_config(path)

    def test_describe_is_json_friendly(self):
        import json

        cfg = SimConfig()
        apply_profile(cfg, "ci")
        text = json.dumps(cfg.describe(), sort_keys=True)
        assert "fading_rho" in text


class TestCliCommands:
    def test_missing_config_exits_2_and_names_path(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "absent.ini")])
        assert rc == EXIT_CONFIG
        assert "absent.ini" in capsys.readouterr().err

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0

    def test_papr_shape_and_determinism(self, tmp_path):
        args = ["papr", "--blocks", "120", "--seed", "5", "--out", str(tmp_path / "p")]
        assert main(args) == EXIT_OK
        first = (tmp_path / "p" / "papr.csv").read_bytes()
        assert main(args) == EXIT_OK
        assert (tmp_path / "p" / "papr.csv").read_bytes() == first
        with open(tmp_path / "p" / "papr.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12  # 2 waveforms x 2 modulations x 3 percentiles
        key = {(r["waveform"], r["modulation"], r["percentile"]) for r in rows}
        assert len(key) == 12
        # single-carrier rows sit below the multicarrier rows at 99.9%
        val = {
            (r["waveform"], r["modulation"], r["percentile"]): float(r["papr_db"])
            for r in rows
        }
        for mod in ("qpsk", "16qam"):
            assert val[("dft-s-ofdm", mod, "99.9")] < val[("cp-ofdm", mod, "99.9")]

    @pytest.mark.parametrize(
        "flags", [["--blocks", "0"], ["--blocks", "-4"], ["--oversample", "0"], ["--oversample", "3"]]
    )
    def test_papr_usage_errors_exit_2_before_any_work(self, tmp_path, capsys, flags):
        out = tmp_path / "p"
        assert main(["papr", "--blocks", "8", "--out", str(out)] + flags) == EXIT_CONFIG
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_papr_oversampled(self, tmp_path):
        assert main(["papr", "--blocks", "8", "--oversample", "2", "--out", str(tmp_path)]) == EXIT_OK

    def test_train_eval_compare_pipeline(self, tmp_path):
        ini = tiny_ini(tmp_path)
        train_dir = tmp_path / "t"
        rc = main(["train", "--config", str(ini), "--out", str(train_dir)])
        assert rc == EXIT_OK
        assert (train_dir / "checkpoint.txt").is_file()
        assert (train_dir / "manifest.json").is_file()

        eval_dir = tmp_path / "e"
        rc = main(
            [
                "evaluate",
                "--config",
                str(ini),
                "--out",
                str(eval_dir),
                "--checkpoint",
                str(train_dir / "checkpoint.txt"),
            ]
        )
        assert rc == EXIT_OK

        base_dir = tmp_path / "b"
        rc = main(
            ["baseline", "--config", str(ini), "--waveform", "cp", "--out", str(base_dir)]
        )
        assert rc == EXIT_OK

        rc = main(["compare", str(eval_dir), str(base_dir)])
        assert rc == EXIT_OK
        assert (eval_dir / "comparison.csv").is_file()

    def test_train_determinism_byte_identical(self, tmp_path):
        ini = tiny_ini(tmp_path)
        main(["train", "--config", str(ini), "--out", str(tmp_path / "r1")])
        main(["train", "--config", str(ini), "--out", str(tmp_path / "r2")])
        for name in ("kpi_steps.csv", "training_log.csv", "checkpoint.txt", "manifest.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        ini = tiny_ini(tmp_path)
        main(["train", "--config", str(ini), "--out", str(tmp_path / "s3")])
        main(["train", "--config", str(ini), "--seed", "4", "--out", str(tmp_path / "s4")])
        assert (tmp_path / "s3" / "kpi_steps.csv").read_bytes() != (
            tmp_path / "s4" / "kpi_steps.csv"
        ).read_bytes()

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        ini = tiny_ini(tmp_path)
        rc = main(
            [
                "evaluate",
                "--config",
                str(ini),
                "--out",
                str(tmp_path / "e"),
                "--checkpoint",
                str(tmp_path / "missing.txt"),
            ]
        )
        assert rc == EXIT_CONFIG

    def test_compare_schema_error_exit_code(self, tmp_path):
        a = tmp_path / "a"
        a.mkdir()
        (a / "throughput_stats.csv").write_text("factor,throughput_bps\np10,1.0\n")
        b = tmp_path / "b"
        b.mkdir()
        (b / "throughput_stats.csv").write_text("factor,throughput_bps\np10,1.0\n")
        rc = main(["compare", str(a), str(b)])
        assert rc != EXIT_OK

    def test_out_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DPWSIM_OUT", str(tmp_path / "envroot"))
        rc = main(["papr", "--blocks", "50", "--seed", "2"])
        assert rc == EXIT_OK
        assert (tmp_path / "envroot" / "papr-s2" / "papr.csv").is_file()

    def test_selftest(self, tmp_path):
        assert main(["selftest", "--seed", "6"]) == EXIT_OK
