import concurrent.futures
import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpwsim.agent import AgentConfig, QNetwork
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

    @pytest.mark.parametrize(
        "body, name",
        [
            ("[cell]\nfading_rho = 1.5\n", "fading_rho"),
            ("[cell]\nfading_rho = -0.1\n", "fading_rho"),
            ("[cell]\nmin_distance_m = 400\nmax_distance_m = 300\n", "min_distance_m"),
            ("[cell]\nta_jitter_pct = -1.0\n", "ta_jitter_pct"),
            ("[agent]\nbuffer_size = 64\nbatch_size = 65\n", "batch_size"),
            ("[episode]\nues_per_episode = 5\n", "ues_per_episode"),
            ("[cell]\nmin_distance_m = nan\n", "min_distance_m"),
            ("[cell]\nshadowing_sigma_db = nan\n", "shadowing_sigma_db"),
            ("[cell]\nmax_distance_m = inf\n", "max_distance_m"),
            ("[dpws]\nzeta_db = -inf\n", "zeta_db"),
            ("[cell]\ndfts_snr_penalty_db = nan\n", "dfts_snr_penalty_db"),
            ("[cell]\nmin_distance_m = 0\n", "min_distance_m"),
            ("[cell]\nshadowing_sigma_db = -1\n", "shadowing_sigma_db"),
            ("[cell]\nn_rb = 0\n", "n_rb"),
            ("[cell]\nscs_khz = 0\n", "scs_khz"),
            ("[cell]\nn_rx = 0\n", "n_rx"),
            ("[cell]\ncarrier_ghz = 0\n", "carrier_ghz"),
            ("[cell]\ncell_range_m = 0\n", "cell_range_m"),
            ("[agent]\nhidden = 0\n", "hidden"),
            ("[agent]\nbuffer_size = 0\nbatch_size = 0\n", "buffer_size"),
            ("[agent]\nepsilon_start = 2\n", "epsilon_start"),
            ("[agent]\nepsilon_min = -1\n", "epsilon_min"),
            ("[agent]\nxi_max_db = -1\n", "xi_max_db"),
            ("[agent]\nzeta_min_db = 30\n", "zeta_min_db"),
            ("[agent]\ndiscount = -5\n", "discount"),
            ("[agent]\ndiscount = 1\n", "discount"),
            ("[agent]\nlearning_rate = 0\n", "learning_rate"),
            ("[agent]\ntheta = -50\n", "theta"),
            ("[agent]\nreward_clip = -1\n", "reward_clip"),
            ("[dpws]\nzeta_db = 40\n", "zeta_db"),
            ("[dpws]\nxi_db = 12\n", "xi_db"),
            ("[agent]\nzeta_max_db = -1\n", "zeta_max_db"),
            ("[mcs]\ntable = nan:0.5, 4.0:1.5\n", "nan:0.5"),
            ("[power]\nmpr_db = cp-ofdm:3.0, dft-s-ofdm/qpsk:1.0\n", "cp-ofdm:3.0"),
        ],
    )
    def test_out_of_range_values_exit_2_before_any_work(self, tmp_path, capsys, body, name):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nprofile = ci\n" + body)
        with pytest.raises(ConfigError, match=name):
            load_config(path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_guard_longer_than_a_step_exits_2_before_any_work(self, tmp_path, capsys):
        # ci: 200 slots per step, a sounding every 2 slots. A switch at the
        # last sounding (slot 198) with a 201-slot guard silences all of
        # the next step.
        path = tmp_path / "guard.ini"
        path.write_text("[run]\nprofile = ci\n[dpws]\nguard_slots = 200\n")
        assert load_config(path).dpws.guard_slots == 200
        path.write_text("[run]\nprofile = ci\n[dpws]\nguard_slots = 201\n")
        with pytest.raises(ConfigError, match="guard_slots"):
            load_config(path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "guard_slots" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, words",
        [
            ("[dpws]\ncountr = 3\n", ("[dpws]", "countr")),
            ("[power]\np0 = -60\n", ("[power]", "p0")),
            ("[epsiode]\ntrain_steps = 3\n", ("[epsiode]",)),
            ("[power]\ndfts_snr_penalty_db = 1.1\n", ("[power]", "dfts_snr_penalty_db")),
        ],
    )
    def test_unknown_sections_and_keys_exit_2(self, tmp_path, capsys, body, words):
        path = tmp_path / "typo.ini"
        path.write_text("[run]\nprofile = ci\n" + body)
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(word in err for word in words)
        assert not out.exists()

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_profiles_load(self, profile):
        assert load_config(None, profile=profile).profile == profile

    def test_shipped_and_benchmark_configs_load(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        for path in sorted((root / "configs").glob("*.ini")):
            load_config(path)
        spec = importlib.util.spec_from_file_location("bench_inputs", root / "bench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        for workload in inputs.WORKLOADS:
            path = tmp_path / f"{workload}.ini"
            path.write_text(inputs.ini_text(workload, 1))
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

    @pytest.mark.parametrize("fault", ["nan-weight", "header-only", "missing-array", "bad-shape"])
    def test_malformed_checkpoint_exits_2_before_any_work(self, tmp_path, capsys, fault):
        ini = tiny_ini(tmp_path)
        assert main(["train", "--config", str(ini), "--out", str(tmp_path / "t")]) == EXIT_OK
        # header, shape line, then the arrays w1, b1, w2, b2
        lines = (tmp_path / "t" / "checkpoint.txt").read_text().splitlines()
        if fault == "nan-weight":
            name, _, *rest = lines[3].split()
            lines[3] = " ".join([name, "nan", *rest])
        elif fault == "header-only":
            lines = lines[:1]
        elif fault == "missing-array":
            lines = lines[:3]
        else:
            lines[1] = "shape 5 x 9"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "e"
        rc = main(["evaluate", "--config", str(ini), "--out", str(out), "--checkpoint", str(bad)])
        assert rc == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["evaluate", "baseline"])
    def test_jobs_below_1_exit_2_before_any_work(self, tmp_path, capsys, command, jobs):
        ini = tiny_ini(tmp_path)
        ckpt = tmp_path / "checkpoint.txt"
        QNetwork(np.random.default_rng(0), AgentConfig()).save(ckpt)
        extra = {"evaluate": ["--checkpoint", str(ckpt)], "baseline": ["--waveform", "cp"]}
        out = tmp_path / "run"
        argv = [command, "--config", str(ini), "--out", str(out), "--jobs", jobs]
        assert main(argv + extra[command]) == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_pool_is_no_larger_than_the_episode_count(self, tmp_path, monkeypatch):
        # the pool forks every worker at its first submit; a stand-in that
        # maps serially records the size asked for and starts no process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        ini = tiny_ini(tmp_path)  # 2 evaluation episodes
        argv = ["baseline", "--config", str(ini), "--waveform", "cp", "--jobs", "500"]
        assert main(argv + ["--out", str(tmp_path / "b")]) == EXIT_OK
        assert sizes == [2]

    def test_evaluate_takes_the_width_from_the_checkpoint(self, tmp_path):
        ini = tiny_ini(tmp_path)  # [agent] hidden is the default 60
        assert main(["train", "--config", str(ini), "--out", str(tmp_path / "t")]) == EXIT_OK
        narrow = tmp_path / "narrow.ini"
        narrow.write_text(ini.read_text() + "hidden = 32\n")  # appended to [agent]
        for config, out in ((ini, "same"), (narrow, "narrow")):
            argv = ["evaluate", "--config", str(config), "--out", str(tmp_path / out)]
            assert main(argv + ["--checkpoint", str(tmp_path / "t" / "checkpoint.txt")]) == EXIT_OK
        for name in ("kpi_steps.csv", "ue_samples.csv", "switch_events.csv"):
            assert (tmp_path / "same" / name).read_bytes() == (tmp_path / "narrow" / name).read_bytes()

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

    def test_selftest_checks_its_own_sizes(self, tmp_path, capsys, monkeypatch):
        # a 100-slot guard fits the desk step of 400 slots, not the
        # selftest's step of 60
        path = tmp_path / "guard.ini"
        path.write_text("[run]\nprofile = desk\n[dpws]\nguard_slots = 100\n")
        assert load_config(path).dpws.guard_slots == 100
        monkeypatch.setattr(
            "dpwsim.cli.run_training", lambda *args: pytest.fail("the smoke run started")
        )
        assert main(["selftest", "--config", str(path)]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert "guard_slots" in out.err and out.out == ""


def test_cli_import_leaves_scipy_unloaded():
    # scipy.signal.lfilter reproduces the fading loop bit for bit, but its
    # import takes about 1.4 s in a fresh interpreter, several times the
    # set-up of a whole run; every dpwsim command would pay it
    import dpwsim

    code = "import sys, dpwsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(dpwsim.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
