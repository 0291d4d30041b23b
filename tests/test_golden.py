"""Golden SHA-256 digests of a whole ``ci`` run: training, a greedy
evaluation of its own checkpoint and both fixed-waveform baselines at seed 1.

Every CSV, the checkpoint and the manifests must keep these bytes; a change
that alters any output on purpose updates the digests and says why in
CHANGES.md. The digests were made with numpy 2.4.6 (the version CI pins):
another numpy may draw or round differently.
"""

import hashlib

from dpwsim.config import load_config
from dpwsim.link_model import CP_OFDM, DFT_S_OFDM
from dpwsim.orchestrator import run_baseline, run_evaluation, run_training

GOLDEN = {
    "cp/kpi_steps.csv": "2d29b95eb1a82a03083e9d31ccf4be223a620950ede6098474c24916e781160a",
    "cp/manifest.json": "5db3d34174fb52a67616a7a33519168bece1879421d12133c2f1c0fbecbcc341",
    "cp/switch_events.csv": "858fcb66498c433ca925ac405159e3f8fa602c6ea93a52723a292c5778ad4d11",
    "cp/throughput_stats.csv": "2836bae62b7d194639481be36ad4dece7397b1fcf2e4caae70c79b6d40b6ff96",
    "cp/ue_samples.csv": "aaa12991020a7d594e5748ba533e106d1e8ac09050dfc6deb6f4e9649bb49619",
    "dfts/kpi_steps.csv": "464846648cc11e51c2dbfa8a8fbe784b8e998816ee57861ee47c9fdb5dd33f21",
    "dfts/manifest.json": "c0d8f27cb4234c2f2a333742940b375a3e2400f9995f9eccbc2a4ec28bb08f48",
    "dfts/switch_events.csv": "858fcb66498c433ca925ac405159e3f8fa602c6ea93a52723a292c5778ad4d11",
    "dfts/throughput_stats.csv": "9405c1da7fe36fbdd01ed0536641c73e1cc0a4c0922312d818da1782f013766f",
    "dfts/ue_samples.csv": "459642ae6fde9bd575d026b30224cfd897a2cf017ab24a0c80e5dc202f0f199c",
    "eval/kpi_steps.csv": "1788c4fc2e000164a54788f93679bed9a5abb85c75d76b7d0146715e95b62315",
    "eval/manifest.json": "cc21a2955030fb31fde927eb62cb6c5f03e7675f3386f311460ca977d2c21f4f",
    "eval/switch_events.csv": "33dfe6956bd2966c12b223a0cb37c23761c2b1aab36d0f96074714a607884aa0",
    "eval/throughput_stats.csv": "016084e850278c7ea562684b7fcf4fa07e30d54610de2867f4363a83f2afe6bb",
    "eval/ue_samples.csv": "89a8c2da1831ecad7f5d5fc8ef78c97a1659e7a54f60c17f70318ef438a7afd6",
    "train/checkpoint.txt": "5ec308680eaa8bcec018e44693ad8bb2df4d2c721f39448c8d8b296a382a07f6",
    "train/episode_rewards.csv": "d51ab82e3652fb9ee256e004412a851e4ce5ba41bf767e6ff1d409cab941cfc1",
    "train/kpi_steps.csv": "d4f62280526a42db3a0bc12a2258a3294f3e7f3172e1c38784d56621f0a03d0d",
    "train/manifest.json": "a8fae45136334756dc237d2420c63d46dcfe0300e341c4b86e5b3440316f8459",
    "train/switch_events.csv": "16f414eeabeb82d1696de67dbb9fa0e9d02e437cf4ac16b506f893bc7fdbddd9",
    "train/training_log.csv": "6180ed3ed2dd6f10348f0e2ac6b84c56c0bb2aac7694390753def5ed2faa10b3",
}


def test_ci_seed_1_artifacts_keep_their_bytes(tmp_path):
    cfg = load_config(profile="ci", seed=1)
    ckpt = run_training(cfg, tmp_path / "train")
    run_evaluation(cfg, tmp_path / "eval", ckpt)
    run_baseline(cfg, tmp_path / "cp", CP_OFDM)
    run_baseline(cfg, tmp_path / "dfts", DFT_S_OFDM)
    got = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert got == GOLDEN
