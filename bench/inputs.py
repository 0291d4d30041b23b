"""Generated inputs of the benchmark workloads, and their set-up.

Every workload runs the whole experiment of the paper once per round:
train a controller, evaluate a controller greedily, run both fixed-waveform
baselines on the same evaluation streams, and write the PAPR table. The
workloads differ in which phase carries the weight:

- ``pipeline-ci``: training at ``ci`` size; the trained controller is
  evaluated, so this is the workload where the agent learns.
- ``replay-paper-papr``: a replay of the generated hold checkpoint at the
  paper's dimensions (50 terminals, 1000-slot steps, slow fading), a
  training probe at that size that makes no update, and a 10000-block
  PAPR table.

The program receives only an INI file and, for the replay, a checkpoint
file, both written here from the round's program seed.

Run as a script (``python3 bench/inputs.py WORKLOAD SEED DIR``) this module
performs one set-up in a fresh interpreter and prints ``time.perf_counter()``
when it is done; ``run.py`` subtracts the clock reading taken before it
started the interpreter, which measures set-up from process start."""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("pipeline-ci", "replay-paper-papr")

_INI = {
    "pipeline-ci": """\
[run]
profile = ci
seed = {seed}

[episode]
train_episodes = 5
eval_episodes = 8
eval_steps = 4
""",
    "replay-paper-papr": """\
[run]
profile = paper
seed = {seed}

[episode]
train_episodes = 1
train_steps = 2
eval_episodes = 2
eval_steps = 2
""",
}

# PAPR ensemble size per workload: a probe where the cell phases carry the
# weight, a large table where the waveform does. 6000 blocks keep the 99.9%
# point of the probe within the check's tolerance.
PAPR_BLOCKS = {"pipeline-ci": 6000, "replay-paper-papr": 10000}

# Index of the do-nothing action (d_zeta, d_xi) = (0, 0) of the agent's grid.
HOLD_ACTION = 4


def program_seed(seed: int, round_index: int) -> int:
    """Seed the program is given in round ``round_index`` of a run made
    with ``--seed seed``."""
    return 1000 * seed + round_index


def ini_text(workload: str, seed: int) -> str:
    return _INI[workload].format(seed=seed)


def hold_checkpoint_text() -> str:
    """Checkpoint of the 8-60-9 network whose output is its output bias for
    every state: all weights are zero and only the bias of the do-nothing
    action is 1, so the greedy policy keeps the default thresholds (the
    classical fixed-threshold rule)."""

    def zeros(n):
        return " ".join(["0.0"] * n)

    b2 = " ".join("1.0" if i == HOLD_ACTION else "0.0" for i in range(9))
    return "\n".join(
        ["dpwsim-qnet 1", "shape 8 60 9", f"w1 {zeros(8 * 60)}", f"b1 {zeros(60)}",
         f"w2 {zeros(60 * 9)}", f"b2 {b2}"]
    ) + "\n"


def import_program():
    """Import the public modules of dpwsim from the checkout's ``src``."""
    if not (SRC / "dpwsim" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no dpwsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from dpwsim import cli, config, orchestrator

    return cli, config, orchestrator


def set_up(workload: str, seed: int, workdir: Path):
    """Write the round's inputs and load its configuration.

    Returns ``(cfg, ini_path, hold_path)``; ``hold_path`` is None for the
    workload that evaluates its own trained checkpoint.
    """
    _, config, _ = import_program()
    workdir.mkdir(parents=True, exist_ok=True)
    ini = workdir / "run.ini"
    ini.write_text(ini_text(workload, seed))
    hold = None
    if workload != "pipeline-ci":
        hold = workdir / "hold.txt"
        hold.write_text(hold_checkpoint_text())
    return config.load_config(ini), ini, hold


if __name__ == "__main__":
    set_up(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(time.perf_counter())
