"""dpwsim benchmark: one command that runs a workload, checks its outputs
and prints every metric by name and unit.

    python3 bench/run.py --workload pipeline-ci --seed 1 --seconds 50 --trace 0

A run repeats whole rounds (see ``inputs.py``) until ``--seconds`` have
passed, and at least ``MIN_ROUNDS`` times. Round ``r`` gives the program the
seed ``1000 * seed + r``. With ``--trace 0`` it reports the end-to-end
metrics: phase times are medians over the rounds, and the controller's
throughput is taken over the pooled evaluation samples of the first
``MIN_ROUNDS`` rounds, so it depends on the seed alone. With ``--trace 1``
it runs each round twice, untraced and then traced with the same seed, and
reports the per-module metrics of the traced rounds and the difference of
the two wall times. Metric names and units are those of ``BENCHMARK.json``.
The last line of standard output is the JSON result;
the same result, with the host's core count and the python and numpy
versions, goes to ``.bench_out/<workload>-s<seed>-<e2e|trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import inputs
from spans import Tracer

OUT = inputs.ROOT / ".bench_out"
SPEC = inputs.ROOT / "BENCHMARK.json"
# each phase time is a median of at least this many rounds
MIN_ROUNDS = 5
# set-ups timed before each round; the host's speed drifts over seconds,
# so set-up is sampled across the whole run, not in one burst
SETUPS_PER_ROUND = 3
OPERATIONS = ("train", "evaluate", "baseline-cp", "baseline-dfts", "papr")


class OperationFailed(Exception):
    pass


def simulated_ue_slots(cfg) -> int:
    """Terminal-slots simulated by one round's train, evaluate and both
    baselines."""
    e = cfg.episode
    per_step = e.ues_per_episode * e.slots_per_step
    return per_step * (e.train_episodes * e.train_steps + 3 * e.eval_episodes * e.eval_steps)


def run_round(program, workload: str, seed: int, rdir: Path) -> tuple[dict, object]:
    """One round: set-up, train, evaluate, both baselines, PAPR table.
    Returns the phase wall times and the round's configuration; raises
    ``OperationFailed(k)`` when operation ``k`` fails."""
    cli, _, orchestrator = program
    cfg, ini, hold = inputs.set_up(workload, seed, rdir / "inputs")
    times = {}
    done = 0
    t_round = t = time.perf_counter()
    try:
        ckpt = orchestrator.run_training(cfg, rdir / "train")
        times["train_s"] = time.perf_counter() - t
        done, t = 1, time.perf_counter()
        orchestrator.run_evaluation(cfg, rdir / "eval", hold or ckpt)
        times["evaluate_s"] = time.perf_counter() - t
        done, t = 2, time.perf_counter()
        orchestrator.run_baseline(cfg, rdir / "cp", checks.CP)
        done = 3
        orchestrator.run_baseline(cfg, rdir / "dfts", checks.DFTS)
        times["baselines_s"] = time.perf_counter() - t
        done, t = 4, time.perf_counter()
        argv = ["papr", "--config", str(ini), "--blocks", str(inputs.PAPR_BLOCKS[workload]),
                "--out", str(rdir / "papr")]
        if cli.main(argv) != 0:
            raise RuntimeError(f"dpwsim {' '.join(argv)} exited non-zero")
        times["papr_s"] = time.perf_counter() - t
    except Exception as exc:
        traceback.print_exc()
        raise OperationFailed(done) from exc
    times["wall_s"] = time.perf_counter() - t_round
    sim_s = times["train_s"] + times["evaluate_s"] + times["baselines_s"]
    times["ue_slots_per_s"] = simulated_ue_slots(cfg) / sim_s
    return times, cfg


def check_round(rdir: Path, cfg, holds: bool) -> None:
    """Every output check on one round's artifacts."""
    e, d, a = cfg.episode, cfg.dpws, cfg.agent
    default = (d.zeta_db, d.xi_db)
    bounds = (a.zeta_min_db, a.zeta_max_db)
    top = cfg.mcs.entries[-1][1] * cfg.cell.noise().bandwidth_hz
    kpi = {run: checks.read_rows(rdir / run / "kpi_steps.csv") for run in ("train", "eval", "cp", "dfts")}
    events = {run: checks.read_rows(rdir / run / "switch_events.csv") for run in kpi}
    samples = {run: checks.read_rows(rdir / run / "ue_samples.csv") for run in ("eval", "cp", "dfts")}

    checks.check_training_rewards(rdir / "train", e.train_steps, a.theta, a.reward_clip)
    checks.check_threshold_moves(kpi["train"], default, bounds, a.xi_max_db)
    if holds:
        checks.check_thresholds_held(kpi["eval"], default)
    else:
        checks.check_threshold_moves(kpi["eval"], default, bounds, a.xi_max_db)
    for run in kpi:
        checks.check_kpi_rows(kpi[run], top)
    for run in ("train", "eval"):
        checks.check_switch_events(events[run], d.guard_slots, d.counter, e.srs_period_slots)
    checks.check_final_waveforms(events["eval"], samples["eval"])
    for run, waveform in (("cp", checks.CP), ("dfts", checks.DFTS)):
        checks.check_thresholds_held(kpi[run], default)
        checks.check_baseline(events[run], samples[run], waveform)
    for run in samples:
        checks.check_throughput_stats(rdir / run)
    checks.check_paired_streams(samples["eval"], samples["cp"], samples["dfts"])
    checks.check_papr(checks.read_rows(rdir / "papr" / "papr.csv"))


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Times from starting a fresh interpreter until it has imported
    dpwsim, written the round's inputs and loaded its configuration. The
    interpreter prints the system-wide monotonic clock when it is done, so
    neither its exit nor the polling of ``subprocess.run`` is timed."""
    script = str(Path(__file__).resolve().parent / "inputs.py")
    times = []
    for k in range(SETUPS_PER_ROUND):
        t = time.perf_counter()
        done = subprocess.run([sys.executable, script, workload, str(seed), str(workdir / str(k))],
                              check=True, timeout=120, stdout=subprocess.PIPE, text=True).stdout
        times.append(float(done.split()[-1]) - t)
    return times


class Run:
    """Bookkeeping of one benchmark run: attempts, failures, check errors,
    and the directories of its first ``MIN_ROUNDS`` untraced rounds."""

    def __init__(self, program, workload: str, seed: int, outdir: Path):
        self.program, self.workload, self.seed, self.outdir = program, workload, seed, outdir
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.first: list[Path] = []

    def check(self, name: str, fn, *args) -> None:
        try:
            fn(*args)
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            print(f"check failed: {self.errors[-1]}", file=sys.stderr)

    def round(self, index: int, tag: str = "") -> dict | None:
        """Run and check round ``index``; returns its phase times, or None
        when an operation failed."""
        rdir = self.outdir / f"r{index}{tag}"
        self.attempted += len(OPERATIONS)
        try:
            times, cfg = run_round(self.program, self.workload, inputs.program_seed(self.seed, index), rdir)
        except OperationFailed as exc:
            self.failed += len(OPERATIONS) - exc.args[0]
            return None
        self.check(rdir.name, check_round, rdir, cfg, self.workload != "pipeline-ci")
        if index < MIN_ROUNDS and not tag:
            self.first.append(rdir)
        return times

    def pooled(self, run: str) -> np.ndarray:
        return np.concatenate([
            checks.throughput(checks.read_rows(rdir / run / "ue_samples.csv")) for rdir in self.first
        ])

    def check_pooled(self) -> bool:
        """The fixed-waveform crossover, on the pooled samples of the first
        ``MIN_ROUNDS`` rounds: it is a property of many drops, and on a few
        paper-size episodes the p10 order can flip."""
        if len(self.first) < MIN_ROUNDS:
            return False
        samples = [[s for rdir in self.first for s in checks.read_rows(rdir / run / "ue_samples.csv")]
                   for run in ("cp", "dfts")]
        self.check("pooled", checks.check_crossover, *samples)
        return True


def end_to_end(run: Run, seconds: float) -> dict:
    setups, rounds, t0, index = [], [], time.perf_counter(), 0
    while index < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        setups += measure_setup(run.workload, inputs.program_seed(run.seed, index),
                                run.outdir / "setup" / str(index))
        times = run.round(index)
        if times is not None:
            rounds.append(times)
        index += 1
    if not rounds:
        return {}
    values = {"setup_s": statistics.median(setups), "rounds": rounds}
    for name in ("train_s", "evaluate_s", "baselines_s", "papr_s", "ue_slots_per_s"):
        values[name] = statistics.median(t[name] for t in rounds)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if run.check_pooled():
        pooled = run.pooled("eval")
        values["ai_p10_mbps"] = float(np.percentile(pooled, 10)) / 1e6
        values["ai_mean_mbps"] = float(pooled.mean()) / 1e6
    return values


def traced(run: Run, seconds: float) -> dict:
    """Round 0 untraced, then traced with the same seed; further pairs while
    time is left. The pooled crossover check needs ``MIN_ROUNDS`` untraced
    rounds and is left to end-to-end runs."""
    tracer = Tracer()
    overheads, pairs, traced_rounds, t0 = [], 0, 0, time.perf_counter()
    while pairs < 1 or time.perf_counter() - t0 < seconds:
        plain = run.round(pairs)
        tracer.install(*run.program)
        try:
            spanned = run.round(pairs, tag="-traced")
        finally:
            tracer.remove()
        if spanned is not None:
            traced_rounds += 1
            if plain is not None:
                overheads.append(spanned["wall_s"] - plain["wall_s"])
        pairs += 1
    if not overheads:
        return {}
    values = {k: v / traced_rounds for k, v in tracer.metrics().items()}
    values["trace_overhead_s"] = statistics.median(overheads)
    return values


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    program = inputs.import_program()
    mode = "trace" if args.trace else "e2e"
    outdir = OUT / f"{args.workload}-s{args.seed}-{mode}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    run = Run(program, args.workload, args.seed, outdir)
    values = (traced if args.trace else end_to_end)(run, args.seconds)

    missing = [name for name in units if name not in values]
    correct = not run.errors and not missing
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  machine=machine(), rounds=values.get("rounds", []), errors=run.errors)
    (OUT / f"{args.workload}-s{args.seed}-{mode}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
