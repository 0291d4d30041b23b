"""Per-layer timings of the step kernel: the fading trajectory, the AMC
lookup, the histogram counts and a whole ``simulate_step``, at the ci, desk
and paper sizes; the step of several episodes at once, as lanes; and the
PAPR ensemble.

    python3 scripts/bench_step_kernel.py --variant after=src \\
        --variant before=/path/to/older/checkout/src --out BENCH_lanes.json

Each ``--variant NAME=SRC`` loads the ``dpwsim`` package found under SRC
under its own module name, so two versions run in one process and their
samples interleave: every repeat times every layer of every variant, in an
order that alternates between repeats, so a drift of the host's speed
reaches all of them alike. Times are ``time.process_time`` per call;
``simulate_step`` also reports the minor page faults per step. The result
gives, per size, layer and variant, the median and quartiles of the
repeats and the median's ratio to the first variant's, and the machine (core count, python and numpy versions).

The layers run on the inputs a step gives them, into the buffers
``simulate_step`` gives them: the fading call evolves a dropped cell's
fading over one step into the cell's kept buffers, the AMC lookup maps a
step's (slot, terminal) SNR into the cell's step buffers (in a variant
whose cell keeps none, into arrays it allocates), the histogram counts bin
a step's sounding SNR, and the whole step continues one episode at the
default thresholds. Every call passes one generator, stream set and
threshold pair per lane, so each variant must be a checkout that has
episode lanes.

The lane figures step L episodes (1, 4 and 8 at ci and desk size, 1 and 2
at paper size) at the default thresholds, as the lanes of one cell. They
give the time per episode-step and the minor page faults per step of all L
episodes.

The PAPR figures time the whole four-ensemble ``dpwsim papr`` table at
10,000 blocks, through each variant's own ``cli.main``, so a variant that
shares one symbol draw between the waveforms is timed on the same work as
one that draws per waveform. They are wall times (``time.perf_counter``):
the ensembles may fill their block ranges on several threads, whose CPU
times ``process_time`` would add up. After the timed repeats, each variant
builds the table a few more times under ``tracemalloc``, which slows every
allocation and so is kept out of the timed runs; the result gives each of
those runs' traced peak, and whether every variant wrote the same
``papr.csv`` bytes. The machine record gives the usable core count. No
benchmark gate reads this file's output.

With ``--lane-groups`` the script measures only the lane groups of an
evaluation (of the hold policy, which keeps the default thresholds) and
both baselines, at the sizes of the replay benchmark workload (paper
profile, 2 episodes of 2 steps: two one-episode groups) and at desk size
(16 episodes of 20 steps in groups of 2-3), three ways: ``serial``, with
this process's affinity set to one core, so that no lane-group thread
starts; ``threads``, on every usable core; and ``jobs2``, with ``--jobs 2``
worker processes. Each run is a fresh interpreter, so that its ``VmHWM``
(peak resident memory) is its own; the runs interleave over the repeats,
in an order that alternates between repeats. The result gives each
run's wall time (median and quartiles), its peak memory, its minor page
faults per episode-step (``jobs2`` adds the worker processes' faults), and
whether all runs of a size wrote the same bytes.

    python3 scripts/bench_step_kernel.py --variant now=src --lane-groups \\
        --repeats 5 --out BENCH_lane_threads.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

SIZES = ("ci", "desk", "paper")
LAYERS = ("evolve_fading", "map_throughput", "_bin_counts", "simulate_step")
LANES = {"ci": (1, 4, 8), "desk": (1, 4, 8), "paper": (1, 2)}
PAPR_BLOCKS = 10_000
# tracemalloc runs per variant, after the timed repeats
PAPR_TRACED = 3
MODULES = ("config", "kpi", "link_model", "orchestrator", "waveform", "cli")
# lane-group mode: the profile and episode counts of each size, and the ways
LANE_GROUP_SIZES = {"replay": ("paper", 2, 2), "desk": ("desk", 16, 20)}
WAYS = ("serial", "threads", "jobs2")


def load_package(name: str, src: Path):
    """Import ``src/dpwsim`` as the package ``name``; returns the modules of
    :data:`MODULES` by name."""
    root = src / "dpwsim"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


class Case:
    """One variant at one size: a dropped cell stepping one episode, and
    the layer calls on that episode's arrays."""

    def __init__(self, pkg, size: str, seed: int):
        orch, link = pkg["orchestrator"], pkg["link_model"]
        self.pkg = pkg
        self.cfg = cfg = pkg["config"].load_config(profile=size, seed=seed)
        self.streams = orch.episode_streams(seed, orch.STREAM_EVAL, 0)
        self.cell, self.fading = orch.drop_ues(cfg, [self.streams.drop])
        n_slots, period = cfg.episode.slots_per_step, cfg.episode.srs_period_slots
        self.rngs = [np.random.default_rng(seed)]
        # a source tree from before the step buffers keeps the fading
        # buffers on the cell itself
        buf = getattr(self.cell, "buffers", None)
        self.buffers = (
            {"out": self.cell.trajectory, "noise": self.cell.fading_noise} if buf is None
            else {"out": buf.trajectory, "noise": buf.noise}
        )
        traj = link.evolve_fading(
            self.fading, cfg.cell.fading_rho, self.rngs, n_slots, **self.buffers
        )
        n0 = link.noise_power_dbm(cfg.cell.noise())
        p_cp = link.transmit_power(cfg.power, self.cell.path_loss_db, link.CP_OFDM)
        self.snr = link.compute_snr(p_cp, self.cell.path_loss_db, link.precoded_gain(traj), n0)
        self.gamma = link.compute_snr(
            p_cp, self.cell.path_loss_db, link.sounding_gain(traj[::period]), n0
        ).ravel()
        self.bandwidth = cfg.cell.noise().bandwidth_hz
        self.amc_buffers = {} if buf is None else {
            "out": (buf.budget, buf.outage), "index": (buf.counts, buf.table_index)
        }

    def evolve_fading(self):
        cfg = self.cfg
        self.pkg["link_model"].evolve_fading(
            self.fading, cfg.cell.fading_rho, self.rngs, cfg.episode.slots_per_step,
            **self.buffers,
        )

    def map_throughput(self):
        self.pkg["link_model"].map_throughput(
            self.snr, self.cfg.mcs, self.bandwidth, **self.amc_buffers
        )

    def _bin_counts(self):
        kpi = self.pkg["kpi"]
        kpi._bin_counts(kpi.SNR_BIN_EDGES, self.gamma)

    def simulate_step(self):
        dpws = self.cfg.dpws
        _, self.fading = self.pkg["orchestrator"].simulate_step(
            self.cell, self.fading, [dpws.zeta_db], [dpws.xi_db], self.cfg, [self.streams],
            events=[], episode=[0],
        )


class LaneCase:
    """One variant at one size: ``lanes`` evaluation episodes stepped at
    the default thresholds, as the lanes of one cell."""

    def __init__(self, pkg, size: str, seed: int, lanes: int):
        orch = pkg["orchestrator"]
        self.simulate_step = orch.simulate_step
        self.cfg = cfg = pkg["config"].load_config(profile=size, seed=seed)
        self.streams = [orch.episode_streams(seed, orch.STREAM_EVAL, e) for e in range(lanes)]
        self.cell, self.fading = orch.drop_ues(cfg, [s.drop for s in self.streams])
        self.episodes = list(range(lanes))

    def step(self):
        dpws, lanes = self.cfg.dpws, len(self.episodes)
        _, self.fading = self.simulate_step(
            self.cell, self.fading, [dpws.zeta_db] * lanes, [dpws.xi_db] * lanes, self.cfg,
            self.streams, events=[], episode=self.episodes,
        )


class PaprCase:
    """One variant's ``dpwsim papr`` table at :data:`PAPR_BLOCKS` blocks,
    through its own ``cli.main``."""

    def __init__(self, pkg, seed: int, out: Path):
        self.main = pkg["cli"].main
        self.table = out / "papr.csv"
        self.argv = ["papr", "--seed", str(seed), "--blocks", str(PAPR_BLOCKS), "--out", str(out)]

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            if self.main(self.argv) != 0:
                raise RuntimeError(f"dpwsim {' '.join(self.argv)} exited non-zero")

    def traced_peak(self) -> int:
        """The tracemalloc peak in bytes of one table."""
        tracemalloc.start()
        try:
            self.run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def lane_group_run(src: Path, size: str, way: str, seed: int) -> dict:
    """One evaluation of the hold policy and both baselines at ``size``,
    run ``way``, in this process."""
    pkg = load_package("dpwsim_run", src)
    orch, link = pkg["orchestrator"], pkg["link_model"]
    profile, episodes, steps = LANE_GROUP_SIZES[size]
    cfg = pkg["config"].load_config(profile=profile, seed=seed)
    cfg.episode.eval_episodes, cfg.episode.eval_steps = episodes, steps
    if way == "serial":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    jobs = 2 if way == "jobs2" else 1
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        # the hold policy: every weight 0, and only the do-nothing action's bias
        qnet = importlib.import_module("dpwsim_run.agent").QNetwork(
            np.random.default_rng(0), cfg.agent)
        for p in qnet.parameters():
            p[...] = 0.0
        qnet.b2[4] = 1.0
        qnet.save(out / "hold.txt")
        usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        t0 = time.perf_counter()
        orch.run_evaluation(cfg, out / "eval", out / "hold.txt", jobs=jobs)
        orch.run_baseline(cfg, out / "cp", link.CP_OFDM, jobs=jobs)
        orch.run_baseline(cfg, out / "dfts", link.DFT_S_OFDM, jobs=jobs)
        seconds = time.perf_counter() - t0
        faults = sum(resource.getrusage(who).ru_minflt - before.ru_minflt for who, before
                     in zip((resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN), usage))
        digest = hashlib.sha256()
        for path in sorted(out.glob("*/*.csv")):
            digest.update(path.read_bytes())
    with open("/proc/self/status") as fh:
        hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return {"seconds": seconds, "vmhwm_mb": hwm / 1024,
            "minor_faults_per_step": faults / (3 * episodes * steps),
            "digest": digest.hexdigest()}


def lane_groups_main(variants: dict[str, Path], repeats: int, seed: int) -> dict:
    """Interleaved fresh-process runs of every variant, size and way."""
    runs = {(v, size, way): [] for v in variants for size in LANE_GROUP_SIZES for way in WAYS}
    keys = list(runs)
    for r in range(repeats):
        for key in keys if r % 2 == 0 else keys[::-1]:
            v, size, way = key
            child = subprocess.run(
                [sys.executable, __file__, "--lane-group-run", str(variants[v]), size, way,
                 str(seed)], check=True, capture_output=True, text=True)
            runs[key].append(json.loads(child.stdout))
    results = {}
    for size in LANE_GROUP_SIZES:
        results[size] = entry = {}
        for v in variants:
            for way in WAYS:
                got = runs[v, size, way]
                entry[f"{v}.{way}"] = dict(
                    {k: x * 1e3 for k, x in summary([g["seconds"] for g in got]).items()},
                    vmhwm_mb=statistics.median(g["vmhwm_mb"] for g in got),
                    minor_faults_per_step=statistics.median(
                        g["minor_faults_per_step"] for g in got),
                )
        first = entry[f"{next(iter(variants))}.serial"]["median"]
        for value in entry.values():
            value["median_over_first_serial"] = value["median"] / first
        entry["same_bytes"] = len({g["digest"] for v in variants for way in WAYS
                                   for g in runs[v, size, way]}) == 1
    return {
        "what": "wall time in ms of an evaluation of the hold policy and both baselines "
                "(median and quartiles over the repeats, each in a fresh process), each "
                "median over the first variant's serial one, the process's peak resident "
                "memory (VmHWM) and its minor page faults per episode-step",
        "sizes": {size: dict(zip(("profile", "eval_episodes", "eval_steps"), spec))
                  for size, spec in LANE_GROUP_SIZES.items()},
        "ways": {"serial": "affinity of the process set to one core",
                 "threads": "every usable core, one lane-group thread per core",
                 "jobs2": "--jobs 2 worker processes; their faults are added"},
        "lane_groups": results,
    }


def wall_time(fn) -> float:
    """Seconds of one call, on the wall clock."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def timed(fn, calls: int) -> tuple[float, float]:
    """Seconds per call and minor page faults per call over ``calls``."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.process_time()
    for _ in range(calls):
        fn()
    dt = time.process_time() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return dt / calls, faults / calls


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def write(out: dict, path: Path | None) -> None:
    text = json.dumps(out, indent=2) + "\n"
    if path is not None:
        path.write_text(text)
    print(text, end="")


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--lane-group-run"]:
        src, size, way, seed = sys.argv[2:]
        print(json.dumps(lane_group_run(Path(src), size, way, int(seed))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--variant", action="append", required=True, metavar="NAME=SRC",
                    help="a name and the source directory that holds its dpwsim package")
    ap.add_argument("--repeats", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--lane-groups", action="store_true",
                    help="time only evaluate and both baselines, serial, threaded and --jobs 2")
    ap.add_argument("--out", type=Path, help="write the JSON result here too")
    args = ap.parse_args(argv)
    if args.repeats < 2:
        ap.error("--repeats must be at least 2")

    sources = {}
    for spec in args.variant:
        name, sep, src = spec.partition("=")
        if not sep or not name.isidentifier():
            ap.error(f"--variant wants NAME=SRC with NAME an identifier, got {spec!r}")
        sources[name] = Path(src).resolve()
    if args.lane_groups:
        out = lane_groups_main(sources, args.repeats, args.seed)
        write(dict(out, variants=list(sources), repeats=args.repeats, seed=args.seed,
                   machine=machine()), args.out)
        return 0
    variants = {name: load_package(f"dpwsim_{name}", src) for name, src in sources.items()}
    cases = {(v, size): Case(pkg, size, args.seed) for v, pkg in variants.items() for size in SIZES}
    lane_cases = {(v, size, lanes): LaneCase(pkg, size, args.seed, lanes)
                  for v, pkg in variants.items() for size in SIZES for lanes in LANES[size]}
    tables = tempfile.TemporaryDirectory()
    papr_cases = {v: PaprCase(pkg, args.seed, Path(tables.name) / v)
                  for v, pkg in variants.items()}
    # calls per sample: enough that a sample is a few milliseconds at ci size
    calls = {"ci": 8, "desk": 3, "paper": 1}

    names = list(variants)
    seconds = {key: [] for key in ((v, s, l) for v in names for s in SIZES for l in LAYERS)}
    faults = {(v, s): [] for v in names for s in SIZES}
    lane_seconds = {key: [] for key in lane_cases}
    lane_faults = {key: [] for key in lane_cases}
    papr_seconds = {v: [] for v in names}
    for case in cases.values():  # warm-up
        for layer in LAYERS:
            getattr(case, layer)()
    for case in lane_cases.values():
        case.step()
    for case in papr_cases.values():
        case.run()
    for r in range(args.repeats):
        order = names if r % 2 == 0 else names[::-1]
        for size in SIZES:
            for layer in LAYERS:
                for v in order:
                    dt, flt = timed(getattr(cases[v, size], layer), calls[size])
                    seconds[v, size, layer].append(dt)
                    if layer == "simulate_step":
                        faults[v, size].append(flt)
            for lanes in LANES[size]:
                for v in order:
                    dt, flt = timed(lane_cases[v, size, lanes].step, max(1, calls[size] // lanes))
                    lane_seconds[v, size, lanes].append(dt / lanes)
                    lane_faults[v, size, lanes].append(flt)
        for v in order:
            papr_seconds[v].append(wall_time(papr_cases[v].run))
    papr_peaks = {v: [case.traced_peak() for _ in range(PAPR_TRACED)]
                  for v, case in papr_cases.items()}
    papr_tables = {case.table.read_bytes() for case in papr_cases.values()}
    tables.cleanup()

    results = {}
    for size in SIZES:
        results[size] = {}
        for layer in LAYERS:
            entry = {v: {k: x * 1e3 for k, x in summary(seconds[v, size, layer]).items()}
                     for v in names}
            first = entry[names[0]]["median"]
            for v in names:
                entry[v]["median_over_first"] = entry[v]["median"] / first
                if layer == "simulate_step":
                    entry[v]["minor_faults_per_call"] = statistics.median(faults[v, size])
            results[size][layer] = entry
    lane_results = {}
    for size in SIZES:
        lane_results[size] = {}
        for lanes in LANES[size]:
            entry = {v: {k: x * 1e3 for k, x in summary(lane_seconds[v, size, lanes]).items()}
                     for v in names}
            for v in names:
                entry[v]["median_over_first"] = entry[v]["median"] / entry[names[0]]["median"]
                entry[v]["minor_faults_per_call"] = statistics.median(lane_faults[v, size, lanes])
            lane_results[size][str(lanes)] = entry
    papr_results = {v: {k: x * 1e3 for k, x in summary(papr_seconds[v]).items()} for v in names}
    for v in names:
        entry = papr_results[v]
        entry["median_over_first"] = entry["median"] / papr_results[names[0]]["median"]
        entry["tracemalloc_peak_mb"] = [peak / 2**20 for peak in papr_peaks[v]]
    out = {
        "what": "process_time per call in ms (median and quartiles over the repeats), "
                "and each median over the first variant's",
        "variants": names,
        "repeats": args.repeats,
        "seed": args.seed,
        "machine": machine(),
        "results": results,
        "lanes_what": "simulate_step time per episode-step in ms with L episodes stepped "
                      "together (median and quartiles over the repeats), each median over "
                      "the first variant's, and the minor page faults per step of all L",
        "lanes": lane_results,
        "papr_what": f"wall time in ms of the whole dpwsim papr table at {PAPR_BLOCKS} blocks "
                     "(median and quartiles over the repeats), each median over the first "
                     f"variant's, and the tracemalloc peak in MB of {PAPR_TRACED} more tables",
        "papr": papr_results,
        "papr_same_bytes": len(papr_tables) == 1,
    }
    write(out, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
