"""Command-line entry point.

Exit codes: 0 success, 2 configuration/usage error, 3 runtime failure.
All artifacts are CSV (plus a JSON manifest) under the --out directory;
the DPWSIM_OUT environment variable overrides the default output root.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, _rebuild, load_config
from .link_model import CP_OFDM, DFT_S_OFDM
from .orchestrator import (
    STREAM_PAPR,
    compare_runs,
    run_baseline,
    run_evaluation,
    run_training,
    write_comparison,
)
# measure_papr stays bound here so that bench/spans.py can patch it by name;
# the table itself goes through papr_ensemble alone
from .waveform import measure_papr, papr_ensemble  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

PAPR_PERCENTILES = (0.90, 0.99, 0.999)


def _out_dir(args, default_name: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    root = os.environ.get("DPWSIM_OUT", "runs")
    return Path(root) / default_name


def _load(args):
    return load_config(args.config, profile=args.profile, seed=args.seed)


def cmd_train(args) -> int:
    cfg = _load(args)
    outdir = _out_dir(args, f"train-{cfg.profile}-s{cfg.seed}")
    ckpt = run_training(cfg, outdir)
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load(args)
    outdir = _out_dir(args, f"eval-{cfg.profile}-s{cfg.seed}")
    stats = run_evaluation(cfg, outdir, args.checkpoint, jobs=args.jobs)
    print(f"evaluation stats written to {outdir} (mean {stats.mean / 1e6:.3f} Mbps)")
    return EXIT_OK


def cmd_baseline(args) -> int:
    cfg = _load(args)
    waveform = {"cp": CP_OFDM, "dfts": DFT_S_OFDM}[args.waveform]
    outdir = _out_dir(args, f"baseline-{args.waveform}-{cfg.profile}-s{cfg.seed}")
    stats = run_baseline(cfg, outdir, waveform, jobs=args.jobs)
    print(f"baseline stats written to {outdir} (mean {stats.mean / 1e6:.3f} Mbps)")
    return EXIT_OK


def cmd_papr(args) -> int:
    if args.blocks < 1:
        raise ConfigError(f"--blocks must be at least 1, got {args.blocks}")
    if args.oversample < 1 or args.oversample & (args.oversample - 1):
        raise ConfigError(f"--oversample must be a power of two, got {args.oversample}")
    cfg = _load(args)
    outdir = _out_dir(args, f"papr-s{cfg.seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "papr.csv"
    rows = []
    for waveform in (CP_OFDM, DFT_S_OFDM):
        for modulation in ("qpsk", "16qam"):
            # same symbol stream for both waveforms: paired comparison
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([cfg.seed, STREAM_PAPR]))
            )
            paprs = papr_ensemble(
                waveform, modulation, args.blocks, PAPR_PERCENTILES, rng,
                oversample=args.oversample,
            )
            for pct, papr in zip(PAPR_PERCENTILES, paprs):
                rows.append((waveform, modulation, pct * 100.0, papr))
    with open(path, "w", newline="") as fh:
        fh.write("waveform,modulation,percentile,papr_db\n")
        for waveform, modulation, pct, papr in rows:
            fh.write(f"{waveform},{modulation},{pct!r},{papr!r}\n")
    print(f"PAPR table written to {path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        rows = compare_runs(args.run_a, args.run_b)
    except ValueError as exc:  # mismatched stats schema is a config error
        raise ConfigError(str(exc)) from exc
    out = Path(args.out) if args.out else Path(args.run_a) / "comparison.csv"
    write_comparison(out, rows)
    for factor, _, _, rel, absolute in rows:
        print(f"{factor:>5}: {rel:+9.3f} %  {absolute:+9.4f} Mbps")
    print(f"comparison written to {out}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    """Tiny end-to-end smoke run in a scratch directory."""
    # the smoke run's sizes, checked like the values they replace
    sizes = {
        "episode": dict(ues_per_episode=20, slots_per_step=60, train_episodes=2, train_steps=4,
                        eval_episodes=2, eval_steps=3),
        "agent": dict(buffer_size=16, batch_size=4),
    }
    cfg = _rebuild(_load(args), sizes)
    with tempfile.TemporaryDirectory(prefix="dpwsim-selftest-") as tmp:
        tmp = Path(tmp)
        ckpt = run_training(cfg, tmp / "train")
        run_evaluation(cfg, tmp / "eval", ckpt)
        run_baseline(cfg, tmp / "cp", CP_OFDM)
        run_baseline(cfg, tmp / "dfts", DFT_S_OFDM)
        rows = compare_runs(tmp / "eval", tmp / "cp")
        if len(rows) != 9:
            raise RuntimeError("comparison did not produce 9 factors")
        for name in ("manifest.json", "kpi_steps.csv", "switch_events.csv"):
            if not (tmp / "eval" / name).is_file():
                raise RuntimeError(f"missing artifact {name}")
    print("selftest ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpwsim",
        description="Uplink waveform-switching cell simulator with a learned threshold controller.",
    )
    parser.add_argument("--version", action="version", version=f"dpwsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=False):
        p.add_argument("--config", default=None, help="INI run configuration")
        p.add_argument("--profile", default=None, help="size preset: ci, desk or paper")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", default=None, help="output directory")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="worker process cap")

    p = sub.add_parser("train", help="train the switching controller")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="greedy evaluation of a checkpoint")
    common(p, jobs=True)
    p.add_argument("--checkpoint", required=True, help="trained network checkpoint")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("baseline", help="fixed-waveform reference run")
    common(p, jobs=True)
    p.add_argument("--waveform", choices=("cp", "dfts"), required=True)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("papr", help="PAPR percentile table for both waveforms")
    common(p)
    p.add_argument("--blocks", type=int, default=10000, help="symbols per ensemble")
    p.add_argument("--oversample", type=int, default=1, help="IDFT oversampling factor")
    p.set_defaults(fn=cmd_papr)

    p = sub.add_parser("compare", help="per-factor gains of run A over run B")
    p.add_argument("run_a")
    p.add_argument("run_b")
    p.add_argument("--out", default=None, help="comparison CSV path")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("selftest", help="quick end-to-end smoke check")
    common(p)
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
