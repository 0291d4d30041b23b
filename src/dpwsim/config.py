"""Declarative run configuration.

One INI-style file drives every command. All values have embedded defaults
so an empty (or absent) file is a valid configuration; the ``profile`` key
picks one of the named size presets before any explicit key is applied.

Example::

    [run]
    profile = desk

    [power]
    p0_dbm = -67.0
    mpr_db = cp-ofdm/qpsk:3.0, dft-s-ofdm/qpsk:1.0,
             cp-ofdm/16qam:3.5, dft-s-ofdm/16qam:2.0

    [mcs]
    table = -6.0:0.1523, -4.16:0.2344, 19.8:5.5547

See README.md for the full key list.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .agent import AgentConfig
from .link_model import McsTable, NoiseConfig, PowerControlConfig
from .dpws_fsm import DpwsConfig
from .kpi import MIN_PERCENTILE_SAMPLES


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class CellConfig:
    carrier_ghz: float = 28.0
    scs_khz: float = 15.0
    n_rb: int = 20
    n_rx: int = 1
    min_distance_m: float = 25.0
    max_distance_m: float = 300.0
    cell_range_m: float = 300.0
    # lumped receiver degradation (noise figure plus implementation and
    # interference margin); keeps the cap-boundary SNR near the default
    # switching threshold so the controller operates in a live region
    noise_figure_db: float = 13.0
    shadowing_sigma_db: float = 4.0
    fading_rho: float = 0.99
    ta_jitter_pct: float = 3.0
    dfts_snr_penalty_db: float = 0.7

    def noise(self) -> NoiseConfig:
        return NoiseConfig(
            delta_f_hz=self.scs_khz * 1e3,
            n_rb=self.n_rb,
            noise_figure_db=self.noise_figure_db,
        )


@dataclass
class EpisodeConfig:
    ues_per_episode: int = 50
    slots_per_step: int = 1000
    srs_period_slots: int = 2
    train_episodes: int = 43
    train_steps: int = 75
    eval_episodes: int = 16
    eval_steps: int = 20

    def __post_init__(self):
        for name in ("ues_per_episode", "slots_per_step", "srs_period_slots",
                     "train_episodes", "train_steps", "eval_episodes", "eval_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.slots_per_step % self.srs_period_slots != 0:
            raise ConfigError("sounding period must divide the slot count")


# Size presets. "paper" mirrors the reference dimensioning; "desk" is the
# default working size; "ci" is the smoke-test size. The small profiles
# shorten the fading coherence and the replay/batch sizes so per-step KPIs
# and the learning loop keep comparable statistics at a fraction of the
# samples.
PROFILES = {
    "paper": {
        "episode": dict(ues_per_episode=50, slots_per_step=1000, train_episodes=43,
                        train_steps=75, eval_episodes=16, eval_steps=20),
        "cell": dict(fading_rho=0.99),
        "agent": dict(buffer_size=750, batch_size=350),
    },
    "desk": {
        "episode": dict(ues_per_episode=32, slots_per_step=400, train_episodes=48,
                        train_steps=40, eval_episodes=16, eval_steps=20),
        "cell": dict(fading_rho=0.7),
        "agent": dict(buffer_size=750, batch_size=128, learning_rate=0.01),
    },
    "ci": {
        "episode": dict(ues_per_episode=20, slots_per_step=200, train_episodes=10,
                        train_steps=25, eval_episodes=4, eval_steps=8),
        "cell": dict(fading_rho=0.7),
        "agent": dict(buffer_size=400, batch_size=64, learning_rate=0.01),
    },
}


@dataclass
class SimConfig:
    profile: str = "desk"
    seed: int = 1
    cell: CellConfig = field(default_factory=CellConfig)
    power: PowerControlConfig = field(default_factory=PowerControlConfig)
    mcs: McsTable = field(default_factory=McsTable)
    dpws: DpwsConfig = field(default_factory=DpwsConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)

    def describe(self) -> dict:
        d = {
            "profile": self.profile,
            "seed": self.seed,
            "cell": asdict(self.cell),
            "power": {
                "p0_dbm": self.power.p0_dbm,
                "alpha": self.power.alpha,
                "p_max_dbm": self.power.p_max_dbm,
                "mpr_db": {f"{w}/{m}": v for (w, m), v in sorted(self.power.mpr_db.items())},
            },
            "mcs": [list(e) for e in self.mcs.entries],
            "dpws": asdict(self.dpws),
            "agent": asdict(self.agent),
            "episode": asdict(self.episode),
        }
        return d


def _parse_mpr(text: str) -> dict:
    table = {}
    for item in text.replace("\n", " ").split(","):
        item = item.strip()
        if not item:
            continue
        try:
            key, val = item.split(":")
            wf, mod = key.strip().split("/")
            table[(wf.strip(), mod.strip())] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad MPR entry {item!r} (want waveform/mod:dB)") from exc
    return table


def _parse_mcs(text: str) -> tuple:
    entries = []
    for item in text.replace("\n", " ").split(","):
        item = item.strip()
        if not item:
            continue
        try:
            thr, eff = item.split(":")
            entries.append((float(thr), float(eff)))
        except ValueError as exc:
            raise ConfigError(f"bad MCS entry {item!r} (want threshold:efficiency)") from exc
    return tuple(entries)


# INI keys set through _apply, by section; each section sets the SimConfig
# field of its own name
_FIELDS = {
    "cell": {
        "carrier_ghz": float, "scs_khz": float, "n_rb": int, "n_rx": int,
        "min_distance_m": float, "max_distance_m": float,
        "cell_range_m": float, "noise_figure_db": float,
        "shadowing_sigma_db": float, "fading_rho": float,
        "ta_jitter_pct": float, "dfts_snr_penalty_db": float,
    },
    "power": {"p0_dbm": float, "alpha": float, "p_max_dbm": float},
    "dpws": {
        "zeta_db": float, "xi_db": float, "counter": int,
        "window_srs": int, "guard_slots": int,
    },
    "agent": {
        "hidden": int, "learning_rate": float, "discount": float,
        "buffer_size": int, "batch_size": int, "epsilon_start": float,
        "epsilon_min": float, "theta": float, "reward_clip": float,
        "zeta_min_db": float, "zeta_max_db": float, "xi_max_db": float,
    },
    "episode": {
        "ues_per_episode": int, "slots_per_step": int,
        "srs_period_slots": int, "train_episodes": int,
        "train_steps": int, "eval_episodes": int, "eval_steps": int,
    },
}
# INI keys parsed by load_config itself; [power] dfts_snr_penalty_db is the
# older home of the [cell] key, and the two may not be given together
_OTHER_KEYS = {
    "run": {"profile", "seed"},
    "power": {"mpr_db", "dfts_snr_penalty_db"},
    "mcs": {"table"},
}


def _apply(section, obj, fields: dict) -> None:
    for key, conv in fields.items():
        if key in section:
            try:
                setattr(obj, key, conv(section[key]))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {section[key]!r}") from exc


def _check_names(parser: configparser.ConfigParser, path: Path) -> None:
    """Refuse sections and keys that nothing reads, such as misspellings,
    and the penalty key given in both of its homes."""
    for name in parser.sections():
        known = set(_FIELDS.get(name, ())) | _OTHER_KEYS.get(name, set())
        if not known:
            raise ConfigError(f"{path}: unknown section [{name}]")
        for key in parser[name]:
            if key not in known:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{name}]")
    key = "dfts_snr_penalty_db"
    if all(parser.has_option(name, key) for name in ("cell", "power")):
        raise ConfigError(
            f"{path}: {key!r} is set in both [cell] and [power]; keep the [cell] one"
        )


def _check_ranges(cfg: SimConfig) -> None:
    """Cross-field and range rules that the dataclasses do not check."""
    cell, agent = cfg.cell, cfg.agent
    for name, fields in _FIELDS.items():
        for key, conv in fields.items():
            value = getattr(getattr(cfg, name), key)
            if conv is float and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
    if cell.min_distance_m <= 0.0:
        raise ConfigError(f"min_distance_m must be positive, got {cell.min_distance_m}")
    if cell.shadowing_sigma_db < 0.0:
        raise ConfigError(
            f"shadowing_sigma_db must not be negative, got {cell.shadowing_sigma_db}"
        )
    if not 0.0 <= cell.fading_rho <= 1.0:
        raise ConfigError(f"fading_rho must be in [0, 1], got {cell.fading_rho}")
    if cell.min_distance_m > cell.max_distance_m:
        raise ConfigError(
            f"min_distance_m {cell.min_distance_m} exceeds max_distance_m {cell.max_distance_m}"
        )
    if not cell.ta_jitter_pct >= 0.0:
        raise ConfigError(f"ta_jitter_pct must not be negative, got {cell.ta_jitter_pct}")
    if agent.batch_size > agent.buffer_size:
        raise ConfigError(
            f"batch_size {agent.batch_size} exceeds buffer_size {agent.buffer_size}:"
            " the agent would never train"
        )
    # a switch at the step's last sounding silences the next slots_per_step
    # slots whole from this guard length on, and a silent terminal leaves
    # the throughput percentiles mid-run
    ep = cfg.episode
    longest_guard = ep.slots_per_step + ep.srs_period_slots - 2
    if cfg.dpws.guard_slots > longest_guard:
        raise ConfigError(
            f"guard_slots {cfg.dpws.guard_slots} would silence a terminal for a whole"
            f" step; at most {longest_guard} with slots_per_step {ep.slots_per_step}"
            f" and srs_period_slots {ep.srs_period_slots}"
        )
    if cfg.episode.ues_per_episode < MIN_PERCENTILE_SAMPLES:
        raise ConfigError(
            f"ues_per_episode must be at least {MIN_PERCENTILE_SAMPLES} for the"
            f" throughput percentiles, got {cfg.episode.ues_per_episode}"
        )


def apply_profile(cfg: SimConfig, name: str) -> SimConfig:
    if name not in PROFILES:
        raise ConfigError(f"unknown profile {name!r} (have {sorted(PROFILES)})")
    cfg.profile = name
    preset = PROFILES[name]
    for key, val in preset["episode"].items():
        setattr(cfg.episode, key, val)
    for key, val in preset["cell"].items():
        setattr(cfg.cell, key, val)
    for key, val in preset["agent"].items():
        setattr(cfg.agent, key, val)
    return cfg


def load_config(path: str | Path | None = None, profile: str | None = None,
                seed: int | None = None) -> SimConfig:
    """Build a SimConfig from defaults, an optional INI file, and optional
    profile/seed overrides (CLI flags win over file keys)."""
    cfg = SimConfig()
    parser = None
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    file_profile = None
    if parser is not None and parser.has_section("run"):
        file_profile = parser["run"].get("profile")
    apply_profile(cfg, profile or file_profile or cfg.profile)

    if parser is not None:
        _check_names(parser, path)
        if parser.has_section("run"):
            _apply(parser["run"], cfg, {"seed": int})
        for name, fields in _FIELDS.items():
            if parser.has_section(name):
                _apply(parser[name], getattr(cfg, name), fields)
        if parser.has_section("power"):
            sec = parser["power"]
            if "mpr_db" in sec:
                cfg.power.mpr_db = _parse_mpr(sec["mpr_db"])
            _apply(sec, cfg.cell, {"dfts_snr_penalty_db": float})
        if parser.has_section("mcs") and "table" in parser["mcs"]:
            try:
                cfg.mcs = McsTable(entries=_parse_mcs(parser["mcs"]["table"]))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

    if seed is not None:
        cfg.seed = seed

    # revalidate cross-field constraints after overrides
    try:
        PowerControlConfig(cfg.power.p0_dbm, cfg.power.alpha, cfg.power.p_max_dbm,
                           cfg.power.mpr_db)
        DpwsConfig(cfg.dpws.zeta_db, cfg.dpws.xi_db, cfg.dpws.counter,
                   cfg.dpws.window_srs, cfg.dpws.guard_slots)
        EpisodeConfig(**asdict(cfg.episode))
        McsTable(cfg.mcs.entries)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc
    _check_ranges(cfg)
    return cfg
