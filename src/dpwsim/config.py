"""Declarative run configuration.

One INI-style file drives every command. All values have embedded defaults
so an empty (or absent) file is a valid configuration; the ``profile`` key
picks one of the named size presets before any explicit key is applied.

There is one schema. Each section is a dataclass (``[cell]`` is
:class:`CellConfig`, ``[agent]`` is :class:`~dpwsim.agent.AgentConfig` and
so on), and its ``int`` and ``float`` fields are the section's keys. A
section's range rules live in its dataclass's ``__post_init__``, so
:func:`load_config` checks a section by building it, once, from the preset
and the INI values. The rules that span sections are in ``_check_ranges``.
``_rebuild`` runs both, and is the one way to change a loaded config.
Every refusal is a :class:`ConfigError`, raised before any simulation runs.

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
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
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

    def __post_init__(self):
        for name in ("carrier_ghz", "scs_khz", "min_distance_m", "cell_range_m"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("n_rb", "n_rx"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.min_distance_m > self.max_distance_m:
            raise ConfigError(
                f"min_distance_m {self.min_distance_m} exceeds max_distance_m {self.max_distance_m}"
            )
        if not self.shadowing_sigma_db >= 0.0:
            raise ConfigError(
                f"shadowing_sigma_db must not be negative, got {self.shadowing_sigma_db}"
            )
        if not 0.0 <= self.fading_rho <= 1.0:
            raise ConfigError(f"fading_rho must be in [0, 1], got {self.fading_rho}")
        if not self.ta_jitter_pct >= 0.0:
            raise ConfigError(f"ta_jitter_pct must not be negative, got {self.ta_jitter_pct}")

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
        d = asdict(self)
        d["power"]["mpr_db"] = {f"{w}/{m}": v for (w, m), v in sorted(self.power.mpr_db.items())}
        d["mcs"] = [list(e) for e in self.mcs.entries]
        return d


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()} is not finite")
    return value


# field types are strings, since every module of a section postpones its
# annotations
_NUMBERS = {"int": int, "float": _finite}
# INI keys read as numbers, by section: the int and float fields of the
# dataclass of each SimConfig section
_KEYS = {
    section.name: {
        f.name: _NUMBERS[f.type] for f in fields(section.default_factory) if f.type in _NUMBERS
    }
    for section in fields(SimConfig)
    if section.default_factory is not MISSING
}
# INI keys parsed by load_config itself
_OTHER_KEYS = {
    "run": {"profile", "seed"},
    "power": {"mpr_db"},
    "mcs": {"table"},
}


def _number(convert, key: str, text: str):
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def _items(text: str, key, form: str) -> list[tuple]:
    """The comma-separated ``key:value`` items of ``text``, each key read
    by ``key`` and each value a finite number; ``form`` names the item's
    shape in the error for a bad one."""
    items = []
    for item in text.replace("\n", " ").split(","):
        item = item.strip()
        if not item:
            continue
        try:
            k, v = item.split(":")
            items.append((key(k.strip()), _finite(v)))
        except ValueError as exc:
            raise ConfigError(f"bad entry {item!r} (want {form})") from exc
    return items


def _mpr_key(text: str) -> tuple[str, str]:
    waveform, modulation = text.split("/")
    return waveform.strip(), modulation.strip()


def _check_names(parser: configparser.ConfigParser, path: Path) -> None:
    """Refuse sections and keys that nothing reads, such as misspellings."""
    for name in parser.sections():
        known = set(_KEYS.get(name, ())) | _OTHER_KEYS.get(name, set())
        if not known:
            raise ConfigError(f"{path}: unknown section [{name}]")
        for key in parser[name]:
            if key not in known:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{name}]")


def _check_ranges(cfg: SimConfig) -> None:
    """The rules that span sections; each section checks its own."""
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
    if ep.ues_per_episode < MIN_PERCENTILE_SAMPLES:
        raise ConfigError(
            f"ues_per_episode must be at least {MIN_PERCENTILE_SAMPLES} for the"
            f" throughput percentiles, got {ep.ues_per_episode}"
        )
    # the agent clamps the thresholds to its bounds at the first action,
    # even the do-nothing one
    d, a = cfg.dpws, cfg.agent
    if not a.zeta_min_db <= d.zeta_db <= a.zeta_max_db:
        raise ConfigError(f"zeta_db {d.zeta_db} lies outside [zeta_min_db, zeta_max_db]"
                          f" = [{a.zeta_min_db}, {a.zeta_max_db}]")
    if d.xi_db > a.xi_max_db:
        raise ConfigError(f"xi_db {d.xi_db} exceeds xi_max_db {a.xi_max_db}")


def _rebuild(cfg: SimConfig, values: dict) -> SimConfig:
    """Build each section of ``cfg`` once, from its current values overlaid
    with ``values[section]``; the section's dataclass checks the result,
    then ``_check_ranges`` the rules across sections."""
    for name in _KEYS:
        try:
            setattr(cfg, name, replace(getattr(cfg, name), **values.get(name, {})))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    _check_ranges(cfg)
    return cfg


def _build(cfg: SimConfig, profile: str, ini: dict) -> SimConfig:
    """Set ``profile`` on ``cfg`` and rebuild it with each section's preset
    values, then its ``ini`` values."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r} (have {sorted(PROFILES)})")
    cfg.profile = profile
    preset = PROFILES[profile]
    return _rebuild(cfg, {name: {**preset.get(name, {}), **ini.get(name, {})} for name in _KEYS})


def apply_profile(cfg: SimConfig, name: str) -> SimConfig:
    """Set the size preset ``name`` on ``cfg``, rebuilding (and so checking)
    each section."""
    return _build(cfg, name, {})


def load_config(path: str | Path | None = None, profile: str | None = None,
                seed: int | None = None) -> SimConfig:
    """Build a SimConfig from defaults, an optional INI file, and optional
    profile/seed overrides (CLI flags win over file keys)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        _check_names(parser, path)

    ini = {
        name: {
            key: _number(convert, key, parser[name][key])
            for key, convert in keys.items()
            if parser.has_option(name, key)
        }
        for name, keys in _KEYS.items()
    }
    if parser.has_option("power", "mpr_db"):
        ini["power"]["mpr_db"] = dict(
            _items(parser["power"]["mpr_db"], _mpr_key, "waveform/mod:dB")
        )
    if parser.has_option("mcs", "table"):
        ini["mcs"]["entries"] = tuple(
            _items(parser["mcs"]["table"], _finite, "threshold:efficiency")
        )

    cfg = SimConfig()
    if seed is not None:
        cfg.seed = seed
    elif parser.has_option("run", "seed"):
        cfg.seed = _number(int, "seed", parser["run"]["seed"])
    return _build(cfg, profile or parser.get("run", "profile", fallback=cfg.profile), ini)
