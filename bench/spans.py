"""Per-module spans, timed from outside the program.

:class:`Tracer` replaces public functions of dpwsim with wrappers that
time each call and count it, and puts the originals back on
:meth:`Tracer.remove`. The orchestrator binds ``on_srs``,
``precoded_gain``, ``bin_snr`` and the other helpers by name at import, so
the wrappers go on the names it calls, not on the defining modules. Spans
nest: a span's self time is its duration minus the time of the wrapped
calls made inside it.
"""

from __future__ import annotations

import time

# names the orchestrator calls; each is its own span
ORCHESTRATOR_SPANS = (
    "simulate_step", "drop_ues",
    "precoded_gain", "select_tx_port", "sounding_gain", "map_throughput",
    "on_srs",
    "bin_snr", "bin_ta", "throughput_percentiles",
    "train_step", "select_action", "build_state", "compute_reward",
)
# all timed together as the span "csv_write"
RUN_WRITER_METHODS = ("__init__", "kpi_row", "events", "ue_samples", "throughput_stats", "close")


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [seconds, self seconds, calls]
        self.switches = 0
        self.updates = 0
        self.ue_slots = 0
        self._open: list[float] = []  # child time of each open span
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, on_result=None):
        acc = self.spans.setdefault(name, [0.0, 0.0, 0])
        open_spans, clock = self._open, time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = open_spans.pop()
                acc[0] += dt
                acc[1] += dt - child
                acc[2] += 1
                if open_spans:
                    open_spans[-1] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` (a module function, a method or a
        classmethod) by a timed wrapper reported under ``name``."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name, on_result))
        else:
            new = self._wrap(raw, name, on_result)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self, cli, config, orchestrator) -> None:
        from dpwsim import waveform

        def count_switch(args, result):
            self.switches += bool(result[1])

        def count_update(args, result):
            self.updates += result is not None

        def count_slots(args, result):
            ues, cfg = args[0], args[4]
            self.ue_slots += len(ues) * cfg.episode.slots_per_step

        hooks = {"on_srs": count_switch, "train_step": count_update, "simulate_step": count_slots}
        for name in ORCHESTRATOR_SPANS:
            self.patch(orchestrator, name, name, hooks.get(name))
        for method in RUN_WRITER_METHODS:
            self.patch(orchestrator.RunWriter, method, "csv_write")
        self.patch(orchestrator, "_write_training_log", "csv_write")
        self.patch(orchestrator.QNetwork, "track", "QNetwork.track")
        self.patch(orchestrator.QNetwork, "load", "QNetwork.load")
        self.patch(waveform, "generate_cp_ofdm", "generate_cp_ofdm")
        self.patch(waveform, "generate_dft_s_ofdm", "generate_dft_s_ofdm")
        self.patch(cli, "measure_papr", "measure_papr")
        self.patch(config, "load_config", "load_config")
        self.patch(cli, "load_config", "load_config")

    def remove(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def metrics(self) -> dict[str, float]:
        """The counts, and the total time ``<span>.s`` of every span."""
        def total(name, i=0):
            return self.spans.get(name, (0.0, 0.0, 0))[i]

        calls = {name: total(name, 2) for name in self.spans}
        out = {
            "simulate_step.calls": calls["simulate_step"],
            "simulate_step.self_s": total("simulate_step", 1),
            "ue_slots": self.ue_slots,
            "map_throughput.calls": calls["map_throughput"],
            "on_srs.calls": calls["on_srs"],
            "switches": self.switches,
            "switches_per_srs": self.switches / calls["on_srs"] if calls["on_srs"] else 0.0,
            "bin.calls": calls["bin_snr"] + calls["bin_ta"],
            "train_step.updates": self.updates,
            "generate.calls": calls["generate_cp_ofdm"] + calls["generate_dft_s_ofdm"],
        }
        for name in self.spans:
            out[f"{name}.s"] = total(name)
        return out
