"""Host-speed sampler: how fast the core ran while a workload instance ran.

The benchmark runs on shared hosts whose cores slow down by up to 2x for
stretches of a second to several minutes, so a raw time measures the host
as much as the program. Inside each untraced workload process a real-time
interval timer interrupts the program every ``INTERVAL_S`` and runs a
fixed reference chunk (a little Python and small numpy arithmetic, like a
bandit round) twice in the signal handler. The first run brings the chunk
back into the caches, so that the second, timed run does not depend on
how much memory the program touched in between; its duration says how
fast the core is at that moment. Each phase of the instance (setup, main loop,
outputs) keeps its own samples and the time its handler calls took.

``calibrated`` turns a phase's raw seconds into *reference
seconds*: the raw time minus the handler time, multiplied by the mean of
``REF_NOMINAL_S / sample`` over the phase's samples. With ``REF_NOMINAL_S``
= 100 us, one reference second is the time the core needs for 10 000
reference chunks, whatever its speed. (On the 2-core Xeon host the
benchmark was built on, one chunk took 132-175 us, 1st to 95th percentile,
so a reference second there is 1.3-1.8 s of wall time.) The chunk is
frozen here, outside the program, so a change in ``src/`` moves the
calibrated times as it moves the work the program does.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.01
REF_NOMINAL_S = 100e-6
MIN_SAMPLES = 3

_BASE = np.arange(10.0)


def reference_chunk() -> float:
    """A fixed mix of interpreter work and small-array numpy calls."""
    acc = 0.0
    table = {}
    for i in range(30):
        b = _BASE * 1.5 + i
        acc += float(b @ _BASE)
        table[i] = acc
    return acc


class Sampler:
    """Samples the reference chunk's duration on a SIGALRM interval timer."""

    def __init__(self):
        self.phases = {}
        self._current = None
        reference_chunk()  # warm the ufunc and dispatch caches

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_chunk()  # untimed: brings the chunk back into the caches
        timed = time.perf_counter()
        reference_chunk()
        took = time.perf_counter() - timed
        phase = self._current
        phase["samples"].append(took)
        phase["handler_s"] += time.perf_counter() - start

    def enter(self, phase: str) -> None:
        """Attribute the samples and handler time from now on to ``phase``."""
        self._current = self.phases.setdefault(phase, {"samples": [], "handler_s": 0.0})

    def start(self, phase: str) -> None:
        self.enter(phase)
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict:
        """Stop sampling; per phase (and ``all``): samples, handler seconds, speed factor.

        A phase with fewer than ``MIN_SAMPLES`` samples (a short output
        phase) takes the speed factor of the whole instance.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        every = [s for p in self.phases.values() for s in p["samples"]]
        overall = speed_factor(every)
        summary = {"all": {"samples": len(every), "handler_s": sum(p["handler_s"] for p in self.phases.values()), "factor": overall}}
        for name, p in self.phases.items():
            factor = speed_factor(p["samples"]) if len(p["samples"]) >= MIN_SAMPLES else overall
            summary[name] = {"samples": len(p["samples"]), "handler_s": p["handler_s"], "factor": factor}
        return summary


def speed_factor(samples: list) -> float:
    """Mean of REF_NOMINAL_S / sample: reference seconds per raw second."""
    return sum(REF_NOMINAL_S / s for s in samples) / len(samples)


def calibrated(raw_s: float, phase: dict) -> float:
    """Raw seconds of one sampled phase in reference seconds."""
    return (raw_s - phase["handler_s"]) * phase["factor"]
