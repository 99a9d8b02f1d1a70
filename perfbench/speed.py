"""Machine-speed probe for normalizing wall times on a shared host.

On a host whose cores are shared with other tenants, the same Python code
runs up to about 1.7x slower for stretches of seconds to minutes (a busy
sibling hyperthread, for example). Wall times of the same scan in two
runs a few minutes apart then differ by more than a regression worth
catching. The probe is a fixed mix of the kinds of work photonstack does
(interpreter loops, small complex numpy arrays, scipy quadrature, "%.9g"
formatting), run for a set share of the measured time between
operations. Its mean duration over a run says how fast the machine was
during that run, and

    normalized = wall * REFERENCE_PROBE_S / mean probe time

is the wall time the same run would have taken on a machine where the
probe takes ``REFERENCE_PROBE_S``. The probe runs no photonstack code,
so a slower program still reads as slower. In ten runs per workload on
the 2-vCPU machine this was written on, while its speed drifted by up to
1.7x, the interquartile spread of the normalized scan medians was 6-8% of
their median against 22-32% for the raw wall medians. A mix of work
tracked the scans better than any one kind of work alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.integrate import trapezoid

# About the probe's duration on the machine the benchmark was written on
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, scipy 1.17) when it ran
# fast.
REFERENCE_PROBE_S = 5.0e-3
# Probe time per measured second; spread out, so it samples the machine
# state over the whole run.
PROBE_SHARE = 0.07
_MIN_PROBES = 5

_Z = np.linspace(0.0, 1.0, 100) * (1.0 + 0.3j)
_X = np.linspace(0.0, 1.0, 256)


def probe() -> float:
    """Run the fixed probe work once; return its wall time."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    for i in range(60):
        w = np.exp(_Z * i)
        float((np.abs(w) ** 2 * w).real.sum())
    for i in range(40):
        float(trapezoid(np.expm1(_X * (1.0 + 0.01 * i)), _X))
    ",".join("%.9g" % (v * 1.37) for v in range(3000))
    return time.perf_counter() - t0


class SpeedProbe:
    """Collects probe durations in blocks; ``after(dt)`` probes for a
    share of dt as one block."""

    def __init__(self):
        self.blocks: list[list[float]] = []

    @property
    def samples(self) -> list[float]:
        return [d for block in self.blocks for d in block]

    def after(self, measured_s: float) -> None:
        budget = PROBE_SHARE * measured_s
        block: list[float] = []
        while len(block) < _MIN_PROBES or sum(block) < budget:
            block.append(probe())
        self.blocks.append(block)

    def scale(self) -> float:
        """Factor taking this run's wall times to the reference speed."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)
