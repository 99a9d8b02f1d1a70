"""In-memory spans around the calls photonstack's modules make into each other.

Library modules import each other's functions by name (``from .greens
import region_integrals``), so a call is only seen when the reference the
*caller* holds is replaced. :meth:`Tracer.install` does exactly that: for
every traced function it swaps the attribute in each calling module for a
wrapper that records a span and remembers the caller, and
:meth:`Tracer.uninstall` puts the originals back. Spans are kept in memory
(name, caller, start, end, parent) and summarized, or dumped, afterwards.

Pool workers would record into their own memory, so traced scans must run
with ``threads=1``.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# module -> functions defined there whose calls are recorded
TRACED = {
    "stack": ("build_stack",),
    "greens": ("solve_bases", "solve_wave_basis", "region_integrals"),
    "spectral": ("ldos", "ldos_gradient", "photon_numbers", "occupation_sums",
                 "effective_temperatures"),
    "mechanics": ("energy_pressure", "force_density"),
    "thermo": ("solve_self_consistent",),
}
# modules whose references to the functions above are replaced
CALLERS = ("scan", "mechanics", "spectral", "thermo", "greens")


@dataclass
class Span:
    name: str
    caller: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, caller: str = "bench"):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, caller, time.perf_counter(), 0.0, parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrap(self, fn, name: str, caller: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, caller):
                result = fn(*args, **kwargs)
            if name == "thermo.solve_self_consistent":
                self.counters["thermo.sweeps"] = (
                    self.counters.get("thermo.sweeps", 0) + result.iterations
                )
            return result
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, names in TRACED.items():
            home = importlib.import_module(f"photonstack.{owner}")
            for fname in names:
                original = getattr(home, fname)
                for caller in CALLERS:
                    mod = importlib.import_module(f"photonstack.{caller}")
                    if getattr(mod, fname, None) is original:
                        wrapper = self._wrap(original, f"{owner}.{fname}", caller)
                        setattr(mod, fname, wrapper)
                        self._patched.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

    def reset(self) -> None:
        if self._open:
            raise RuntimeError("cannot reset inside an open span")
        self.spans = []
        self.counters = {}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children
    (children of one span never overlap: the program is single-threaded)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per (name, caller): call count and self time."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        entry = out.setdefault(f"{s.name}|{s.caller}",
                               {"name": s.name, "caller": s.caller,
                                "calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return out


def top_level_shares(spans: list[Span], root: int) -> dict[str, float]:
    """Inclusive time of the root's direct children, by module, plus the
    root's own self time under the root's module; as shares of the root."""
    total = spans[root].end - spans[root].start
    shares: dict[str, float] = {}
    for s in spans:
        if s.parent == root:
            mod = s.name.split(".")[0]
            shares[mod] = shares.get(mod, 0.0) + (s.end - s.start) / total
    mod = spans[root].name.split(".")[0]
    shares[mod] = shares.get(mod, 0.0) + self_times(spans)[root] / total
    return shares
