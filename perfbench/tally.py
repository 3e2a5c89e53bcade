"""Latency statistics and failure counting for one run."""

from __future__ import annotations

import statistics
from array import array

TAIL_BEYOND = 10  # samples a tail percentile must have beyond it


def tail(latencies) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples beyond it.

    With ``n`` samples sorted ascending, sample ``n - 11`` (0-based) is the
    largest with ten larger ones, and it sits at percentile ``100 (n-10)/n``.
    Below eleven samples no percentile qualifies and the maximum is returned
    as percentile 100.
    """
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return 100.0, max(latencies)
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(latencies)[n - TAIL_BEYOND - 1]


class Tally:
    """Outcome of every attempted op of one cycle list, repeated.

    Op ``i`` is ``ops[i % len(ops)]``; only its latency is stored, compactly,
    so that the record of a long run adds little to the peak RSS it reports.
    An op fails when it raises, when the workload rejects its result (for
    example an unexpected non-zero exit), or when the result for its input
    key differs between ops or fails the output check.  A result reporting
    ``converged=false`` is counted apart, in ``nonconverged``.
    """

    def __init__(self, ops):
        self.ops = ops
        self.latencies = array("d")
        self.op_errors: dict[int, str] = {}     # op index -> reason
        self.first: dict[str, object] = {}      # key -> first result
        self.check_errors: dict[str, str] = {}  # key -> reason
        self.nonconverged_keys: set[str] = set()
        self.speed: list[tuple[int, float, float, float]] = []  # (next op, start, end, seconds)

    def record(self, latency: float, result, error: str | None, nonconverged: bool = False) -> None:
        index = len(self.latencies)
        key = self.ops[index % len(self.ops)].key
        self.latencies.append(latency)
        if nonconverged:
            self.nonconverged_keys.add(key)
        if result is not None:
            if key not in self.first:
                self.first[key] = result
            elif result != self.first[key]:
                self.check_errors[key] = "result differs from the first result for the same input"
        if error is not None:
            self.op_errors[index] = error

    def note_speed(self, start: float, end: float, seconds: float) -> None:
        """A host-speed sample taken from ``start`` to ``end`` before the next op."""
        self.speed.append((len(self.latencies), start, end, seconds))

    def adjusted(self, nominal: float) -> tuple[list[float], float]:
        """Latencies and wall time scaled to the host speed at which a sample takes ``nominal``.

        The ops between two samples, and the wall time between them, are scaled
        by ``nominal`` over the mean of the two.  Needs a sample before the
        first op and one after the last.
        """
        latencies, wall = [], 0.0
        for (i, _, end, d0), (j, start, _, d1) in zip(self.speed, self.speed[1:]):
            factor = 2.0 * nominal / (d0 + d1)
            latencies.extend(x * factor for x in self.latencies[i:j])
            wall += (start - end) * factor
        return latencies, wall

    def _ops(self):
        n = len(self.ops)
        return (self.ops[i % n] for i in range(len(self.latencies)))

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(1 for i, op in enumerate(self._ops())
                   if i in self.op_errors or op.key in self.check_errors)

    @property
    def nonconverged(self) -> int:
        return sum(1 for op in self._ops() if op.key in self.nonconverged_keys)

    def failures(self) -> dict[str, str]:
        """One reason per failing input key, for the report."""
        n = len(self.ops)
        out = {self.ops[i % n].key: reason for i, reason in self.op_errors.items()}
        out.update(self.check_errors)
        return out

    def median(self) -> float:
        return statistics.median(self.latencies)

    def by_kind(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for op, latency in zip(self._ops(), self.latencies):
            out.setdefault(op.kind, []).append(latency)
        return out
