"""Open-loop request generation and latency statistics.

Requests are sent on a schedule fixed in advance (Poisson arrivals at
a stated rate), whether or not earlier ones have been answered, so a
slow server sees its queue grow instead of receiving less load.  Each
request is timed from when it was *due*, not from when the generator
got around to sending it, so a stall in the process also counts
against the requests that should have gone out during it; how late the
generator ran is recorded separately so that a step where the
generator, not the server, fell behind can be flagged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

__all__ = [
    "Requests",
    "LATENCY_LIMIT_MS",
    "poisson_offsets",
    "zipf_sampler",
    "run_open_loop",
    "percentile",
    "repeated_share",
    "StepStats",
    "step_summary",
    "max_rate",
]

#: The latency limit that defines the highest sustainable rate.
LATENCY_LIMIT_MS = 25.0
#: Share of a step's requests, and of its last quarter's, that must meet
#: the limit for the step to pass: their medians.  On a shared two-core
#: virtual machine, scheduling stalls alone put 0.5-3% of requests over
#: 25 ms even at 200 rps during busy periods, so a p99 criterion
#: measured the neighbouring load instead of the server.
PASS_SHARE = 0.5
#: Generator lateness (p99) above which a step is flagged as limited by
#: the generator rather than the server.
GENERATOR_BEHIND_MS = LATENCY_LIMIT_MS / 4


@dataclass
class Requests:
    """The requests of one open-loop run, one array entry per request.

    Results are kept as arrays, not as one object per request: every
    object the load generator keeps alive lengthens the garbage
    collector's full passes, which stall all threads of the process
    and would land on the latency tail.
    """

    keys: np.ndarray
    cutoffs: np.ndarray
    due: np.ndarray               # monotonic seconds
    sent: np.ndarray              # monotonic seconds
    latency_ms: np.ndarray        # from due time; inf unless answered
    value: np.ndarray             # the score; nan unless answered
    refused: np.ndarray           # shed by admission control
    failed: np.ndarray            # admitted, but no finite score in [0, 1]
    submitted: Dict[str, float]   # request ID -> the server's admission time

    @property
    def answered(self) -> np.ndarray:
        """Mask of requests answered with a valid score."""
        return ~(self.refused | self.failed)

    @property
    def late_ms(self) -> np.ndarray:
        """How late the generator sent each request."""
        return (self.sent - self.due) * 1000.0

    @classmethod
    def concat(cls, parts: Sequence["Requests"]) -> "Requests":
        """All requests of several runs, in order."""
        submitted: Dict[str, float] = {}
        for part in parts:
            submitted.update(part.submitted)
        arrays = {name: np.concatenate([getattr(p, name) for p in parts])
                  for name in ("keys", "cutoffs", "due", "sent", "latency_ms",
                               "value", "refused", "failed")}
        return cls(submitted=submitted, **arrays)


def poisson_offsets(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """Arrival offsets (seconds from the step start) of a Poisson process."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def zipf_sampler(rng: np.random.Generator, keys: np.ndarray, exponent: float):
    """A draw function over ``keys`` with Zipf-ranked popularity.

    The rank order is a seeded permutation, so which entities are hot
    changes with the seed while the skew stays fixed.
    """
    ranks = np.arange(1, len(keys) + 1, dtype=np.float64)
    weights = ranks ** -exponent
    weights /= weights.sum()
    order = np.asarray(keys)[rng.permutation(len(keys))]

    def draw(count: int) -> np.ndarray:
        return order[rng.choice(len(order), size=count, p=weights)]

    return draw


def run_open_loop(
    start: float,
    offsets: np.ndarray,
    keys: np.ndarray,
    submit: Callable[[Any, int], Any],
    cutoff_at: Callable[[], int],
    refused: type,
    timeout: float = 60.0,
) -> Requests:
    """Send one request per offset, on schedule, then wait for the answers.

    Runs on the calling thread.  ``submit(key, cutoff)`` returns a
    future or raises ``refused`` when the server sheds the request.
    ``cutoff_at()`` is read at send time (the live serving cutoff).
    """
    count = len(offsets)
    due = start + np.asarray(offsets, dtype=np.float64)
    sent = np.empty(count)
    cutoffs = np.empty(count, dtype=np.int64)
    futures: List[Any] = [None] * count
    for i in range(count):
        wait = due[i] - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        cutoffs[i] = cutoff_at()
        sent[i] = time.monotonic()
        try:
            futures[i] = submit(keys[i], int(cutoffs[i]))
        except refused:
            pass

    latency = np.full(count, np.inf)
    value = np.full(count, np.nan)
    shed = np.zeros(count, dtype=bool)
    failed = np.zeros(count, dtype=bool)
    submitted: Dict[str, float] = {}
    for i in range(count):
        future, futures[i] = futures[i], None
        if future is None:
            shed[i] = True
            continue
        submitted[future.request_id] = future.submitted_at
        try:
            result = np.asarray(future.result(timeout), dtype=np.float64)
        except Exception:  # any failure of an admitted request is counted
            failed[i] = True
            continue
        if result.shape != (1,) or not np.isfinite(result[0]) or not 0.0 <= result[0] <= 1.0:
            failed[i] = True
            continue
        value[i] = result[0]
        latency[i] = (future.resolved_at - due[i]) * 1000.0
    return Requests(np.asarray(keys), cutoffs, due, sent, latency, value, shed, failed,
                    submitted)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; refused or failed requests sort as +inf."""
    if len(values) == 0:
        return float("nan")
    return float(np.quantile(np.asarray(values, dtype=np.float64), q / 100.0,
                             method="inverted_cdf"))


def repeated_share(keys: np.ndarray, cutoffs: np.ndarray) -> float:
    """Share of requests whose (entity, cutoff) pair was already requested."""
    if len(keys) == 0:
        return 0.0
    pairs = np.unique(np.stack([np.asarray(keys, dtype=np.int64), cutoffs]), axis=1)
    return 1.0 - pairs.shape[1] / len(keys)


@dataclass
class StepStats:
    """Latency and load figures of one ladder step."""

    rate: float
    requests: int
    answered: int
    refused: int
    errors: int
    p50_ms: float
    p90_ms: float
    p99_ms: float
    within_limit: float             # share answered within the latency limit
    end_within_limit: float         # the same, over the step's last quarter
    generator_late_p99_ms: float
    generator_behind: bool
    repeated_pairs: float

    def to_dict(self) -> dict:
        """JSON-ready record (infinite latencies as strings)."""
        return {k: (v if not isinstance(v, float) or np.isfinite(v) else str(v))
                for k, v in self.__dict__.items()}


def step_summary(rate: float, requests: Requests) -> StepStats:
    """Summarise one step: percentiles, limit shares, lateness."""
    latencies = requests.latency_ms
    quarter = max(len(latencies) // 4, 1)
    late_p99 = percentile(requests.late_ms, 99)
    return StepStats(
        rate=rate,
        requests=len(latencies),
        answered=int(requests.answered.sum()),
        refused=int(requests.refused.sum()),
        errors=int(requests.failed.sum()),
        p50_ms=percentile(latencies, 50),
        p90_ms=percentile(latencies, 90),
        p99_ms=percentile(latencies, 99),
        within_limit=float(np.mean(latencies <= LATENCY_LIMIT_MS)),
        end_within_limit=float(np.mean(latencies[-quarter:] <= LATENCY_LIMIT_MS)),
        generator_late_p99_ms=late_p99,
        generator_behind=bool(late_p99 > GENERATOR_BEHIND_MS),
        repeated_pairs=repeated_share(requests.keys, requests.cutoffs),
    )


def _passing_share(step: StepStats) -> float:
    # The worse of the whole step and its last quarter, whose requests
    # are sent after any backlog has built up: a step passes only if
    # its backlog did not grow past the limit either.
    return min(step.within_limit, step.end_within_limit)


def max_rate(steps: Sequence[StepStats]) -> float:
    """Highest sustainable rate on the ladder, refined between steps.

    A step passes when its median request, and the median request of
    its last quarter, were answered within the latency limit.  The
    result is the highest passing rate, moved toward the next (failing)
    rate by linear interpolation, in log rate, of the passing share to
    where it crosses :data:`PASS_SHARE`; so a knee that sits between
    two steps reads as a rate between them instead of flipping from one
    step to the other.  A stall that fails one lower step does not hide
    the passing steps above it.
    """
    shares = [_passing_share(step) for step in steps]
    passed = [i for i, share in enumerate(shares) if share >= PASS_SHARE]
    if not passed:
        return steps[0].rate * shares[0] / PASS_SHARE
    top = passed[-1]
    if top == len(steps) - 1:
        return float(steps[top].rate)
    lo, hi = steps[top].rate, steps[top + 1].rate
    frac = (shares[top] - PASS_SHARE) / (shares[top] - shares[top + 1])
    return float(np.exp(np.log(lo) + frac * (np.log(hi) - np.log(lo))))
