"""Run telemetry for the orchestration layer.

The orchestrator records one :class:`JobTiming` per job — how long it
took, whether it came from cache, and where it executed — plus the
session's wall time.  :class:`SessionTelemetry` aggregates those into
the numbers ``repro bench`` reports: cache hit/miss counts, total
simulation time, and worker utilization (simulated seconds divided by
``workers x wall seconds``, i.e. how full the pool's issue slots were).

Both classes round-trip through plain dicts (:meth:`JobTiming.to_dict`
/ :meth:`JobTiming.from_dict`, and the session-level equivalents with a
``schema`` marker): the service wire protocol streams per-job timings
to clients and the ``BENCH_<label>.json`` perf artifacts embed them,
and both deliberately share this one codepath instead of leaning on
dataclass internals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# Version of the serialized JobTiming/SessionTelemetry dict layout.
# Bump when a field is renamed or its meaning changes; adding optional
# fields is backward-compatible and does not require a bump.
TELEMETRY_SCHEMA_VERSION = 1

# Where a job's result came from.
MODE_CACHED = "cached"    # found in the runner's memo/disk cache
MODE_INLINE = "inline"    # simulated in the orchestrating process
MODE_POOL = "pool"        # simulated in a worker process


@dataclass(frozen=True)
class JobTiming:
    """One job's execution record.

    ``failure_kind`` carries the :mod:`repro.errors` taxonomy label when
    the job failed; ``attempts`` counts dispatches (>1 after retries of
    transient worker crashes).
    """

    label: str
    seconds: float
    mode: str
    failed: bool = False
    failure_kind: str | None = None
    attempts: int = 1
    # Simulated cycles the job produced (None when the job failed before
    # producing a record); cycles/seconds is the perf-artifact metric.
    cycles: int | None = None
    # Cycle the job's slowest SM resumed from when a surviving
    # checkpoint was reloaded (None for runs computed from cycle 0).
    resumed_from_cycle: int | None = None

    @property
    def cached(self) -> bool:
        return self.mode == MODE_CACHED

    @property
    def cycles_per_sec(self) -> float | None:
        """Simulation throughput; None for cached, failed, or zero-time jobs."""
        if self.cycles is None or self.cached or self.seconds <= 0:
            return None
        return self.cycles / self.seconds

    # -- wire/artifact serialization ------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict: every field plus the derived ``cycles_per_sec``.

        This exact layout is both the perf artifact's per-job entry and
        the service protocol's ``timing`` payload.
        """
        cps = self.cycles_per_sec
        return {
            "label": self.label,
            "mode": self.mode,
            "seconds": round(self.seconds, 6),
            "cycles": self.cycles,
            "cycles_per_sec": round(cps, 1) if cps is not None else None,
            "failed": self.failed,
            "failure_kind": self.failure_kind,
            "attempts": self.attempts,
            "resumed_from_cycle": self.resumed_from_cycle,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobTiming":
        """Rebuild a timing from :meth:`to_dict` output.

        Derived fields (``cycles_per_sec``) and unknown keys are
        ignored so newer producers interoperate with older consumers;
        missing required keys raise ``ValueError``.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"JobTiming payload is {type(data).__name__}, not dict"
            )
        try:
            label, mode = data["label"], data["mode"]
            seconds = float(data["seconds"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"JobTiming payload missing/invalid: {exc}")
        if not isinstance(label, str) or not isinstance(mode, str):
            raise ValueError("JobTiming label/mode must be strings")
        return cls(
            label=label,
            seconds=seconds,
            mode=mode,
            failed=bool(data.get("failed", False)),
            failure_kind=data.get("failure_kind"),
            attempts=int(data.get("attempts", 1)),
            cycles=data.get("cycles"),
            resumed_from_cycle=data.get("resumed_from_cycle"),
        )


@dataclass
class SessionTelemetry:
    """Aggregated timings for one orchestration session."""

    workers: int = 1
    timings: list[JobTiming] = field(default_factory=list)
    wall_seconds: float = 0.0
    _started_at: float | None = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        self._started_at = time.perf_counter()

    def finish(self) -> None:
        if self._started_at is not None:
            self.wall_seconds += time.perf_counter() - self._started_at
            self._started_at = None

    # -- aggregates -----------------------------------------------------------
    @property
    def jobs_total(self) -> int:
        return len(self.timings)

    @property
    def cache_hits(self) -> int:
        return sum(1 for t in self.timings if t.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for t in self.timings if not t.cached)

    @property
    def failures(self) -> int:
        return sum(1 for t in self.timings if t.failed)

    @property
    def retries(self) -> int:
        """Extra dispatches beyond each job's first attempt."""
        return sum(t.attempts - 1 for t in self.timings)

    @property
    def resumed_jobs(self) -> int:
        """Jobs that restarted from a surviving checkpoint."""
        return sum(1 for t in self.timings if t.resumed_from_cycle is not None)

    def failures_by_kind(self) -> dict[str, int]:
        """Failure counts grouped by taxonomy kind (empty if all passed)."""
        kinds: dict[str, int] = {}
        for t in self.timings:
            if t.failed:
                kind = t.failure_kind or "error"
                kinds[kind] = kinds.get(kind, 0) + 1
        return dict(sorted(kinds.items()))

    @property
    def sim_seconds(self) -> float:
        """Summed per-job simulation time (cache hits contribute ~0)."""
        return sum(t.seconds for t in self.timings if not t.cached)

    @property
    def computed_cycles(self) -> int:
        """Cycles simulated *this session* (cache hits excluded).

        The perf-artifact throughput numerator: it must match the
        population ``sim_seconds`` measures, or a partially-cached
        session reports cycles that cost no time and the cycles/sec
        headline inflates past any real machine's ability — masking
        regressions exactly when the cache is warm.
        """
        return sum(t.cycles or 0 for t in self.timings if not t.cached)

    @property
    def cached_cycles(self) -> int:
        """Cycles replayed from the run store (no simulation time spent)."""
        return sum(t.cycles or 0 for t in self.timings if t.cached)

    def utilization(self) -> float:
        """Fraction of the pool's capacity spent simulating."""
        if self.wall_seconds <= 0.0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.sim_seconds / (self.workers * self.wall_seconds))

    def slowest(self, n: int = 10) -> list[JobTiming]:
        """The ``n`` slowest simulated (non-cached) jobs."""
        simulated = [t for t in self.timings if not t.cached]
        return sorted(simulated, key=lambda t: -t.seconds)[:n]

    # -- wire/artifact serialization ------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe session dump with a ``schema`` marker."""
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 6),
            "timings": [t.to_dict() for t in self.timings],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionTelemetry":
        """Rebuild a session from :meth:`to_dict` output (schema-checked)."""
        if not isinstance(data, dict):
            raise ValueError(
                f"telemetry payload is {type(data).__name__}, not dict"
            )
        schema = data.get("schema")
        if schema != TELEMETRY_SCHEMA_VERSION:
            raise ValueError(
                f"telemetry schema {schema!r} != "
                f"expected {TELEMETRY_SCHEMA_VERSION}"
            )
        return cls(
            workers=int(data.get("workers", 1)),
            timings=[JobTiming.from_dict(t) for t in data.get("timings", ())],
            wall_seconds=float(data.get("wall_seconds", 0.0)),
        )
