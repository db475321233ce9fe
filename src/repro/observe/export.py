"""Exporters: Chrome trace-event JSON (Perfetto) and CSV timelines.

The Chrome trace-event format is the JSON array Perfetto's legacy
importer (and chrome://tracing) loads directly: each event carries
``ph`` (phase), ``ts`` (microseconds — we map one simulated cycle to one
microsecond), ``pid``/``tid`` (track routing), and ``name``.  The track
layout renders one process per SM and:

* one thread per warp — ``hold S<k>`` / ``wait acquire`` duration spans
  plus finish instants;
* one thread per SRP section — busy spans from the pool's own
  transition events (so EXIT-time reclamation shows too);
* one counter track each for SRP occupancy, the warp-status histogram,
  live-register pressure, cumulative stall attribution, and each warp
  scheduler's issued count (all stride-sampled from the probes).

``validate_chrome_trace`` is the schema gate CI runs against the
emitted file: required keys on every event, known phases, balanced
B/E nesting per track.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable

from repro.observe.bus import EventLog
from repro.observe.events import (
    ACQUIRE_BLOCKED,
    ACQUIRE_OK,
    CTA_LAUNCH,
    CTA_RETIRE,
    ISSUE,
    JOB_DONE,
    JOB_FAILED,
    JOB_KINDS,
    JOB_QUEUED,
    JOB_RESUMED,
    JOB_RUNNING,
    RELEASE,
    SANITIZER,
    SECTION_ACQUIRE,
    SECTION_RELEASE,
    WARP_FINISH,
    WATCHDOG,
    SimEvent,
)
from repro.observe.probes import ProbeSeries

REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")

# Track (tid) layout within one SM's process.
TID_SM = 0            # process-scoped instants (CTA launch/retire, watchdog)
TID_SRP_COUNTER = 1
TID_WARP_STATES = 2
TID_LIVE_REGISTERS = 3
TID_STALLS = 4
TID_SCHEDULER_BASE = 10      # + scheduler id
TID_SECTION_BASE = 100       # + section index
TID_WARP_BASE = 1000         # + warp id


def _meta(pid: int, tid: int, kind: str, name: str) -> dict:
    return {"ph": "M", "ts": 0, "pid": pid, "tid": tid,
            "name": kind, "args": {"name": name}}


def _counter(pid: int, tid: int, ts: int, name: str, args: dict) -> dict:
    return {"ph": "C", "ts": ts, "pid": pid, "tid": tid,
            "name": name, "args": args}


def _span(pid: int, tid: int, ph: str, ts: int, name: str) -> dict:
    return {"ph": ph, "ts": ts, "pid": pid, "tid": tid, "name": name}


def chrome_trace_events(
    log: EventLog | None,
    samples: ProbeSeries | None = None,
    sm_id: int = 0,
    include_issues: bool = False,
) -> list[dict]:
    """Convert one SM's observations into Chrome trace events."""
    events: list[dict] = [
        _meta(sm_id, TID_SM, "process_name", f"SM {sm_id}"),
        _meta(sm_id, TID_SM, "thread_name", "SM events"),
    ]
    if log is not None:
        events.extend(_warp_track_events(log, sm_id, include_issues))
        events.extend(_section_track_events(log, sm_id))
        events.extend(_sm_instant_events(log, sm_id))
    if samples is not None and len(samples):
        events.extend(_counter_track_events(samples, sm_id))
    return events


def _warp_track_events(
    log: EventLog, sm_id: int, include_issues: bool
) -> list[dict]:
    out: list[dict] = []
    named: set[int] = set()
    open_wait: dict[int, int] = {}   # warp -> wait-span start cycle
    open_hold: dict[int, str] = {}   # warp -> open hold-span name

    def tid(warp_id: int) -> int:
        t = TID_WARP_BASE + warp_id
        if warp_id not in named:
            named.add(warp_id)
            out.append(_meta(sm_id, t, "thread_name", f"warp {warp_id}"))
        return t

    for e in log:
        if e.kind == ACQUIRE_BLOCKED:
            if e.warp_id not in open_wait:
                open_wait[e.warp_id] = e.cycle
                out.append(_span(sm_id, tid(e.warp_id), "B", e.cycle,
                                 "wait acquire"))
        elif e.kind == ACQUIRE_OK:
            t = tid(e.warp_id)
            if e.warp_id in open_wait:
                del open_wait[e.warp_id]
                out.append(_span(sm_id, t, "E", e.cycle, "wait acquire"))
            if e.warp_id not in open_hold:
                name = f"hold S{e.value}"
                open_hold[e.warp_id] = name
                out.append(_span(sm_id, t, "B", e.cycle, name))
        elif e.kind == RELEASE:
            name = open_hold.pop(e.warp_id, None)
            if name is not None:
                out.append(_span(sm_id, tid(e.warp_id), "E", e.cycle, name))
        elif e.kind == WARP_FINISH:
            t = tid(e.warp_id)
            if e.warp_id in open_wait:
                del open_wait[e.warp_id]
                out.append(_span(sm_id, t, "E", e.cycle, "wait acquire"))
            name = open_hold.pop(e.warp_id, None)
            if name is not None:
                out.append(_span(sm_id, t, "E", e.cycle, name))
            out.append({"ph": "i", "ts": e.cycle, "pid": sm_id, "tid": t,
                        "name": "finish", "s": "t"})
        elif include_issues and e.kind == ISSUE:
            out.append({"ph": "X", "ts": e.cycle, "pid": sm_id,
                        "tid": tid(e.warp_id), "name": e.detail or "issue",
                        "dur": 1})
    # Close any span left open at the end of the log (e.g. a run that
    # raised): balanced B/E is part of the exported contract.
    last = log.events[-1].cycle if log.events else 0
    for warp_id in list(open_wait):
        out.append(_span(sm_id, TID_WARP_BASE + warp_id, "E", last,
                         "wait acquire"))
    for warp_id, name in open_hold.items():
        out.append(_span(sm_id, TID_WARP_BASE + warp_id, "E", last, name))
    return out


def _section_track_events(log: EventLog, sm_id: int) -> list[dict]:
    out: list[dict] = []
    named: set[int] = set()
    open_by_section: dict[int, str] = {}
    for e in log:
        if e.kind not in (SECTION_ACQUIRE, SECTION_RELEASE):
            continue
        t = TID_SECTION_BASE + e.value
        if e.value not in named:
            named.add(e.value)
            out.append(_meta(sm_id, t, "thread_name", f"SRP section {e.value}"))
        if e.kind == SECTION_ACQUIRE:
            if e.value not in open_by_section:
                name = f"held by slot {e.warp_id}"
                open_by_section[e.value] = name
                out.append(_span(sm_id, t, "B", e.cycle, name))
        else:
            name = open_by_section.pop(e.value, None)
            if name is not None:
                out.append(_span(sm_id, t, "E", e.cycle, name))
    last = log.events[-1].cycle if log.events else 0
    for section, name in open_by_section.items():
        out.append(_span(sm_id, TID_SECTION_BASE + section, "E", last, name))
    return out


def _sm_instant_events(log: EventLog, sm_id: int) -> list[dict]:
    out: list[dict] = []
    for e in log:
        if e.kind == CTA_LAUNCH:
            out.append({"ph": "i", "ts": e.cycle, "pid": sm_id, "tid": TID_SM,
                        "name": f"CTA {e.value} launch", "s": "t"})
        elif e.kind == CTA_RETIRE:
            out.append({"ph": "i", "ts": e.cycle, "pid": sm_id, "tid": TID_SM,
                        "name": f"CTA {e.value} retire", "s": "t"})
        elif e.kind == WATCHDOG:
            out.append({"ph": "i", "ts": e.cycle, "pid": sm_id, "tid": TID_SM,
                        "name": "watchdog", "s": "p",
                        "args": {"summary": e.detail or ""}})
        elif e.kind == SANITIZER:
            # Route the violation to the offending warp's track when it
            # has a warp subject, otherwise to the SM track.
            tid = TID_WARP_BASE + e.warp_id if e.warp_id >= 0 else TID_SM
            out.append({"ph": "i", "ts": e.cycle, "pid": sm_id, "tid": tid,
                        "name": "sanitizer violation", "s": "p",
                        "args": {"violation": e.detail or "",
                                 "pc": e.pc}})
    return out


def _counter_track_events(samples: ProbeSeries, sm_id: int) -> list[dict]:
    out = [
        _meta(sm_id, TID_SRP_COUNTER, "thread_name", "SRP occupancy"),
        _meta(sm_id, TID_WARP_STATES, "thread_name", "warp states"),
        _meta(sm_id, TID_LIVE_REGISTERS, "thread_name", "register pressure"),
        _meta(sm_id, TID_STALLS, "thread_name", "stall attribution"),
    ]
    num_scheds = len(samples.sched_issued[0]) if samples.sched_issued else 0
    for s in range(num_scheds):
        out.append(_meta(sm_id, TID_SCHEDULER_BASE + s, "thread_name",
                         f"scheduler {s}"))
    for i in range(len(samples)):
        ts = samples.cycle[i]
        if samples.srp_total[i] > 0:
            out.append(_counter(sm_id, TID_SRP_COUNTER, ts, "SRP sections",
                                {"in use": samples.srp_in_use[i]}))
        out.append(_counter(sm_id, TID_WARP_STATES, ts, "warp states", {
            "ready": samples.warps_ready[i],
            "at barrier": samples.warps_at_barrier[i],
            "wait acquire": samples.warps_waiting_acquire[i],
        }))
        out.append(_counter(sm_id, TID_LIVE_REGISTERS, ts, "live registers",
                            {"registers": samples.live_registers[i]}))
        out.append(_counter(sm_id, TID_STALLS, ts, "stall slots", {
            "memory": samples.stall_memory[i],
            "scoreboard": samples.stall_scoreboard[i],
            "barrier": samples.stall_barrier[i],
            "acquire": samples.stall_acquire[i],
        }))
        if i < len(samples.sched_issued):
            for s, issued in enumerate(samples.sched_issued[i]):
                out.append(_counter(sm_id, TID_SCHEDULER_BASE + s, ts,
                                    "issued", {"instructions": issued}))
    return out


def job_trace_events(log: Iterable[SimEvent], pid: int = 0) -> list[dict]:
    """Convert service job-lifecycle events into Chrome trace events.

    One thread per daemon job (``tid`` = job id), a ``running`` span
    from JOB_RUNNING to JOB_DONE/JOB_FAILED, and instants for queueing
    and checkpoint resumes.  Timestamps are the events' wall-clock
    milliseconds (the daemon stamps ``cycle`` that way for JOB_* kinds),
    so daemon traces render on a real timeline rather than simulated
    cycles.  Spans still open at the end of the log (jobs in flight
    when the trace was fetched) are closed at the last timestamp so the
    B/E contract :func:`validate_chrome_trace` enforces holds.
    """
    out: list[dict] = [_meta(pid, 0, "process_name", "repro service")]
    named: set[int] = set()
    open_run: dict[int, str] = {}    # job id -> open span name
    last_ts = 0

    def tid(e) -> int:
        if e.value not in named:
            named.add(e.value)
            out.append(_meta(pid, e.value, "thread_name",
                             f"job {e.value}: {e.detail or '?'}"))
        return e.value

    for e in log:
        if e.kind not in JOB_KINDS:
            continue
        last_ts = max(last_ts, e.cycle)
        if e.kind == JOB_QUEUED:
            out.append({"ph": "i", "ts": e.cycle, "pid": pid, "tid": tid(e),
                        "name": "queued", "s": "t"})
        elif e.kind == JOB_RUNNING:
            if e.value not in open_run:
                name = e.detail or "running"
                open_run[e.value] = name
                out.append(_span(pid, tid(e), "B", e.cycle, name))
        elif e.kind == JOB_RESUMED:
            out.append({"ph": "i", "ts": e.cycle, "pid": pid, "tid": tid(e),
                        "name": f"resumed from cycle {e.pc}", "s": "t"})
        elif e.kind in (JOB_DONE, JOB_FAILED):
            t = tid(e)
            name = open_run.pop(e.value, None)
            if name is not None:
                out.append(_span(pid, t, "E", e.cycle, name))
            label = "done" if e.kind == JOB_DONE else "failed"
            out.append({"ph": "i", "ts": e.cycle, "pid": pid, "tid": t,
                        "name": f"{label}: {e.detail or ''}".rstrip(": "),
                        "s": "t"})
    for job_id, name in open_run.items():
        out.append(_span(pid, job_id, "E", last_ts, name))
    return out


def write_chrome_trace(path: str, events: list[dict]) -> str:
    """Write events as a Perfetto-loadable Chrome trace JSON file."""
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


# -- validation (the CI schema gate) -----------------------------------------------
_KNOWN_PHASES = {"B", "E", "X", "i", "I", "C", "M", "b", "e", "n", "s", "t", "f"}


def validate_chrome_trace(payload: object) -> int:
    """Validate a parsed Chrome trace; returns the event count.

    Checks the contract Perfetto's importer relies on: a ``traceEvents``
    list (or a bare array), the required keys on every event, known
    phase codes, and balanced ``B``/``E`` nesting per (pid, tid) track.
    Raises ``ValueError`` on the first violation.
    """
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("trace object has no 'traceEvents' list")
    elif isinstance(payload, list):
        events = payload
    else:
        raise ValueError(f"trace root is {type(payload).__name__}, "
                         "expected object or array")
    if not events:
        raise ValueError("trace contains no events")

    depth: dict[tuple, int] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event #{i} is not an object")
        for key in REQUIRED_KEYS:
            if key not in event:
                raise ValueError(f"event #{i} missing required key {key!r}")
        ph = event["ph"]
        if ph not in _KNOWN_PHASES:
            raise ValueError(f"event #{i} has unknown phase {ph!r}")
        track = (event["pid"], event["tid"])
        if ph == "B":
            depth[track] = depth.get(track, 0) + 1
        elif ph == "E":
            depth[track] = depth.get(track, 0) - 1
            if depth[track] < 0:
                raise ValueError(f"track {track}: 'E' without matching 'B' "
                                 f"at event #{i}")
    unbalanced = {t: d for t, d in depth.items() if d != 0}
    if unbalanced:
        raise ValueError(f"unbalanced B/E spans on tracks: {unbalanced}")
    return len(events)


def validate_trace_file(path: str) -> int:
    """Load and validate a trace JSON file; returns the event count."""
    with open(path) as fh:
        return validate_chrome_trace(json.load(fh))


# -- CSV timelines ---------------------------------------------------------------
def timeline_rows(samples: ProbeSeries) -> tuple[list[str], list[list[int]]]:
    """(headers, rows) for the sampled timeline, one row per sample."""
    num_scheds = len(samples.sched_issued[0]) if samples.sched_issued else 0
    headers = list(samples.columns) + [
        f"sched{j}_issued" for j in range(num_scheds)
    ]
    rows = []
    for i in range(len(samples)):
        row = [getattr(samples, name)[i] for name in samples.columns]
        row.extend(samples.sched_issued[i])
        rows.append(row)
    return headers, rows


def write_timeline_csv(path: str, samples: ProbeSeries) -> str:
    """Write the probe timeline as CSV."""
    headers, rows = timeline_rows(samples)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)
    return path
