"""The hook points the benchmark's layer tracer relies on.

``perfbench/tracing.py`` patches module attributes and class methods of
the live tree by name (``orchestrator._simulate``, ``daemon._simulate``,
``daemon.materialize_job``, ``Orchestrator.run_jobs``, ...), and
``perfbench/loads.py`` swaps ``SimulationService._new_pool`` for a
thread pool so a traced service runs every job in-process.  A rename,
or an executor that binds ``_simulate`` before the tracer patches it,
silently empties the benchmark's per-layer metrics; these tests trip
instead.
"""

from __future__ import annotations

import asyncio
import importlib.util
import os
import sys

from repro.harness import orchestrator
from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import RunRecord
from repro.service import daemon
from repro.service.daemon import DONE, ServiceConfig

from tests.service.conftest import ThreadPoolService, make_job

TRACING_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__)))),
    "perfbench", "tracing.py",
)


def _tracing_module():
    spec = importlib.util.spec_from_file_location("_bench_tracing",
                                                  TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


def _hooks():
    return (orchestrator._simulate, orchestrator.materialize_job,
            daemon._simulate, daemon.materialize_job,
            Orchestrator.__dict__["run_jobs"])


def test_layer_spans_install_uninstall_and_trace_a_daemon_job(tmp_path):
    tracing = _tracing_module()
    before = _hooks()
    tracer = tracing.Tracer()
    config = ServiceConfig(
        cache_path=str(tmp_path / "cache.json"), workers=1, seed=7,
        target_ctas_per_sm=2, flush_interval=0,
    )

    async def main():
        service = ThreadPoolService(config)
        await service.start()     # the executor exists before the patch
        try:
            with tracer:
                assert _hooks() != before
                (state, _), = service.submit([make_job()])
                await state.task
        finally:
            await service.aclose()
        return state

    state = asyncio.run(main())
    assert state.status == DONE and isinstance(state.record, RunRecord)
    jobs = [s for s in tracer.spans if s.name == "harness.job"]
    assert [s.job for s in jobs] == [make_job().label]
    assert _hooks() == before
