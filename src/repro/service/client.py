"""Blocking client for the simulation daemon.

The daemon is asyncio; its clients deliberately are not.  ``repro
submit`` / ``repro status``, the test suite, and any script that wants
a record synchronously open one socket, write one-line JSON frames, and
read one-line responses — no event loop required on the consuming side.

Error frames are re-raised as their typed
:class:`repro.errors.ServiceError` originals (the ``kind`` string is
the lookup key), so ``except ServiceQueueFullError`` works across the
wire exactly as it would in-process.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field

from repro.errors import ServiceProtocolError, ServiceUnavailableError
from repro.harness.spec import JobSpec
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    job_to_wire,
    raise_wire_error,
)


@dataclass
class SubmitResult:
    """Everything one followed submission produced."""

    jobs: list[dict]                 # the submit response's job entries
    events: list[dict] = field(default_factory=list)
    # job_id -> final "done"/"failed" event (store hits resolve from
    # the response entry itself, which is synthesized into this map).
    final: dict[int, dict] = field(default_factory=dict)

    @property
    def failed(self) -> list[dict]:
        return [f for f in self.final.values() if f.get("status") == "failed"]

    @property
    def ok(self) -> bool:
        return bool(self.final) and not self.failed


class ServiceClient:
    """One connection to a running daemon (context-manager friendly)."""

    def __init__(
        self,
        socket_path: str | None = None,
        host: str | None = None,
        port: int = 0,
        connect_timeout: float = 5.0,
        io_timeout: float | None = 300.0,
    ) -> None:
        if socket_path is None and host is None:
            raise ValueError("client needs a socket path or a host")
        self._socket_path = socket_path
        self._host, self._port = host, port
        self._connect_timeout = connect_timeout
        self._io_timeout = io_timeout
        self._sock: socket.socket | None = None
        self._buffer = b""

    # -- plumbing -------------------------------------------------------------
    def connect(self) -> "ServiceClient":
        sock = None
        try:
            if self._socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self._connect_timeout)
                sock.connect(self._socket_path)
            else:
                sock = socket.create_connection(
                    (self._host, self._port), timeout=self._connect_timeout
                )
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise ServiceUnavailableError(
                f"cannot reach the simulation service "
                f"({self._socket_path or f'{self._host}:{self._port}'}): "
                f"{exc}"
            )
        sock.settimeout(self._io_timeout)
        self._sock = sock
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _send(self, frame: dict) -> None:
        if self._sock is None:
            self.connect()
        self._sock.sendall(encode_frame(frame))

    def _recv(self) -> dict:
        """Read one frame; raises the typed error for ``ok: false``."""
        while b"\n" not in self._buffer:
            if len(self._buffer) > MAX_FRAME_BYTES:
                raise ServiceProtocolError("oversized frame from server")
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                raise ServiceUnavailableError(
                    "timed out waiting for the service to respond"
                )
            if not chunk:
                raise ServiceUnavailableError(
                    "service closed the connection mid-conversation"
                )
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        frame = decode_frame(line)
        if frame.get("ok") is False:
            raise_wire_error(frame)
        return frame

    def request(self, frame: dict) -> dict:
        self._send(frame)
        return self._recv()

    # -- operations -----------------------------------------------------------
    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def status(self) -> dict:
        return self.request({"op": "status"})

    def trace(self) -> dict:
        """The daemon's job-lifecycle Chrome trace (Perfetto-loadable)."""
        return self.request({"op": "trace"})["trace"]

    def submit(
        self,
        jobs: list[JobSpec] | None = None,
        experiment: str | None = None,
        apps: list[str] | None = None,
        timeout: float | None = None,
        follow: bool = True,
        on_event=None,
    ) -> SubmitResult:
        """Submit jobs (or a named experiment) and optionally follow the
        event stream until every submitted job is terminal.

        ``on_event`` is called with each streamed event frame as it
        arrives — the live-progress hook ``repro submit`` prints from.
        """
        frame: dict = {"op": "submit", "follow": follow}
        if experiment is not None:
            frame["experiment"] = experiment
            if apps:
                frame["apps"] = list(apps)
        else:
            frame["jobs"] = [job_to_wire(j) for j in jobs or []]
        if timeout is not None:
            frame["timeout"] = timeout
        response = self.request(frame)
        result = SubmitResult(jobs=response["jobs"])
        for entry in response["jobs"]:
            if entry["status"] in ("done", "failed"):
                result.final[entry["job_id"]] = entry
        if not follow:
            return result
        pending = {
            e["job_id"] for e in response["jobs"]
            if e["status"] not in ("done", "failed")
        }
        while True:
            event = self._recv()
            if event.get("event") == "batch":
                break
            result.events.append(event)
            if on_event is not None:
                on_event(event)
            if event.get("status") in ("done", "failed"):
                result.final[event["job_id"]] = event
                pending.discard(event["job_id"])
        return result
