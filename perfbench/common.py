"""Pieces every workload shares: spans, statistics, the run context and
the ``repro serve`` child process.

Nothing here imports the program under test at module level, so
``run.py`` can pin BLAS threads and locate the checkout's ``src`` before
numpy or ``repro`` load.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import re
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: environment variables that size the BLAS/OpenMP thread pools; all are
#: pinned to one thread so a run never competes with itself for the CPUs.
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class CheckFailed(Exception):
    """A program output disagreed with the benchmark's own computation."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
class Tracer:
    """In-memory spans recorded around calls into the program.

    A span is ``[name, start, end, parent, attrs]`` with times from
    ``time.perf_counter()`` and ``parent`` the index of the enclosing span
    on the same thread (``-1`` at the top).  Calls are wrapped by patching
    the public function or method on its module or class; a wrapper only
    records while ``enabled`` is set, so untraced phases pay one attribute
    read per call.  Spans are written out once, when the run ends.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attrs: Optional[dict] = None) -> int:
        stack = self._stack()
        record = [name, time.perf_counter(), None, stack[-1] if stack else -1, attrs]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        attrs: Optional[Callable[..., dict]] = None,
        after: Optional[Callable[[object], dict]] = None,
    ) -> None:
        """Patch ``owner.attr`` so each call records a span called ``name``.

        ``attrs(*args, **kwargs)`` may attach fields to the span (e.g. the
        model class a ``Trainer.fit`` call trains) and ``after(result)``
        fields read from the call's result (e.g. a work count).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            fields = attrs(*args, **kwargs) if attrs else {}
            index = tracer.begin(name, fields)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                fields.update(after(result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------- #
    def closed(self, name: str) -> List[list]:
        return [span for span in self.spans if span[0] == name and span[2] is not None]

    def durations_ms(self, name: str, where: Optional[Callable[[list], bool]] = None) -> List[float]:
        return [
            1e3 * (span[2] - span[1])
            for span in self.closed(name)
            if where is None or where(span)
        ]

    def ancestor(self, span: list, name: str) -> Optional[list]:
        parent = span[3]
        while parent >= 0:
            candidate = self.spans[parent]
            if candidate[0] == name:
                return candidate
            parent = candidate[3]
        return None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (numpy's default)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def windowed_rate(times: Sequence[float], start: float, end: float, window: float = 1.0) -> float:
    """Median events per second over the whole ``window``-second slices
    of ``[start, end)``; a single pause then moves one slice, not the rate."""
    slices = int((end - start) // window)
    if slices < 1:
        return len(times) / max(end - start, 1e-9)
    counts = [0] * slices
    for moment in times:
        slot = int((moment - start) // window)
        if 0 <= slot < slices:
            counts[slot] += 1
    return median([count / window for count in counts])


# ---------------------------------------------------------------------- #
# Process facts
# ---------------------------------------------------------------------- #
def process_start_perf() -> float:
    """``time.perf_counter()`` reading at which this process was started."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    start_since_boot = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    since_boot = time.clock_gettime(time.CLOCK_BOOTTIME)
    return time.perf_counter() - (since_boot - start_since_boot)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(token) for token in handle.read().split()]
    except OSError:
        return []


def pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def read_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(root: Path) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": read_commit(root),
    }


# ---------------------------------------------------------------------- #
# Run context
# ---------------------------------------------------------------------- #
@dataclass
class Context:
    """What a workload receives from ``run.py``."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    src: Path
    workdir: Path
    started_at: float
    tracer: Tracer = field(default_factory=Tracer)

    def traced_at(self, first_op: float, moment: float, window: float = 1.0) -> bool:
        """Whether ``moment`` falls in a traced window.  A traced run
        alternates untraced and traced windows, untraced first, so warm-up
        and drift fall on both sides of the tracing-overhead comparison."""
        return self.trace and int((moment - first_op) // window) % 2 == 1

    def child_env(self) -> Dict[str, str]:
        """Environment for ``repro`` child processes: the checkout's
        sources, unbuffered stdout (the ready line must arrive at once)
        and the same one-thread BLAS pin."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["PYTHONUNBUFFERED"] = "1"
        for var in BLAS_VARS:
            env[var] = "1"
        return env


@dataclass
class Outcome:
    """A workload's result: metrics for the last line plus the report."""

    attempted: int
    failed: int
    metrics: Dict[str, tuple]  # name -> (value, unit)
    report: Dict[str, object]


# ---------------------------------------------------------------------- #
# The ``repro serve`` child
# ---------------------------------------------------------------------- #
_READY = re.compile(r"^serving .* at (http://[^\s]+)\s*$")


class ServeChild:
    """One ``python -m repro.cli serve`` process.

    Readiness is the "serving … at URL" line the CLI prints once the
    socket is bound (and, for ``--workers``, the pool is up); nothing is
    polled.  :meth:`stop` sends SIGTERM, waits for the drain, then waits
    for any worker processes the server had forked.
    """

    def __init__(self, ctx: Context, args: Sequence[str], timeout: float = 120.0) -> None:
        self.log_path = ctx.workdir / f"serve-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *args],
            cwd=str(ctx.workdir),
            env=ctx.child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.url = self._await_ready(timeout)
        self.host, port = self.url.split("//", 1)[1].rsplit(":", 1)
        self.port = int(port.rstrip("/"))

    def _await_ready(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.stop()
                    raise RuntimeError("repro serve printed no ready line in time")
                if not selector.select(remaining):
                    continue
                chunk = os.read(fd, 65536)
                if not chunk:
                    self.stop()
                    raise RuntimeError(
                        "repro serve exited before it was ready:\n" + self.stderr_tail()
                    )
                buffer += chunk
                *lines, buffer = buffer.split(b"\n")
                for line in lines:
                    match = _READY.match(line.decode("utf-8", "replace"))
                    if match:
                        return match.group(1)

    def stderr_tail(self) -> str:
        self._log.flush()
        try:
            return self.log_path.read_text(errors="replace")[-4000:]
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus the workers it forked."""
        return sum(
            proc_peak_rss_mb(pid) for pid in [self.proc.pid, *child_pids(self.proc.pid)]
        )

    def stop(self, timeout: float = 30.0) -> None:
        if self.proc.poll() is None:
            workers = child_pids(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
            deadline = time.monotonic() + timeout
            for pid in workers:
                while pid_alive(pid) and time.monotonic() < deadline:
                    time.sleep(0.01)
                if pid_alive(pid):
                    os.kill(pid, signal.SIGKILL)
        elif self.proc.stdout is not None and not self.proc.stdout.closed:
            self.proc.communicate()
        self._log.close()
