"""Shared plumbing for the benchmark: paths, hermetic environment,
CPU pinning, scratch directories, statistics and set-up probes.

Nothing here imports ``repro``: the environment must be cleaned before
the program is imported (the result cache reads its knobs at import).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median  # noqa: F401 - shared by the workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
#: Scratch space for fresh cache directories; removed when a run ends.
SCRATCH = ROOT / ".perfbench_tmp"
#: Span files written at the end of traced runs.
OUT = ROOT / ".perfbench_out"

#: The annotated library every in-process workload maps and certifies on.
LIBRARY = "ACTEL"
MAX_DEPTH = 5
OBJECTIVES = ("area", "delay")
#: Catalog designs taking over 0.1 s to map on ACTEL at depth 5 (scsi
#: stands for the two largest; dean-ctrl would add ~14 s per pass).
MAP_DESIGNS = ("dme-fast-opt", "dme-fast", "pe-send-ifc", "abcs",
               "oscsi-ctrl", "scsi")
#: Designs certify-actel plants a hazard in.  scsi's only output small
#: enough to check exhaustively needs 12+ Shannon products, and
#: certifying that variant takes 27-67 s.
PLANTED_DESIGNS = MAP_DESIGNS[:-1]
#: The small design behind every warm-up and set-up request.
WARMUP_DESIGN = "dme"


def checkout_problem() -> str | None:
    """Why this directory cannot run the benchmark, or ``None``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program source at {SRC / 'repro'}: run from a full checkout"
    if not (DATA / "manifest.json").is_file():
        return f"missing committed inputs {DATA / 'manifest.json'}"
    return None


def hermetic_env() -> dict:
    """The environment every benchmark process runs the program under.

    Drops every ``REPRO_*`` knob (annotation cache, cache root, result
    cache sizing), fixes string hashing so set iteration order repeats,
    points imports at this checkout's source and keeps any default
    cache root inside the scratch directory.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    env["XDG_CACHE_HOME"] = str(SCRATCH / "xdg")
    return env


def ensure_hermetic() -> None:
    """Re-execute this interpreter under :func:`hermetic_env` if needed."""
    env = hermetic_env()
    if any(os.environ.get(k) != v for k, v in env.items()) or any(
        k.startswith("REPRO_") for k in os.environ
    ):
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def precompile() -> None:
    """Byte-compile the program so no timed import pays for compiling."""
    import compileall

    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)


def cpus() -> tuple[int, int]:
    """Two CPUs to keep the program and the load apart (equal on 1 CPU)."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-1], allowed[0]


def pin(cpu: int, pid: int = 0) -> None:
    os.sched_setaffinity(pid, {cpu})


class Scratch:
    """Per-run scratch root under :data:`SCRATCH`, removed on exit."""

    def __init__(self, label: str) -> None:
        self.root = SCRATCH / f"{label}-{os.getpid()}"
        self._count = 0

    def __enter__(self) -> "Scratch":
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    def fresh(self, name: str) -> Path:
        """A new, empty directory (one per call)."""
        self._count += 1
        path = self.root / f"{name}-{self._count}"
        path.mkdir()
        return path


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def tail(values) -> tuple[float, int, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, samples, percentile)``.  Below 22 samples that
    percentile would not be above the median, so the maximum is
    reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 22:
        return ordered[-1], n, 100.0
    return ordered[n - 11], n, 100.0 * (n - 10) / n


def status_kib(field: str, pid: int | str = "self") -> int:
    """A ``VmHWM``/``VmRSS``-style field of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


# ----------------------------------------------------------------------
# Inputs and set-up probes
# ----------------------------------------------------------------------


def load_manifest() -> dict:
    return json.loads((DATA / "manifest.json").read_text())


def data_text(name: str) -> str:
    return (DATA / name).read_text()


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Terminate a child and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()


def probe_setup(kind: str, scratch: Scratch, cpu: int, speed) -> float:
    """Seconds from spawning a fresh interpreter to its first answer.

    The child (``probe.py``) imports the program, builds the library
    with a fresh, empty annotation cache and answers one small request;
    the clock stops when it reports the answer.  ``speed`` (a
    ``speed.Sampler`` on ``cpu``) converts the interval to seconds at
    the reference host speed.
    """
    cache_dir = scratch.fresh("probe")
    command = [sys.executable, str(HERE / "probe.py"), kind, str(cache_dir)]
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=hermetic_env())
    try:
        pin(cpu, proc.pid)
        line = proc.stdout.readline()
        finished = time.perf_counter()
        proc.wait(60)
    finally:
        stop(proc)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe {kind!r} failed: {line!r}")
    return speed.corrected(started, finished)
