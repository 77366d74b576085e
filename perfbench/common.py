"""Helpers shared by every workload: paths, statistics, stamps, output."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources; the benchmark builds nothing, it imports them.
SRC = ROOT / "src"
#: Scratch outputs of a run (reports, span dumps); listed in .gitignore.
RUN_DIR = ROOT / ".perfbench-run"

#: How many fresh processes each run sets up to take the median set-up.
SETUP_REPEATS = 3


def program_env() -> Dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_dir() -> Path:
    """The run's scratch directory (created on first use)."""
    RUN_DIR.mkdir(exist_ok=True)
    return RUN_DIR


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of an ascending sequence."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (99.0, 95.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def sha256(chunks: Sequence[bytes]) -> str:
    """Hex digest over byte chunks in order."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def stamp(seed: int) -> Dict[str, object]:
    """What a result needs to be reproduced: host shape and versions."""
    import numpy

    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def metric(value: float, unit: str) -> Dict[str, object]:
    """One metric entry of the result line."""
    return {"value": float(value), "unit": unit}


def say(line: str) -> None:
    """A human-readable report line (never the last line of stdout)."""
    print(line, flush=True)


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Dict[str, object]]) -> None:
    """Print the result object as the last line of stdout."""
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics},
                     sort_keys=True), flush=True)


def setup_times(workload: str, seed: int, seconds: int,
                repeats: int = SETUP_REPEATS) -> List[float]:
    """Set-up of ``repeats`` fresh processes (process start until the
    first timed operation could begin), in reference seconds."""
    from perfbench.speed import Bursts

    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds)],
            stdout=subprocess.PIPE, env=program_env(), text=True)
        try:
            word, _, probe = proc.stdout.readline().partition(" ")
            proc.stdout.read()
        finally:
            code = proc.wait()
        if word != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed "
                               f"(exit {code})")
        probe = json.loads(probe)
        bursts = Bursts(probe["starts"], probe["durations"])
        times.append(bursts.seconds(started, probe["ready"]))
    return times
