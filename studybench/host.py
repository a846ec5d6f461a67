"""Host facts recorded with every benchmark result.

Run-to-run spread on a shared host is mostly CPU speed, not scheduling,
so each result carries the facts needed to tell the two apart: cores,
interpreter, the code's git revision, CPU time beside wall time (from
the repetitions) and the steal time ``/proc/stat`` reports over the run.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Dict, Optional


def steal_jiffies() -> Optional[int]:
    """Cumulative steal time of all CPUs, or None where unavailable."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    # cpu user nice system idle iowait irq softirq steal ...
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8])


def git_sha(root: str) -> Optional[str]:
    """The checked-out commit, or None outside a repository. Git's
    search for a repository stops at *root*, so a checkout that is not
    one never reads its parent directories."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def facts(root: str) -> Dict[str, object]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "python": platform.python_version(),
        "git_sha": git_sha(root),
    }
