"""The environment a result was measured in, recorded with every result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np


def git_commit(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read from its files; else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        return "unknown"


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def record(root: Path, seed: int) -> dict:
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": cpu_count(),
        "seed": seed,
    }


def differences(a: dict, b: dict) -> list[str]:
    """One line per environment field that differs between two records."""
    return [
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in sorted(set(a) | set(b))
        if a.get(key) != b.get(key)
    ]
