"""Helpers shared by the workload modules."""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the program broke a property the benchmark checks."""


def write_yaml(path: Path, mapping: dict) -> None:
    # JSON is a subset of YAML, so the program's YAML loader reads this as is.
    path.write_text(json.dumps(mapping, indent=1) + "\n", encoding="utf-8")


def read_rows(path: Path) -> np.ndarray:
    """The (records, cells) matrix of a field dump."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)
