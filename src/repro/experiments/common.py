"""Shared helpers for the per-figure experiment modules."""

from __future__ import annotations

__all__ = ["Scale", "resolve_scale"]


#: Experiment scale presets: "small" runs in seconds for CI/benchmarks,
#: "paper" replays the full section-IV configuration.
Scale = str
_SCALES = ("small", "paper")


def resolve_scale(scale: Scale, small: int, paper: int) -> int:
    """Pick a trace size for the given scale."""
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r} (choose from {_SCALES})")
    return small if scale == "small" else paper
