"""Numerical tolerances shared across the toolkit.

Every comparison threshold lives in one record so tests and callers agree on
what "equal" means. The defaults are deliberate: state norms are checked much
tighter than operator defects, and solver certificates sit well above both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    unit_norm: float = 1e-12        # allowed deviation of a state norm from 1
    phase_cutoff: float = 1e-12     # amplitude modulus below which phase fixing skips an entry
    state_equality: float = 1e-10   # componentwise gap between canonical representatives
    unitarity: float = 1e-10        # max-norm of U^dag U - I
    hermiticity: float = 1e-10      # max-norm of H - H^dag
    countering_slack: float = 1e-12 # slack in payoff comparisons for countering
    indifference: float = 1e-12     # contraction-vector norm below which a player is indifferent
    cycle_match: float = 1e-8       # per-factor distance under which two plays close a cycle
    solver_epsilon: float = 1e-8    # gain bound required of exact-solver certificates
    simplex_negative: float = 1e-12 # most negative entry a probability vector may hold
    simplex_sum: float = 1e-10      # allowed deviation of a probability vector's sum from 1
    support_weight: float = 1e-9    # most negative solved weight a support may keep
    equilibrium_match: float = 1e-8 # max-norm gap under which two equilibria are one
    eigenvalue_tie: float = 1e-12   # gap under which top eigenvalues form one block
    flat: float = 1e-14             # facet normal length, or ray-to-plane rate, read as zero
    centered: float = 1e-15         # radius under which a point sits at the hull centre
    ball_slack: float = 1e-9        # relative slack of the closed-ball and inside-hull checks


DEFAULT_TOLS = Tolerances()


def check_threshold(name: str, value: float) -> None:
    """Refuse a caller's threshold unless it is a finite real >= 0 (NaN is neither)."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite real >= 0, got {value!r}")
