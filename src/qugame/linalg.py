"""Complex state-vector kernel: qudit states, product plays, unitaries, metrics.

Conventions used throughout the package:

* state vectors are 1-d complex arrays; an inner product conjugates its
  first argument, as ``np.vdot(a, b)`` does, so it is linear in ``b``;
* a projective state is represented by its canonical unit-norm vector, whose
  first amplitude of modulus above the phase cutoff is real and positive;
* all randomness is drawn from an explicitly seeded numpy generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS

__all__ = [
    "PureState",
    "UnitaryOperator",
    "HermitianOperator",
    "ProductPlay",
    "tensor_product",
    "partial_contraction",
    "fubini_study_distance",
    "matrix_exponential_unitary",
    "haar_random_state",
    "haar_random_unitary",
    "canonicalize_phase",
    "as_rng",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce a seed (or an existing generator) into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:   # numpy's error names no field
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def _as_vector(v) -> np.ndarray:
    """Accept a PureState or array-like and return a finite 1-d complex array."""
    if isinstance(v, PureState):
        return v.amplitudes
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d state vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state vector has non-finite entries")
    return arr


def _unit_norm(arr: np.ndarray) -> np.ndarray:
    """``arr`` as it is, refused unless its norm is within ``Tolerances.unit_norm`` of 1."""
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > DEFAULT_TOLS.unit_norm:
        raise ValueError(f"state vector is not unit norm: |v| = {norm!r}")
    return arr


def _fixed_phase(arr: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first significant amplitude is real positive."""
    for k, a in enumerate(arr):
        m = abs(a)
        if m > DEFAULT_TOLS.phase_cutoff:
            if a.imag == 0.0 and a.real > 0.0:
                # already canonical; the rotation below would not be an exact
                # no-op (complex division rounds even for x/x), so skip it to
                # keep canonicalization idempotent at the bit level
                return arr
            rotated = arr * (a.conjugate() / m)
            # rounding leaves ~1 ulp of imaginary residue on the pivot; pin it
            # to the real axis so the short circuit above fires on a rerun
            rotated[k] = rotated[k].real
            return rotated
    raise ValueError("cannot fix the phase of a (numerically) zero vector")


@dataclass(frozen=True, eq=False, repr=False)
class PureState:
    """Canonical unit-norm representative of a projective qudit state.

    The constructor validates the norm (it never rescales silently; use
    :func:`canonicalize_phase` to normalize a raw vector) and applies the
    canonical phase. Instances are frozen; equality compares canonical
    representatives componentwise within the state-equality tolerance.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(_as_vector(self.amplitudes), dtype=np.complex128)
        if arr.size < 2:
            raise ValueError("a qudit state needs dimension >= 2")
        arr = _fixed_phase(_unit_norm(arr))
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, PureState):
            return NotImplemented
        if self.dimension != other.dimension:
            return False
        gap = np.abs(self.amplitudes - other.amplitudes).max()
        return bool(gap <= DEFAULT_TOLS.state_equality)

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    def __repr__(self) -> str:
        return f"PureState({np.array2string(self.amplitudes, precision=6)})"


@dataclass(frozen=True, eq=False, repr=False)
class _SquareOperator:
    """Finite square complex matrix, stored read-only once the subclass's
    ``_check_defect`` has accepted it."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        self._check_defect(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dimension})"


@dataclass(frozen=True, eq=False, repr=False)
class UnitaryOperator(_SquareOperator):
    """Square complex matrix validated as unitary at construction."""

    @staticmethod
    def _check_defect(m: np.ndarray) -> None:
        with np.errstate(over="ignore", invalid="ignore"):   # inf or NaN is refused below
            defect = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if not defect <= DEFAULT_TOLS.unitarity:
            raise ValueError(f"matrix is not unitary: max |U^H U - I| = {defect:.3e}")


@dataclass(frozen=True, eq=False, repr=False)
class HermitianOperator(_SquareOperator):
    """Square complex matrix validated as Hermitian at construction."""

    @staticmethod
    def _check_defect(m: np.ndarray) -> None:
        with np.errstate(over="ignore"):   # inf is refused below
            defect = np.abs(m - m.conj().T).max()
        if not defect <= DEFAULT_TOLS.hermiticity:
            raise ValueError(f"matrix is not Hermitian: max |H - H^H| = {defect:.3e}")


@dataclass(frozen=True, eq=False, repr=False)
class ProductPlay:
    """One pure state per player; the joint play is their tensor product.

    A play needs at least two factors: single-agent problems are outside the
    game-shaped API.
    """

    factors: tuple[PureState, ...]

    def __post_init__(self):
        states = tuple(
            f if isinstance(f, PureState) else PureState(f) for f in self.factors
        )
        if len(states) < 2:
            raise ValueError("a product play needs at least two factors")
        object.__setattr__(self, "factors", states)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dimension for f in self.factors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductPlay):
            return NotImplemented
        return self.dims == other.dims and all(
            a == b for a, b in zip(self.factors, other.factors)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"ProductPlay(dims={self.dims})"


def _outer(a, b) -> np.ndarray:
    """``np.kron`` of two vectors, or of each column pair of two column stacks
    (a one-column stack broadcasts), as one outer product: the same products."""
    product = np.asarray(a)[:, None] * np.asarray(b)[None]
    return product.reshape(-1, *product.shape[2:])


def tensor_product(factors: Sequence) -> np.ndarray:
    """Kronecker product of the given vectors, in order."""
    arrs = [_as_vector(f) for f in factors]
    if not arrs:
        raise ValueError("tensor product of an empty sequence is undefined")
    return reduce(_outer, arrs)


def partial_contraction(target, play: ProductPlay, i: int) -> np.ndarray:
    """Contract a joint-space vector against every play factor except slot ``i``.

    Returns the vector ``v`` satisfying, for every state ``q`` of player ``i``,

        np.vdot(target, tensor_with_slot_i_replaced_by(q)) == np.vdot(v, q)

    ``v`` is not normalized and may be (numerically) zero.
    """
    dims = play.dims
    if not 0 <= i < len(dims):
        raise IndexError(f"player index {i} out of range for {len(dims)} players")
    t = _as_vector(target)
    if t.size != math.prod(dims):
        raise ValueError(f"target has dimension {t.size}, play joint dimension {math.prod(dims)}")
    tens = t.reshape(dims)
    # Contract from the highest axis down so remaining axis numbers stay valid.
    for j in reversed(range(len(dims))):
        if j == i:
            continue
        tens = np.tensordot(tens, np.conj(play.factors[j].amplitudes), axes=([j], [0]))
    return np.asarray(tens, dtype=np.complex128).reshape(dims[i])


def fubini_study_distance(p, q) -> float:
    """Projective distance arccos |<p, q>| between unit states, in [0, pi/2].

    Computed as atan2 of the orthogonal-residual norm against the overlap
    magnitude rather than arccos of the overlap alone: arccos loses half the
    significant digits near coincident states, which would leave a fixed
    point of the dynamics with a spurious step size around 1e-8.
    """
    av, bv = _as_vector(p), _as_vector(q)
    if av.size != bv.size:
        raise ValueError(f"dimension mismatch: {av.size} vs {bv.size}")
    return float(_projective_distances(av, bv))


def _row_norms(z: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (last axis) of a complex array, bit for bit
    ``np.linalg.norm`` of each row: the dot products of the real and imaginary parts."""
    return np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))


def _projective_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`fubini_study_distance` of raw unit vectors row by row (last axis,
    broadcasting), unchecked: ``vecdot`` as ``np.vdot``, the modulus by ``hypot``."""
    inner = np.vecdot(a, b)
    residual = b - a * inner[..., None]
    return np.arctan2(_row_norms(residual), np.hypot(inner.real, inner.imag))


def _bloch_rows(amplitudes: np.ndarray) -> np.ndarray:
    """Rows (1, x, y, z) of qubit Bloch vectors, shape (..., 2) -> (..., 4).

    The arithmetic is that of conj(a) * b and abs(a) ** 2 on numpy scalars (no
    fused multiply-add; |a|^2 as pow(hypot(re, im), 2)), so one state's Bloch
    vector has the same bits whether it is embedded alone or in an array.
    """
    a, b = amplitudes[..., 0], amplitudes[..., 1]
    re = a.real * b.real + a.imag * b.imag
    im = a.real * b.imag - a.imag * b.real
    a2, b2 = (np.float_power(np.hypot(c.real, c.imag), 2.0) for c in (a, b))
    return np.stack([np.ones_like(a2), 2.0 * re, 2.0 * im, a2 - b2], axis=-1)


def matrix_exponential_unitary(h: HermitianOperator | np.ndarray, t: float) -> UnitaryOperator:
    """exp(-i t H) for Hermitian H, via eigendecomposition.

    Exact unitarity up to the eigensolver's orthonormality, which comfortably
    beats the unitarity tolerance for desk-scale dimensions.
    """
    op = h if isinstance(h, HermitianOperator) else HermitianOperator(h)
    if not np.isfinite(t):
        raise ValueError("time parameter must be finite")
    w, v = np.linalg.eigh(op.matrix)
    with np.errstate(over="ignore"):   # inf is refused below
        phase = w * float(t)
    if not np.all(np.isfinite(phase)):
        raise ValueError("phase eigenvalue * time exceeds the float maximum")
    u = (v * np.exp(-1j * phase)) @ v.conj().T
    return UnitaryOperator(u)


def haar_random_state(dimension: int, seed: int | np.random.Generator | None) -> PureState:
    """Haar-distributed pure state: normalized complex Gaussian vector."""
    if dimension < 2:
        raise ValueError("a qudit state needs dimension >= 2")
    return PureState(_haar_rows((dimension,), 1, as_rng(seed))[0][0])


def _unit_rows(z: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Each nonzero row of a ``(k, d)`` complex stack divided by its ``norms`` (the
    :func:`_row_norms` of ``z``) and phase-fixed, bit for bit :func:`canonicalize_phase`
    of each row: pivot modulus by ``hypot``, the scalar phase rule for a tiny or real pivot."""
    rows = z / norms[:, None]
    pivot = rows[:, 0]
    modulus = np.hypot(pivot.real, pivot.imag)
    scalar = (modulus <= DEFAULT_TOLS.phase_cutoff) | (pivot.imag == 0.0)
    fixed = rows * (pivot.conj() / np.where(scalar, 1.0, modulus))[:, None]
    fixed[:, 0] = fixed[:, 0].real
    for k in np.flatnonzero(scalar):
        fixed[k] = _fixed_phase(rows[k])
    return fixed


def _haar_rows(dims: Sequence[int], count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """``count`` rounds of one Haar state per entry of ``dims``, as one ``(count, d)``
    stack of canonical rows per entry, from one ``(count, sum 2 d)`` normal draw (each
    state's real parts, then its imaginary parts): the package's only Haar state drawer."""
    draw = rng.standard_normal((count, 2 * sum(dims)))
    stacks, at = [], 0
    for d in dims:
        z = draw[:, at:at + d] + 1j * draw[:, at + d:at + 2 * d]
        stacks.append(_unit_rows(z, _row_norms(z)))
        at += 2 * d
    return stacks


def haar_random_unitary(dimension: int, seed: int | np.random.Generator | None) -> UnitaryOperator:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if dimension < 1:
        raise ValueError("dimension must be positive")
    rng = as_rng(seed)
    z = rng.standard_normal((dimension, dimension)) + 1j * rng.standard_normal((dimension, dimension))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    # fixing the R diagonal phases makes the distribution Haar rather than QR-biased
    return UnitaryOperator(q * (d / np.abs(d)))


def canonicalize_phase(v) -> PureState:
    """Normalize a nonzero vector and return its canonical projective representative."""
    arr = _as_vector(v)
    norm = np.linalg.norm(arr)
    if norm < DEFAULT_TOLS.phase_cutoff:
        raise ValueError("cannot canonicalize a (numerically) zero vector")
    return PureState(arr / norm)
