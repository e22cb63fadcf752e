"""Complex state-vector kernel: qudit states, product plays, unitaries, metrics.

Conventions used throughout the package:

* state vectors are 1-d complex arrays; the inner product conjugates its
  first argument, so ``inner_product(a, b)`` is linear in ``b``;
* a projective state is represented by its canonical unit-norm vector, whose
  first amplitude of modulus above the phase cutoff is real and positive;
* all randomness is drawn from an explicitly seeded numpy generator.
"""
from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOLS

__all__ = [
    "PureState",
    "UnitaryOperator",
    "HermitianOperator",
    "ProductPlay",
    "inner_product",
    "tensor_product",
    "apply_unitary",
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


class PureState:
    """Canonical unit-norm representative of a projective qudit state.

    The constructor validates the norm (it never rescales silently; use
    :func:`canonicalize_phase` to normalize a raw vector) and applies the
    canonical phase. Instances are immutable; equality compares canonical
    representatives componentwise within the state-equality tolerance.
    """

    __slots__ = ("_amplitudes",)

    def __init__(self, amplitudes):
        arr = np.array(_as_vector(amplitudes), dtype=np.complex128)
        if arr.size < 2:
            raise ValueError("a qudit state needs dimension >= 2")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > DEFAULT_TOLS.unit_norm:
            raise ValueError(f"state vector is not unit norm: |v| = {norm!r}")
        arr = _fixed_phase(arr)
        arr.setflags(write=False)
        self._amplitudes = arr

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @property
    def dimension(self) -> int:
        return self._amplitudes.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, PureState):
            return NotImplemented
        if self.dimension != other.dimension:
            return False
        gap = np.abs(self._amplitudes - other._amplitudes).max()
        return bool(gap <= DEFAULT_TOLS.state_equality)

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    def __repr__(self) -> str:
        return f"PureState({np.array2string(self._amplitudes, precision=6)})"


class UnitaryOperator:
    """Square complex matrix validated as unitary at construction."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        defect = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if defect > DEFAULT_TOLS.unitarity:
            raise ValueError(f"matrix is not unitary: max |U^H U - I| = {defect:.3e}")
        m.setflags(write=False)
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dimension(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        return f"UnitaryOperator(dim={self.dimension})"


class HermitianOperator:
    """Square complex matrix validated as Hermitian at construction."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        defect = np.abs(m - m.conj().T).max()
        if defect > DEFAULT_TOLS.hermiticity:
            raise ValueError(f"matrix is not Hermitian: max |H - H^H| = {defect:.3e}")
        m.setflags(write=False)
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dimension(self) -> int:
        return self._matrix.shape[0]

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and the matching orthonormal eigenvector columns."""
        return np.linalg.eigh(self._matrix)

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dimension})"


class ProductPlay:
    """One pure state per player; the joint play is their tensor product.

    A play needs at least two factors: single-agent problems are outside the
    game-shaped API.
    """

    __slots__ = ("_factors",)

    def __init__(self, factors: Iterable[PureState | np.ndarray]):
        states = tuple(
            f if isinstance(f, PureState) else PureState(f) for f in factors
        )
        if len(states) < 2:
            raise ValueError("a product play needs at least two factors")
        self._factors = states

    @property
    def factors(self) -> tuple[PureState, ...]:
        return self._factors

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dimension for f in self._factors)

    def replace(self, i: int, state: PureState) -> "ProductPlay":
        """New play with factor ``i`` swapped out."""
        factors = list(self._factors)
        factors[i] = state if isinstance(state, PureState) else PureState(state)
        return ProductPlay(factors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductPlay):
            return NotImplemented
        return self.dims == other.dims and all(
            a == b for a, b in zip(self._factors, other._factors)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"ProductPlay(dims={self.dims})"


def inner_product(a, b) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    av, bv = _as_vector(a), _as_vector(b)
    if av.size != bv.size:
        raise ValueError(f"dimension mismatch: {av.size} vs {bv.size}")
    return complex(np.vdot(av, bv))


def tensor_product(factors: Sequence) -> np.ndarray:
    """Kronecker product of the given vectors, in order."""
    arrs = [_as_vector(f) for f in factors]
    if not arrs:
        raise ValueError("tensor product of an empty sequence is undefined")
    return reduce(np.kron, arrs)


def apply_unitary(u: UnitaryOperator | np.ndarray, v) -> np.ndarray:
    """Apply a unitary to a state vector."""
    m = u.matrix if isinstance(u, UnitaryOperator) else UnitaryOperator(u).matrix
    vec = _as_vector(v)
    if m.shape[1] != vec.size:
        raise ValueError(f"dimension mismatch: operator {m.shape[0]} vs state {vec.size}")
    return m @ vec


def partial_contraction(target, play: ProductPlay, i: int) -> np.ndarray:
    """Contract a joint-space vector against every play factor except slot ``i``.

    Returns the vector ``v`` satisfying, for every state ``q`` of player ``i``,

        inner_product(target, tensor_with_slot_i_replaced_by(q)) == inner_product(v, q)

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
    inner = np.vdot(av, bv)
    residual = bv - av * inner
    return float(np.arctan2(np.linalg.norm(residual), abs(inner)))


def matrix_exponential_unitary(h: HermitianOperator | np.ndarray, t: float) -> UnitaryOperator:
    """exp(-i t H) for Hermitian H, via eigendecomposition.

    Exact unitarity up to the eigensolver's orthonormality, which comfortably
    beats the unitarity tolerance for desk-scale dimensions.
    """
    op = h if isinstance(h, HermitianOperator) else HermitianOperator(h)
    if not np.isfinite(t):
        raise ValueError("time parameter must be finite")
    w, v = op.eigensystem()
    u = (v * np.exp(-1j * w * float(t))) @ v.conj().T
    return UnitaryOperator(u)


def haar_random_state(dimension: int, seed: int | np.random.Generator | None) -> PureState:
    """Haar-distributed pure state: normalized complex Gaussian vector."""
    if dimension < 2:
        raise ValueError("a qudit state needs dimension >= 2")
    rng = as_rng(seed)
    z = rng.standard_normal(dimension) + 1j * rng.standard_normal(dimension)
    return canonicalize_phase(z)


def _haar_rows(dimension: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar states as rows, bit for bit ``count`` :func:`haar_random_state`
    calls and their rng stream: norms from ``np.linalg.norm``'s strided dot products,
    pivot modulus by ``hypot``, the scalar phase rule for a tiny or real pivot."""
    draw = rng.standard_normal((count, 2, dimension))
    z = draw[:, 0] + 1j * draw[:, 1]
    rows = z / np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[:, None]
    pivot = rows[:, 0]
    modulus = np.hypot(pivot.real, pivot.imag)
    scalar = (modulus <= DEFAULT_TOLS.phase_cutoff) | (pivot.imag == 0.0)
    fixed = rows * (pivot.conj() / np.where(scalar, 1.0, modulus))[:, None]
    fixed[:, 0] = fixed[:, 0].real
    for k in np.flatnonzero(scalar):
        fixed[k] = _fixed_phase(rows[k])
    return fixed


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
