"""Plain-numpy recomputations used to check the program's outputs.

Nothing here imports qugame: every expected value is derived from the
benchmark's own input arrays, so a wrong result in the program cannot also
be the reference it is checked against.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


class CheckFailed(Exception):
    """An operation's output disagrees with the independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a, b, tol: float, what: str) -> None:
    a = np.asarray(a)
    b = np.asarray(b)
    require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    gap = float(np.abs(a - b).max()) if a.size else 0.0
    require(gap <= tol, f"{what}: off by {gap:.3e} (tolerance {tol:.0e})")


# ------------------------------------------------------------ bundled games ---

R2 = 1.0 / math.sqrt(2.0)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) * R2
CNOT = np.array(
    [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0], [0, 0, 1.0, 0]]
)
# entangling basis change of the bundled alignment demo (its documented matrix)
ALIGNMENT_UNITARY = np.array(
    [[1.0, 0, 0, 0], [0, R2, R2, 0], [0, 0, 0, 1.0], [0, R2, -R2, 0]]
)
ALIGNMENT_EIGENVALUES = np.array([0.5, 0.5, 0.5, -1.5])
H_INITIAL = -(np.kron(PAULI_X, np.eye(2)) + np.kron(np.eye(2), PAULI_X))
H_FINAL = np.diag([1.0, 0.5, 0.75, 0.0])
SCHEDULE_S = [round(0.1 * k, 1) for k in range(11)]
SCHEDULE_TIME = 1.0


def canonical(v: np.ndarray) -> np.ndarray:
    """Unit vector whose first amplitude above 1e-12 in modulus is real positive."""
    v = np.asarray(v, dtype=np.complex128)
    v = v / np.linalg.norm(v)
    k = int(np.argmax(np.abs(v) > 1e-12))
    return v * (abs(v[k]) / v[k])


def bell_unitary() -> np.ndarray:
    return CNOT @ np.kron(HADAMARD, np.eye(2))


def bell_target() -> np.ndarray:
    return bell_unitary()[:, 0].astype(np.complex128)


def adiabatic_unitary(s: float) -> np.ndarray:
    from scipy.linalg import expm  # imported here to keep it out of the timed set-up

    h = s * H_INITIAL + (1.0 - s) * H_FINAL
    return expm(-1j * SCHEDULE_TIME * h)


def adiabatic_targets() -> tuple[np.ndarray, np.ndarray]:
    """Ground state of the final Hamiltonian and the uniform mix of the rest."""
    ground = np.zeros(4, dtype=np.complex128)
    ground[3] = 1.0
    rest = np.array([1.0, 1.0, 1.0, 0.0], dtype=np.complex128) / math.sqrt(3.0)
    return ground, rest


# ---------------------------------------------------------- quantum payoffs ---

class QuantumReference:
    """Two-player quantum game given as arrays: unitary, per-player payoff data.

    ``specs[i]`` is ``("overlap", target)`` or ``("observable", eigenvalues)``.
    Pulled-back payoff data is computed once per game here; it is the
    checker's own copy and never shared with the program.
    """

    def __init__(self, dims, unitary, specs):
        self.dims = tuple(int(d) for d in dims)
        self.unitary = np.asarray(unitary, dtype=np.complex128)
        self.specs = list(specs)
        adjoint = self.unitary.conj().T
        d1, d2 = self.dims
        self.pulled = []
        for kind, data in self.specs:
            if kind == "overlap":
                self.pulled.append((adjoint @ np.asarray(data)).reshape(d1, d2))
            else:
                m = adjoint @ (np.asarray(data, float)[:, None] * self.unitary)
                self.pulled.append(m.reshape(d1, d2, d1, d2))

    def payoff(self, play, i: int) -> complex:
        a, b = play
        kind, _ = self.specs[i]
        if kind == "overlap":
            return complex(a @ self.pulled[i].conj() @ b)
        x = np.kron(a, b)
        m = self.pulled[i].reshape(x.size, x.size)
        return complex(float(np.real(np.vdot(x, m @ x))))

    def _contraction(self, play, i: int) -> np.ndarray:
        a, b = play
        p = self.pulled[i]
        return p @ b.conj() if i == 0 else p.T @ a.conj()

    def _effective(self, play, i: int) -> np.ndarray:
        a, b = play
        m = self.pulled[i]
        if i == 0:
            eff = np.einsum("jklm,k,m->jl", m, b.conj(), b)
        else:
            eff = np.einsum("jklm,j,l->km", m, a.conj(), a)
        return 0.5 * (eff + eff.conj().T)

    def gain(self, play, i: int) -> float:
        """Largest unilateral improvement of player ``i`` (projective optimum)."""
        kind, _ = self.specs[i]
        if kind == "overlap":
            return float(np.linalg.norm(self._contraction(play, i)) - abs(self.payoff(play, i)))
        top = float(np.linalg.eigvalsh(self._effective(play, i))[-1])
        return top - self.payoff(play, i).real

    def gains(self, play) -> np.ndarray:
        return np.array([self.gain(play, i) for i in range(2)])

    def best_response(self, play, i: int) -> np.ndarray:
        kind, _ = self.specs[i]
        if kind == "overlap":
            v = self._contraction(play, i)
            if np.linalg.norm(v) <= 1e-12:
                return play[i]
            return canonical(v)
        w, vecs = np.linalg.eigh(self._effective(play, i))
        return canonical(vecs[:, -1])

    def sweep(self, play):
        a, b = play
        a = self.best_response((a, b), 0)
        b = self.best_response((a, b), 1)
        return a, b


def projective_distance(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.arccos(min(1.0, abs(np.vdot(u, v)))))


def play_distance(p, q) -> float:
    return max(projective_distance(u, v) for u, v in zip(p, q))


def check_dynamics_play(ref: QuantumReference, play, status: str, period, tol: float) -> None:
    """A converged play is an equilibrium; a cycle's play comes back after ``period`` sweeps."""
    if status == "converged":
        gains = ref.gains(play)
        require(gains.max() <= tol, f"converged play gains {gains.max():.3e} > {tol:.0e}")
    elif status == "cycle_detected":
        require(period is not None and period >= 2, f"cycle with period {period!r}")
        again = play
        for _ in range(period):
            again = ref.sweep(again)
        dist = play_distance(again, play)
        require(dist <= 1e-6, f"cycle play does not recur after {period} sweeps ({dist:.3e})")
    else:
        # the last mover just best-responded, whatever the status
        last = ref.gain(play, 1)
        require(last <= tol, f"last mover is {last:.3e} from its best response")


def fixed_point_magnitudes(ref: QuantumReference) -> list[float] | None:
    """Player 1's payoff magnitude at each mutual best response of an overlap game.

    Returns None when the sweep map has a repeated eigenvalue, where the
    equilibria form a continuum and no finite list exists.
    """
    p1, p2 = ref.pulled
    values, vectors = np.linalg.eig(p2.T @ p1.conj())
    mags = np.abs(values)
    live = np.flatnonzero(mags > 1e-12)
    if any(abs(values[j] - values[k]) <= 1e-9 for j, k in itertools.combinations(live, 2)):
        return None
    return [float(np.linalg.norm(p1 @ vectors[:, k].conj())) for k in live]


# ---------------------------------------------------------- qubit grid scan ---

def grid_states(resolution: int) -> np.ndarray:
    theta = np.linspace(0.0, np.pi, resolution)
    phi = np.arange(resolution) * (2.0 * np.pi / resolution)
    a = np.repeat(np.cos(theta / 2.0), resolution)
    b = np.exp(1j * np.tile(phi, resolution)) * np.repeat(np.sin(theta / 2.0), resolution)
    return np.stack([a, b], axis=1)


def grid_worst_gain(ref: QuantumReference, resolution: int) -> np.ndarray:
    """Larger of the two players' grid-restricted gains at every grid play (overlap games)."""
    g = grid_states(resolution)
    tables = [np.abs(g @ p.conj() @ g.T) for p in ref.pulled]
    gain1 = tables[0].max(axis=0)[None, :] - tables[0]
    gain2 = tables[1].max(axis=1)[:, None] - tables[1]
    return np.maximum(gain1, gain2)


# ------------------------------------------------------------- finite games ---

def best_reply_gaps(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    rows = a @ y
    cols = x @ b
    return np.array([rows.max() - x @ rows, cols.max() - cols @ y])


def finite_equilibria(a: np.ndarray, b: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every equal-support-size equilibrium of a bimatrix game (all of them if nondegenerate)."""
    k1, k2 = a.shape
    found = []
    for size in range(1, min(k1, k2) + 1):
        for rows in itertools.combinations(range(k1), size):
            for cols in itertools.combinations(range(k2), size):
                y = _indifferent(a[np.ix_(rows, cols)])
                x = _indifferent(b[np.ix_(rows, cols)].T)
                if x is None or y is None:
                    continue
                xf = np.zeros(k1)
                xf[list(rows)] = x
                yf = np.zeros(k2)
                yf[list(cols)] = y
                if best_reply_gaps(a, b, xf, yf).max() <= 1e-9:
                    found.append((xf, yf))
    return found


def _indifferent(sub: np.ndarray) -> np.ndarray | None:
    """Weights on the columns of ``sub`` that make every row pay the same."""
    m = sub.shape[0]
    lhs = np.zeros((m + 1, m + 1))
    lhs[:m, :m] = sub
    lhs[:m, m] = -1.0
    lhs[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    if abs(np.linalg.det(lhs)) < 1e-12:
        return None
    w = np.linalg.solve(lhs, rhs)[:m]
    if w.min() < -1e-9:
        return None
    return np.clip(w, 0.0, None)


def match_equilibria(reported, expected, tol: float = 1e-6) -> None:
    require(len(reported) == len(expected), f"{len(reported)} equilibria, expected {len(expected)}")
    for x, y in reported:
        require(
            any(np.abs(x - ex).max() <= tol and np.abs(y - ey).max() <= tol for ex, ey in expected),
            "reported equilibrium is not among the independently enumerated ones",
        )


# ----------------------------------------------------------------- geometry ---

def hull_counts(points: np.ndarray) -> tuple[int, int]:
    """Vertex and facet counts of the hull of the distinct points."""
    from scipy.spatial import ConvexHull

    hull = ConvexHull(np.unique(points, axis=0))
    return len(hull.vertices), len(hull.simplices)
