"""Game documents: JSON codecs, CSV emission, atomic file output.

One document describes one game (or one play, profile, or schedule). Complex
numbers are [re, im] pairs; reals are written with 17 significant digits so a
parse-serialize round trip is exact; field order is fixed, making serialized
bytes stable across runs. A document is written with one %-format call, and
each real field is read in one pass that checks it level by level in bulk and
names its first faulty entry, in document order, by field path.
"""
from __future__ import annotations

import gc
import json
import math
import os
import tempfile
from itertools import chain
from typing import Sequence

import numpy as np

from .builders import AdiabaticSchedule
from .classical import FiniteGame, MixedProfile
from .config import DEFAULT_TOLS
from .linalg import HermitianOperator, ProductPlay, PureState, UnitaryOperator
from .quantum import ObservablePayoff, OverlapPayoff, QuantumGame, TraceRecord

__all__ = [
    "SCHEMA_VERSION",
    "DocumentError",
    "parse_game",
    "serialize_game",
    "parse_play",
    "serialize_play",
    "parse_profile",
    "serialize_profile",
    "parse_schedule",
    "serialize_schedule",
    "canonical_json",
    "write_text_atomic",
    "write_trace_csv",
    "write_sweep_csv",
    "read_point_cloud",
    "write_point_cloud",
]

SCHEMA_VERSION = 1

# a finite game's payoff tensor has one axis per player, and numpy arrays have at most 64 axes
MAX_FINITE_PLAYERS = 64


class DocumentError(ValueError):
    """Validation failure, tagged with the path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def canonical_json(value) -> str:
    """Deterministic JSON: fixed key order, 17-significant-digit reals. The
    document is one template whose %.17g slots take all its reals, in order,
    from one :func:`_format_reals` call."""
    template: list[str] = []
    reals: list[np.ndarray] = [np.empty(0)]   # a document may hold no reals
    _emit(value, template, reals)
    return _format_reals(np.concatenate(reals, axis=None), "".join(template))


def _emit(value, out: list[str], reals: list[np.ndarray]) -> None:
    if isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)) or (
            isinstance(value, np.ndarray) and value.dtype.kind in "fc"):
        x = np.asarray(value)
        if x.dtype.kind == "c":   # [re, im] pairs
            x = np.ascontiguousarray(x, complex).view(float).reshape(*x.shape, 2)
        slots = "%.17g"
        for n in reversed(x.shape):
            slots = "[" + ",".join([slots] * n) + "]"
        out.append(slots)
        reals.append(x)
    elif isinstance(value, str):
        out.append(json.dumps(value).replace("%", "%%"))
    elif value is None:
        out.append("null")
    elif isinstance(value, dict):
        out.append("{")
        for k, (key, item) in enumerate(value.items()):
            if k:
                out.append(",")
            out.append(json.dumps(str(key)).replace("%", "%%"))
            out.append(":")
            _emit(item, out, reals)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        for k, item in enumerate(value):
            if k:
                out.append(",")
            _emit(item, out, reals)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _format_reals(x: np.ndarray, template: str) -> str:
    """The package's one real-number format: x's entries in the %.17g slots of
    ``template``, exact under float round trip. A non-finite entry is refused.
    json reads "-0" back as integer zero, so a signed zero cannot survive a
    round trip: + 0.0 folds -0.0 into 0 at the source and moves nothing else."""
    x = np.asarray(x, dtype=np.float64) + 0.0
    if not np.isfinite(x).all():
        raise ValueError(f"cannot serialize non-finite real {float(x[~np.isfinite(x)][0])!r}")
    return template % tuple(x.ravel().tolist())


# ---------------------------------------------------------------- parsing ---

def _load(text: str, *kinds: str) -> dict:
    """The document in ``text``, refused unless it is a JSON object whose header
    holds this schema version and one of ``kinds``, checked in that order."""
    # the [re, im] lists json.loads keeps (65,536 at d=256) trigger futile full collections
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:   # also huge integer literals, deep nesting
        raise DocumentError("$", f"not valid JSON: {exc}") from exc
    finally:
        if enabled:
            gc.enable()
    if not isinstance(doc, dict):
        raise DocumentError("$", "document root must be an object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:   # true and 1.0 equal 1
        raise DocumentError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    if doc.get("kind") not in kinds:
        raise DocumentError("kind", f"expected {' or '.join(map(repr, kinds))}, "
                                    f"got {doc.get('kind')!r}")
    return doc


def _document(kind: str, **fields) -> str:
    """Canonical text of a ``kind`` document: the schema header, then ``fields`` in order."""
    return canonical_json({"schema_version": SCHEMA_VERSION, "kind": kind, **fields})


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(path, f"expected a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise DocumentError(path, "integer literal is too large for a real") from None
    if not math.isfinite(x):
        raise DocumentError(path, f"expected a finite real, got {value!r}")
    return x


def _ints(value, path: str, minimum: int) -> tuple[int, ...]:
    """The list ``value`` of integers, each at least ``minimum``."""
    for k, item in enumerate(_list(value, path)):
        if isinstance(item, bool) or not isinstance(item, int):
            raise DocumentError(f"{path}[{k}]", f"expected an integer, got {item!r}")
        if item < minimum:
            raise DocumentError(f"{path}[{k}]", f"expected an integer >= {minimum}, got {item}")
    return tuple(value)


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(path, f"expected a list, got {type(value).__name__}")
    return value


def _reals(value, shape: tuple[int, ...], path: str, pairs: bool = False) -> np.ndarray:
    """Nested lists of ``shape`` with finite real leaves as one float64 array, or
    with [re, im] pair leaves as one complex128 array if ``pairs``.

    Each level is checked in bulk. A level that fails is cut before its first
    bad item, so a fault found deeper lies earlier in the document, and the
    last fault found is the first one an element-by-element walk meets.
    """
    dims = (*shape, 2) if pairs else shape
    level, fault = [value], None

    def at(k: int, depth: int) -> str:   # the path of item k of the level at depth
        return path + "".join(f"[{i}]" for i in np.unravel_index(k, dims[:depth]))

    for depth, n in enumerate(dims):
        if set(map(type, level)) - {list} or set(map(len, level)) - {n}:
            k = next(k for k, item in enumerate(level) if type(item) is not list or len(item) != n)
            item, level = level[k], level[:k]
            if pairs and depth == len(shape):
                fault = at(k, depth), f"expected a [re, im] pair, got {item!r}"
            elif type(item) is not list:
                fault = at(k, depth), f"expected a list, got {type(item).__name__}"
            else:
                fault = at(k, depth), f"expected {n} entries, got {len(item)}"
        level = list(chain.from_iterable(level))
    try:
        x = np.array(level, dtype=np.float64) if set(map(type, level)) <= {float, int} else None
    except OverflowError:   # an integer literal too large for a real
        x = None
    if x is None or not np.isfinite(x).all():
        x = np.array([_real(leaf, at(k, len(dims))) for k, leaf in enumerate(level)])
    if fault is not None:
        raise DocumentError(*fault)
    x = x.reshape(dims)
    return x.view(np.complex128)[..., 0] if pairs else x


def _complex_matrix(value, path: str, size: int | None = None) -> np.ndarray:
    rows = _list(value, path)
    if size is not None and len(rows) != size:
        raise DocumentError(path, f"expected {size} rows, got {len(rows)}")
    if not rows:
        raise DocumentError(path, "matrix must be nonempty")
    width = len(_list(rows[0], f"{path}[0]")) if size is None else size
    return _reals(rows, (len(rows), width), path, pairs=True)


def _unit_state(vec: np.ndarray, path: str) -> PureState:
    if vec.size < 2:
        raise DocumentError(path, "a qudit state needs dimension >= 2")
    with np.errstate(over="ignore"):   # an overflow is refused below
        norm = float(np.linalg.norm(vec))
    if norm < DEFAULT_TOLS.phase_cutoff:
        raise DocumentError(path, "state vector is numerically zero")
    if abs(norm - 1.0) > DEFAULT_TOLS.normalization_window:   # a data error, not guessed at
        raise DocumentError(
            path, f"state norm {norm!r} is outside the renormalization window"
        )
    if abs(norm - 1.0) <= DEFAULT_TOLS.unit_norm:
        # already unit to working precision; dividing would shift amplitudes
        # by an ulp and break parse-serialize byte identity
        return PureState(vec)
    return PureState(vec / norm)


def _parse_finite(doc: dict) -> FiniteGame:
    counts = _ints(doc.get("strategy_counts"), "strategy_counts", 1)
    if len(counts) < 2:
        raise DocumentError("strategy_counts", "a game needs at least two players")
    if len(counts) > MAX_FINITE_PLAYERS:
        raise DocumentError(
            "strategy_counts", f"{len(counts)} players exceed the limit of {MAX_FINITE_PLAYERS}"
        )
    tensors_raw = _list(doc.get("payoff_tensors"), "payoff_tensors")
    if len(tensors_raw) != len(counts):
        raise DocumentError(
            "payoff_tensors", f"expected {len(counts)} tensors, got {len(tensors_raw)}"
        )
    tensors = [_reals(t, counts, f"payoff_tensors[{i}]") for i, t in enumerate(tensors_raw)]
    return FiniteGame(tensors)


def _parse_quantum(doc: dict) -> QuantumGame:
    dims = _ints(doc.get("dims"), "dims", 2)
    if len(dims) < 2:
        raise DocumentError("dims", "a game needs at least two players")
    joint = math.prod(dims)
    matrix = _complex_matrix(doc.get("unitary"), "unitary", joint)
    try:
        unitary = UnitaryOperator(matrix)
    except ValueError as exc:
        raise DocumentError("unitary", str(exc)) from exc
    payoffs_raw = _list(doc.get("payoffs"), "payoffs")
    if len(payoffs_raw) != len(dims):
        raise DocumentError("payoffs", f"expected {len(dims)} specs, got {len(payoffs_raw)}")
    specs = []
    for i, spec in enumerate(payoffs_raw):
        path = f"payoffs[{i}]"
        if not isinstance(spec, dict) or len(spec) != 1:
            raise DocumentError(path, "expected exactly one of 'overlap' or 'observable'")
        key, value = next(iter(spec.items()))
        if key == "overlap":
            vec = _reals(value, (joint,), f"{path}.overlap", pairs=True)
            specs.append(OverlapPayoff(_unit_state(vec, f"{path}.overlap")))
        elif key == "observable":   # a list of joint reals, else refused by _reals
            eigenvalues = _reals(value, (joint,), f"{path}.observable")
            try:
                specs.append(ObservablePayoff(eigenvalues))
            except ValueError as exc:   # an eigenvalue range past the float maximum
                raise DocumentError(f"{path}.observable", str(exc)) from exc
        else:
            raise DocumentError(path, f"unknown payoff kind {key!r}")
    return QuantumGame(dims, unitary, specs)


_GAME_PARSERS = {"finite": _parse_finite, "quantum": _parse_quantum}


def parse_game(text: str) -> FiniteGame | QuantumGame:
    """Parse a game document, validating structure, norms, and unitarity."""
    doc = _load(text, *_GAME_PARSERS)
    return _GAME_PARSERS[doc["kind"]](doc)


def serialize_game(game: FiniteGame | QuantumGame) -> str:
    """Canonical document text for a game."""
    if isinstance(game, FiniteGame):
        return _document("finite", strategy_counts=game.strategy_counts,
                         payoff_tensors=game.payoff_tensors)
    if isinstance(game, QuantumGame):
        payoffs = [{"overlap": spec.target.amplitudes} if isinstance(spec, OverlapPayoff)
                   else {"observable": spec.eigenvalues} for spec in game.payoffs]
        return _document("quantum", dims=game.dims, unitary=game.unitary.matrix,
                         payoffs=payoffs)
    raise TypeError(f"cannot serialize {type(game).__name__}")


def parse_play(text: str, dims: Sequence[int] | None = None) -> ProductPlay:
    """Parse a product play; factors within the window are renormalized."""
    doc = _load(text, "play")
    factors_raw = _list(doc.get("factors"), "factors")
    if len(factors_raw) < 2:
        raise DocumentError("factors", "a play needs at least two factors")
    if dims is not None and len(factors_raw) != len(dims):
        raise DocumentError("factors", f"expected {len(dims)} factors, got {len(factors_raw)}")
    states = []
    for i, factor in enumerate(factors_raw):
        path = f"factors[{i}]"
        want = len(_list(factor, path)) if dims is None else dims[i]
        states.append(_unit_state(_reals(factor, (want,), path, pairs=True), path))
    return ProductPlay(states)


def serialize_play(play: ProductPlay) -> str:
    return _document("play", factors=[f.amplitudes for f in play.factors])


def parse_profile(text: str, counts: Sequence[int] | None = None) -> MixedProfile:
    doc = _load(text, "profile")
    dists_raw = _list(doc.get("distributions"), "distributions")
    if counts is not None and len(dists_raw) != len(counts):
        raise DocumentError(
            "distributions", f"expected {len(counts)} distributions, got {len(dists_raw)}"
        )
    dists = []
    for i, dist in enumerate(dists_raw):
        path = f"distributions[{i}]"
        want = len(_list(dist, path)) if counts is None else counts[i]
        dists.append(_reals(dist, (want,), path))
    try:
        return MixedProfile(dists)
    except ValueError as exc:
        raise DocumentError("distributions", str(exc)) from exc


def serialize_profile(profile: MixedProfile) -> str:
    return _document("profile", distributions=profile.distributions)


def parse_schedule(text: str) -> AdiabaticSchedule:
    doc = _load(text, "schedule")
    h_initial = _complex_matrix(doc.get("h_initial"), "h_initial")
    h_final = _complex_matrix(doc.get("h_final"), "h_final", h_initial.shape[0])
    ops = []
    for path, matrix in (("h_initial", h_initial), ("h_final", h_final)):
        try:
            ops.append(HermitianOperator(matrix))
        except ValueError as exc:
            raise DocumentError(path, str(exc)) from exc
    s_raw = _list(doc.get("s_values"), "s_values")
    s_values = tuple(_reals(s_raw, (len(s_raw),), "s_values").tolist())
    time = _real(doc.get("time"), "time")
    try:
        return AdiabaticSchedule(ops[0], ops[1], s_values, time)
    except ValueError as exc:   # the phase refusal names the time; the rest span fields
        raise DocumentError("time" if str(exc).startswith("time ") else "$", str(exc)) from exc


def serialize_schedule(schedule: AdiabaticSchedule) -> str:
    return _document("schedule", h_initial=schedule.h_initial.matrix,
                     h_final=schedule.h_final.matrix, s_values=schedule.s_values,
                     time=schedule.time)


# ----------------------------------------------------------------- output ---

def write_text_atomic(path: str, text: str) -> None:
    """Write via a temporary file and rename, so readers never see half a file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: str, rows: Sequence[str], reals) -> None:
    """Header, then one line per row template, with the flat ``reals`` in the
    templates' %.17g slots by one :func:`_format_reals` call."""
    write_text_atomic(path, _format_reals(reals, "\n".join([header, *rows]) + "\n"))


def write_trace_csv(path: str, trace: Sequence[TraceRecord], num_players: int) -> None:
    """Per-sweep dynamics trace; complex payoffs split into re/im columns."""
    payoffs = [f"payoff_p{i}_{part}" for i in range(1, num_players + 1) for part in ("re", "im")]
    rows, reals = [], []
    for record in trace:
        if len(record.payoffs) != num_players:   # its row would not match the header
            raise ValueError(f"trace record of sweep {record.sweep} holds "
                             f"{len(record.payoffs)} payoffs, expected {num_players}")
        rows.append(f"{record.sweep}" + ",%.17g" * (2 * num_players + 1))
        reals += [x for z in record.payoffs for x in (z.real, z.imag)]
        reals.append(record.step_distance)
    _write_csv(path, ",".join(["sweep", *payoffs, "step_distance"]), rows, reals)


def write_sweep_csv(path: str, rows) -> None:
    """Schedule-sweep rows with the fixed column set."""
    header = ("s,start_id,outcome,iterations,"
              "payoff_player1_re,payoff_player1_im,ground_overlap_magnitude")
    _write_csv(path, header,
               [f"%.17g,{row.start_id},{row.outcome.replace('%', '%%')},{row.iterations},"
                "%.17g,%.17g,%.17g" for row in rows],
               [[row.s, row.payoff_player1.real, row.payoff_player1.imag,
                 row.ground_overlap_magnitude] for row in rows])


def read_point_cloud(path: str) -> np.ndarray:
    """CSV with an x,y,z header and one point per row."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise DocumentError("$", "point cloud file is empty")
    start = 1 if lines[0].lower().replace(" ", "") == "x,y,z" else 0
    rows = [line.split(",") for line in lines[start:]]
    try:   # float(), not numpy's string parser, which accepts other spellings
        values = list(map(float, chain.from_iterable(rows)))
    except ValueError:
        values = None
    if values is None or not set(map(len, rows)) <= {3}:   # name the first malformed line
        for n, cells in enumerate(rows, start=start + 1):
            if len(cells) != 3:
                raise DocumentError(f"line {n}", f"expected 3 columns, got {len(cells)}")
            try:
                list(map(float, cells))
            except ValueError as exc:
                raise DocumentError(f"line {n}", f"not a number: {exc}") from exc
    arr = np.array(values, dtype=np.float64).reshape(-1, 3)   # a header alone reads (0, 3)
    if not np.all(np.isfinite(arr)):
        raise DocumentError("$", "point cloud has non-finite entries")
    return arr


def write_point_cloud(path: str, points: np.ndarray) -> None:
    points = np.asarray(points, dtype=np.float64)
    _write_csv(path, "x,y,z", [",".join(["%.17g"] * points.shape[-1])] * len(points), points)
