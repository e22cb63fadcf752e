"""Document codecs: canonical JSON, round trips, CSV and point-cloud files."""
import copy
import gc
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import qugame.gamedoc as gd
import qugame.quantum as qq
from qugame import builders as bld
from qugame.classical import FiniteGame, MixedProfile
from qugame.linalg import ProductPlay, PureState, haar_random_state, haar_random_unitary


# --------------------------------------------------------- canonical JSON ---

def test_format_real_is_exact_under_round_trip():
    for x in (0.1, 1 / 3, math.pi, 1e-300, 1e300, -2.5, 6.02e23):
        assert float(gd.canonical_json(x)) == x


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_real_round_trips_everything_finite(x):
    assert float(gd.canonical_json(x)) == x or (x == 0.0 and float(gd.canonical_json(x)) == 0.0)


def test_format_real_folds_signed_zero():
    # a bare "-0" reparses as integer zero, losing the sign anyway; fold it
    # eagerly so serialized bytes are stable under parse-serialize
    assert gd.canonical_json(-0.0) == "0"
    assert gd.canonical_json(0.0) == "0"


def test_format_real_rejects_non_finite():
    with pytest.raises(ValueError):
        gd.canonical_json(float("nan"))
    with pytest.raises(ValueError):
        gd.canonical_json(float("inf"))


def test_canonical_json_fixed_order_and_types():
    doc = {"b": 1, "a": [True, None, "x", 0.5, np.float64(0.25), np.int64(3)]}
    text = gd.canonical_json(doc)
    assert text == '{"b":1,"a":[true,null,"x",0.5,0.25,3]}'
    assert gd.canonical_json(doc) == text


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        gd.canonical_json({"x": object()})


# -------------------------------------------------------- game round trips ---

def quantum_demo_games():
    rng = np.random.default_rng(60)
    games = [
        bld.bell_state_preparation_demo(),
        bld.build_grover_game(2, 1, (1, 1)),
        qq.alignment_demo_game(),
        bld.build_adiabatic_game(bld.demo_adiabatic_schedule(), 0.5),
        bld.build_state_preparation_game(
            (2, 3),
            haar_random_unitary(6, rng),
            (haar_random_state(6, rng), haar_random_state(6, rng)),
        ),
    ]
    return games


@pytest.mark.parametrize("game", quantum_demo_games(), ids=lambda g: f"{g.dims}")
def test_quantum_game_serialize_parse_is_identity(game):
    text = gd.serialize_game(game)
    again = gd.parse_game(text)
    assert gd.serialize_game(again) == text


def test_finite_game_serialize_parse_is_identity():
    game = FiniteGame((np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])))
    text = gd.serialize_game(game)
    assert text.startswith('{"schema_version":1,"kind":"finite"')
    again = gd.parse_game(text)
    assert isinstance(again, FiniteGame)
    assert gd.serialize_game(again) == text
    for a, b in zip(again.payoff_tensors, game.payoff_tensors):
        assert_allclose(a, b, atol=0)


def test_parse_game_dispatches_on_kind():
    finite = gd.parse_game(
        '{"schema_version":1,"kind":"finite","strategy_counts":[2,2],'
        '"payoff_tensors":[[[1,0],[0,1]],[[0,1],[1,0]]]}'
    )
    assert isinstance(finite, FiniteGame)
    quantum = gd.parse_game(gd.serialize_game(bld.bell_state_preparation_demo()))
    assert isinstance(quantum, qq.QuantumGame)


def test_play_and_profile_round_trips():
    play = ProductPlay((haar_random_state(2, 3), haar_random_state(3, 4)))
    text = gd.serialize_play(play)
    assert gd.serialize_play(gd.parse_play(text, (2, 3))) == text
    prof = MixedProfile((np.array([0.25, 0.75]), np.array([0.5, 0.25, 0.25])))
    ptext = gd.serialize_profile(prof)
    assert gd.serialize_profile(gd.parse_profile(ptext, (2, 3))) == ptext


def test_schedule_round_trip():
    text = gd.serialize_schedule(bld.demo_adiabatic_schedule())
    again = gd.parse_schedule(text)
    assert gd.serialize_schedule(again) == text
    assert again.s_values == bld.demo_adiabatic_schedule().s_values


# ------------------------------------------------------------- validation ---

def test_schema_version_and_kind_are_enforced():
    doc = gd.serialize_game(bld.bell_state_preparation_demo())
    with pytest.raises(gd.DocumentError, match="schema_version"):
        gd.parse_game(doc.replace('"schema_version":1', '"schema_version":2'))
    with pytest.raises(gd.DocumentError, match="kind"):
        gd.parse_schedule(doc)


@pytest.mark.parametrize("parse", [gd.parse_game, gd.parse_play, gd.parse_profile,
                                   gd.parse_schedule], ids=lambda f: f.__name__)
def test_a_bad_version_is_refused_before_a_bad_kind(parse):
    with pytest.raises(gd.DocumentError, match=r"^schema_version: expected 1, got 2$"):
        parse('{"schema_version":2,"kind":"nope"}')


@pytest.mark.parametrize("version, shown", [("true", "True"), ("1.0", "1.0")])
def test_a_version_that_only_compares_equal_to_1_is_refused(version, shown):
    # json reads both as values equal to 1, and re-serializing would write 1
    play = gd.serialize_play(ProductPlay((PureState([1, 0]), PureState([0, 1]))))
    with pytest.raises(gd.DocumentError, match=rf"^schema_version: expected 1, got {re.escape(shown)}$"):
        gd.parse_play(play.replace('"schema_version":1', f'"schema_version":{version}'))


def test_parse_rejects_invalid_json_and_non_objects():
    with pytest.raises(gd.DocumentError, match="not valid JSON"):
        gd.parse_game("nope")
    with pytest.raises(gd.DocumentError, match="root"):
        gd.parse_game("[1,2]")


def test_parsing_pauses_the_collector_and_restores_its_state(monkeypatch):
    seen = []
    real = gd.json.loads

    def recording(text):
        seen.append(gc.isenabled())
        return real(text)

    monkeypatch.setattr(gd.json, "loads", recording)
    text = gd.serialize_game(bld.bell_state_preparation_demo())
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            gd.parse_game(text)
            with pytest.raises(gd.DocumentError):
                gd.parse_game("nope")
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 4


HUGE = "1" + "0" * 400             # overflows a float
BEYOND_DIGIT_LIMIT = "1" * 5000     # past Python's int-string conversion limit


def test_parse_rejects_integer_literals_too_large_for_a_real():
    play = '{"schema_version":1,"kind":"play","factors":[[[1,0],[0,0]],[[1,0],[0,0]]]}'
    with pytest.raises(gd.DocumentError, match=r"^factors\[0\]\[0\]\[0\]: ") as err:
        gd.parse_play(play.replace("[[[1,0]", f"[[[{HUGE},0]", 1), (2, 2))
    assert err.value.path == "factors[0][0][0]"
    finite = '{"schema_version":1,"kind":"finite","strategy_counts":[2,2],' \
        '"payoff_tensors":[[[1,0],[0,1]],[[1,0],[0,1]]]}'
    with pytest.raises(gd.DocumentError) as err:
        gd.parse_game(finite.replace("[[1,0],[0,1]]]}", f"[[1,0],[0,-{HUGE}]]]}}"))
    assert err.value.path == "payoff_tensors[1][1][1]"


def test_parse_rejects_integer_literals_past_the_digit_limit():
    play = '{"schema_version":1,"kind":"play","factors":[[[1,0],[0,0]],[[1,0],[0,0]]]}'
    with pytest.raises(gd.DocumentError, match="not valid JSON") as err:
        gd.parse_play(play.replace("[[[1,0]", f"[[[{BEYOND_DIGIT_LIMIT},0]", 1), (2, 2))
    assert err.value.path == "$"
    doc = gd.serialize_game(bld.bell_state_preparation_demo())
    with pytest.raises(gd.DocumentError) as err:
        gd.parse_game(doc.replace('"schema_version":1', f'"schema_version":{BEYOND_DIGIT_LIMIT}'))
    assert err.value.path == "$"


def test_parse_game_rejects_non_unitary_matrix():
    doc = gd.serialize_game(bld.bell_state_preparation_demo())
    broken = doc.replace("[[0.70710678118654746,0]", "[[0.9,0]", 1)
    with pytest.raises(gd.DocumentError, match="unitary"):
        gd.parse_game(broken)


def test_parse_game_rejects_unknown_payoff_kind():
    doc = gd.serialize_game(bld.bell_state_preparation_demo())
    with pytest.raises(gd.DocumentError, match="payoff kind"):
        gd.parse_game(doc.replace('"overlap"', '"foo"', 1))


def test_parse_schedule_rejects_non_hermitian():
    doc = gd.serialize_schedule(bld.demo_adiabatic_schedule())
    with pytest.raises(gd.DocumentError, match="Hermitian"):
        gd.parse_schedule(doc.replace('"h_final":[[[1,0]', '"h_final":[[[1,1]', 1))


def test_parse_play_checks_factor_dims():
    play = '{"schema_version":1,"kind":"play","factors":[[[1,0],[0,0]],[[1,0],[0,0]]]}'
    with pytest.raises(gd.DocumentError, match="entries"):
        gd.parse_play(play, (2, 3))
    with pytest.raises(gd.DocumentError, match="factors"):
        gd.parse_play(play, (2, 2, 2))
    assert gd.parse_play(play, (2, 2)).factors[0] == PureState([1, 0])


def test_parse_profile_checks_distributions():
    prof = '{"schema_version":1,"kind":"profile","distributions":[[0.5,0.5],[0.5,0.5]]}'
    with pytest.raises(gd.DocumentError, match="entries"):
        gd.parse_profile(prof, (2, 3))
    bad = prof.replace("[0.5,0.5]", "[0.7,0.4]", 1)
    with pytest.raises(gd.DocumentError, match="sums to"):
        gd.parse_profile(bad, (2, 2))


DEEP = "[" * 100_000   # past the JSON decoder's recursion limit


@pytest.mark.parametrize("parse", (gd.parse_game, gd.parse_play, gd.parse_profile,
                                   gd.parse_schedule), ids=lambda f: f.__name__)
def test_deeply_nested_json_is_a_document_error(parse):
    with pytest.raises(gd.DocumentError, match=r"^\$: not valid JSON: ") as err:
        parse(DEEP)
    assert err.value.path == "$"


def edited(text, edit):
    """``text``'s document after ``edit`` changed its decoded JSON in place."""
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


BELL_TEXT = gd.serialize_game(bld.bell_state_preparation_demo())
PENNIES_TEXT = gd.serialize_game(FiniteGame([np.array([[1.0, -1.0], [-1.0, 1.0]]),
                                             np.array([[-1.0, 1.0], [1.0, -1.0]])]))
PLAY_TEXT = gd.serialize_play(ProductPlay((PureState([1, 0]), PureState([0, 1]))))
PROFILE_TEXT = gd.serialize_profile(MixedProfile([[0.5, 0.5], [0.25, 0.75]]))
SCHEDULE_TEXT = gd.serialize_schedule(bld.demo_adiabatic_schedule())

# (parse, document, edit of its JSON, path, message): one refusal each
DOCUMENT_REFUSALS = {
    "count not an integer": (gd.parse_game, PENNIES_TEXT,
                             lambda d: d.update(strategy_counts=[2, True]),
                             "strategy_counts[1]", "expected an integer, got True"),
    "count below 1": (gd.parse_game, PENNIES_TEXT, lambda d: d.update(strategy_counts=[2, 0]),
                      "strategy_counts[1]", "expected an integer >= 1, got 0"),
    "dim below 2": (gd.parse_game, BELL_TEXT, lambda d: d.update(dims=[2, 1]),
                    "dims[1]", "expected an integer >= 2, got 1"),
    "dim a float": (gd.parse_game, BELL_TEXT, lambda d: d.update(dims=[2.0, 2]),
                    "dims[0]", "expected an integer, got 2.0"),
    "one finite player": (gd.parse_game, PENNIES_TEXT, lambda d: d.update(strategy_counts=[4]),
                          "strategy_counts", "a game needs at least two players"),
    "one quantum player": (gd.parse_game, BELL_TEXT, lambda d: d.update(dims=[4]),
                           "dims", "a game needs at least two players"),
    "tensor count": (gd.parse_game, PENNIES_TEXT, lambda d: d["payoff_tensors"].pop(),
                     "payoff_tensors", "expected 2 tensors, got 1"),
    "spec count": (gd.parse_game, BELL_TEXT, lambda d: d["payoffs"].append(d["payoffs"][0]),
                   "payoffs", "expected 2 specs, got 3"),
    "two-key spec": (gd.parse_game, BELL_TEXT,
                     lambda d: d["payoffs"][1].update(observable=[0, 1, 2, 3]),
                     "payoffs[1]", "expected exactly one of 'overlap' or 'observable'"),
    "spec not an object": (gd.parse_game, BELL_TEXT, lambda d: d["payoffs"].__setitem__(0, []),
                           "payoffs[0]", "expected exactly one of 'overlap' or 'observable'"),
    "one factor": (gd.parse_play, PLAY_TEXT, lambda d: d["factors"].pop(),
                   "factors", "a play needs at least two factors"),
    "unsorted dial": (gd.parse_schedule, SCHEDULE_TEXT, lambda d: d["s_values"].reverse(),
                      "$", "dial values must be sorted ascending"),
    "no dial value": (gd.parse_schedule, SCHEDULE_TEXT, lambda d: d.update(s_values=[]),
                      "$", "schedule needs at least one dial value"),
    "zero duration": (gd.parse_schedule, SCHEDULE_TEXT, lambda d: d.update(time=0),
                      "$", "duration must be positive and finite"),
    "both Hamiltonians": (gd.parse_schedule, SCHEDULE_TEXT,   # the initial one is checked first
                          lambda d: [d[k][0].__setitem__(1, [3, 0]) for k in ("h_initial", "h_final")],
                          "h_initial", "matrix is not Hermitian: max |H - H^H| = 4.000e+00"),
}


def test_a_schedule_time_past_the_phase_bound_is_refused_at_time():
    with pytest.raises(gd.DocumentError) as err:
        gd.parse_schedule(edited(SCHEDULE_TEXT, lambda d: d.update(time=1.7e308)))
    assert err.value.path == "time"
    assert str(err.value).startswith("time: time 1.7e+308 times the spectral bound ")


@pytest.mark.parametrize("case", DOCUMENT_REFUSALS)
def test_each_document_refusal_names_its_field(case):
    parse, text, edit, path, message = DOCUMENT_REFUSALS[case]
    with pytest.raises(gd.DocumentError) as err:
        parse(edited(text, edit))
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")


def test_a_profile_of_other_player_count_is_refused():
    with pytest.raises(gd.DocumentError) as err:
        gd.parse_profile(PROFILE_TEXT, (2, 2, 2))
    assert str(err.value) == "distributions: expected 3 distributions, got 2"


def test_serialize_game_refuses_other_types():
    with pytest.raises(TypeError, match="^cannot serialize MixedProfile$"):
        gd.serialize_game(MixedProfile([[1.0], [1.0]]))


def test_a_failed_atomic_write_leaves_no_file(tmp_path):
    target = tmp_path / "out.json"
    with pytest.raises(UnicodeEncodeError):   # a lone surrogate has no UTF-8 form
        gd.write_text_atomic(str(target), "{}\ud800")
    assert list(tmp_path.iterdir()) == []


def finite_doc(counts, tensor) -> str:
    return json.dumps({"schema_version": 1, "kind": "finite", "strategy_counts": counts,
                       "payoff_tensors": [tensor] * len(counts)})


def nested_zero(depth):
    return [nested_zero(depth - 1)] if depth else 0


def test_finite_game_past_numpy_rank_is_refused_before_any_tensor(monkeypatch):
    limit = gd.MAX_FINITE_PLAYERS
    assert len(gd.parse_game(finite_doc([1] * limit, nested_zero(limit))).payoff_tensors) == limit

    def refuse(*args):
        raise AssertionError("a payoff tensor was decoded")

    monkeypatch.setattr(gd, "_reals", refuse)
    with pytest.raises(gd.DocumentError, match=f"70 players exceed the limit of {limit}") as err:
        gd.parse_game(finite_doc([1] * 70, nested_zero(70)))
    assert err.value.path == "strategy_counts"


def test_one_entry_play_factor_is_a_document_error():
    text = '{"schema_version":1,"kind":"play","factors":[[[1,0]],[[1,0],[0,0]]]}'
    with pytest.raises(gd.DocumentError, match="dimension >= 2") as err:
        gd.parse_play(text)
    assert err.value.path == "factors[0]"


# ---------------------------------------------------------------- fuzzing ---

# Whole documents for the four parsers: every field may be missing, of the
# wrong kind or wrongly nested, or a value taken from a valid document, so
# the walks reach deep paths; each parse must end in a document or a DocumentError
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(), st.floats(),
    st.text(max_size=3), st.just(10**400),
)
json_values = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from("ab"), kids, max_size=2),
    max_leaves=6,
)
fuzz_reals = st.one_of(st.integers(-2, 2), st.floats(-2, 2), json_leaves)
fuzz_vectors = st.lists(st.lists(fuzz_reals, min_size=2, max_size=2) | json_leaves, max_size=4)
fuzz_matrices = st.lists(fuzz_vectors, max_size=4)
huge_ints = st.sampled_from([2**31, 10**12, 10**30, 10**400])
fuzz_dims = st.lists(st.integers(-1, 5) | huge_ints | json_leaves, max_size=4)
fuzz_tensors = st.recursive(fuzz_reals, lambda kids: st.lists(kids, max_size=3), max_leaves=8)
fuzz_specs = st.dictionaries(st.sampled_from(["overlap", "observable", "other"]),
                             fuzz_vectors | st.lists(fuzz_reals, max_size=16) | json_values,
                             max_size=2)


FUZZ_KINDS = ["finite", "quantum", "play", "profile", "schedule"]


def valid_fields(text):
    return {key: st.just(value) for key, value in json.loads(text).items()}


def fuzz_documents(kind, fields, valid):
    def field(key, strategy):
        return st.one_of(strategy, json_values, valid[key])

    doc = st.fixed_dictionaries(
        {"schema_version": st.one_of(st.just(1), json_values),
         "kind": st.one_of(st.just(kind), st.sampled_from(FUZZ_KINDS), json_values)},
        optional={**{key: field(key, s) for key, s in fields.items()}, "extra": json_values},
    )
    return st.one_of(doc, st.lists(doc, max_size=1)).map(json.dumps)


FINITE_VALID = valid_fields(finite_doc([2, 2], [[1, 0], [0, 1]]))
QUANTUM_VALID = valid_fields(gd.serialize_game(bld.bell_state_preparation_demo()))
PLAY_VALID = valid_fields(gd.serialize_play(ProductPlay((PureState([1, 0]), PureState([0, 1])))))
PROFILE_VALID = valid_fields(gd.serialize_profile(MixedProfile(([0.5, 0.5], [1.0, 0.0]))))
SCHEDULE_VALID = valid_fields(gd.serialize_schedule(bld.demo_adiabatic_schedule()))

fuzz_cases = st.one_of(
    st.tuples(st.just(gd.parse_game), fuzz_documents(
        "finite", {"strategy_counts": fuzz_dims, "payoff_tensors": st.lists(fuzz_tensors, max_size=3)},
        FINITE_VALID), st.just(())),
    st.tuples(st.just(gd.parse_game), fuzz_documents(
        "quantum", {"dims": fuzz_dims, "unitary": fuzz_matrices,
                    "payoffs": st.lists(fuzz_specs | json_values, max_size=3)},
        QUANTUM_VALID), st.just(())),
    st.tuples(st.just(gd.parse_play), fuzz_documents(
        "play", {"factors": st.lists(fuzz_vectors, max_size=3)}, PLAY_VALID),
        st.just(()) | st.tuples(st.lists(st.integers(2, 4), min_size=2, max_size=3))),
    st.tuples(st.just(gd.parse_profile), fuzz_documents(
        "profile", {"distributions": st.lists(st.lists(fuzz_reals, max_size=3), max_size=3)},
        PROFILE_VALID),
        st.just(()) | st.tuples(st.lists(st.integers(1, 3), min_size=2, max_size=3))),
    st.tuples(st.just(gd.parse_schedule), fuzz_documents(
        "schedule", {"h_initial": fuzz_matrices, "h_final": fuzz_matrices,
                     "s_values": st.lists(fuzz_reals, max_size=3), "time": fuzz_reals},
        SCHEDULE_VALID), st.just(())),
)


@settings(max_examples=300, deadline=None)
@given(fuzz_cases)
@example((gd.parse_game, DEEP, ()))
@example((gd.parse_game, finite_doc([1] * 70, nested_zero(70)), ()))
def test_parsers_return_a_document_or_a_document_error(case):
    parse, text, extra = case
    try:
        parse(text, *extra)
    except gd.DocumentError:
        pass


# -------------------------------------------------- norm window behavior ---

def play_doc_with_first_amplitude(value: str) -> str:
    return (
        '{"schema_version":1,"kind":"play","factors":'
        f'[[[{value},0],[0,0]],[[1,0],[0,0]]]}}'
    )


def test_norm_within_working_precision_passes_verbatim():
    # a vector one ulp off unit norm must come back byte-identical, not get
    # nudged by a gratuitous renormalization
    value = np.nextafter(1.0, 0.0)
    text = play_doc_with_first_amplitude(gd.canonical_json(value))
    play = gd.parse_play(text, (2, 2))
    assert play.factors[0].amplitudes[0].real == value
    assert gd.serialize_play(play) == text


def test_norm_in_window_is_renormalized():
    text = play_doc_with_first_amplitude("1.00000001")
    play = gd.parse_play(text, (2, 2))
    assert abs(np.linalg.norm(play.factors[0].amplitudes) - 1.0) <= 1e-12
    # second pass is a fixed point
    once = gd.serialize_play(play)
    assert gd.serialize_play(gd.parse_play(once, (2, 2))) == once


def test_norm_outside_window_is_rejected():
    with pytest.raises(gd.DocumentError, match="window"):
        gd.parse_play(play_doc_with_first_amplitude("1.01"), (2, 2))
    with pytest.raises(gd.DocumentError, match="zero"):
        gd.parse_play(play_doc_with_first_amplitude("0").replace("[[0,0],[0,0]]", "[[0,0],[0,0]]"), (2, 2))


# ------------------------------------------------------------ file output ---

def test_write_text_atomic_leaves_no_droppings(tmp_path):
    path = tmp_path / "out.json"
    gd.write_text_atomic(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    gd.write_text_atomic(str(path), "replaced\n")
    assert path.read_text() == "replaced\n"
    leftovers = [n for n in os.listdir(tmp_path) if n != "out.json"]
    assert leftovers == []


def test_trace_csv_layout(tmp_path):
    game = bld.bell_state_preparation_demo()
    out = qq.iterated_best_response(game, seed=11, tol=1e-7)
    path = tmp_path / "trace.csv"
    gd.write_trace_csv(str(path), out.trace, 2)
    lines = path.read_text().splitlines()
    assert lines[0] == "sweep,payoff_p1_re,payoff_p1_im,payoff_p2_re,payoff_p2_im,step_distance"
    assert len(lines) == 1 + len(out.trace)
    first = lines[1].split(",")
    assert int(first[0]) == out.trace[0].sweep
    assert float(first[1]) == pytest.approx(out.trace[0].payoffs[0].real, abs=0)


def test_trace_csv_refuses_a_record_that_does_not_match_its_header(tmp_path):
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match=r"^trace record of sweep 1 holds 1 payoffs, expected 2$"):
        gd.write_trace_csv(str(path), [qq.TraceRecord(1, (1 + 0j,), 0.0)], 2)
    assert os.listdir(tmp_path) == []


def test_sweep_csv_layout(tmp_path):
    sched = bld.demo_adiabatic_schedule()
    small = bld.AdiabaticSchedule(sched.h_initial, sched.h_final, (0.0,), sched.time)
    report = bld.sweep_adiabatic(small, 1, seed=17)
    path = tmp_path / "sweep.csv"
    gd.write_sweep_csv(str(path), report.rows)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "s,start_id,outcome,iterations,"
        "payoff_player1_re,payoff_player1_im,ground_overlap_magnitude"
    )
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert cells[2] in ("converged", "cycle_resolved", "cycle_detected", "max_iterations")


def test_point_cloud_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    pts = rng.normal(size=(50, 3))
    path = tmp_path / "cloud.csv"
    gd.write_point_cloud(str(path), pts)
    back = gd.read_point_cloud(str(path))
    assert_allclose(back, pts, atol=0)
    # header is optional on the way in
    headerless = "\n".join(path.read_text().splitlines()[1:]) + "\n"
    (tmp_path / "bare.csv").write_text(headerless)
    assert_allclose(gd.read_point_cloud(str(tmp_path / "bare.csv")), pts, atol=0)


def test_point_cloud_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n1,2\n")
    with pytest.raises(gd.DocumentError, match="3 columns"):
        gd.read_point_cloud(str(path))
    path.write_text("x,y,z\n1,2,zebra\n")
    with pytest.raises(gd.DocumentError, match="not a number"):
        gd.read_point_cloud(str(path))
    path.write_text("")
    with pytest.raises(gd.DocumentError, match="empty"):
        gd.read_point_cloud(str(path))


# ------------------------------------------ bulk codec against references ---
# The element-by-element codec the bulk paths replaced, kept as the oracle:
# the scalar real format, the recursive emitter and the per-element decoders.

def reference_format_real(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite real {x!r}")
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


def reference_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return reference_format_real(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return "{" + ",".join(json.dumps(key) + ":" + reference_json(item)
                              for key, item in value.items()) + "}"
    return "[" + ",".join(reference_json(item) for item in value) + "]"


def reference_pairs(a: np.ndarray):
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [reference_pairs(row) for row in a]


def reference_real(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise gd.DocumentError(path, f"expected a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise gd.DocumentError(path, "integer literal is too large for a real") from None
    if not math.isfinite(x):
        raise gd.DocumentError(path, f"expected a finite real, got {value!r}")
    return x


def reference_vector(value, path, length=None):
    if not isinstance(value, list):
        raise gd.DocumentError(path, f"expected a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise gd.DocumentError(path, f"expected {length} entries, got {len(value)}")
    out = []
    for k, z in enumerate(value):
        if not isinstance(z, list) or len(z) != 2:
            raise gd.DocumentError(f"{path}[{k}]", f"expected a [re, im] pair, got {z!r}")
        out.append(complex(reference_real(z[0], f"{path}[{k}][0]"),
                           reference_real(z[1], f"{path}[{k}][1]")))
    return np.array(out, dtype=np.complex128)


def reference_matrix(value, path, size=None):
    if not isinstance(value, list):
        raise gd.DocumentError(path, f"expected a list, got {type(value).__name__}")
    if size is not None and len(value) != size:
        raise gd.DocumentError(path, f"expected {size} rows, got {len(value)}")
    width, parsed = size, []
    for r, row in enumerate(value):
        vec = reference_vector(row, f"{path}[{r}]", width)
        width = vec.size if width is None else width
        parsed.append(vec)
    if not parsed:
        raise gd.DocumentError(path, "matrix must be nonempty")
    return np.vstack(parsed)


def reference_nested(value, shape, path):
    if not shape:
        return np.array(reference_real(value, path))
    if not isinstance(value, list):
        raise gd.DocumentError(path, f"expected a list, got {type(value).__name__}")
    if len(value) != shape[0]:
        raise gd.DocumentError(path, f"expected {shape[0]} entries, got {len(value)}")
    return np.stack([reference_nested(v, shape[1:], f"{path}[{k}]") for k, v in enumerate(value)])


def outcome(decode, *args):
    """The decoded bytes, or the error's type, field path and message."""
    try:
        result = decode(*args)
    except gd.DocumentError as exc:
        return type(exc), exc.path, str(exc)
    return result.dtype, result.shape, result.tobytes()


EDGE_REALS = (0.0, -0.0, 5e-324, -2.2250738585072e-308, 1.7e308, -1.7e308,
              3.0, -12.0, 2.0**53, 0.1)
reals = st.one_of(st.sampled_from(EDGE_REALS), st.floats(allow_nan=False, allow_infinity=False))
shapes = st.one_of(st.tuples(st.integers(0, 16)), st.tuples(st.integers(1, 16), st.integers(0, 16)))


@settings(max_examples=40, deadline=None)
@given(shapes, st.lists(reals, min_size=1, max_size=24))
def test_bulk_codec_matches_the_element_walk(shape, values):
    # the drawn values, repeated cyclically to fill the array
    pairs = np.resize(np.array(values, dtype=np.float64), shape + (2,))
    real = pairs[..., 0].copy()
    assert gd.canonical_json(real) == reference_json(real.tolist())
    z = pairs.view(np.complex128).reshape(shape)
    text = gd.canonical_json(z)
    assert text == reference_json(reference_pairs(z))
    doc = json.loads(text)   # integer-valued entries come back as int leaves
    if len(shape) == 1:
        assert outcome(gd._reals, doc, shape, "v", True) == outcome(
            reference_vector, doc, "v", shape[0])
    elif shape[0]:
        assert outcome(gd._complex_matrix, doc, "m", None) == outcome(
            reference_matrix, doc, "m", None)
    if all(shape):   # strategy counts are at least 1
        doc = json.loads(gd.canonical_json(real))
        assert outcome(gd._reals, doc, shape, "t") == outcome(
            reference_nested, doc, shape, "t")


# each leaf as a (document value, plain Python twin) pair; the oracle reads the twin
TRICKY_TEXT = st.one_of(st.sampled_from(["%", "%%", '"', "%.17g", "%s%(x)d", "é", "☃ 100%"]),
                        st.text(max_size=8))
ARRAY_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
document_leaves = st.one_of(
    st.none().map(lambda v: (v, v)),
    st.booleans().map(lambda v: (v, v)),
    st.integers(-2**70, 2**70).map(lambda v: (v, v)),
    st.integers(-2**63, 2**63 - 1).map(lambda v: (np.int64(v), v)),
    reals.map(lambda v: (v, v)),
    reals.map(lambda v: (np.float64(v), v)),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(
        lambda v: (np.float32(v), float(np.float32(v)))),
    TRICKY_TEXT.map(lambda v: (v, v)),
    hnp.arrays(np.float64, ARRAY_SHAPES, elements=reals).map(lambda a: (a, a.tolist())),
    hnp.arrays(np.float64, ARRAY_SHAPES.map(lambda s: s + (2,)), elements=reals).map(
        lambda a: (a.view(np.complex128)[..., 0], a.tolist())),
)
documents = st.recursive(document_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4).map(lambda items: ([v for v, _ in items], [p for _, p in items])),
    st.dictionaries(TRICKY_TEXT, kids, max_size=4).map(lambda d: (
        {k: v for k, (v, _) in d.items()}, {k: p for k, (_, p) in d.items()})),
), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_one_template_emitter_matches_the_element_walk(case):
    value, plain = case
    text = gd.canonical_json(value)
    assert text == reference_json(plain)
    assert json.loads(text) == plain   # -0.0 and integer-valued reals read back equal


def test_a_document_formats_its_reals_in_one_call(monkeypatch):
    calls = []
    format_reals = gd._format_reals

    def counted(*args):
        calls.append(args)
        return format_reals(*args)

    monkeypatch.setattr(gd, "_format_reals", counted)
    certificate = {"kind": "certificate", "accepted": True, "epsilon": 1e-6,
                   "per_player_gain": [0.0, 2.5e-9], "probes_per_player": 64,
                   "max_probe_gain": 3.75e-7}
    text = gd.canonical_json(certificate)
    assert len(calls) == 1
    assert text == ('{"kind":"certificate","accepted":true,"epsilon":9.9999999999999995e-07,'
                    '"per_player_gain":[0,2.5000000000000001e-09],"probes_per_player":64,'
                    '"max_probe_gain":3.7500000000000001e-07}')


def test_bulk_emit_raises_format_reals_error_on_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as ref:
            reference_json([1.5, bad])
        with pytest.raises(ValueError) as new:
            gd.canonical_json(np.array([1.5, bad]))
        assert str(new.value) == str(ref.value)
        with pytest.raises(ValueError) as new:
            gd.canonical_json(np.array([[1.5, complex(0.0, bad)]]))
        assert str(new.value) == str(ref.value)


def test_every_real_writer_keeps_the_scalar_format(tmp_path):
    # canonical_json and the three CSV writers share one bulk rule;
    # each must write every cell as the scalar format did, and refuse alike;
    # a % in a sweep row's label is text, not a template slot
    reals = EDGE_REALS + (-1 / 3, 1e-300, -2.0**60, 7.5, 1.0)   # 15 values
    cell = reference_format_real
    for x in reals:
        assert gd.canonical_json(x) == cell(x)
    assert gd.canonical_json(list(reals)) == "[" + ",".join(map(cell, reals)) + "]"
    path = str(tmp_path / "out.csv")

    def written(write, *args):
        write(path, *args)
        with open(path) as handle:
            return handle.read().splitlines()

    trace = [qq.TraceRecord(k, (complex(a, b), complex(c, d)), e)
             for k, (a, b, c, d, e) in enumerate(np.reshape(reals, (3, 5)).tolist(), 1)]
    assert written(gd.write_trace_csv, trace, 2)[1:] == [
        ",".join([str(r.sweep), *(cell(x) for z in r.payoffs for x in (z.real, z.imag)),
                  cell(r.step_distance)]) for r in trace]
    rows = [bld.SweepRow(s, k, "cycle_%s", 7 * k, complex(a, b), m, True)
            for k, (s, a, b, m) in enumerate(np.resize(reals, (4, 4)).tolist())]
    assert written(gd.write_sweep_csv, rows)[1:] == [
        ",".join([cell(r.s), str(r.start_id), r.outcome, str(r.iterations),
                  cell(r.payoff_player1.real), cell(r.payoff_player1.imag),
                  cell(r.ground_overlap_magnitude)]) for r in rows]
    points = np.reshape(reals, (5, 3))
    assert written(gd.write_point_cloud, points) == ["x,y,z"] + [
        ",".join(map(cell, p)) for p in points.tolist()]
    # no rows: the header alone
    assert written(gd.write_point_cloud, np.empty((0, 3))) == ["x,y,z"]
    assert written(gd.write_trace_csv, [], 1) == ["sweep,payoff_p1_re,payoff_p1_im,step_distance"]
    assert len(written(gd.write_sweep_csv, [])) == 1
    os.remove(path)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as ref:
            cell(bad)
        message = f"^{re.escape(str(ref.value))}$"
        with pytest.raises(ValueError, match=message):
            gd.canonical_json(bad)
        with pytest.raises(ValueError, match=message):
            gd.write_trace_csv(path, [qq.TraceRecord(1, (complex(0.5, bad),), 0.0)], 1)
        with pytest.raises(ValueError, match=message):
            gd.write_sweep_csv(path, [bld.SweepRow(0.5, 0, "converged", 1, 0j, bad, True)])
        with pytest.raises(ValueError, match=message):
            gd.write_point_cloud(path, [[0.0, bad, 1.0]])
        assert not os.path.exists(path)


MALFORMED_LEAVES = ("true", '"1.5"', "null", "NaN", "1e400", "1" + "0" * 400)
WIDE_INTEGER_LEAVES = ("1" + "0" * 300, str(2**64 + 1), "-0")


@pytest.mark.parametrize("leaf", MALFORMED_LEAVES + WIDE_INTEGER_LEAVES)
@pytest.mark.parametrize("where", (0, -1))
def test_leaves_decode_as_the_element_walk_does(leaf, where):
    text = reference_json(reference_pairs(haar_random_state(16, 7).amplitudes.reshape(4, 4)))
    cut = text.index("[[[") + 3 if where == 0 else text.rindex(",") + 1
    end = text.index(",", cut) if where == 0 else text.index("]", cut)
    bad = json.loads(text[:cut] + leaf + text[end:])
    assert outcome(gd._complex_matrix, bad, "m", 4) == outcome(reference_matrix, bad, "m", 4)
    assert outcome(gd._complex_matrix, bad, "m") == outcome(reference_matrix, bad, "m")
    assert outcome(gd._reals, bad[where], (4,), "v", True) == outcome(
        reference_vector, bad[where], "v", 4)
    assert outcome(gd._reals, bad, (4, 4, 2), "t") == outcome(
        reference_nested, bad, (4, 4, 2), "t")
    malformed = outcome(gd._reals, bad[where], (4,), "v", True)[0] is gd.DocumentError
    assert malformed == (leaf in MALFORMED_LEAVES)


@pytest.mark.parametrize("mangle", ("short row", "long row", "triple", "single", "scalar row",
                                    "dict row", "empty"))
def test_malformed_shapes_fail_as_the_element_walk_does(mangle):
    m = reference_pairs(haar_random_state(16, 8).amplitudes.reshape(4, 4))
    if mangle == "short row":
        del m[2][1]
    elif mangle == "long row":
        m[3].append([0, 0])
    elif mangle == "triple":
        m[1][3].append(0.5)
    elif mangle == "single":
        m[0][0] = [0.5]
    elif mangle == "scalar row":
        m[2] = 0.5
    elif mangle == "dict row":
        m[1] = {"re": 1}
    else:
        m = []
    for size in (4, None):
        got = outcome(gd._complex_matrix, m, "m", size)
        assert got[0] is gd.DocumentError
        assert got == outcome(reference_matrix, m, "m", size)
    assert outcome(gd._reals, m, (4, 4, 2), "t") == outcome(
        reference_nested, m, (4, 4, 2), "t")


# a fault replaces a node with one of these, or drops or repeats a list item
FAULT_NODES = (True, None, "1.5", math.nan, math.inf, -math.inf, 10**400, 0.5, [0.5],
               [0.5, 0.5, 0.5], {"re": 1})


def inject_fault(value: list, data) -> None:
    """One fault at a drawn depth of ``value``, changed in place."""
    node, parent, index = value, None, None
    while isinstance(node, list) and node and data.draw(st.booleans()):
        parent, index = node, data.draw(st.integers(0, len(node) - 1))
        node = node[index]
    kind = data.draw(st.sampled_from(("replace", "drop", "repeat")))
    if kind == "drop" and isinstance(node, list) and node:
        del node[data.draw(st.integers(0, len(node) - 1))]
    elif kind == "repeat" and isinstance(node, list) and node:
        node.append(copy.deepcopy(node[-1]))
    elif parent is not None:   # a copy, since later faults may change it in place
        parent[index] = copy.deepcopy(data.draw(st.sampled_from(FAULT_NODES)))
    else:
        value.append(copy.deepcopy(data.draw(st.sampled_from(FAULT_NODES))))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.booleans(), st.data())
def test_values_with_several_faults_fail_as_the_element_walk_does(shape, pairs, data):
    shape = tuple(shape)
    size = math.prod(shape) * (2 if pairs else 1)
    leaves = data.draw(st.lists(reals, min_size=size, max_size=size))
    value = np.reshape(leaves, shape + (2,) * pairs).tolist()
    for _ in range(data.draw(st.integers(2, 4))):
        inject_fault(value, data)
    if not pairs:
        assert outcome(gd._reals, value, shape, "t") == outcome(
            reference_nested, value, shape, "t")
    elif len(shape) == 1:
        assert outcome(gd._reals, value, shape, "v", True) == outcome(
            reference_vector, value, "v", shape[0])
    else:
        for size in (shape[0], None):
            assert outcome(gd._complex_matrix, value, "m", size) == outcome(
                reference_matrix, value, "m", size)


@pytest.mark.parametrize("leaf", MALFORMED_LEAVES + ("[1]",))
def test_observable_eigenvalues_fail_at_their_field(leaf):
    game = qq.QuantumGame((2, 2), np.eye(4), [qq.ObservablePayoff(np.arange(4.0))] * 2)
    text = gd.serialize_game(game)
    assert gd.serialize_game(gd.parse_game(text)) == text
    bad = text.replace('"observable":[0,1,2,3]}]', f'"observable":[0,1,{leaf},3]}}]')
    entries = json.loads(bad)["payoffs"][1]["observable"]
    with pytest.raises(gd.DocumentError) as ref:
        np.array([reference_real(e, f"payoffs[1].observable[{k}]") for k, e in enumerate(entries)])
    with pytest.raises(gd.DocumentError) as new:
        gd.parse_game(bad)
    assert (new.value.path, str(new.value)) == (ref.value.path, str(ref.value))


@pytest.mark.parametrize("leaf", MALFORMED_LEAVES + ("[1]",))
def test_profile_and_schedule_reals_fail_at_their_field(leaf):
    profile = gd.serialize_profile(MixedProfile([[0.5, 0.5], [0.25, 0.75]]))
    schedule = gd.serialize_schedule(bld.demo_adiabatic_schedule())
    cases = [
        (gd.parse_profile, profile.replace("0.25,0.75", f"0.25,{leaf}"),
         lambda doc: doc["distributions"][1][1], "distributions[1][1]"),
        (gd.parse_schedule, schedule.replace('"s_values":[0,', f'"s_values":[{leaf},'),
         lambda doc: doc["s_values"][0], "s_values[0]"),
    ]
    for parse, bad, entry, path in cases:
        with pytest.raises(gd.DocumentError) as ref:
            reference_real(entry(json.loads(bad)), path)
        with pytest.raises(gd.DocumentError) as new:
            parse(bad)
        assert (new.value.path, str(new.value)) == (ref.value.path, str(ref.value))


def test_point_cloud_bulk_paths_match_the_per_line_walk(tmp_path):
    pts = np.array([[-0.0, 5e-324, 1.7e308], [3.0, -1 / 3, 0.1], [1e-300, -2.0**60, 7.5]])
    path = tmp_path / "cloud.csv"
    gd.write_point_cloud(str(path), pts)
    rows = [",".join(reference_format_real(float(c)) for c in p) for p in pts]
    assert path.read_text() == "\n".join(["x,y,z"] + rows) + "\n"
    # float() spellings numpy's own parser may read differently
    path.write_text(" 1e3 , +2.5,-0\n1_0,  .5,-INF\n")
    with pytest.raises(gd.DocumentError, match="non-finite"):
        gd.read_point_cloud(str(path))
    path.write_text(" 1e3 , +2.5,-0\n1_0,  .5,4.\n")
    assert gd.read_point_cloud(str(path)).tolist() == [[1000.0, 2.5, 0.0], [10.0, 0.5, 4.0]]
    # the first malformed line is named, with or without a header, even when
    # the cell count divides by three
    path.write_text("x,y,z\n1,2,3\n1,2,3,4\n1,2\n")
    with pytest.raises(gd.DocumentError, match=r"^line 3: expected 3 columns, got 4$"):
        gd.read_point_cloud(str(path))
    path.write_text("1,2,3\n1,2,x\n1,2\n")
    with pytest.raises(gd.DocumentError, match=r"^line 2: not a number: "):
        gd.read_point_cloud(str(path))
    path.write_text("x,y,z\n")
    assert gd.read_point_cloud(str(path)).shape == (0, 3)
    gd.write_point_cloud(str(path), np.empty((0, 3)))   # an empty cloud round-trips
    assert gd.read_point_cloud(str(path)).shape == (0, 3)
