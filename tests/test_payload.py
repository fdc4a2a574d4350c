"""The JSON decoding boundary: strict payload helpers, and a fuzz of every
CLI verb that reads JSON over single-value mutations of valid payloads."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskein import cli, disc
from qskein import surface as surf
from qskein.disc import DiscElement
from qskein.payload import PayloadError
from qskein.qseed import QuantumSeed
from qskein.qtorus import SkewForm, TorusElement

FAN5 = [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3], [3, 4], [4, 5]]
SEED4 = cli._disc_preset(4)
EX4 = SEED4.ex[0]


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- the decoders ------------------------------------------------------------


@pytest.mark.parametrize(
    "decode, data, message",
    [
        (TorusElement.from_json, {"rank": 1, "lambda": [[0]], "terms": [{"exp": [1.5], "coeff": "1"}]},
         "terms[0].exp[0]: expected int, got 1.5"),
        (TorusElement.from_json, {"rank": 2, "lambda": [[0]], "terms": []},
         "lambda: expected 2 entries, got 1"),
        (TorusElement.from_json, {"rank": 1, "lambda": [[0]], "terms": [{"exp": [1], "coeff": 1}]},
         "terms[0].coeff: expected a coefficient string, got 1"),
        (TorusElement.from_json, {"rank": 1, "lambda": [[0]], "terms": [{"exp": [1], "coeff": "q^"}]},
         "terms[0].coeff: cannot parse coefficient term: 'q^'"),
        (DiscElement.from_json, {"n": 4, "terms": [{"chords": [[1, 3.0]], "coeff": "1"}]},
         "terms[0].chords[0][1]: expected int, got 3.0"),
        (DiscElement.from_json, {"n": 4, "terms": [{"chords": [[1, 3]], "weights": [True], "coeff": "1"}]},
         "terms[0].weights[0]: expected int, got true"),
        (DiscElement.from_json, {"n": 4, "terms": [{"weights": [], "coeff": "1"}]},
         'terms[0]: missing field "chords"'),
        (DiscElement.from_json, None, "expected an object, got null"),
        (QuantumSeed.from_json, {"lambda": [], "frame": {}, "B": [], "ex": []},
         "lambda: a seed needs at least one variable"),
        (QuantumSeed.from_json, {**SEED4.to_json(), "frame": {**SEED4.to_json()["frame"], "5": 0}},
         "frame: expected exactly the fields 0..4"),
        (surf.TriangulatedSurface.from_json,
         {**surf.build_disc(3).to_json(), "arcs": [{"boundary": 1, "ends": [0, 1]}]},
         "arcs[0].boundary: expected true or false, got 1"),
    ],
)
def test_decoders_name_the_json_path(decode, data, message):
    with pytest.raises(PayloadError) as info:
        decode(data)
    assert str(info.value) == message


def test_nested_frame_errors_name_the_frame_path():
    data = SEED4.to_json()
    data["frame"]["2"]["terms"][0]["exp"][0] = "0"
    with pytest.raises(PayloadError, match=r'^frame\.2\.terms\[0\]\.exp\[0\]: expected int, got "0"$'):
        QuantumSeed.from_json(data)


def test_disc_weights_default_to_one():
    x = disc.reduce_word(5, [(1, 3), (2, 4)])
    data = x.to_json()
    for t in data["terms"]:
        del t["weights"]
    assert DiscElement.from_json(data) == x


# -- the library constructors -------------------------------------------------


FORM1 = SkewForm([[0]])
FORM2 = SkewForm([[0, 1], [-1, 0]])

#: Each builds one object with the value ``bad`` where an int belongs.
CONSTRUCTORS = {
    "chord end": lambda bad: DiscElement.basis(5, [(bad, 3)]),
    "multiset weight": lambda bad: disc.multiset_key(5, [(1, 3)], [bad]),
    "localize weight": lambda bad: disc.localize(DiscElement.one(5), {(1, 2): bad}),
    "form entry": lambda bad: SkewForm([[0, bad], [0, 0]]),
    "torus exponent": lambda bad: TorusElement(FORM2, {(bad, 0): 1}),
    "coefficient": lambda bad: TorusElement(FORM2, {(1, 0): bad}),
    "coefficient exponent": lambda bad: TorusElement(FORM2, {(1, 0): {bad: 1}}),
    "exchangeable index": lambda bad: QuantumSeed.initial(FORM1, [[0]], [bad]),
    "exchange entry": lambda bad: QuantumSeed.initial(FORM1, [[bad]], [0]),
    "frame exponent": lambda bad: QuantumSeed.initial(FORM2, [[], []], []).frame_monomial([bad, 0]),
    "fan entry": lambda bad: surf.TriangulatedSurface([[(bad, 0)]]),
    "triangulation chord": lambda bad: surf.from_chords(3, [(bad, 2), (2, 3), (1, 3)]),
}


@pytest.mark.parametrize("bad", [1.7, 1.5, "1"])
@pytest.mark.parametrize("site", sorted(CONSTRUCTORS))
def test_library_constructors_reject_non_integers(site, bad):
    with pytest.raises(TypeError):
        CONSTRUCTORS[site](bad)


# -- the command line ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["skein", "reduce", "--n", "6", "--word", "[[1.7,3]]"], "--word: [0][0]: expected int, got 1.7"),
        (["skein", "reduce", "--n", "6", "--word", "[[true,3]]"], "--word: [0][0]: expected int, got true"),
        (["skein", "mu", "--n", "4", "--x", '{"n": 4, "terms": [{"chords": [], "weights": [1, 2], "coeff": "1"}]}',
          "--y", "[[1,3]]"], "--x: terms[0].weights: expected 0 entries, got 2"),
        (["seed", "check", "--state", '{"lambda": [], "frame": {}, "B": [], "ex": []}'],
         "--state: lambda: a seed needs at least one variable"),
        (["seed", "member", "--preset", "pentagon", "--element", "[1,0,0,0,0,0,true]"],
         "--element: [6]: expected int, got true"),
    ],
)
def test_malformed_payloads_are_input_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_json_nested_too_deeply_to_parse_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, ["skein", "reduce", "--n", "4", "--word", "[" * 5000 + "]" * 5000])
    assert code == 2
    assert err.startswith("input error: --word: malformed JSON: maximum recursion depth exceeded")


def test_seed_with_a_fractional_exchange_entry_is_an_input_error(capsys):
    data = cli._disc_preset(5).to_json()
    data["B"][0][0] = 1.5
    code, _, err = run_cli(capsys, ["seed", "check", "--state", json.dumps(data)])
    assert code == 2
    assert err == "input error: --state: B[0][0]: expected int, got 1.5\n"


# -- fuzz ----------------------------------------------------------------------


def _mutations(value, path=()):
    """Every single-value mutation of a JSON value, as (path, kind, new value).

    Scalars change type (an int to a float, bool or str; a bool to an int
    or str; a str to an int), lists of scalars lose their last entry or
    gain a copy of it, and objects lose one field.
    """
    out = []
    if isinstance(value, dict):
        for key, item in value.items():
            out.append((path + (key,), "remove", None))
            out.extend(_mutations(item, path + (key,)))
    elif isinstance(value, list):
        if all(not isinstance(v, (list, dict)) for v in value):
            out.append((path, "replace", value[:-1]))
            out.append((path, "replace", value + value[-1:] if value else [0]))
        for i, item in enumerate(value):
            out.extend(_mutations(item, path + (i,)))
    elif isinstance(value, bool):
        out += [(path, "replace", int(value)), (path, "replace", str(value).lower())]
    elif isinstance(value, int):
        out += [(path, "replace", v) for v in (value + 0.5, float(value), value == 0, str(value))]
    elif isinstance(value, str):
        out.append((path, "replace", 1))
    return out


def _apply(value, mutation):
    path, kind, new = mutation
    if not path:
        return new
    value = copy.deepcopy(value)
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if kind == "remove":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return value


def _decodes_the_same(payload, mutation):
    """True when the mutated payload must decode to the original object: it
    only touches surface ``components``, which decoding ignores, or drops
    disc ``weights`` that are all 1, the default."""
    path, kind, _ = mutation
    if "components" in path:
        return True
    return kind == "remove" and path[-1] == "weights" and set(_at(payload, path)) <= {1}


def _at(value, path):
    for key in path:
        value = value[key]
    return value


ELEMENT5 = disc.reduce_word(5, [(1, 3), (2, 4)]).to_json()

# (argv before the payload, option carrying it, payload, argv after it)
CASES = {
    "skein-reduce": (["skein", "reduce", "--n", "6"], "--word", [[1, 4], [2, 5], [3, 6]], []),
    "skein-product": (["skein", "product", "--n", "5"], "--x", ELEMENT5, ["--y", "[[2,5]]"]),
    "skein-expand": (["skein", "expand", "--n", "5", "--x", "[[2,4]]"], "--delta", FAN5, []),
    "skein-mu": (["skein", "mu", "--n", "5", "--y", "[[1,3]]"], "--x", ELEMENT5, []),
    "seed-mutate": (["seed", "mutate", "--at", str(EX4)], "--state", SEED4.mutate(EX4).to_json(), []),
    "seed-check": (["seed", "check"], "--state", SEED4.to_json(), []),
    "seed-freeze": (["seed", "freeze", "--drop", str(EX4)], "--state", SEED4.to_json(), []),
    "seed-member-state": (["seed", "member", "--element", "[0,1,0,0,0]"], "--state", SEED4.to_json(), []),
    "seed-member-vector": (["seed", "member", "--state", json.dumps(SEED4.to_json())], "--element",
                           [1, 0, -1, 0, 2], []),
    "seed-member-element": (["seed", "member", "--state", json.dumps(SEED4.to_json())], "--element",
                            SEED4.mutate(EX4).frame[EX4].to_json(), []),
    "surface-flip": (["surface", "flip", "--arc", "2"], "--surface", surf.build_disc(5).to_json(), []),
    "surface-cut": (["surface", "cut", "--arc", "2"], "--surface", surf.build_disc(5).to_json(), []),
    "surface-matrices": (["surface", "matrices"], "--surface", surf.build_annulus(1, 1).to_json(), []),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_mutated_payloads_exit_0_only_when_they_decode_the_same(capsys, name):
    before, option, payload, after = CASES[name]
    mutations = _mutations(payload)

    def argv(data):
        return ["--json", *before, option, json.dumps(data), *after]

    code, want, err = run_cli(capsys, argv(payload))
    assert code in (0, 1) and not err

    @given(st.sampled_from(mutations))
    @settings(max_examples=10, deadline=None)
    def check(mutation):
        got = run_cli(capsys, argv(_apply(payload, mutation)))
        if _decodes_the_same(payload, mutation):
            assert got == (code, want, "")
        else:
            assert got[:2] == (2, "")
            assert got[2].startswith(f"input error: {option}: ")
            assert got[2].count("\n") == 1

    check()


def test_an_object_where_a_value_belongs_is_named_as_such():
    with pytest.raises(PayloadError) as info:
        TorusElement.from_json({"rank": {}, "lambda": [], "terms": []})
    assert str(info.value) == "rank: expected int, got an object"
