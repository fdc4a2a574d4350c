"""Command-line interface: verbs, output modes, exit codes, round-trips."""

import hashlib
import json
import subprocess
import sys

import pytest

from qskein import cli, verify
from qskein.annulus import AnnulusModel
from qskein.qcoeff import DivisionFailure
from qskein.qseed import CompatibilityError, QuantumSeed
from qskein.qtorus import SkewForm, TorusElement
from qskein.surface import TriangulatedSurface, build_disc

FAN5 = "[[1,2],[1,3],[1,4],[1,5],[2,3],[3,4],[4,5]]"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSkein:
    def test_product_resolves_a_crossing(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "skein", "product", "--n", "4", "--word", "[[1,3],[2,4]]"
        )
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 4
        assert [t["chords"] for t in data["terms"]] == [
            [[1, 2], [3, 4]],
            [[1, 4], [2, 3]],
        ]
        assert [t["coeff"] for t in data["terms"]] == ["q", "q^-1"]

    def test_reduce_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "skein", "reduce", "--n", "4", "--word", "[[1,3],[2,4]]")
        assert code == 0
        assert out.startswith("DiscElement(")

    def test_flags_accepted_before_or_after_verb(self, capsys):
        _, before, _ = run_cli(
            capsys, "--json", "skein", "product", "--n", "4", "--word", "[[1,3],[2,4]]"
        )
        _, after, _ = run_cli(
            capsys, "skein", "product", "--n", "4", "--word", "[[1,3],[2,4]]", "--json"
        )
        assert before == after

    def test_product_of_two_elements(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "skein", "product", "--n", "4", "--x", "[[1,3]]", "--y", "[[2,4]]"
        )
        assert code == 0
        _, word_out, _ = run_cli(
            capsys, "--json", "skein", "product", "--n", "4", "--word", "[[1,3],[2,4]]"
        )
        assert out == word_out

    def test_expand_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "skein", "expand", "--n", "5", "--x", "[[2,4]]", "--delta", FAN5
        )
        assert code == 0
        data = json.loads(out)
        assert TorusElement.from_json(data).to_json() == data

    def test_mu_pair_and_vector(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "skein", "mu", "--n", "5", "--x", "[[2,4]]", "--y", "[[1,3]]")
        assert code == 0
        assert json.loads(out) == {"mu": 1}
        code, out, _ = run_cli(capsys, "--json", "skein", "mu", "--n", "5", "--x", "[[2,4]]", "--delta", FAN5)
        assert code == 0
        assert json.loads(out) == {"mu_delta": [0, 1, 0, 0, 0, 0, 0]}

    def test_malformed_json_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, "skein", "reduce", "--n", "4", "--word", "[[1,3],[2,")
        assert code == 2
        assert "input error" in err
        assert "line 1 column" in err

    def test_crossing_delta_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "skein", "expand", "--n", "4", "--x", "[[1,3]]", "--delta", "[[1,3],[2,4]]"
        )
        assert code == 2
        assert "cross" in err

    @pytest.mark.parametrize(
        "delta, message",
        [
            ("[[1,2],[2,3],[3,4],[1,4],[1,3],[1,3]]", "repeated chords"),
            ("[[1,2],[2,3],[3,4],[1,4]]", "a triangulation of the 4-gon has 5 chords, got 4"),
        ],
    )
    @pytest.mark.parametrize("verb", ["expand", "mu"])
    def test_non_triangulation_delta_is_an_input_error(self, capsys, verb, delta, message):
        code, _, err = run_cli(
            capsys, "skein", verb, "--n", "4", "--x", "[[1,3]]", "--delta", delta
        )
        assert code == 2
        assert err.strip() == f"input error: --delta: {message}"

    @pytest.mark.parametrize("n, word", [("4", "[[1,9]]"), ("2", "[[1,2]]")])
    def test_out_of_range_chord_is_an_input_error(self, capsys, n, word):
        code, _, err = run_cli(capsys, "skein", "reduce", "--n", n, "--word", word)
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("terms", ['[1]', '[{"chords": [[1, 3]], "coeff": [1]}]'])
    def test_malformed_element_payload_is_an_input_error(self, capsys, terms):
        x = '{"n": 4, "terms": %s}' % terms
        code, _, err = run_cli(capsys, "skein", "mu", "--n", "4", "--x", x, "--y", "[[1,3]]")
        assert code == 2
        assert err.startswith("input error: --x:")

    def test_cancelled_negative_internal_weight_is_an_input_error(self, capsys):
        x = '{"n": 5, "terms": [{"chords": [[1,3],[1,3]], "weights": [1,-1], "coeff": "1"}]}'
        code, out, err = run_cli(capsys, "skein", "mu", "--n", "5", "--x", x, "--y", "[[2,4]]")
        assert (code, out) == (2, "")
        assert err == "input error: --x: internal chord (1, 3) cannot have negative weight -1\n"

    def test_element_on_another_disc_is_an_input_error(self, capsys):
        other = '{"n": 5, "terms": [{"chords": [[2, 5]], "coeff": "1"}]}'
        code, _, err = run_cli(capsys, "skein", "mu", "--n", "4", "--x", other, "--y", "[[1,3]]")
        assert code == 2
        assert "5 marked points" in err

    def test_internal_error_is_not_an_input_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("invariant broken")

        monkeypatch.setattr(cli.disc, "reduce_word", broken)
        code, _, err = run_cli(capsys, "skein", "reduce", "--n", "4", "--word", "[[1,3]]")
        assert code == 3
        assert err.strip() == "internal error: ValueError: invariant broken"

    def test_deterministic_output(self, capsys):
        args = ("--json", "skein", "reduce", "--n", "6", "--word", "[[1,4],[2,5],[3,6]]")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestSeed:
    def test_mutate_twice_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "seed", "mutate", "--preset", "pentagon", "--at", "1")
        assert code == 0
        state = out.strip()
        code, out, _ = run_cli(capsys, "--json", "seed", "mutate", "--state", state, "--at", "1")
        assert code == 0
        back = QuantumSeed.from_json(json.loads(out))
        assert back == cli._disc_preset(5)

    def test_state_whose_lambda_disagrees_with_its_frame_is_an_input_error(self, capsys):
        data = cli._disc_preset(5).to_json()
        lam = data["lambda"]
        i, j = next((i, j) for i in range(7) for j in range(i + 1, 7) if lam[i][j])
        lam[i][j], lam[j][i] = -lam[i][j], -lam[j][i]
        code, _, err = run_cli(capsys, "seed", "mutate", "--state", json.dumps(data), "--at", "1")
        assert code == 2
        assert err.startswith(f"input error: --state: frame variables {i} and {j}")

    @pytest.mark.parametrize(
        "verb", [["enumerate"], ["member", "--element", "[0, 0, 0]"], ["mutate", "--at", "0"]]
    )
    def test_incompatible_state_is_an_input_error(self, capsys, verb):
        lam = SkewForm([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        state = json.dumps(QuantumSeed.initial(lam, [[0], [1], [1]], (0,)).to_json())
        code, _, err = run_cli(capsys, "seed", verb[0], "--state", state, *verb[1:])
        assert code == 2
        assert err.strip().endswith("(Lambda B)[1][0] = 1, expected 0")

    def test_check(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "seed", "check", "--preset", "annulus")
        assert code == 0
        assert json.loads(out) == {"ok": True, "diagonal": {"2": 4, "3": 4}}

    def test_freeze(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "seed", "freeze", "--preset", "annulus", "--drop", "2")
        assert code == 0
        data = json.loads(out)
        assert data["ex"] == [3]

    def test_enumerate_pentagon(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "seed", "enumerate", "--preset", "pentagon")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 5
        assert data["truncated"] is False

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_enumerate_rejects_max_seeds_below_one(self, capsys, value):
        code, out, err = run_cli(
            capsys, "seed", "enumerate", "--preset", "pentagon", "--max-seeds", value
        )
        assert code == 2
        assert out == ""
        assert "input error: --max-seeds" in err

    def test_enumerate_rejects_negative_max_depth(self, capsys):
        code, out, err = run_cli(
            capsys, "seed", "enumerate", "--preset", "pentagon", "--max-depth", "-3"
        )
        assert code == 2
        assert out == ""
        assert "input error: --max-depth" in err

    def test_enumerate_with_max_seeds_one_returns_one_seed(self, capsys):
        code, out, _ = run_cli(capsys, "seed", "enumerate", "--preset", "pentagon", "--max-seeds", "1")
        assert code == 0
        assert out.strip() == "1 seed(s); truncated: true"
        code, out, _ = run_cli(
            capsys, "--json", "seed", "enumerate", "--preset", "pentagon", "--max-seeds", "1"
        )
        data = json.loads(out)
        assert data["count"] == len(data["seeds"]) == 1
        assert QuantumSeed.from_json(data["seeds"][0]) == cli._disc_preset(5)

    def test_enumerate_at_depth_zero_keeps_the_initial_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "seed", "enumerate", "--preset", "pentagon", "--max-depth", "0"
        )
        assert code == 0
        assert json.loads(out)["count"] == 1

    def test_member_exit_codes(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "seed", "member", "--preset", "pentagon", "--element",
            "[0, 1, 0, 0, 0, 0, 0]",
        )
        assert code == 0
        assert json.loads(out) == {"member": True}
        code, out, _ = run_cli(
            capsys, "--json", "seed", "member", "--preset", "pentagon", "--element",
            "[0, -1, 0, 0, 0, 0, 0]",
        )
        assert code == 1
        assert json.loads(out) == {"member": False}

    def test_member_of_a_mutated_seed_is_an_input_error(self, capsys):
        _, state, _ = run_cli(capsys, "--json", "seed", "mutate", "--preset", "pentagon", "--at", "1")
        code, _, err = run_cli(
            capsys, "seed", "member", "--state", state.strip(), "--element", "[0, 1, 0, 0, 0, 0, 0]"
        )
        assert code == 2
        assert "input error" in err
        assert "initial seed" in err

    def test_mutate_at_frozen_index_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, "seed", "mutate", "--preset", "pentagon", "--at", "0")
        assert code == 2
        assert err.startswith("input error: --at: index 0 is not exchangeable")

    def test_mutate_blames_an_incompatible_state_on_the_state(self, capsys):
        lam = SkewForm([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        state = json.dumps(QuantumSeed.initial(lam, [[0], [1], [1]], (0,)).to_json())
        code, out, err = run_cli(capsys, "seed", "mutate", "--state", state, "--at", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("input error: --state: (Lambda B)[1][0] = 1, expected 0")

    @pytest.mark.parametrize("verb", [["mutate", "--at", "1"], ["freeze", "--drop", "1"]])
    def test_state_incompatible_outside_the_column_used_is_an_input_error(self, capsys, verb):
        data = cli._disc_preset(5).to_json()
        data["B"][0][1] += 1  # a frozen row: B stays skew on the exchangeable part
        with pytest.raises(CompatibilityError) as exc:
            QuantumSeed.from_json(data).check_compatibility()
        code, out, err = run_cli(capsys, "seed", verb[0], "--state", json.dumps(data), *verb[1:])
        assert (code, out, err) == (2, "", f"input error: --state: {exc.value}\n")

    @pytest.mark.parametrize(
        "drop, message",
        [("1,x", "invalid literal for int() with base 10: 'x'"),
         ("0,1,6", "cannot freeze non-exchangeable indices [0, 6]")],
    )
    def test_freeze_of_a_bad_drop_is_an_input_error(self, capsys, drop, message):
        code, out, err = run_cli(capsys, "seed", "freeze", "--preset", "pentagon", "--drop", drop)
        assert (code, out, err) == (2, "", f"input error: --drop: {message}\n")

    def test_check_reports_a_nonpositive_diagonal_entry(self, capsys):
        lam = SkewForm([[0, 1], [-1, 0]])
        state = json.dumps(QuantumSeed.initial(lam, [[0], [-1]], (0,)).to_json())
        code, out, _ = run_cli(capsys, "seed", "check", "--state", state)
        assert code == 1
        assert out == "FAIL (Lambda B)[0][0] = -1 is not positive\n"

    def test_disc_preset(self, capsys):
        code, out, _ = run_cli(capsys, "seed", "check", "--preset", "disc:6")
        assert code == 0
        assert out == 'OK diagonal {"1": 4, "2": 4, "3": 4}\n'

    @pytest.mark.parametrize(
        "preset, message",
        [
            ("disc:x", "bad disc size in 'disc:x'"),
            ("disc:2", "a disc needs at least 3 marked points"),
            ("disc:1_0", "bad disc size in 'disc:1_0'"),
            ("disc: 5", "bad disc size in 'disc: 5'"),
            ("disc:+5", "bad disc size in 'disc:+5'"),
            ("disc:\u0665", "bad disc size in 'disc:\u0665'"),
        ],
    )
    def test_bad_disc_preset_is_an_input_error(self, capsys, preset, message):
        code, out, err = run_cli(capsys, "seed", "check", "--preset", preset)
        assert code == 2
        assert out == ""
        assert err == f"input error: --preset: {message}\n"

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "seed", "check", "--preset", "torus")
        assert code == 2
        assert "unknown preset" in err


class TestSurface:
    def build(self, capsys, *argv):
        code, out, _ = run_cli(capsys, "--json", "surface", "build", *argv)
        assert code == 0
        return out.strip()

    def test_build_round_trips(self, capsys):
        data = json.loads(self.build(capsys, "--kind", "annulus", "--p", "2", "--q", "1"))
        assert TriangulatedSurface.from_json(data).to_json() == data

    def test_flip_and_cut(self, capsys):
        disc_json = self.build(capsys, "--kind", "disc", "--points", "5")
        code, out, _ = run_cli(capsys, "--json", "surface", "flip", "--surface", disc_json, "--arc", "2")
        assert code == 0
        TriangulatedSurface.from_json(json.loads(out))
        code, out, _ = run_cli(capsys, "--json", "surface", "cut", "--surface", disc_json, "--arc", "2")
        assert code == 0
        cut = TriangulatedSurface.from_json(json.loads(out))
        assert len(cut.components()) == 2

    def test_flip_boundary_is_an_input_error(self, capsys):
        disc_json = self.build(capsys, "--kind", "disc", "--points", "4")
        code, _, err = run_cli(capsys, "surface", "flip", "--surface", disc_json, "--arc", "0")
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("verb", ["flip", "cut"])
    @pytest.mark.parametrize("arc", ["-1", "4"])
    def test_arc_out_of_range_is_an_input_error(self, capsys, verb, arc):
        annulus_json = self.build(capsys, "--kind", "annulus", "--p", "1", "--q", "1")
        code, _, err = run_cli(capsys, "surface", verb, "--surface", annulus_json, "--arc", arc)
        assert code == 2
        assert "input error" in err
        assert f"arc {arc} does not exist" in err

    def test_matrices(self, capsys):
        disc_json = self.build(capsys, "--kind", "disc", "--points", "5")
        code, out, _ = run_cli(capsys, "--json", "surface", "matrices", "--surface", disc_json)
        assert code == 0
        data = json.loads(out)
        assert data["ex"] == [2, 4]
        assert data["pi_b"] == [[0, 1], [-1, 0]]

    def test_small_disc_rejected(self, capsys):
        code, _, err = run_cli(capsys, "surface", "build", "--kind", "disc", "--points", "2")
        assert code == 2
        assert "at least 3" in err

    @pytest.mark.parametrize("verb", [["matrices"], ["flip", "--arc", "0"]])
    def test_empty_surface_is_an_input_error(self, capsys, verb):
        empty = '{"marked_points": [], "arcs": [], "triangles": []}'
        code, out, err = run_cli(capsys, "surface", verb[0], "--surface", empty, *verb[1:])
        assert code == 2
        assert out == ""
        assert err == "input error: --surface: a surface needs at least one marked point\n"

    def test_arcs_disagreeing_with_fans_are_an_input_error(self, capsys):
        data = json.loads(self.build(capsys, "--kind", "disc", "--points", "4"))
        data["arcs"][0]["boundary"] = False
        code, out, err = run_cli(capsys, "surface", "flip", "--surface", json.dumps(data), "--arc", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("input error: --surface: arcs disagree with the fans")


class TestArgumentErrors:
    """Option combinations and values the verbs reject before any work."""

    TORUS_2 = json.dumps(TorusElement.monomial(SkewForm([[0, 1], [-1, 0]]), (1, 0)).to_json())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["seed", "check"], "provide --preset or --state"),
            (
                ["skein", "product", "--n", "4", "--word", "[[1,3]]", "--x", "[[1,3]]"],
                "use either --word or --x/--y, not both",
            ),
            (
                ["skein", "mu", "--n", "5", "--x", "[[2,4]]", "--y", "[[1,3]]", "--delta", FAN5],
                "use either --y or --delta, not both",
            ),
            (["skein", "mu", "--n", "5", "--x", "[[2,4]]"], "provide --y or --delta"),
            (
                ["seed", "member", "--preset", "pentagon", "--element", TORUS_2],
                "--element: element and seed use different skew forms",
            ),
            (["surface", "build", "--kind", "disc"], "--points is required for a disc"),
            (["surface", "build", "--kind", "annulus", "--p", "0"], "--p and --q must be at least 1"),
            (["surface", "build", "--kind", "annulus", "--q", "0"], "--p and --q must be at least 1"),
            (["annulus", "verify", "--range", "-1"], "--range must be nonnegative"),
        ],
    )
    def test_exits_2_with_its_message(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    def test_matrices_text_mode_is_indented_json(self, capsys):
        code, disc_json, _ = run_cli(capsys, "--json", "surface", "build", "--kind", "disc", "--points", "5")
        assert code == 0
        code, text, _ = run_cli(capsys, "surface", "matrices", "--surface", disc_json)
        assert code == 0
        _, one_line, _ = run_cli(capsys, "--json", "surface", "matrices", "--surface", disc_json)
        assert text == json.dumps(json.loads(one_line), indent=2, sort_keys=True) + "\n"
        assert text.startswith('{\n  "b": [')

    def test_text_mode_builds_no_json(self, capsys, monkeypatch):
        def unread(self):
            raise AssertionError("JSON built in text mode")

        monkeypatch.setattr(QuantumSeed, "to_json", unread)
        monkeypatch.setattr(TorusElement, "to_json", unread)
        code, out, _ = run_cli(capsys, "seed", "enumerate", "--preset", "pentagon")
        assert (code, out) == (0, "5 seed(s); truncated: false\n")
        code, out, _ = run_cli(capsys, "seed", "mutate", "--preset", "pentagon", "--at", "1")
        assert code == 0
        assert out.startswith("seed: rank 7, exchangeable [1, 2]\n")

    def test_element_read_from_a_file(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[[2,4]]", encoding="utf-8")
        argv = ["--json", "skein", "expand", "--n", "5", "--delta", FAN5, "--x"]
        code, from_file, _ = run_cli(capsys, *argv, f"@{path}")
        assert code == 0
        assert (0, from_file, "") == run_cli(capsys, *argv, "[[2,4]]")


class TestVerifyVerbs:
    def test_annulus_verify(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "annulus", "verify", "--range", "2")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert all(c["ok"] for c in data["checks"])

    def test_annulus_verify_text_is_unchanged_and_renders_no_element(self, capsys, monkeypatch):
        rows = AnnulusModel(bound=6).verify_identities(irange=3)
        expected = "".join(f"PASS {r['name']}\n" for r in rows) + "66/66 annulus identities hold\n"

        def no_text(x):
            raise AssertionError("text mode rendered an element")

        monkeypatch.setattr(TorusElement, "__str__", no_text)
        code, out, _ = run_cli(capsys, "annulus", "verify", "--range", "3")
        assert code == 0
        assert out == expected
        # sha256 of this output before text mode stopped rendering rows.
        digest = "96fdf92cd84d9abfa13123de33aa178fa4d7f69ab5652a0ce1b028b09b4eca4f"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_annulus_verify_has_no_bound_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["annulus", "verify", "--range", "0", "--bound", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bound 8" in capsys.readouterr().err

    def test_verify_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "plucker")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["results"][0]["name"] == "plucker"

    def test_verify_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nonsense")
        assert code == 2
        assert "unknown suite" in err

    def test_key_error_inside_a_check_is_internal(self, capsys, monkeypatch):
        def broken(rng):
            raise KeyError("missing")

        checks = [(n, b, broken if n == "plucker" else fn) for n, b, fn in verify.CHECKS]
        monkeypatch.setattr(verify, "CHECKS", checks)
        code, _, err = run_cli(capsys, "verify", "plucker")
        assert code == 3
        assert err.strip() == "internal error: KeyError: 'missing'"

    def test_verify_text_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "catalan")
        assert code == 0
        assert out.splitlines()[0].startswith("PASS catalan")


SURFACE5 = json.dumps(build_disc(5).to_json())

# verb: (argv, the owner and name of the call that computes its result,
# the exception types the verb documents as input errors).
FAULT_SITES = {
    "skein reduce": (["skein", "reduce", "--n", "4", "--word", "[[1,3]]"], cli.disc, "reduce_word", ()),
    "skein product": (
        ["skein", "product", "--n", "4", "--x", "[[1,3]]", "--y", "[[2,4]]"], cli.disc, "product", ()
    ),
    "skein expand": (
        ["skein", "expand", "--n", "5", "--x", "[[2,4]]", "--delta", FAN5], cli.disc, "expand_laurent", ()
    ),
    "skein mu": (["skein", "mu", "--n", "5", "--x", "[[2,4]]", "--y", "[[1,3]]"], cli.disc, "mu", ()),
    "skein mu --delta": (
        ["skein", "mu", "--n", "5", "--x", "[[2,4]]", "--delta", FAN5], cli.disc, "mu_delta", ()
    ),
    "seed mutate": (["seed", "mutate", "--preset", "pentagon", "--at", "1"], QuantumSeed, "mutate", ()),
    "seed check": (
        ["seed", "check", "--preset", "pentagon"], QuantumSeed, "check_compatibility",
        (CompatibilityError,),
    ),
    "seed freeze": (["seed", "freeze", "--preset", "pentagon", "--drop", "1"], QuantumSeed, "freeze", ()),
    "seed enumerate": (["seed", "enumerate", "--preset", "pentagon"], cli.qseed, "enumerate_seeds", ()),
    "seed member": (
        ["seed", "member", "--preset", "pentagon", "--element", "[0,1,0,0,0,0,0]"],
        cli.qseed, "upper_membership", (),
    ),
    "surface build": (["surface", "build", "--kind", "disc", "--points", "5"], cli.surf, "build_disc", ()),
    "surface flip": (
        ["surface", "flip", "--surface", SURFACE5, "--arc", "2"], cli.surf, "flip", (cli.surf.FlipError,)
    ),
    "surface cut": (
        ["surface", "cut", "--surface", SURFACE5, "--arc", "2"], cli.surf, "cut",
        (cli.surf.CutError, NotImplementedError),
    ),
    "surface matrices": (["surface", "matrices", "--surface", SURFACE5], cli.surf, "to_seed", ()),
    "annulus verify": (["annulus", "verify", "--range", "1"], AnnulusModel, "verify_identities", ()),
    "verify": (["verify", "q1"], cli.verify, "run", ()),
}
FAULTS = (ValueError, CompatibilityError, DivisionFailure, RuntimeError)


@pytest.mark.parametrize(
    "verb, fault",
    [(v, f) for v, site in FAULT_SITES.items() for f in FAULTS if f not in site[3]],
    ids=lambda p: getattr(p, "__name__", p),
)
def test_a_fault_inside_the_library_is_an_internal_error(capsys, monkeypatch, verb, fault):
    """Only the input is blamed: whatever the library raises is exit 3."""
    argv, owner, name, _ = FAULT_SITES[verb]

    def broken(*args, **kwargs):
        raise fault("injected")

    monkeypatch.setattr(owner, name, broken)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", f"internal error: {fault.__name__}: injected\n")


def test_fault_sites_cover_every_verb():
    (verbs,) = cli.build_parser()._subparsers._group_actions
    names = set()
    for verb, parser in verbs.choices.items():
        if parser._subparsers is None:
            names.add(verb)
        else:
            (ops,) = parser._subparsers._group_actions
            names.update(f"{verb} {op}" for op in ops.choices)
    assert names == {" ".join(v.split()[:2]) for v in FAULT_SITES}


class TestParserBoundaries:
    def test_unknown_verb_exits_with_usage(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["conjugate"])
        assert exc.value.code == 2

    def test_missing_subverb_exits_with_usage(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["skein"])
        assert exc.value.code == 2


class TestConsoleEntry:
    def test_module_invocation_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qskein.cli", "verify", "plucker"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "PASS plucker" in proc.stdout

    def test_package_invocation_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qskein", "verify", "plucker"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "PASS plucker" in proc.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["--json", "annulus", "verify", "--range", "5"],
            ["--json", "skein", "reduce", "--n", "16", "--word",
             "[[1,9],[2,10],[3,11],[4,12],[5,13],[6,14],[7,15],[8,16]]"],
        ],
        ids=["annulus-verify", "skein-reduce"],
    )
    def test_closed_stdout_exits_141_without_an_error_line(self, argv):
        # Both outputs exceed a pipe buffer, so writing must meet the closed end.
        proc = subprocess.Popen(
            [sys.executable, "-m", "qskein", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""
