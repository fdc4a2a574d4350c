"""Command-line interface: verbs, output modes, exit codes, round-trips."""

import json
import subprocess
import sys

import pytest

from qskein import cli, verify
from qskein.qseed import QuantumSeed
from qskein.qtorus import TorusElement
from qskein.surface import TriangulatedSurface

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
        assert "input error" in err

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


class TestVerifyVerbs:
    def test_annulus_verify(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "annulus", "verify", "--range", "2")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert all(c["ok"] for c in data["checks"])

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
