import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from random import Random

import pytest

from conftest import random_element
from qschur import cli, hecke
from qschur.cli import main
from qschur.hecke import AlgebraContext
from qschur.ring import ScalarContext
from qschur.symgrp import all_permutations


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_enum_ssyt_count():
    code, out = run_cli(["enum", "ssyt", "--lambda", "[[2]]", "--m", "[2]",
                         "--r", "1"])
    assert code == 0
    assert out.startswith("count: 3")


def test_enum_nodes_with_note():
    code, out = run_cli(["enum", "nodes", "--lambda", "[[3,1],[2,2],[1]]",
                         "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["count_removable"] == 4
    assert "note" in data


def test_enum_multicomp_count():
    code, out = run_cli(["enum", "multicomp", "--n", "2", "--m", "[2,2]",
                         "--format", "json"])
    assert code == 0
    assert json.loads(out)["count"] == 10


@pytest.mark.parametrize("n", ["0", "-1"])
def test_enum_multicomp_refuses_n_below_one(n, capsys):
    code, out = run_cli(["enum", "multicomp", "--n", n, "--m", "[2]"])
    assert (code, out) == (2, "")
    assert "need n >= 1" in capsys.readouterr().err


def test_verify_branch_of_one_box_says_so(capsys):
    code, _ = run_cli(["verify", "branch", "--lambda", "[[1]]", "--m", "[1]"])
    assert code == 2
    err = capsys.readouterr().err
    assert "one box has no restriction to check" in err


def test_verify_basis_exit_zero():
    code, out = run_cli(["verify", "basis", "--lambda", "[[2]]", "--m", "[2]",
                         "--r", "1", "--format", "json", "--seed", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["certified"] and data["rank"] == 3
    assert data["flags"] == {"m_convention": "plain", "y_convention": "plain"}


def test_partial_flags_resolving_to_plain_are_literal():
    # --flags names only one convention; the other defaults to plain, so
    # the report's resolved flags are the literal pair
    for flags in ("m_convention=plain", "y_convention=plain"):
        code, out = run_cli(["verify", "basis", "--lambda", "[[1],[1]]",
                             "--m", "[2,2]", "--r", "2", "--format", "json",
                             "--seed", "9", "--flags", flags])
        assert code == 0
        data = json.loads(out)
        assert data["flags"] == {"m_convention": "plain", "y_convention": "plain"}
        assert data["literal_flags"] is True
    code, out = run_cli(["verify", "basis", "--lambda", "[[1],[1]]", "--m",
                         "[2,2]", "--r", "2", "--format", "json", "--seed", "9",
                         "--flags", "m_convention=qlen"])
    assert json.loads(out)["literal_flags"] is False


def test_verify_relations():
    code, out = run_cli(["verify", "relations", "--n", "2", "--r", "2",
                         "--samples", "40", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] and data["closure_dim"] == 8


def test_verify_branch():
    code, out = run_cli(["verify", "branch", "--lambda", "[[1],[1]]",
                         "--m", "[2,2]", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["identity_holds"]
    assert sum(l["quotient_dim"] for l in data["layers"]) == 4
    assert sorted(l["weyl_dim"] for l in data["layers"]) == [1, 3]


def test_verify_lemma24():
    code, out = run_cli(["verify", "lemma24", "--n", "2", "--r", "2",
                         "--format", "json"])
    assert code == 0
    assert json.loads(out)["pass"]


def test_compute_z():
    code, out = run_cli(["compute", "z", "--lambda", "[[2]]", "--r", "1",
                         "--m", "[2]"])
    assert code == 0
    assert out.strip() == ("(1) * L1^0*L2^0 * T[1,2] + "
                           "(1) * L1^0*L2^0 * T[2,1]")


def test_compute_L_basis_term():
    code, out = run_cli(["compute", "L", "--i", "2", "--n", "2", "--r", "2",
                         "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["terms"][0]["c"] == [0, 1]


def _no_large_enumeration(monkeypatch):
    # every list of permutations or basis monomials goes through
    # all_permutations; one of 9! or 12! would take seconds and gigabytes
    def guarded(n):
        assert n <= 8, f"enumerated the permutations of {n}"
        return all_permutations(n)
    monkeypatch.setattr(hecke, "all_permutations", guarded)


def test_compute_L_large_n_prints_without_enumerating(monkeypatch):
    _no_large_enumeration(monkeypatch)
    code, out = run_cli(["compute", "L", "--i", "2", "--n", "9", "--r", "2"])
    assert code == 0
    assert out.strip() == ("(1) * " + "*".join(
        f"L{i}^{int(i == 2)}" for i in range(1, 10)) + " * T[1,2,3,4,5,6,7,8,9]")
    code, out = run_cli(["compute", "L", "--i", "9", "--n", "9", "--r", "2",
                         "--format", "json"])
    assert code == 0
    assert [(t["c"], t["w"]) for t in json.loads(out)["terms"]] == [
        ([0] * 8 + [1], list(range(1, 10)))]


def test_max_dim_exits_three_before_enumerating(monkeypatch):
    _no_large_enumeration(monkeypatch)
    for what in ("relations", "lemma24"):
        code, out = run_cli(["verify", what, "--n", "12", "--r", "2"])
        assert (code, out) == (3, ""), what


def test_compute_h_selector():
    code, out = run_cli(["compute", "h", "--lambda", "[[2]]", "--r", "1",
                         "--m", "[2]", "--mu", "[[1,1]]"])
    assert code == 0
    assert "T[" in out
    code, _ = run_cli(["compute", "h", "--lambda", "[[2]]", "--r", "1",
                       "--m", "[2]", "--mu", "[[1,1]]", "--index", "9"])
    assert code == 2


def test_compute_h_takes_the_tableaux_enum_ssyt_prints():
    # `enum ssyt` prints each component's rows up to its last nonempty one;
    # given back with its type, each tableau is the h of its index
    shape = ["--lambda", "[[1],[1]]", "--m", "[2,2]", "--r", "2"]
    code, out = run_cli(["enum", "ssyt", *shape, "--format", "json"])
    assert code == 0
    items = json.loads(out)["items"]
    assert len(items) == 8
    assert any(len(comp) < 2 for item in items for comp in item["entries"])
    for item in items:
        mu = [[0, 0], [0, 0]]
        for comp in item["entries"]:
            for row in comp:
                for i, s in row:
                    mu[s - 1][i - 1] += 1
        mu = json.dumps(mu)
        code, out = run_cli(["enum", "ssyt", *shape, "--mu", mu,
                             "--format", "json"])
        index = [t["entries"] for t in json.loads(out)["items"]].index(
            item["entries"])
        by_index = run_cli(["compute", "h", *shape, "--mu", mu,
                            "--index", str(index), "--format", "json"])
        by_tableau = run_cli(["compute", "h", *shape, "--mu", mu, "--tableau",
                              json.dumps(item["entries"]), "--format", "json"])
        assert by_index[0] == 0 and by_tableau == by_index
    # one component per entry of --m, no more and no fewer
    for entries in ("[[[[2, 1]]]]", "[[[[2, 1]]], [[[2, 2]]], []]"):
        code, _ = run_cli(["compute", "h", *shape, "--mu", "[[0,1],[0,1]]",
                           "--tableau", entries])
        assert code == 2


def test_usage_errors_exit_two(capsys):
    code, _ = run_cli(["enum", "ssyt", "--lambda", "not json"])
    assert code == 2
    code, _ = run_cli(["verify", "basis", "--m", "[2]", "--r", "1"])
    assert code == 2
    code, _ = run_cli(["verify", "relations", "--n", "2", "--r", "2",
                       "--flags", "m_convention=bogus"])
    assert code == 2
    # well-formed JSON of the wrong shape is a usage error too
    for argv in (["verify", "basis", "--lambda", "3", "--m", "[2]", "--r", "1"],
                 ["compute", "z", "--lambda", "[1,2]", "--r", "1"],
                 ["enum", "ssyt", "--lambda", "[[2]]", "--m", "5", "--r", "1"],
                 ["enum", "multicomp", "--n", "2", "--m", "3"],
                 ["enum", "ssyt", "--lambda", "[[2]]", "--m", "[2]",
                  "--mu", "[2]"],
                 ["enum", "ssyt", "--lambda", "[[2]]", "--m", "[2]",
                  "--type", "[[true,true]]"],
                 ["compute", "h", "--lambda", "[[2]]", "--m", "[2]",
                  "--tableau", "[[1]]"],
                 # --mu and --type name the same weight: both is ambiguous
                 ["enum", "ssyt", "--lambda", "[[2]]", "--m", "[2]",
                  "--mu", "[[1,1]]", "--type", "[[2,0]]"],
                 # lambda, --m and --r must agree on r, and r >= 1
                 ["enum", "ssyt", "--lambda", "[[2],[1]]", "--m", "[2]"],
                 ["enum", "ssyt", "--lambda", "[[2]]", "--m", "[2]",
                  "--r", "2"],
                 ["verify", "basis", "--lambda", "[[2],[1]]", "--m", "[2]"],
                 ["compute", "h", "--lambda", "[[2]]", "--m", "[2]",
                  "--r", "2"],
                 ["enum", "nodes", "--lambda", "[]"]):
        assert run_cli(argv)[0] == 2, argv
    code, _ = run_cli(["compute", "h", "--lambda", "[[2,1]]", "--m", "[2]",
                       "--tableau", "[[[[1,1,1],[1,1]]]]"])
    assert code == 2
    assert "[i, s] pair" in capsys.readouterr().err


def test_resource_limit_exit_three():
    code, _ = run_cli(["verify", "relations", "--n", "3", "--r", "2",
                       "--max-dim", "10"])
    assert code == 3


def test_branch_max_dim_exit_three():
    code, _ = run_cli(["verify", "branch", "--lambda", "[[1],[1]]",
                       "--m", "[2,2]", "--max-dim", "1"])
    assert code == 3


# every target that builds an algebra of dimension r^n n!, here 2^3 3! = 48
GUARDED = [["verify", "relations", "--n", "3", "--r", "2"],
           ["verify", "lemma24", "--n", "3", "--r", "2"],
           *(["verify", what, "--lambda", "[[2],[1]]"]
             for what in ("basis", "branch")),
           *(["compute", what, "--lambda", "[[2],[1]]"]
             for what in ("z", "x", "y", "m", "h"))]


@pytest.mark.parametrize("argv", GUARDED, ids=lambda a: " ".join(a[:2]))
def test_max_dim_below_the_dimension_exits_three_before_any_algebra(
        monkeypatch, argv):
    def built(*args, **kwargs):
        raise AssertionError("an algebra was built")
    monkeypatch.setattr(AlgebraContext, "__init__", built)
    assert run_cli([*argv, "--max-dim", "47"]) == (3, "")


def test_max_dim_at_the_dimension_runs():
    code, out = run_cli(["compute", "z", "--lambda", "[[2],[1]]",
                         "--max-dim", "48"])
    assert code == 0 and out


@pytest.mark.parametrize("option,value", [("--samples", "-5"), ("--max-dim", "-1"),
                                          ("--max-seconds", "-1"),
                                          ("--max-seconds", "nan")])
def test_negative_count_exits_two(option, value, capsys):
    # a negative count or time is a user's mistake, not a limit the run
    # exceeded; a NaN time would silently disable the budget
    code, out = run_cli(["verify", "relations", "--n", "2", "--r", "1",
                         option, value])
    assert (code, out) == (2, "")
    assert f"{option} must be >= 0" in capsys.readouterr().err


def test_wallclock_budget_exit_three():
    code, _ = run_cli(["verify", "relations", "--n", "2", "--r", "2",
                       "--samples", "5", "--max-seconds", "0"])
    assert code == 3


def test_context_mismatch_exits_four_usage_error_two(monkeypatch):
    # scalars of two contexts meeting is a broken invariant, not bad input,
    # although ContextMismatch is a ValueError
    def mismatched(args):
        return ScalarContext(2).q(1) + ScalarContext(3).q(1)

    def bad_input(args):
        raise cli.UsageError("bad input")

    argv = ["enum", "multicomp", "--n", "2", "--m", "[2]"]
    monkeypatch.setattr(cli, "cmd_enum", mismatched)
    assert run_cli(argv)[0] == 4
    monkeypatch.setattr(cli, "cmd_enum", bad_input)
    assert run_cli(argv)[0] == 2


def test_invariant_assertion_exits_four(monkeypatch, capsys):
    # the package's invariant checks (the exchange table's string bound,
    # the unique minimal double-coset element, the marked tableau's
    # semistandard check) raise AssertionError: a bug, not a failed
    # verification
    def broken_invariant(args):
        raise AssertionError("double coset has no unique minimal element")

    monkeypatch.setattr(cli, "cmd_enum", broken_invariant)
    code, out = run_cli(["enum", "multicomp", "--n", "2", "--m", "[2]"])
    assert code == 4 and out == ""
    assert capsys.readouterr().err == (
        "internal error: double coset has no unique minimal element\n")


def test_determinism_byte_identical():
    argv = ["verify", "basis", "--lambda", "[[1],[1]]", "--m", "[2,2]",
            "--r", "2", "--format", "json", "--seed", "9"]
    outs = {run_cli(argv)[1] for _ in range(3)}
    assert len(outs) == 1
    argv2 = ["enum", "ssyt", "--lambda", "[[1],[1]]", "--m", "[2,2]",
             "--r", "2", "--format", "json"]
    assert run_cli(argv2)[1] == run_cli(argv2)[1]


def test_env_seed_fallback(monkeypatch):
    argv = ["verify", "basis", "--lambda", "[[2]]", "--m", "[2]", "--r", "1",
            "--format", "json"]
    monkeypatch.setenv("QSCHUR_SEED", "13")
    _, with_env = run_cli(argv)
    monkeypatch.delenv("QSCHUR_SEED")
    _, explicit = run_cli(argv + ["--seed", "13"])
    assert with_env == explicit


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "qschur.cli", "enum", "multicomp", "--n", "2",
         "--m", "[2]", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 3


def test_roundtrip_thousand_random_elements():
    specs = [(2, 2), (3, 2), (2, 1)]
    per_ctx = 334
    for n, r in specs:
        ctx = AlgebraContext(n, r)
        rng = Random(1000 + n * 10 + r)
        for _ in range(per_ctx):
            e = random_element(ctx, rng)
            assert ctx.parse(e.text()) == e
            assert ctx.from_json(e.to_json()) == e
            assert ctx.from_json(json.dumps(e.to_json())) == e
