from collections import Counter
from random import Random

import pytest

from conftest import span_highest_weight_check
from qschur.branching import BranchContext
from qschur.ring import Specialization
from qschur.schur import ModuleElement
from qschur.tableaux import (MultiShape, enumerate_multicompositions,
                             enumerate_ssyt)

QLEN = dict(m_convention="qlen", y_convention="signed")


def branch_contexts(n_small, r, m, **flags):
    shape = MultiShape(m)
    for lam in enumerate_multicompositions(n_small + 1, shape,
                                           partitions_only=True):
        yield BranchContext(n_small, r, m, [list(c) for c in lam.parts],
                            **flags)


def test_context_validates_bounds():
    with pytest.raises(ValueError):
        BranchContext(2, 1, (2,), [(3,)])
    with pytest.raises(ValueError):
        BranchContext(1, 2, (2, 2), [(0, 2), (0,)])
    # n + 1 = 1 is refused for what it is, before m' = m - e_r is formed
    with pytest.raises(ValueError, match="one box has no restriction"):
        BranchContext(0, 1, (1,), [(1,)])


def test_restriction_labels_example():
    bc = BranchContext(1, 2, (2, 2), [(1,), (1,)])
    assert len(bc.restriction_labels()) == 4
    # filtering twice changes nothing
    labels = bc.restriction_labels()
    assert [lab for lab in labels if bc.in_gamma_image(lab[0])] == labels


def test_restriction_nonempty():
    for bc in branch_contexts(1, 2, (2, 2)):
        assert bc.restriction_labels()


def test_filtration_layers_shape():
    bc = BranchContext(1, 2, (2, 2), [(1,), (1,)])
    layers = bc.filtration_layers()
    assert [len(l.quotient) for l in layers] == [1, 3]
    assert [len(l.members) for l in layers] == [4, 3]
    # nesting and partition
    for earlier, later in zip(layers, layers[1:]):
        assert set(later.members) < set(earlier.members)
    assert sum(len(l.quotient) for l in layers) == len(bc.restriction_labels())


def test_single_removable_node_single_layer():
    bc = BranchContext(1, 2, (2, 2), [(2,), (0,)])
    layers = bc.filtration_layers()
    assert len(layers) == 1
    assert len(layers[0].members) == len(bc.restriction_labels())


def test_branch_dim_identity_example():
    bc = BranchContext(1, 2, (2, 2), [(1,), (1,)])
    rep = bc.branch_dim_identity()
    assert rep["identity_holds"]
    assert sorted(l["quotient_dim"] for l in rep["layers"]) == [1, 3]
    assert all(l["quotient_dim"] == l["weyl_dim"] for l in rep["layers"])


def test_branch_dim_identity_level_one():
    bc = BranchContext(2, 1, (3,), [(2, 1)])
    rep = bc.branch_dim_identity()
    assert rep["identity_holds"]
    assert sum(l["quotient_dim"] for l in rep["layers"]) == 4


@pytest.mark.parametrize("n_small,r,m", [(1, 1, (2,)), (2, 1, (3,)),
                                         (1, 2, (2, 2)), (2, 2, (3, 3))])
def test_branch_dim_identity_exhaustive(n_small, r, m):
    for bc in branch_contexts(n_small, r, m):
        rep = bc.branch_dim_identity()
        assert rep["identity_holds"], (bc.lam.trimmed(), rep)


def test_every_layer_quotient_nonempty():
    # the marked tableau always exists, so no layer is empty
    for bc in branch_contexts(2, 2, (3, 3)):
        for layer in bc.filtration_layers():
            assert layer.quotient


def test_highest_weight_all_layers_criterion_scope():
    spec = Specialization.random(2, Random(31))
    for bc in branch_contexts(1, 2, (2, 2)):
        for i in range(1, len(bc.nodes) + 1):
            rep = bc.highest_weight_check(i, spec)
            assert rep["certified"], (bc.lam.trimmed(), rep)


@pytest.mark.parametrize("weighted", [True, False])
def test_highest_weight_refuses_a_layer_out_of_range(weighted):
    # layers count from 1; layer 0 or -1 used to read the last layer's
    # marked tableau through a negative index, and len + 1 gave IndexError;
    # the range check comes before any convention is used
    bc = BranchContext(1, 2, (2, 2), [(1,), (1,)], **(QLEN if weighted else {}))
    spec = Specialization.random(2, Random(31))
    for i in (0, -1, len(bc.nodes) + 1):
        with pytest.raises(ValueError, match="layer"):
            bc.highest_weight_check(i, spec)
    assert bc.highest_weight_check(len(bc.nodes), spec)["certified"]


def test_highest_weight_larger_context_needs_weighted_flags():
    # under the plain flags the basis of the left ideal is independent but
    # not spanning, and a ladder image escapes; the weighted normalisation
    # certifies (see the decisions ledger)
    spec = Specialization.random(1, Random(41))
    plain = BranchContext(2, 1, (3,), [(2, 1)])
    outcomes = [plain.highest_weight_check(i, spec)["certified"]
                for i in range(1, 3)]
    assert not all(outcomes)
    weighted = BranchContext(2, 1, (3,), [(2, 1)], **QLEN)
    for i in range(1, 3):
        assert weighted.highest_weight_check(i, spec)["certified"]


def test_highest_weight_exhaustive_weighted_level_one():
    spec = Specialization.random(1, Random(43))
    for bc in branch_contexts(2, 1, (3,), **QLEN):
        for i in range(1, len(bc.nodes) + 1):
            rep = bc.highest_weight_check(i, spec)
            assert rep["certified"], (bc.lam.trimmed(), i, rep)


def test_last_layer_raising_images_vanish():
    spec = Specialization.random(2, Random(47))
    for bc in branch_contexts(1, 2, (2, 2)):
        last = len(bc.nodes)
        rep = bc.highest_weight_check(last, spec)
        assert all(c["status"] == "zero_exact" for c in rep["checks"])


def test_triangularity_exhaustive():
    spec = Specialization.random(2, Random(31))
    for bc in branch_contexts(1, 2, (2, 2)):
        for (mu, A) in bc.restriction_labels():
            for idx in bc.small_ef_indices():
                for kind in ("E", "F"):
                    rep = bc.triangularity_check(idx, kind, mu, A, spec)
                    assert rep["dominance_holds"], (bc.lam.trimmed(), rep)
                    assert rep["status"] in ("zero", "expanded")


def test_each_h_A_is_checked_once_per_point(monkeypatch):
    # every triangularity and highest-weight check of one lambda at one
    # point asks for h_A again and again; the point algebra's memo checks
    # and builds each (mu, A) once
    bc = BranchContext(2, 2, (3, 3), [(2,), (1,)])
    spec = Specialization.random(2, Random(53))
    checked, asked = Counter(), []
    check, ask = bc.big._checked_reps, bc.big.basis_vector

    def counting_check(lam, mu, A):
        checked[mu.parts, A.entries] += 1
        return check(lam, mu, A)

    def counting_ask(lam, mu, A, algebra=None):
        asked.append((mu.parts, A.entries))
        return ask(lam, mu, A, algebra)

    monkeypatch.setattr(bc.big, "_checked_reps", counting_check)
    monkeypatch.setattr(bc.big, "basis_vector", counting_ask)
    for (mu, A) in bc.restriction_labels():
        for idx in bc.small_ef_indices():
            for kind in ("E", "F"):
                bc.triangularity_check(idx, kind, mu, A, spec)
    for i in range(1, len(bc.nodes) + 1):
        bc.highest_weight_check(i, spec)
    assert checked == Counter(set(asked))
    assert len(asked) > len(checked) >= len(bc.restriction_labels())


def test_branch_report_schema():
    bc = BranchContext(1, 2, (2, 2), [(1,), (1,)])
    rep = bc.branch_dim_identity()
    assert set(rep) == {"lambda", "layers", "identity_holds"}
    for layer in rep["layers"]:
        assert set(layer) == {"node", "quotient_dim", "weyl_dim", "match"}


def test_highest_weight_matches_span_membership():
    # every layer of every lambda of eight configurations (n + 1, r, m),
    # under both flag pairs at two points: the one expansion against the
    # labels of the image's weight gives the span-membership verdicts
    reports = uncertified = 0
    for n1, r, m in ((2, 1, (2,)), (3, 1, (3,)), (3, 1, (4,)), (4, 1, (4,)),
                     (2, 2, (2, 2)), (3, 2, (3, 3)), (2, 3, (2, 2, 2)),
                     (3, 3, (3, 3, 3))):
        specs = [Specialization.random(r, Random(s)) for s in (1, 2)]
        for flags in ({}, QLEN):
            for bc in branch_contexts(n1 - 1, r, m, **flags):
                for spec in specs:
                    for i in range(1, len(bc.nodes) + 1):
                        rep = bc.highest_weight_check(i, spec)
                        assert rep == span_highest_weight_check(bc, i, spec), \
                            (bc.lam.trimmed(), flags, i)
                        reports += 1
                        uncertified += not rep["certified"]
    assert (reports, uncertified) == (360, 62)


def test_highest_weight_reads_the_layers_of_the_expansion(monkeypatch):
    # with every label moved into layer 1 nothing lies deeper than layer 1,
    # so an image that was in the deeper span now fails, as it does by
    # span membership
    bc = BranchContext(1, 3, (2, 2, 2), [[1], [1], []])
    spec = Specialization.random(3, Random(1))
    statuses = [c["status"] for c in bc.highest_weight_check(1, spec)["checks"]]
    assert "in_deeper_span" in statuses
    monkeypatch.setattr(bc, "layer_index", lambda A: 1)
    rep = bc.highest_weight_check(1, spec)
    assert rep == span_highest_weight_check(bc, 1, spec)
    assert [c["status"] for c in rep["checks"]] == [
        "FAILED" if s == "in_deeper_span" else s for s in statuses]
    assert not rep["certified"]


def test_non_labels_raise_value_error():
    # a semistandard tableau of lambda outside the image of the embedding
    # carries no marked entry, so it has no layer and no stripped tableau
    bc = BranchContext(1, 2, (2, 2), [(1,), (1,)])
    spec = Specialization.random(2, Random(31))
    A = next(A for A in enumerate_ssyt(bc.lam, bc.big.shape)
             if not bc.in_gamma_image(A.type_weight()))
    mu = A.type_weight()
    with pytest.raises(ValueError):
        bc.layer_index(A)
    with pytest.raises(ValueError):
        bc.strip_marked(A)
    zero = nonzero = 0
    for idx in bc.small_ef_indices():
        for kind in ("E", "F"):
            image = bc.big.ef_apply(
                idx, kind, ModuleElement(mu, bc.basis_element(mu, A, spec)))
            zero += not image.elem
            nonzero += bool(image.elem)
            with pytest.raises(ValueError):
                bc.triangularity_check(idx, kind, mu, A, spec)
    assert zero and nonzero
