"""Byte-identical reports of the exact at-point checks.

`data/at_point_golden.json` holds, at fixed rational points, the outputs
of the checks that run over Q at a point and that no CLI command reaches:
the `validated_ef_conventions` report of (3,2,(2,2)) (it does not
validate, so it comes from the `ConventionError`), one validating
`ef_convention_report` at (2,2,(2,2)), the dense solver
`conftest.hom_space_images` for (2,1,(2,)) under the literal and the fallback flags and for one weight
pair of (2,2,(2,2)), `module_span(mu, spec).basis()` for three weights
at r = 2 and for one weight each of (3,1,(3,)) and (2,3,(2,2,2)), every
`triangularity_check` and `highest_weight_check` report of
lambda = ([1],[2]) at (3,2,(3,3)), its `highest_weight_check` reports
again under the fallback flags, and every `triangularity_check` and
`highest_weight_check` report of lambda = ([1],[1],[]) at (2,3,(2,2,2)).
The r = 1 and r = 3 cases pin the paths whose work depends on r (the
closure stops stepping by T_0 after r - 1 steps in a row).  Fractions are
written as strings.

Regenerate with `PYTHONPATH=src python tests/test_at_point_golden.py`;
a change to how these checks compute must leave every byte the same.
"""

import json
from fractions import Fraction
from pathlib import Path
from random import Random

from conftest import hom_space_images
from qschur.branching import BranchContext
from qschur.ring import Specialization
from qschur.schur import (FALLBACK_FLAGS, ConventionError, SchurContext,
                          validated_ef_conventions)

DATA = Path(__file__).parent / "data" / "at_point_golden.json"
FALLBACK = dict(zip(("m_convention", "y_convention"), FALLBACK_FLAGS))


def _plain(obj):
    """obj with every Fraction written as a string."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _points(r):
    return [Specialization.random(r, Random(101)),
            Specialization.random(r, Random(202))]


def build() -> dict:
    out = {}

    sc32 = SchurContext(3, 2, (2, 2))
    try:
        reports = [validated_ef_conventions(sc32, _points(2))]
    except ConventionError as err:
        reports = err.reports
    out["ef_conventions_3_2_22"] = reports

    sc22 = SchurContext(2, 2, (2, 2))
    out["ef_convention_report_2_2_22"] = sc22.ef_convention_report(_points(2))

    spec1 = _points(1)[0]
    homs = {}
    for name, flags in (("plain", {}), ("fallback", FALLBACK)):
        sc = SchurContext(2, 1, (2,), **flags)
        for src in ([(2,)], [(1, 1)]):
            for tgt in ([(2,)], [(1, 1)]):
                mu, nu = sc.weight(src), sc.weight(tgt)
                homs[f"2_1_2 {name} {mu.to_json()} -> {nu.to_json()}"] = \
                    hom_space_images(sc, mu, nu, spec1)
    spec2 = _points(2)[0]
    mu, nu = sc22.weight([(1,), (1,)]), sc22.weight([(2,), ()])
    homs[f"2_2_22 plain {mu.to_json()} -> {nu.to_json()}"] = \
        hom_space_images(sc22, mu, nu, spec2)
    out["hom_space_images"] = homs

    spans = {}
    for sc, name, parts in ((sc22, "2_2_22", [(1,), (1,)]),
                            (sc32, "3_2_22", [(2,), (1,)]),
                            (sc32, "3_2_22", [(1, 1), (0, 1)])):
        mu = sc.weight(parts)
        spans[f"{name} {mu.to_json()}"] = sc.module_span(mu, spec2).basis()
    spec3 = _points(3)[0]
    sc23 = SchurContext(2, 3, (2, 2, 2))
    for sc, name, parts, spec in (
            (SchurContext(3, 1, (3,)), "3_1_3", [(3,)], spec1),
            (sc23, "2_3_222", [(), (1,), (1,)], spec3)):
        mu = sc.weight(parts)
        spans[f"{name} {mu.to_json()}"] = sc.module_span(mu, spec).basis()
    out["module_span_basis"] = spans

    bc = BranchContext(2, 2, (3, 3), [[1], [2]])
    out["triangularity_3_2_33"] = [
        bc.triangularity_check(idx, kind, mu, A, spec2)
        for mu, A in bc.restriction_labels()
        for idx in bc.small_ef_indices()
        for kind in ("E", "F")]
    out["highest_weight_3_2_33"] = [
        bc.highest_weight_check(i, spec2) for i in range(1, len(bc.nodes) + 1)]
    bc = BranchContext(2, 2, (3, 3), [[1], [2]], **FALLBACK)
    out["highest_weight_3_2_33_fallback"] = [
        bc.highest_weight_check(i, spec2) for i in range(1, len(bc.nodes) + 1)]

    bc = BranchContext(1, 3, (2, 2, 2), [[1], [1], []])
    out["triangularity_2_3_222"] = [
        bc.triangularity_check(idx, kind, mu, A, spec3)
        for mu, A in bc.restriction_labels()
        for idx in bc.small_ef_indices()
        for kind in ("E", "F")]
    out["highest_weight_2_3_222"] = [
        bc.highest_weight_check(i, spec3) for i in range(1, len(bc.nodes) + 1)]
    return out


def render() -> str:
    return json.dumps(_plain(build()), indent=1, sort_keys=True) + "\n"


def test_at_point_reports_are_byte_identical():
    assert render() == DATA.read_text()


if __name__ == "__main__":
    DATA.write_text(render())
