"""Restriction and the branching filtration.

A branch context restricts modules of rank n+1 down to rank n: the
bookkeeping m (every m_k >= n+1) loses one row in its last component,
weights in the image of the row-appending embedding select the restricted
basis, and the removable nodes of lam cut that basis into the layers of
the filtration.  One pass over the labels records each label's layer
(which fixes its stripped shape) and weight.  The layer checks certify,
at generic specialisations, that each layer quotient matches the smaller
module's tableau count, that the ladder operators respect the layer order
(shape dominance), and that the marked tableau of each layer is
annihilated into the next layer by every raising operator; both ladder
checks read their verdicts off one expansion of the image in the labels
of its weight.
The algebraic checks build h_A and its ladder images over the point
algebra of their `spec`, so their "zero" and "zero_exact" statuses mean
zero at that point (a generic zero is still a zero there).
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import solve_in_span
from .ring import Specialization
from .schur import EFIndex, ModuleElement, SchurContext
from .tableaux import (MultiShape, Multicomposition, TypedTableau,
                       dominance_multiweight, enumerate_ssyt, remove_node,
                       removable_nodes, t_lambda_x)

__all__ = ["BranchContext", "FiltrationLayer"]


@dataclass(frozen=True)
class FiltrationLayer:
    """Layer i of the filtration: all labels at positions >= i, and the
    quotient labels whose marked entry sits exactly at node i."""

    index: int
    node: tuple
    members: tuple
    quotient: tuple


class BranchContext:
    """Restriction data for one multipartition of n+1 boxes.  The labels
    with their layers are kept; `big` keeps the h_A of the last point."""

    def __init__(self, n: int, r: int, m, lam_parts,
                 m_convention: str = "plain", y_convention: str = "plain"):
        if n < 1:
            raise ValueError(f"need n + 1 >= 2 boxes, got {n + 1}: one box "
                             "has no restriction to check")
        m = tuple(int(x) for x in m)
        if any(mk < n + 1 for mk in m):
            raise ValueError("every component bound must be at least n+1")
        self.n = n
        self.r = r
        self.big = SchurContext(n + 1, r, m, m_convention=m_convention,
                                y_convention=y_convention)
        self.mprime = m[:-1] + (m[-1] - 1,)
        self.small_shape = MultiShape(self.mprime)
        self.lam = self.big.weight(lam_parts)
        if not self.lam.is_partition():
            raise ValueError("the branching weight must be a multipartition")
        # filtration order: nodes counted from the top down (first node =
        # the greatest one).  Under the ascending enumeration the spans
        # fail to be submodules: ladder images flow toward larger stripped
        # shapes, which live at later positions of this list.
        self.nodes = list(reversed(removable_nodes(self.lam)))
        # lam less each node, over the reduced bookkeeping m': the stripped
        # shape of every label of that node's layer
        self._smaller = [remove_node(self.lam, node, m=self.mprime)
                         for node in self.nodes]
        # filled by `restriction_labels`
        self._labels = None
        self._layers = None        # {A.entries: layer of A}
        self._by_weight = None     # {mu: the labels (mu, A) of weight mu}

    @property
    def m(self):
        return self.big.m

    # -- the restricted basis ------------------------------------------------

    def in_gamma_image(self, mu: Multicomposition) -> bool:
        return mu.parts[-1][-1] == 1

    def restriction_labels(self):
        """All (mu, A) of the restricted module, deterministic order,
        each annotated in the same pass."""
        if self._labels is None:
            top = (self.m[-1], self.r)
            labels, layers, by_weight = [], {}, {}
            for A in enumerate_ssyt(self.lam, self.big.shape):
                mu = A.type_weight()
                if not self.in_gamma_image(mu):
                    continue
                # one marked entry, the symbol (m_r, r), at a removable node
                (node,) = A.positions_of(top)
                layers[A.entries] = self.nodes.index(node) + 1
                by_weight.setdefault(mu, []).append((mu, A))
                labels.append((mu, A))
            # published last, so a reader never sees a partial record
            self._layers, self._by_weight = layers, by_weight
            self._labels = labels
        return self._labels

    def layer_index(self, A: TypedTableau) -> int:
        """The position of A's marked node in the filtration order."""
        self.restriction_labels()
        layer = self._layers.get(A.entries)
        if layer is None:
            raise ValueError("not a restriction label")
        return layer

    def filtration_layers(self):
        labels = self.restriction_labels()
        layers = []
        for i, node in enumerate(self.nodes, start=1):
            members = tuple(lab for lab in labels
                            if self.layer_index(lab[1]) >= i)
            quotient = tuple(lab for lab in labels
                             if self.layer_index(lab[1]) == i)
            layers.append(FiltrationLayer(i, node, members, quotient))
        return layers

    # -- combinatorial half -----------------------------------------------------

    def strip_marked(self, A: TypedTableau) -> TypedTableau:
        """A with its marked box removed: a semistandard tableau of the
        smaller shape over the reduced bookkeeping."""
        small = self._smaller[self.layer_index(A) - 1]
        return TypedTableau(small, self.small_shape, [
            [A.entries[c][a][:w] for a, w in enumerate(comp)]
            for c, comp in enumerate(small.parts)])

    def branch_dim_identity(self) -> dict:
        """Layer quotient sizes against the smaller module's tableau
        counts, through the explicit strip-the-marked-box bijection."""
        out_layers = []
        holds = True
        for layer, lam_small in zip(self.filtration_layers(), self._smaller):
            target = enumerate_ssyt(lam_small, self.small_shape)
            qd = len(layer.quotient)
            stripped = {self.strip_marked(A) for _, A in layer.quotient}
            match = len(target) == qd == len(stripped) \
                and stripped == set(target)
            holds = holds and match
            out_layers.append({"node": list(layer.node),
                               "quotient_dim": qd,
                               "weyl_dim": len(target),
                               "match": match})
        total = len(self.restriction_labels())
        holds = holds and total == sum(l["quotient_dim"] for l in out_layers)
        return {"lambda": self.lam.to_json(), "layers": out_layers,
                "identity_holds": holds}

    # -- algebraic half ------------------------------------------------------------

    def basis_element(self, mu: Multicomposition, A: TypedTableau,
                      spec: Specialization):
        """h_A over the point algebra of `spec`, which keeps it: built once
        per point however many checks ask for it."""
        return self.big.basis_vector(self.lam, mu, A,
                                     self.big.point_algebra(spec))

    def small_ef_indices(self):
        """Gamma'(m'): the ladder indices of the restricted algebra."""
        return self.big.ef_indices(self.small_shape)

    def _expand(self, image: ModuleElement, spec: Specialization):
        """`solve_in_span` of a nonzero ladder image against the restricted
        basis of its weight: (status, the labels with a nonzero
        coefficient, or None unless the status is "ok")."""
        self.restriction_labels()
        labels = self._by_weight.get(image.weight, [])
        rows = [self.basis_element(nu, B, spec).vector() for nu, B in labels]
        status, coeffs = solve_in_span(rows, image.elem.vector())
        if status != "ok":
            return status, None
        return status, [lab for lab, c in zip(labels, coeffs) if c]

    def highest_weight_check(self, i: int, spec: Specialization) -> dict:
        """Every raising operator of the restricted algebra sends the
        layer's marked vector into the span of the deeper layers: its
        expansion in the restricted basis is unique and uses only labels
        of layers after i."""
        if not 1 <= i <= len(self.nodes):
            raise ValueError(f"layer {i} is not one of 1..{len(self.nodes)}")
        node = self.nodes[i - 1]
        X = t_lambda_x(self.lam, node, self.big.shape)
        tau = X.type_weight()
        hX = ModuleElement(tau, self.basis_element(tau, X, spec))
        checks = []
        for idx in self.small_ef_indices():
            image = self.big.ef_apply(idx, "E", hX)
            if not image.elem:
                status = "zero_exact"
            else:
                status, support = self._expand(image, spec)
                inside = status == "ok" and all(
                    self.layer_index(B) > i for _, B in support)
                status = "in_deeper_span" if inside else "FAILED"
            checks.append({"idx": [idx.i, idx.k], "status": status})
        certified = all(c["status"] != "FAILED" for c in checks)
        return {"layer": i, "node": list(node), "tau": tau.to_json(),
                "checks": checks, "certified": certified}

    def triangularity_check(self, idx: EFIndex, kind: str, mu: Multicomposition,
                            A: TypedTableau, spec: Specialization) -> dict:
        """Expand the ladder image of h_A in the restricted basis and
        assert every contributing tableau dominates A after stripping."""
        base_shape = self._smaller[self.layer_index(A) - 1]
        me = ModuleElement(mu, self.basis_element(mu, A, spec))
        image = self.big.ef_apply(idx, kind, me)
        report = {"idx": [idx.i, idx.k], "kind": kind, "mu": mu.to_json()}
        if not image.elem:
            report["status"] = "zero"
            report["dominance_holds"] = True
            return report
        status, support = self._expand(image, spec)
        if status != "ok":
            # rank defects and escapes are reported, never ignored
            report["status"] = status
            report["dominance_holds"] = False
            return report
        report["status"] = "expanded"
        report["support"] = [
            {"B_type": nu.to_json(),
             "dominates": dominance_multiweight(
                 self._smaller[self.layer_index(B) - 1], base_shape)}
            for nu, B in support]
        report["dominance_holds"] = all(
            s["dominates"] for s in report["support"])
        return report
