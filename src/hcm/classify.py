"""Classification answers for highly connected manifolds, with citations.

Every answer is a record carrying the theorem tag it comes from; nothing
is computed here beyond table lookups, divisibility branches, and the
stems database.  Dimension conventions: ``n`` refers to an
(n-1)-connected 2n-manifold (or almost closed (2n+1)-manifold for the
boundary questions).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import (InputError, NotFoundError, UnsupportedError, checked, fields, listed,
                     read_json, typed)
from .groups import AbelianGroup
from .stems_data import BUNDLED_STEMS

Z2 = AbelianGroup.cyclic(2)
Z8 = AbelianGroup.cyclic(8)

OPEN_DIM_126 = "open (Kervaire invariant one in dim 126)"


# -- stems database -----------------------------------------------------------


class GeneratorInfo(NamedTuple):
    label: str
    aliases: tuple[str, ...]
    im_j: bool
    mu_family: bool


@checked
class StemRecord(NamedTuple):
    k: int
    group: AbelianGroup
    generators: tuple[GeneratorInfo, ...]
    im_j_order: int
    relations: tuple[dict, ...] = ()
    notes: tuple[str, ...] = ()

    def _check(self):
        order = self.group.order
        if self.k < 1:
            raise InputError("stem must be positive")
        if self.im_j_order < 1:
            raise InputError(f"im_j_order must be at least 1, got {self.im_j_order}")
        if order is not None and order % self.im_j_order:
            raise InputError(f"im_j_order {self.im_j_order} does not divide |pi_{self.k}|")


class ProductFact(NamedTuple):
    a: str
    b: str
    result: str  # generator label or "0"
    note: str = ""
    stem_a: int = 0
    stem_b: int = 0


class StemDatabase:
    """Immutable after load; queries resolve aliases and relation labels.

    Every label, alias and relation label names one thing; a name given
    twice, or the name "0", which a product's result keeps for zero, is
    ``InputError``, and so is a relation whose sum does not name one or
    more distinct generators of its own stem, by label or alias.  Each
    product is stored under the canonical labels of its factors, the ones
    ``product`` compares; a factor no record names is ``NotFoundError``,
    and a nonzero result that names nothing in the factors' total stem,
    or a second product for the same unordered pair of factors, is
    ``InputError``.
    """

    def __init__(self, records: dict[int, StemRecord], products: tuple[ProductFact, ...]):
        self.records = dict(records)
        self._alias: dict[str, tuple[int, str]] = {}
        for k, rec in self.records.items():
            names = [(name, g.label) for g in rec.generators for name in (g.label, *g.aliases)]
            for name, label in names + [(rel["label"], rel["label"]) for rel in rec.relations]:
                if name == "0":
                    raise InputError(f"label '0' in stem {k} would read as the zero product")
                if name in self._alias:
                    raise InputError(f"label {name!r} is named twice, in stem "
                                     f"{self._alias[name][0]} and in stem {k}")
                self._alias[name] = (k, label)
            gens = dict(names)
            for rel in rec.relations:
                summands = [gens.get(name) for name in rel["sum"]]
                if not summands or None in summands or len(set(summands)) < len(summands):
                    raise InputError(f"relation {rel['label']!r}: sum {rel['sum']} does not name "
                                     f"distinct generators of stem {k}")
        canonical, pairs = [], set()
        for p in products:
            (ka, a), (kb, b) = self.resolve(p.a), self.resolve(p.b)
            if p.result != "0" and self._alias.get(p.result, (None,))[0] != ka + kb:
                raise InputError(f"product {p.a} * {p.b}: result {p.result!r} names nothing "
                                 f"in stem {ka + kb}")
            if (pair := frozenset((a, b))) in pairs:
                raise InputError(f"product {p.a} * {p.b}: a second product for {a} and {b}")
            pairs.add(pair)
            canonical.append(p._replace(a=a, b=b))
        self.products = tuple(canonical)

    def stem(self, k: int) -> StemRecord:
        if k not in self.records:
            raise NotFoundError(f"no record for stem {k}")
        return self.records[k]

    def resolve(self, label: str) -> tuple[int, str]:
        """(stem, canonical label); relation labels resolve to themselves."""
        if label not in self._alias:
            raise NotFoundError(f"unknown generator label {label!r}")
        return self._alias[label]

    def product(self, a_label: str, b_label: str) -> ProductFact:
        ka, ca = self.resolve(a_label)
        kb, cb = self.resolve(b_label)
        for p in self.products:
            if {p.a, p.b} == {ca, cb}:
                return ProductFact(ca, cb, p.result, p.note, ka, kb)
        raise NotFoundError(f"no recorded product {ca} * {cb}")


def parse_stems(data: dict) -> StemDatabase:
    """Build the database from the JSON schema; each value is read by its exact
    JSON type, and a wrong type, a missing key or an unknown one is ``InputError``."""
    try:
        data = fields(data, ("schema", "stems", "products"), "the stems data")
        typed(data.get("schema", 1), int, "schema")
        records, products = {}, []
        plists = [("products", data.get("products", []))]
        for pos, rec in enumerate(typed(data["stems"], list, "stems")):
            where = f"stems[{pos}]"
            rec = fields(rec, ("k", "cyclic_orders", "im_j_order", "generators", "relations",
                               "notes", "products"), where)
            orders = tuple(sorted(listed(rec["cyclic_orders"], int, "cyclic_orders"),
                                  reverse=True))
            gens = []
            for i, g in enumerate(typed(rec.get("generators", []), list, "generators")):
                g = fields(g, ("label", "aliases", "im_j", "mu_family"),
                           f"{where}.generators[{i}]")
                gens.append(GeneratorInfo(
                    typed(g["label"], str, "label"), listed(g.get("aliases", []), str, "aliases"),
                    typed(g.get("im_j", False), bool, "im_j"),
                    typed(g.get("mu_family", False), bool, "mu_family")))
            if len(gens) != len(orders):
                raise ValueError(f"{where}: {len(orders)} cyclic factors but {len(gens)} generators")
            relations = typed(rec.get("relations", []), list, "relations")
            for i, rel in enumerate(relations):
                rel = fields(rel, ("label", "sum", "im_j"), f"{where}.relations[{i}]")
                typed(rel["label"], str, "label")
                listed(rel["sum"], str, "sum")
                typed(rel.get("im_j", False), bool, "im_j")
            k = typed(rec["k"], int, "k")
            if k in records:
                raise ValueError(f"{where}: a second record for stem {k}")
            try:
                records[k] = StemRecord(
                    k=k, group=AbelianGroup(0, orders), generators=tuple(gens),
                    im_j_order=typed(rec.get("im_j_order", 1), int, "im_j_order"),
                    relations=tuple(relations), notes=listed(rec.get("notes", []), str, "notes"))
            except InputError as exc:  # a record's own checks, reported with its place
                raise ValueError(f"{where}: {exc}") from exc
            plists.append((f"{where}.products", rec.get("products", [])))
        for where, plist in plists:
            for pos, p in enumerate(typed(plist, list, "products")):
                p = fields(p, ("a", "b", "result", "note"), f"{where}[{pos}]")
                products.append(ProductFact(
                    typed(p["a"], str, "a"), typed(p["b"], str, "b"),
                    typed(p["result"], str, "result"), typed(p.get("note", ""), str, "note")))
        return StemDatabase(records, tuple(products))
    except (KeyError, TypeError, ValueError, InputError) as exc:
        raise InputError(f"bad stems JSON: {exc}") from exc


def load_stems(path: Optional[str] = None) -> StemDatabase:
    """Bundled records, or a JSON file following the same schema."""
    return parse_stems(BUNDLED_STEMS if path is None else read_json(path, "stems"))


# -- theorem database ----------------------------------------------------------


class ConditionalGroup(NamedTuple):
    """A group answer that may branch on a manifold invariant."""

    group: Optional[AbelianGroup]  # set when unconditional or decided
    condition: str = ""
    branches: tuple[tuple[str, AbelianGroup], ...] = ()
    note: str = ""
    citations: tuple[str, ...] = ()

    @property
    def decided(self) -> bool:
        return self.group is not None

    def __str__(self) -> str:
        if self.decided:
            s = str(self.group)
            return f"{s} ({self.note})" if self.note else s
        return "; ".join(f"{cond}: {grp}" for cond, grp in self.branches)


# n -> (condition for I(M) = 0, divisor of the invariant, the group
# otherwise, the note that names it); H(M) is 0 or 1, so n = 9 has none.
_INERTIA_BRANCHES = {
    4: ("8 | p1", 8, Z2, "= Theta_8"),
    8: ("24 | p2", 24, Z2, "= Theta_16"),
    9: ("H(M) = 0", None, Z8, "= bSpin_19 in Theta_18"),
}


def inertia_group(n: int, invariant: Optional[int] = None) -> ConditionalGroup:
    """I(M) for an (n-1)-connected 2n-manifold.

    ``invariant`` is the first Pontryagin class p1 (n=4), p2 (n=8), or
    the normal-bundle image H(M) in {0, 1} (n=9).  Without it the
    conditional branch table is returned for those n.
    """
    if n < 3:
        raise UnsupportedError("inertia groups handled for n >= 3")
    if n not in _INERTIA_BRANCHES:
        return ConditionalGroup(AbelianGroup.ZERO, citations=("Thm 1.2",))
    condition, divisor, nonzero, note = _INERTIA_BRANCHES[n]
    if invariant is None:
        return ConditionalGroup(
            None, condition=condition,
            branches=((condition, AbelianGroup.ZERO), (f"not ({condition})", nonzero)),
            note=note, citations=("Thm 1.2",))
    trivial = invariant == 0 if divisor is None else invariant % divisor == 0
    grp = AbelianGroup.ZERO if trivial else nonzero
    return ConditionalGroup(grp, note="" if trivial else note, citations=("Thm 1.2",))


def h_c_inertia(n: int) -> tuple[AbelianGroup, AbelianGroup]:
    """(homotopy, concordance) inertia groups: always zero for n >= 3."""
    if n < 3:
        raise UnsupportedError("handled for n >= 3")
    return (AbelianGroup.ZERO, AbelianGroup.ZERO)


_KERNEL_EXTRAS = {
    1: "eta^2", 3: "nu^2", 4: "epsilon", 7: "sigma^2", 8: "eta4", 9: "[h2h4]",
}


class KernelInfo(NamedTuple):
    n: int
    generators: tuple[str, ...]  # beyond the image of J
    citations: tuple[str, ...]

    def __str__(self) -> str:
        extra = "".join(f" + {g}" for g in self.generators)
        return f"im J{extra}"


def kernel_unit_map(n: int) -> KernelInfo:
    """Generators of the kernel of the degree-2n unit map into the Thom spectrum."""
    if n < 1:
        raise UnsupportedError("n >= 1 required")
    extra = _KERNEL_EXTRAS.get(n)
    return KernelInfo(n, (extra,) if extra else (), ("Thm 1.3",))


def a_group(n: int) -> AbelianGroup:
    """The cobordism group of almost closed (2n+1)-manifolds, n >= 3."""
    if n < 3:
        raise UnsupportedError("n >= 3 required")
    r = n % 8
    if r == 0 or n == 4:
        return AbelianGroup(0, (2, 2))
    if r == 1:
        return Z8
    if r == 2 or r == 4:
        return Z2
    return AbelianGroup.ZERO


class BoundaryInfo(NamedTuple):
    n: int
    spheres_bounding: str
    boundary_map: str
    citations: tuple[str, ...]
    qualifier: str = ""


def boundary_info(n: int) -> BoundaryInfo:
    """Which homotopy 2n-spheres bound, and the boundary map, for n >= 3."""
    if n < 3:
        raise UnsupportedError("n >= 3 required")
    if n == 4:
        return BoundaryInfo(
            n, "every homotopy 8-sphere bounds a 3-connected 9-manifold",
            "boundary is standard iff Psi_{-L_H}(M) in {1, [nu4 o eta7]}; "
            "otherwise it is [epsilon]", ("Thm 1.5(i)", "Thm 1.6"),
            "up to multiplication by a 2-adic unit")
    if n == 8:
        return BoundaryInfo(
            n, "every homotopy 16-sphere bounds a 7-connected 17-manifold",
            "boundary is standard iff Psi_{L_O}(M) in {1, [sigma8 o eta15]}; "
            "otherwise it is [eta4]", ("Thm 1.5(ii)", "Thm 1.6"),
            "up to multiplication by a 2-adic unit")
    if n == 9:
        return BoundaryInfo(
            n, "a homotopy 18-sphere bounds an 8-connected 19-manifold iff it "
               "bounds a spin 19-manifold (the bSpin_19 subgroup)",
            "boundary of f is omega(f)*[h2h4]", ("Thm 1.5(iii)", "Thm 1.6"),
            "up to multiplication by a 2-adic unit")
    return BoundaryInfo(
        n, "only the standard sphere bounds an (n-1)-connected (2n+1)-manifold",
        "boundary map is zero", ("Thm 1.6",))


class ClassificationResult(NamedTuple):
    n: int
    dimension: int
    inertia: ConditionalGroup
    homotopy_inertia: AbelianGroup
    concordance_inertia: AbelianGroup
    a_group: AbelianGroup
    kernel: KernelInfo
    boundary: BoundaryInfo
    status: str
    citations: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dimension": self.dimension,
            "inertia": str(self.inertia),
            "homotopy_inertia": str(self.homotopy_inertia),
            "concordance_inertia": str(self.concordance_inertia),
            "a_group": str(self.a_group),
            "kernel": str(self.kernel),
            "boundary": self.boundary.boundary_map,
            "spheres_bounding": self.boundary.spheres_bounding,
            "status": self.status,
            "citations": list(self.citations),
        }


def classification_result(n: int, invariant: Optional[int] = None) -> ClassificationResult:
    """The full record for one n, every field tagged with its theorem.

    The inertia answers are unconditional theorems for every n >= 3; the
    n = 63 record additionally carries the open status of the
    realization question in dimension 126, and no group is ever reported
    for that question.
    """
    if n < 3:
        raise UnsupportedError("classification records start at n = 3")
    inertia = inertia_group(n, invariant)
    hi, ci = h_c_inertia(n)
    kern = kernel_unit_map(n)
    bdry = boundary_info(n)
    status = OPEN_DIM_126 if n == 63 else "complete"
    citations = tuple(dict.fromkeys(
        inertia.citations + ("Thm 1.4",) + kern.citations + bdry.citations + ("Thm 2.2",)))
    return ClassificationResult(
        n=n, dimension=2 * n, inertia=inertia, homotopy_inertia=hi,
        concordance_inertia=ci, a_group=a_group(n), kernel=kern, boundary=bdry,
        status=status, citations=citations)
