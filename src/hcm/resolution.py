"""Minimal free resolutions over the Steenrod algebra and Ext charts.

The resolution is built degree by degree and decides by rank first.
Each stage records the rank of its image at every degree, so the kernel
of the previous differential has a known dimension (previous stage's
dimension minus that rank) before any kernel is computed.  The image of
the decomposables at each bidegree is eliminated once, forward only,
into a pivot table (``f2linalg.echelon``) whose size is its rank.
Where that rank is already the kernel's dimension, no generator is
missing and no kernel is computed.  Elsewhere the kernel is read off
one elimination of ``[image | identity]`` (Bruner, "Calculation of
large Ext modules", 1989); each kernel vector is reduced against the
table to its canonical representative (no bit in a pivot column), and
a nonzero one becomes a new free generator's differential and joins
the table at its lowest bit, until the image has the kernel's
dimension; the result is minimal (no unit entries) by construction.
Stage 0 reads the same kind of table, over the module's decomposables:
each column that is not a pivot becomes a generator, named by its
coset, which ``f2linalg.reduce`` of the pivot unit vectors gives.  No
back-substituting elimination runs outside ``relations``.
Generators are ordered by degree and then by kernel pivot, which pins
labels and makes repeated runs identical.  Exactness is proved at
every bidegree: stage 0 must cover the module (its own rank count),
and each later image must have the kernel's dimension; since ``verify``
checks d.d = 0 independently, the image lies in the kernel, so equal
dimensions mean they are equal; a failed check raises ``InternalError``.
``verify`` XORs d.d together from cached bitmask products of whole sums
(``steenrod.mask_product``, straightened by the Adem relations) and
reads none of the tables below (``sq_masks``, ``first_letters``,
``img``), so a wrong mask table cannot vouch for itself.
Every stage is the same kind of object, a free module whose generators
map into a target; it acts on that target through one function, the
module's action at stage 0 and the previous stage's Sq action after
that (as in Bruner's scheme); a free module's action XORs one cached
``steenrod.sq_masks`` row per set bit.  Stage s + 1 reads only stage
s's images, so stage s - 1's images are dropped once stage s is done.

Charts record, besides dimensions and h_0/h_1/h_2 products, how far
they can be trusted:

* ``trusted_stem_max`` - a window module is the quotient of the full
  cohomology by top degrees, so Ext agrees with the untruncated answer
  only in stems <= top - 1;
* stage minimum degrees - over a connected algebra each stage of a
  minimal resolution starts at least one degree above the previous one,
  so a stem column is finished once the staircase passes it;
* cell degrees - positive-stem classes over a cell obey the classical
  vanishing line, bounding the filtration a column can reach.

Group assembly refuses anything these facts cannot certify.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from . import f2linalg, steenrod
from .errors import InternalError, RangeError, RefusalError
from .f2linalg import _bits, _low_bit
from .groups import AbelianGroup
from .steenrod import SqSum
from .stmodule import GradedModule

# Version of the charts this engine emits; the CLI's disk cache keys on it.
# Bump it whenever a pinned digest (CHART_DIGESTS in the tests) changes,
# so that cached charts from before the change are no longer served.
CHART_VERSION = 1


@dataclass(frozen=True)
class Generator:
    s: int
    t: int
    index: int  # position within its stage
    label: str


@dataclass(frozen=True)
class FreeResolution:
    """Stages of generators plus differentials with SqSum entries.

    ``diff[s][i]`` maps stage-s generator i to a tuple of
    ``(target_index, SqSum)`` pairs over stage s-1 generators; stage-0
    generators instead carry augmentation vectors into the module.
    """

    module: GradedModule
    max_s: int
    max_t: int
    stages: tuple[tuple[Generator, ...], ...]
    diff: tuple[dict, ...]
    aug: tuple[int, ...]  # stage-0 generator -> bit-packed module vector

    @property
    def total_generators(self) -> int:
        return sum(len(st) for st in self.stages)


class _Stage:
    """One free module F_s under construction, with its map into a target.

    ``act(i, d, vec)`` applies Sq^i to a degree-d vector of the target:
    the module's action at stage 0, the previous stage's ``sq`` after.
    Degree t holds one block per generator g laid out there, in generator
    order: the elements of ``steenrod.basis(t - g.t)`` on g, starting at
    ``offset[t][g]``.  The list ends with the degree's dimension, so a
    bit's generator is found by bisecting the block starts.  ``img[t]``
    holds the image of every degree-t basis element; it is emptied once
    the next stage is done.
    """

    def __init__(self, act):
        self.act = act
        self.gens: list[Generator] = []
        self.dvec: list[int] = []  # differential/augmentation vectors
        self.offset: dict[int, list[int]] = {}
        self.img: dict[int, list[int]] = {}
        self.rank: dict[int, int] = {}  # dim of the span of img[t]

    def dim(self, t: int) -> int:
        return self.offset.get(t, (0,))[-1]

    def sq(self, i: int, d: int, vec: int) -> int:
        """Left-multiply a degree-d vector of this free module by Sq^i."""
        top = self.offset.get(d + i)
        if top is None:
            raise InternalError("free module basis out of range")
        off, gens, masks = self.offset[d], self.gens, steenrod.sq_masks
        out = hi = 0
        for b in _bits(vec):
            if b >= hi:  # the first bit in a new generator's block
                g = bisect_right(off, b) - 1
                lo, hi, rows, shift = off[g], off[g + 1], masks(i, d - gens[g].t), top[g]
            out ^= rows[b - lo] << shift
        return out

    def extend(self, t: int):
        """Lay out degree t for the generators present so far; once per degree."""
        offset, img = [0], []
        self.offset[t], self.img[t] = offset, img
        for gi, g in enumerate(self.gens):
            # The image of Sq^i rest is Sq^i applied to the image of rest.
            for i, j in steenrod.first_letters(t - g.t):
                img.append(self.act(i, t - i, self.img[t - i][self.offset[t - i][gi] + j]))
            offset.append(len(img))

    def add_generator(self, s: int, t: int, dvec: int, label: str):
        """Add a generator in degree t; only its unit element joins degree t."""
        self.gens.append(Generator(s, t, len(self.gens), label))
        self.dvec.append(dvec)
        self.offset[t].append(self.offset[t][-1] + 1)
        self.img[t].append(dvec)

    def entries(self, t: int, vec: int) -> dict[int, list[tuple]]:
        """A degree-t vector as generator -> its Steenrod monomials, in basis order."""
        off, out = self.offset[t], {}
        for b in _bits(vec):
            g = bisect_right(off, b) - 1
            out.setdefault(g, []).append(steenrod.basis(t - self.gens[g].t)[b - off[g]])
        return out


_H_LABEL = re.compile(r"^h(\d+)(?:\^(\d+))?·(.+)$")


def _h_label(k: int, src_label: str) -> str:
    m = _H_LABEL.match(src_label)
    if m and int(m.group(1)) == k:
        e = int(m.group(2) or 1) + 1
        return f"h{k}^{e}·{m.group(3)}"
    if any(ch in src_label for ch in " +⊗") and not src_label.startswith("("):
        return f"h{k}·({src_label})"
    return f"h{k}·{src_label}"


def minimal_resolution(m: GradedModule, max_s: int, max_t: int) -> FreeResolution:
    """Minimal resolution of ``m`` through homological degree max_s, internal degree max_t.

    Requires the module window to reach max_t unless the module is
    complete; a window module is resolved as the truncation quotient it
    is, which is exact for chart stems <= window top - 1.
    """
    if max_s < 0 or max_t < m.lo:
        raise RangeError("empty resolution range")
    stages = [_Stage(m.act)]
    for _ in range(max_s):
        stages.append(_Stage(stages[-1].sq))

    # -- stage 0: generators = basis of M / A+M, lifted to first free coordinates.
    # A degree is laid out before any of its generators exist, so img[t]
    # first holds only decomposables, at every stage.
    st0 = stages[0]
    for t in range(m.lo, max_t + 1):
        st0.extend(t)
        dim = m.dim(t)
        if dim == 0:
            continue
        piv = f2linalg.echelon(st0.img[t])
        if len(piv) < dim:
            # Each free column f becomes a generator, named by its coset:
            # e_f plus every pivot e_p whose canonical representative
            # (e_p plus p's reduced row) has bit f.
            reds = {p: f2linalg.reduce(piv, 1 << p) for p in piv}
            for f in range(dim):
                if f not in piv:
                    phi = sum(1 << p for p, red in reds.items() if red >> f & 1)
                    st0.add_generator(0, t, 1 << f, m.element_name(t, phi | 1 << f))
            # The augmentation must be onto; count afresh, not from the choice above.
            piv = f2linalg.echelon(st0.img[t])
        _check_exact(0, t, len(piv), dim)
        st0.rank[t] = dim

    # -- higher stages: cover kernels degree by degree.
    diffs: list[dict] = [dict() for _ in range(max_s + 1)]
    for s in range(1, max_s + 1):
        prev, cur = stages[s - 1], stages[s]
        lowest = min((g.t for g in prev.gens), default=max_t + 1) + 1
        for t in range(lowest, max_t + 1):
            cur.extend(t)
            nprev = prev.dim(t)
            if nprev == 0:
                continue
            # prev.img[t] spans a space of dim prev.rank[t], so ker d has dim want.
            want = nprev - prev.rank.get(t, 0)
            piv = f2linalg.echelon(cur.img[t])
            if len(piv) < want:
                # prev.img[t] lives in prev's target, the module or stage s - 2.
                width = m.dim(t) if s == 1 else stages[s - 2].dim(t)
                ordinal = 0
                for kv in f2linalg.relations(prev.img[t], width):
                    red = f2linalg.reduce(piv, kv)
                    if red == 0:
                        continue
                    entries = tuple(
                        (g, SqSum(tuple(sorted(mons, reverse=True))))
                        for g, mons in sorted(prev.entries(t, red).items()))
                    diffs[s][len(cur.gens)] = entries
                    cur.add_generator(s, t, red, _label_for(s, t, entries, prev, m, ordinal))
                    ordinal += 1
                    piv[_low_bit(red)] = red
                    if len(piv) == want:
                        break  # every later kernel vector reduces to 0
            _check_exact(s, t, len(piv), want)
            cur.rank[t] = len(piv)
        prev.img = {}  # only stage s's images are read from here on

    res = FreeResolution(
        m, max_s, max_t,
        stages=tuple(tuple(st.gens) for st in stages),
        diff=tuple(diffs),
        aug=tuple(stages[0].dvec))
    problems = verify(res)
    if problems:
        raise InternalError("resolution failed verification: " + "; ".join(problems))
    return res


def _check_exact(s: int, t: int, got: int, want: int):
    """Raise unless the image at (s, t) has the dimension exactness needs.

    At stage 0 that is the module's dimension (the augmentation is onto);
    later it is the kernel's dimension, which the previous stage's rank
    gives.  ``verify`` checks d.d = 0 independently, so the image lies in
    the kernel, and equal dimensions make them equal.
    """
    if got != want:
        raise InternalError(
            f"resolution not exact at stage {s}, degree {t}: image dim {got}, expected {want}")


def _hk(mon: tuple) -> Optional[int]:
    """k when ``mon`` is the bare Sq^{2^k} (an h_k edge), else None."""
    if len(mon) == 1 and mon[0] & (mon[0] - 1) == 0:
        return mon[0].bit_length() - 1
    return None


def _label_for(s: int, t: int, entries: tuple, prev: _Stage, m: GradedModule,
               ordinal: int) -> str:
    # Rule 1: an h_k edge (one entry holds at most one); the earliest source wins.
    for g, sq in entries:
        for mon in sq.terms:
            k = _hk(mon)
            if k is not None:
                return _h_label(k, prev.gens[g].label)
    # Rule 2: one composite entry starting with a 2-power, traced into the module.
    if s == 1 and len(entries) == 1 and len(entries[0][1].terms) == 1:
        (g, sq), = entries
        mon, = sq.terms
        k = _hk(mon[:1])
        if k is not None:
            elem = m.act_word(mon[1:], prev.gens[g].t, prev.dvec[g])
            if elem:
                return _h_label(k, m.element_name(prev.gens[g].t + sum(mon[1:]), elem))
    return f"[{s},{t}]" if ordinal == 0 else f"[{s},{t}:{ordinal}]"


def verify(res: FreeResolution) -> list[str]:
    """Minimality (no unit entries) and d.d = 0 by full Steenrod expansion.

    Each pair of composed entries is multiplied as sums by
    ``steenrod.mask_product``, which straightens by the Adem relations,
    and the masks are XORed per target generator; the resolver's
    ``sq_masks`` and ``first_letters`` tables and the stages' images
    are never read.
    """
    problems = []
    for s in range(1, res.max_s + 1):
        for i, entries in res.diff[s].items():
            for j, sq in entries:
                if any(mon == () for mon in sq.terms):
                    problems.append(f"unit entry in differential at stage {s}, generator {i}")
    # d(d(g)) as Steenrod product masks, XORed per target generator.
    for s in range(2, res.max_s + 1):
        for i, entries in res.diff[s].items():
            acc: dict[int, int] = {}
            for j, sq in entries:
                for j2, sq2 in res.diff[s - 1].get(j, ()):
                    acc[j2] = acc.get(j2, 0) ^ steenrod.mask_product(sq, sq2)
            if any(acc.values()):
                problems.append(f"d.d != 0 at stage {s}, generator {i}")
    for i, entries in res.diff[1].items() if res.max_s >= 1 else ():
        g = res.stages[1][i]
        out = 0
        for j, sq in entries:
            tgt = res.stages[0][j]
            out ^= res.module.act_sum(sq, tgt.t, res.aug[j])
        if out:
            problems.append(f"augmentation of d(stage-1 generator {i}) nonzero")
    return problems


# -- charts ------------------------------------------------------------------


@dataclass(frozen=True)
class ExtChart:
    """Bigraded dimensions with labels and h_0/h_1/h_2 product edges.

    ``products[k]`` lists ((s, t, i), (s+1, t+2^k, j)) pairs.  The trust
    metadata (stem bound from module truncation, stage floors from
    minimality) lets group assembly prove a column is complete.
    """

    max_s: int
    max_t: int
    dims: dict
    labels: dict
    products: dict
    trusted_stem_max: Optional[int] = None
    stage_min_degree: tuple[int, ...] = ()
    bottom: Optional[int] = None
    cell_degrees: tuple[int, ...] = ()
    torsion_free_top_stems: frozenset = frozenset()
    annotations: tuple[str, ...] = ()

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)

    def stem_complete(self, stem: int) -> bool:
        """True when no class in this stem can sit outside the computed rectangle.

        Two certificates are tried.  Staircase: over a connected algebra
        each stage of a minimal resolution starts at least one degree
        above the previous one, so stems below the last stage's floor
        minus max_s are finished.  Vanishing line: a nonzero positive
        class over a cell in degree d has stem - d >= 2s - 3 (the
        classical edge, attained by the degree-doubling family), so a
        stem with no cell at its own degree is finished once the
        rectangle covers s up to max((stem - d + 3) // 2).
        """
        if self.trusted_stem_max is not None and stem > self.trusted_stem_max:
            return False
        if self.stage_min_degree and stem <= self.max_t - self.max_s \
                and stem < self.stage_min_degree[-1] - self.max_s:
            return True
        if stem in self.cell_degrees:
            return False
        s_bound = max(((stem - d + 3) // 2 for d in self.cell_degrees if d < stem),
                      default=0)
        return s_bound <= self.max_s and stem + s_bound <= self.max_t

    def to_json(self) -> dict:
        return {
            "max_s": self.max_s,
            "max_t": self.max_t,
            "dims": [[s, t, d] for (s, t), d in sorted(self.dims.items()) if d],
            "labels": [[s, t, list(ls)] for (s, t), ls in sorted(self.labels.items()) if ls],
            "products": [
                {"k": k, "from": list(a), "to": list(b)}
                for k in sorted(self.products) for a, b in self.products[k]],
            "trusted_stem_max": self.trusted_stem_max,
            "stage_min_degree": list(self.stage_min_degree),
            "bottom": self.bottom,
            "cell_degrees": list(self.cell_degrees),
            "torsion_free_top_stems": sorted(self.torsion_free_top_stems),
            "annotations": list(self.annotations),
        }


def chart_from_json(obj: dict) -> ExtChart:
    dims = {(int(s), int(t)): int(d) for s, t, d in obj.get("dims", ())}
    labels = {(int(s), int(t)): tuple(ls) for s, t, ls in obj.get("labels", ())}
    products = {}
    for p in obj.get("products", ()):
        products.setdefault(int(p["k"]), []).append(
            (tuple(int(x) for x in p["from"]), tuple(int(x) for x in p["to"])))
    return ExtChart(
        max_s=int(obj["max_s"]), max_t=int(obj["max_t"]), dims=dims, labels=labels,
        products={k: tuple(v) for k, v in products.items()},
        trusted_stem_max=obj.get("trusted_stem_max"),
        stage_min_degree=tuple(obj.get("stage_min_degree", ())),
        bottom=obj.get("bottom"),
        cell_degrees=tuple(obj.get("cell_degrees", ())),
        torsion_free_top_stems=frozenset(obj.get("torsion_free_top_stems", ())),
        annotations=tuple(obj.get("annotations", ())))


def ext_chart(res: FreeResolution,
              torsion_free_top_stems: Sequence[int] = ()) -> ExtChart:
    """Read the E2 chart off a minimal resolution.

    dims count generators; an h_k edge joins generators whose
    differential entry contains the bare monomial Sq^{2^k}.
    """
    labels: dict = {}
    at: dict = {}
    for s, stage in enumerate(res.stages):
        for g in stage:
            spot = labels.setdefault((s, g.t), [])
            at[(s, g.index)] = (s, g.t, len(spot))
            spot.append(g.label)
    dims = {k: len(v) for k, v in labels.items()}
    labels = {k: tuple(v) for k, v in labels.items()}
    products: dict[int, list] = {0: [], 1: [], 2: []}
    for s in range(1, res.max_s + 1):
        for i, entries in res.diff[s].items():
            for j, sq in entries:
                for mon in sq.terms:
                    k = _hk(mon)
                    if k in products:
                        products[k].append((at[(s - 1, j)], at[(s, i)]))
    m = res.module
    # A window module is the truncation quotient at the window top, so
    # Ext is the untruncated answer exactly in stems <= hi - 1.
    trusted = m.hi - 1 if m.truncated else None
    return ExtChart(
        max_s=res.max_s, max_t=res.max_t, dims=dims, labels=labels,
        products={k: tuple(sorted(v)) for k, v in products.items()},
        trusted_stem_max=trusted,
        stage_min_degree=tuple(min((g.t for g in st), default=res.max_t + 1)
                               for st in res.stages),
        bottom=m.bottom_nonzero,
        cell_degrees=tuple(d for d in range(m.lo, m.hi + 1) if m.dim(d)),
        torsion_free_top_stems=frozenset(torsion_free_top_stems))


def _at_boundary(chart: ExtChart, spot: tuple) -> bool:
    """Whether a class sits in the chart's top row or last column."""
    return spot[0] >= chart.max_s or spot[1] >= chart.max_t


def check_no_differentials(chart: ExtChart, degree_window: tuple[int, int]) -> list[dict]:
    """All possible Adams d_r arrows between nonzero spots, source stem in window.

    An empty list certifies collapse in the window.  Arrows are reported
    for every r >= 2 with both endpoints inside the computed rectangle,
    except those ruled out by h_0-linearity: if the source class has a
    finite h_0 string (h_0^L kills it) and the target sits on a
    torsion-free infinite tower (flagged stem, string capped at the
    rectangle top), a nonzero d_r would make h_0^L of a tower class
    vanish, which it cannot.
    """
    # h0 edges keep the stem and h0_next is a function, so every class on
    # an h0 run has the run's top; each class is judged by its own top.
    h0_next = dict(chart.products.get(0, ()))
    tower_spots: set[tuple[int, int]] = set()
    finite_sources: set[tuple[int, int, int]] = set()
    for (s, t), d in chart.dims.items():
        for i in range(d):
            top = (s, t, i)
            while top in h0_next:
                top = h0_next[top]
            if not _at_boundary(chart, top):
                finite_sources.add((s, t, i))
            elif t - s in chart.torsion_free_top_stems:
                tower_spots.add((s, t))

    arrows = []
    lo, hi = degree_window
    for (s, t), d in sorted(chart.dims.items()):
        if not d:
            continue
        stem = t - s
        if stem < lo or stem > hi:
            continue
        for r in range(2, chart.max_s - s + 1):
            s2, t2 = s + r, t + r - 1
            if t2 > chart.max_t or not chart.dim(s2, t2):
                continue
            if (s2, t2) in tower_spots and all(
                    (s, t, i) in finite_sources for i in range(d)):
                continue
            arrows.append({
                "r": r, "from": (stem, s), "to": (stem - 1, s2),
                "source": (s, t), "target": (s2, t2)})
    return arrows


def _strings(chart: ExtChart, stem: int) -> list[list[tuple[int, int, int]]]:
    """Maximal h_0 strings in one stem column, bottom-up.

    Refuses columns whose h_0 edges branch or merge; those need a basis
    change before they can be read as cyclic summands.
    """
    pairs = [(a, b) for a, b in chart.products.get(0, ())
             if a[1] - a[0] == stem]
    edges = dict(pairs)
    targets = [b for _, b in pairs]
    if len(edges) != len(pairs) or len(set(targets)) != len(targets):
        raise RefusalError(f"h0 structure in stem {stem} branches; refusing to read")
    hit = set(targets)
    col = [(s, t, i) for (s, t), d in sorted(chart.dims.items())
           if t - s == stem for i in range(d)]
    strings = []
    for c in col:
        if c in hit:
            continue
        run = [c]
        while run[-1] in edges:
            run.append(edges[run[-1]])
        strings.append(run)
    return strings


def homotopy_from_chart(chart: ExtChart, stem: int) -> AbelianGroup:
    """Assemble the stem's group from maximal h_0 strings.

    Bounded strings of length m give Z/2^m; a string that touches the
    top of the computed region counts as a 2-complete Z only when the
    stem is flagged torsion-free-at-top, and is refused otherwise.
    Refuses stems with possible Adams differentials or columns the
    resolution cannot certify complete.
    """
    if chart.trusted_stem_max is not None and stem > chart.trusted_stem_max:
        raise RefusalError(
            f"stem {stem} lies beyond the window truncation (trusted through "
            f"{chart.trusted_stem_max})")
    # Each arrow from stem or stem + 1 starts or ends in this stem.
    arrows = check_no_differentials(chart, (stem, stem + 1))
    if arrows:
        raise RefusalError(f"possible Adams differentials touch stem {stem}: {arrows}")
    flagged = stem in chart.torsion_free_top_stems
    if not chart.stem_complete(stem) and not flagged:
        raise RefusalError(
            f"stem {stem} column is not certified complete by the computed range")
    free = 0
    torsion = []
    for run in _strings(chart, stem):
        if _at_boundary(chart, run[-1]):
            if flagged:
                free += 1
                continue
            raise RefusalError(
                f"h0 string in stem {stem} reaches the computed boundary; "
                "not flagged torsion-free-at-top")
        torsion.append(1 << len(run))
    return AbelianGroup(free, tuple(sorted(torsion, reverse=True)))
