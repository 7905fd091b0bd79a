"""Minimal free resolutions over the Steenrod algebra and Ext charts.

The resolution is built degree by degree and decides by rank first.
The image of the decomposables at each bidegree is eliminated once,
forward only, into a plain pivot table whose size is its rank, and the
stage keeps those rows with their rank.  Later generators have
independent images, so rows less rank is the kernel's dimension before
any kernel is computed.  Where the next stage's table I already has
that dimension, no generator is missing and no relation is read.
Elsewhere, with Z the coordinates off I's pivot columns, the kernel K
is I ⊕ (K ∩ Z), since I lies in K; the relations among the rows at
Z's positions alone are a basis Y of K ∩ Z, found by tagging each of
those rows with its index (Bruner's ``[image | identity]``,
"Calculation of large Ext modules", 1989; ``_Stage.kernel``).
One vector in Y is the canonical representative (no bit in a pivot
column) of every kernel vector outside I, so it is the new free
generator's differential.  With more, each vector of K's reduced
echelon basis, read off I's rows and Y, in pivot order, is reduced
against the table, and a nonzero one becomes a new generator's
differential and joins the table at its lowest bit, until the image
has the kernel's dimension; the result is minimal (no unit entries) by
construction.
Stage 0 reads the same kind of table, over the module's decomposables:
each column that is not a pivot becomes a generator, named by its
coset, which ``f2linalg.reduce`` of the pivot unit vectors gives.
Generators are ordered by degree and then by kernel pivot, which pins
labels and makes repeated runs identical.  Exactness is proved at
every bidegree: stage 0 must cover the module (its own rank count),
each Y read must fill the table to the kernel's dimension, and each
later image must have the kernel's dimension; since ``verify``
checks d.d = 0 independently, the image lies in the kernel, so equal
dimensions mean they are equal; a failed check raises ``InternalError``.
``verify`` checks each stage as soon as it is laid out: it XORs d.d
together from cached bitmask products of whole sums
(``steenrod.mask_product``, straightened by the Adem relations) and
reads none of the resolver's tables (``sq_masks``, ``right_masks``,
``first_letters``), so a wrong mask table cannot vouch for itself.
Every stage is the same kind of object, a free module whose generators
map into a target.  Stage 0 maps into the module, and reaches the image
of Sq^i rest on a generator by the module's Sq^i on the image of rest:
the rests after one first letter are a prefix of a basis, so their
images are one slice.  A later stage maps into the previous one, and
the image of mon g is mon d(g) = sum_j (mon a_j) h_j (as in Bruner's
scheme): g keeps d(g) as blocks, one sum a_j per target generator j,
and each mon a_j is a row of the cached table ``steenrod.right_masks``
placed at j's block by a shift.  That table is a per-process cache of
the algebra, like ``sq_masks``, shared by every stage and every call,
so a free stage lays a degree out without reading another degree's
images.  Stage s + 1 reads stage s's rows, ranks and layout; a
degree's rows are dropped once stage s + 1 has read them, and the last
stage keeps none.

Charts record, besides class labels and h_0/h_1/h_2 products, how far
they can be trusted:

* ``trusted_stem_max`` - a window module is the quotient of the full
  cohomology by top degrees, so Ext agrees with the untruncated answer
  only in stems <= top - 1;
* stage minimum degrees, read off the labels - over a connected algebra
  each stage of a minimal resolution starts at least one degree above
  the previous one, so a stem column is finished once the staircase
  passes it;
* cell degrees - positive-stem classes over a cell obey the classical
  vanishing line, bounding the filtration a column can reach.

Group assembly refuses anything these facts cannot certify.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from operator import xor
from typing import Iterable, NamedTuple, Optional, Sequence

from . import f2linalg, steenrod
from .errors import InternalError, RangeError, RefusalError
from .f2linalg import _bits, _low_bit
from .groups import AbelianGroup
from .stmodule import GradedModule

# Version of the charts this engine emits; the CLI's disk cache keys on it.
# Bump it whenever a pinned digest (CHART_DIGESTS in the tests) changes,
# so that cached charts from before the change are no longer served.
CHART_VERSION = 1


class Generator(NamedTuple):
    t: int
    label: str


class FreeResolution(NamedTuple):
    """Stages of generators plus their differentials, as blocks.

    ``stages[s][i]`` is stage-s generator i and ``diff[s][i]`` its
    differential: one block ``(j, d, mask)`` per stage s-1 generator j
    it reaches, in generator order, for the sum over ``steenrod.basis(d)``
    at mask's set bits.  Stage-0 generators carry augmentation vectors
    into the module instead, and ``diff[0]`` is empty.
    """

    module: GradedModule
    max_s: int
    max_t: int
    stages: tuple[tuple[Generator, ...], ...]
    diff: tuple[tuple[list[tuple[int, int, int]], ...], ...]
    aug: tuple[int, ...]  # stage-0 generator -> bit-packed module vector

    @property
    def total_generators(self) -> int:
        return sum(len(st) for st in self.stages)


class _Stage:
    """One free module F_s under construction, with its map into a target.

    The target is the module at stage 0 and the previous stage after
    that.  Degree t holds one block per generator g laid out there, in
    generator order: the elements of ``steenrod.basis(t - g.t)`` on g,
    starting at ``offset[t][g]``.  The list ends with the degree's
    dimension, so a bit's generator is found by bisecting the block
    starts.  ``extend(t)`` returns the image of every degree-t basis
    element.  Until the next stage has read degree t, ``rows[t]`` holds
    the images of its decomposables and ``rank[t]`` their rank, so rows
    less rank is the kernel's dimension; the last stage keeps no rows.

    Stage 0 (``s`` is the stage's index) keeps its images, in
    ``img[t]``, until the stage is laid out: the image of Sq^i rest on g
    is the module's Sq^i on the image of rest.  A later stage lays a
    degree out from no images of its own: each generator keeps its
    differential's blocks, (j, degree, mask) per target generator j,
    which the resolution hands out as its ``diff``, and
    the image of mon on g is the sum over them of mon times the mask,
    read off the cached table ``steenrod.right_masks`` and placed at j's
    block of the target.
    """

    def __init__(self, target):
        self.prev = target if isinstance(target, _Stage) else None
        self.module = target if self.prev is None else None
        self.s = 0 if self.prev is None else self.prev.s + 1
        self.gens: list[Generator] = []
        self.aug: list[int] = []  # stage 0: each generator's module vector
        self.blocks: list[list[tuple[int, int, int]]] = []  # later: each one's differential
        self.offset: dict[int, list[int]] = {}
        self.img: dict[int, list[int]] = {}
        self.rows: dict[int, list[int]] = {}
        self.rank: dict[int, int] = {}

    def dim(self, t: int) -> int:
        return self.offset.get(t, (0,))[-1]

    def extend(self, t: int) -> list[int]:
        """Lay out degree t for the generators present so far and return its images.

        Once per degree, in order, and at a later stage only where the
        previous stage has laid degree t out.
        """
        offset, img = [0], []
        self.offset[t] = offset
        if self.prev is None:
            self.img[t], act = img, self.module.act
            for gi, g in enumerate(self.gens):
                # The images of Sq^i rest, for the rests in a prefix of
                # basis(t - g.t - i), are Sq^i on one slice of img[t - i].
                for i, n in steenrod.first_letter_runs(t - g.t):
                    lo = self.offset[t - i][gi]
                    img += [act(i, t - i, v) for v in self.img[t - i][lo:lo + n]]
                offset.append(len(img))
            return img
        top = self.prev.offset.get(t)
        if top is None:
            raise InternalError(f"degree {t} of the previous stage out of range")
        right = steenrod.right_masks
        for g, blocks in zip(self.gens, self.blocks):
            rows = None
            for j, d, mask in blocks:
                shift = top[j]
                part = [row << shift for row in right(mask, d, t - g.t)]
                rows = part if rows is None else list(map(xor, rows, part))
            img += rows
            offset.append(len(img))
        return img

    def kernel(self, t: int, piv: dict[int, int]) -> Iterable[int]:
        """The kernel vectors at degree t that the next stage draws its new generators from.

        ``piv`` is the echelon table of the next stage's image I.  With Z
        the coordinates off its pivot columns, this stage's kernel K is
        I ⊕ (K ∩ Z), and the relations among ``rows[t]`` at Z's positions,
        mapped back, are a basis Y of K ∩ Z; raises unless I and Y together
        have K's dimension.  A single vector in Y is the canonical
        representative of every kernel vector outside I, so it is all that
        is returned, and exactly what reducing K's basis against I would
        give first; otherwise K's reduced echelon basis, in pivot order, is
        read off I's rows and Y.
        """
        rows = self.rows[t]
        off = [i for i in range(len(rows)) if i not in piv]
        width = self.module.dim(t) if self.prev is None else self.prev.dim(t)
        ys = [sum(1 << off[b] for b in _bits(rel))
              for rel in f2linalg.tagged_echelon([rows[i] for i in off], width)[1]]
        if len(piv) + len(ys) != (want := len(rows) - self.rank[t]):
            raise InternalError(f"resolution not exact at stage {self.s + 1}, degree {t}: image "
                                f"rank {len(piv)} plus {len(ys)} relations off its pivots, "
                                f"kernel dim {want}")
        return ys if len(ys) == 1 else f2linalg.reduced_basis(list(piv.values()) + ys)

    def add_generator(self, t: int, image, label: str):
        """Add a generator in degree t mapping to image (a module vector, later blocks)."""
        self.gens.append(Generator(t, label))
        self.offset[t].append(self.offset[t][-1] + 1)  # only its unit element joins degree t
        if self.prev is None:
            self.aug.append(image)
            self.img[t].append(image)
        else:
            self.blocks.append(image)

    def split(self, t: int, vec: int) -> list[tuple[int, int, int]]:
        """A degree-t vector as (generator, relative degree, mask over that basis) per block."""
        off, out = self.offset[t], []
        while vec:
            g = bisect_right(off, _low_bit(vec)) - 1
            lo, hi = off[g], off[g + 1]
            out.append((g, t - self.gens[g].t, (vec >> lo) & ((1 << (hi - lo)) - 1)))
            vec = vec >> hi << hi
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

    max_t may pass the window top: a window module is resolved as its
    truncation quotient, zero above the top, which is exact for chart
    stems <= window top - 1.
    """
    if max_s < 0 or max_t < m.lo:
        raise RangeError("empty resolution range")
    stages = [_Stage(m)]
    for _ in range(max_s):
        stages.append(_Stage(stages[-1]))

    # -- stage 0: generators = basis of M / A+M, lifted to first free coordinates.
    # A degree is laid out before any of its generators exist, so img[t]
    # first holds only decomposables, at every stage.
    st0 = stages[0]
    for t in range(m.lo, max_t + 1):
        img = st0.extend(t)
        dim = m.dim(t)
        piv = f2linalg.echelon(img)
        if max_s:
            st0.rows[t], st0.rank[t] = img[:], len(piv)
        if len(piv) < dim:
            # Each free column f becomes a generator, named by its coset:
            # e_f plus every pivot e_p whose canonical representative
            # (e_p plus p's reduced row) has bit f.
            reds = {p: f2linalg.reduce(piv, 1 << p) for p in piv}
            for f in range(dim):
                if f not in piv:
                    phi = sum(1 << p for p, red in reds.items() if red >> f & 1)
                    st0.add_generator(t, 1 << f, m.element_name(t, phi | 1 << f))
            # The augmentation must be onto; count afresh, not from the choice above.
            piv = f2linalg.echelon(img)
        _check_exact(0, t, len(piv), dim)
    st0.img = {}  # stage 1 reads stage 0's rows, not its images

    # -- higher stages: cover kernels degree by degree, each checked once laid out.
    for s in range(1, max_s + 1):
        prev, cur = stages[s - 1], stages[s]
        lowest = min((g.t for g in prev.gens), default=max_t + 1) + 1
        for t in range(lowest, max_t + 1):
            want = len(prev.rows[t]) - prev.rank[t]  # dim ker d at t
            rows = cur.extend(t)
            piv = f2linalg.echelon(rows)
            if s < max_s:
                cur.rows[t], cur.rank[t] = rows, len(piv)
            if len(piv) < want:
                ordinal = 0
                for kv in prev.kernel(t, piv):
                    red = f2linalg.reduce(piv, kv)
                    if red == 0:
                        continue
                    blocks = prev.split(t, red)
                    cur.add_generator(t, blocks, _label_for(s, t, blocks, prev, m, ordinal))
                    ordinal += 1
                    piv[_low_bit(red)] = red
                    if len(piv) == want:
                        break  # every later kernel vector reduces to 0
            _check_exact(s, t, len(piv), want)
            del prev.rows[t]
        problems = verify(_freeze(m, max_s, max_t, stages), s)
        if problems:
            raise InternalError("resolution failed verification: " + "; ".join(problems))
    return _freeze(m, max_s, max_t, stages)


def _freeze(m: GradedModule, max_s: int, max_t: int, stages: list[_Stage]) -> FreeResolution:
    """The resolution the stages hold so far."""
    return FreeResolution(m, max_s, max_t, tuple(tuple(st.gens) for st in stages),
                          tuple(tuple(st.blocks) for st in stages), tuple(stages[0].aug))


def _check_exact(s: int, t: int, got: int, want: int):
    """Raise unless the image at (s, t) has the dimension exactness needs.

    At stage 0 that is the module's dimension (the augmentation is onto);
    later it is the kernel's dimension, the previous stage's rows less
    their rank, a full-rank count that also catches an image of rank
    above it.  ``verify`` checks d.d = 0 independently, so the image lies
    in the kernel, and equal dimensions make them equal.  Where a
    generator is missing, ``_Stage.kernel`` checks the image's rank plus
    |Y| against the kernel's dimension, in a message naming all three.
    """
    if got != want:
        raise InternalError(
            f"resolution not exact at stage {s}, degree {t}: image dim {got}, expected {want}")


def _hk(d: int, mask: int) -> Optional[int]:
    """k when the block holds the bare Sq^{2^k} (an h_k edge, last in its basis), else None."""
    if d & (d - 1) == 0 and mask >> (len(steenrod.basis(d)) - 1):
        return d.bit_length() - 1
    return None


def _label_for(s: int, t: int, blocks: list, prev: _Stage, m: GradedModule,
               ordinal: int) -> str:
    # Rule 1: an h_k edge (one block holds at most one); the earliest source wins.
    for g, d, mask in blocks:
        k = _hk(d, mask)
        if k is not None:
            return _h_label(k, prev.gens[g].label)
    # Rule 2: one block of one monomial starting with a 2-power, traced into the module.
    if s == 1 and len(blocks) == 1:
        (g, d, mask), = blocks
        mon = steenrod.basis(d)[mask.bit_length() - 1]
        if mask & (mask - 1) == 0 and mon and mon[0] & (mon[0] - 1) == 0:
            elem = m.act_word(mon[1:], prev.gens[g].t, prev.aug[g])
            if elem:
                k = mon[0].bit_length() - 1
                return _h_label(k, m.element_name(prev.gens[g].t + d - mon[0], elem))
    return f"[{s},{t}]" if ordinal == 0 else f"[{s},{t}:{ordinal}]"


def verify(res: FreeResolution, s: int) -> list[str]:
    """Minimality (no block at relative degree 0) and d.d = 0 at stage s >= 1.

    Only ``diff[s]`` and ``diff[s - 1]`` (at s = 1, the augmentation) are
    read, so each stage is checked as it is laid out.  Composed blocks
    are multiplied by ``steenrod.mask_product``, which straightens by the
    Adem relations, and XORed per target generator; at s = 1 the module
    applies each block by ``act_mask``.  The resolver's ``sq_masks``,
    ``right_masks`` and ``first_letters`` are never read.
    """
    problems = [f"unit entry in differential at stage {s}, generator {i}"
                for i, blocks in enumerate(res.diff[s]) if any(d == 0 for _, d, _ in blocks)]
    if s == 1:
        for i, blocks in enumerate(res.diff[1]):
            out = 0
            for j, d, mask in blocks:
                out ^= res.module.act_mask(mask, d, res.stages[0][j].t, res.aug[j])
            if out:
                problems.append(f"augmentation of d(stage-1 generator {i}) nonzero")
        return problems
    below = res.diff[s - 1]
    for i, blocks in enumerate(res.diff[s]):
        acc: dict[int, int] = {}
        for j, d, a in blocks:
            for j2, e, b in below[j]:
                acc[j2] = acc.get(j2, 0) ^ steenrod.mask_product(a, d, b, e)
        if any(acc.values()):
            problems.append(f"d.d != 0 at stage {s}, generator {i}")
    return problems


# -- charts ------------------------------------------------------------------


class ExtChart(NamedTuple):
    """Bigraded class labels with h_0/h_1/h_2 product edges.

    ``labels`` is the one record of which classes exist; dimensions and
    stage floors are read off it.  ``products[k]`` lists ((s, t, i),
    (s+1, t+2^k, j)) pairs.  The trust metadata (stem bound from module
    truncation, stage floors from minimality) lets group assembly prove
    a column is complete.
    """

    max_s: int
    max_t: int
    labels: dict
    products: dict
    trusted_stem_max: Optional[int] = None
    cell_degrees: tuple[int, ...] = ()
    torsion_free_top_stems: frozenset = frozenset()
    annotations: tuple[str, ...] = ()

    @property
    def bottom(self) -> Optional[int]:
        """The module's lowest cell degree, or None when it has no cells."""
        return self.cell_degrees[0] if self.cell_degrees else None

    @property
    def dims(self) -> dict:
        return {spot: len(ls) for spot, ls in self.labels.items() if ls}

    def dim(self, s: int, t: int) -> int:
        return len(self.labels.get((s, t), ()))

    @property
    def stage_min_degree(self) -> tuple[int, ...]:
        """Each stage's lowest generator degree, max_t + 1 for an empty stage."""
        return tuple(min((t for (s2, t), ls in self.labels.items() if s2 == s and ls),
                         default=self.max_t + 1) for s in range(self.max_s + 1))

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
        if stem <= self.max_t - self.max_s and stem < self.stage_min_degree[-1] - self.max_s:
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
            "dims": [[s, t, d] for (s, t), d in sorted(self.dims.items())],
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
    """The chart of a ``to_json`` dict: a plain decoder that checks nothing.

    ``chart_from_json(c.to_json()).to_json() == c.to_json()`` for every
    chart ``c``.  The caller vouches for ``obj``: the CLI's chart cache
    decodes only a chart whose sha256 matches the one stored with it.  A
    dict of another shape raises ``KeyError``, ``TypeError`` or
    ``ValueError``, or decodes to a chart nothing has checked.
    """
    products: dict = {}
    for p in obj["products"]:
        products.setdefault(p["k"], []).append((tuple(p["from"]), tuple(p["to"])))
    return ExtChart(
        max_s=obj["max_s"], max_t=obj["max_t"],
        labels={(s, t): tuple(ls) for s, t, ls in obj["labels"]},
        products={k: tuple(v) for k, v in products.items()},
        trusted_stem_max=obj["trusted_stem_max"],
        cell_degrees=tuple(obj["cell_degrees"]),
        torsion_free_top_stems=frozenset(obj["torsion_free_top_stems"]),
        annotations=tuple(obj["annotations"]))


def ext_chart(res: FreeResolution,
              torsion_free_top_stems: Sequence[int] = ()) -> ExtChart:
    """Read the E2 chart off a minimal resolution.

    Each generator is a class, under its label; an h_k edge joins
    generators whose differential block contains the bare Sq^{2^k}.
    """
    labels: dict = {}
    at: dict = {}
    for s, stage in enumerate(res.stages):
        for i, g in enumerate(stage):
            spot = labels.setdefault((s, g.t), [])
            at[(s, i)] = (s, g.t, len(spot))
            spot.append(g.label)
    products: dict[int, list] = {0: [], 1: [], 2: []}
    for s in range(1, res.max_s + 1):
        for i, blocks in enumerate(res.diff[s]):
            for j, d, mask in blocks:
                k = _hk(d, mask)
                if k in products:
                    products[k].append((at[(s - 1, j)], at[(s, i)]))
    m = res.module
    # A window module is the truncation quotient at the window top, so
    # Ext is the untruncated answer exactly in stems <= hi - 1.
    trusted = m.hi - 1 if m.truncated else None
    return ExtChart(
        max_s=res.max_s, max_t=res.max_t, labels={k: tuple(v) for k, v in labels.items()},
        products={k: tuple(sorted(v)) for k, v in products.items()},
        trusted_stem_max=trusted,
        cell_degrees=tuple(d for d in range(m.lo, m.hi + 1) if m.dim(d)),
        torsion_free_top_stems=frozenset(torsion_free_top_stems))


def _at_boundary(chart: ExtChart, spot: tuple) -> bool:
    """Whether a class sits in the chart's top row or last column."""
    return spot[0] >= chart.max_s or spot[1] >= chart.max_t


def _h0_strings(chart: ExtChart) -> tuple[dict[int, list[list[tuple]]], set[int]]:
    """Every maximal h_0 string, bottom-up and by stem, and the tangled stems.

    A stem is tangled when its h_0 edges branch or merge: its strings
    need a basis change before they can be read as cyclic summands, so
    nothing may be read off them.
    """
    up, hit, tangled = {}, set(), set()
    for a, b in chart.products.get(0, ()):
        if a in up or b in hit:
            tangled.add(a[1] - a[0])
        up[a] = b
        hit.add(b)
    strings: dict = {}
    for (s, t), ls in sorted(chart.labels.items()):
        for i in range(len(ls)):
            run = [(s, t, i)]
            if run[0] in hit:
                continue
            while run[-1] in up:
                run.append(up[run[-1]])
            strings.setdefault(t - s, []).append(run)
    return strings, tangled


def check_no_differentials(chart: ExtChart, degree_window: tuple[int, int]) -> list[dict]:
    """All possible Adams d_r arrows between nonzero spots, source stem in window.

    An empty list certifies collapse in the window.  Arrows are reported
    for every r >= 2 with both endpoints inside the computed rectangle,
    except those ruled out by h_0-linearity: if every source class has a
    finite h_0 string (h_0^L kills it) and the target sits on a
    torsion-free infinite tower (flagged stem, string capped at the
    rectangle top), a nonzero d_r would make h_0^L of a tower class
    vanish, which it cannot.  In a tangled stem no class is finite and
    no spot is a tower.  Dimensions are read off the chart's labels.
    """
    strings, tangled = _h0_strings(chart)
    finite: set[tuple[int, int, int]] = set()
    towers: set[tuple[int, int]] = set()
    for stem, runs in strings.items():
        if stem in tangled:
            continue
        for run in runs:
            if not _at_boundary(chart, run[-1]):
                finite.update(run)
            elif stem in chart.torsion_free_top_stems:
                towers.update(c[:2] for c in run)

    arrows = []
    lo, hi = degree_window
    for (s, t), d in sorted(chart.dims.items()):
        stem = t - s
        if stem < lo or stem > hi:
            continue
        for r in range(2, chart.max_s - s + 1):
            s2, t2 = s + r, t + r - 1
            if t2 > chart.max_t or not chart.dim(s2, t2):
                continue
            if (s2, t2) in towers and all((s, t, i) in finite for i in range(d)):
                continue
            arrows.append({
                "r": r, "from": (stem, s), "to": (stem - 1, s2),
                "source": (s, t), "target": (s2, t2)})
    return arrows


def homotopy_from_chart(chart: ExtChart, stem: int) -> AbelianGroup:
    """Assemble the stem's group from maximal h_0 strings.

    Bounded strings of length m give Z/2^m; a string that touches the
    top of the computed region counts as a 2-complete Z only when the
    stem is flagged torsion-free-at-top, and is refused otherwise.
    Refuses stems with possible Adams differentials, columns the
    resolution cannot certify complete, and tangled columns (h_0 edges
    that branch or merge).
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
    strings, tangled = _h0_strings(chart)
    if stem in tangled:
        raise RefusalError(f"h0 structure in stem {stem} branches; refusing to read")
    runs = strings.get(stem, ())
    bounded = [len(run) for run in runs if not _at_boundary(chart, run[-1])]
    free = len(runs) - len(bounded)  # the strings that reach the boundary
    if free and not flagged:
        raise RefusalError(
            f"h0 string in stem {stem} reaches the computed boundary; "
            "not flagged torsion-free-at-top")
    return AbelianGroup(free, tuple(sorted((1 << m for m in bounded), reverse=True)))
