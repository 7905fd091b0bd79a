"""Minimal free resolutions over the Steenrod algebra and Ext charts.

The resolution is built degree by degree and decides by rank first.
The image of the decomposables at each bidegree is eliminated once,
forward only, on the highest set bit (``f2linalg.top_echelon``) into a
plain pivot table whose size is its rank, and the stage keeps those
rows with their rank.  Later generators have independent images, so
rows less rank is the kernel's dimension before any kernel is
computed.  Where the next stage's image already has that dimension, no
generator is missing and no relation is read.  Elsewhere the table's
rows are eliminated again on the lowest bit (``f2linalg.echelon``) into
the table I that every named representative is read against: a rank
and a relation space do not depend on the pivot, a representative
does.  With Z the coordinates off I's pivot columns, the kernel K
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
One loop lays out every stage so.  Stage 0's table is over the
module's decomposables and it draws the unit vectors off the pivot
columns, each named by its coset, which ``f2linalg.reduce`` of the
pivot unit vectors gives.  Generators are ordered by degree and then
by kernel pivot, which pins labels and makes repeated runs identical.
Exactness is proved at every bidegree: a fresh rank count of the
augmentation stage 0 recorded, the decomposables' images with the new
generators' ``diff``, must cover the module, each Y read must fill
the table to the kernel's dimension, and each later image must have
the kernel's dimension; since ``verify``
checks d.d = 0 independently, the image lies in the kernel, so equal
dimensions mean they are equal; a failed check raises ``InternalError``.
``verify`` checks each stage as soon as it is laid out: it XORs d.d
together from cached bitmask products of whole sums
(``steenrod.mask_product``, straightened by the Adem relations) and
reads none of the resolver's tables (``sq_masks``, ``right_masks``,
``first_letters``), so a wrong mask table cannot vouch for itself.
Every stage is the same kind of object, a free module whose generators
map into a target, and the resolution's ``diff`` is each generator's
image.  Every stage lays a degree out from ``diff`` alone, as in
Bruner's scheme: the image of mon g is mon d(g).  Stage 0 maps into
the module, ``diff[0]`` is the augmentation, and mon d(g) is the
module's ``act_word``.  A later stage maps into the previous one, and
mon d(g) = sum_j (mon a_j) h_j: g keeps d(g) as blocks, one sum a_j
per target generator j, and each mon a_j is a row of the cached table
``steenrod.right_masks`` placed at j's block by a shift.  That table
is a per-process cache of the algebra, like ``sq_masks``, shared by
every stage and every call, so no stage keeps or reads another
degree's images.  Stage s + 1 reads stage s's rows, ranks and layout; a
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
from itertools import repeat
from operator import lshift, xor
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
    """Stages of generators plus their differentials.

    ``stages[s][i]`` is stage-s generator i and ``diff[s][i]`` its
    image.  At stage 0 that is the augmentation, a bit-packed module
    vector.  Later it is the differential as blocks: one ``(j, d, mask)``
    per stage s-1 generator j it reaches, in generator order, for the
    sum over ``steenrod.basis(d)`` at mask's set bits.
    """

    module: GradedModule
    max_s: int
    max_t: int
    stages: tuple[tuple[Generator, ...], ...]
    diff: tuple[tuple, ...]

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

    Each generator keeps its image in ``diff``, which the resolution
    hands out as its own: a module vector at stage 0 (``s`` is the
    stage's index), later its differential's blocks, (j, degree, mask)
    per target generator j.  A degree is laid out from ``diff`` alone:
    the image of mon on g is mon d(g), the module's ``act_word`` at stage
    0, and later the sum over g's blocks of mon times the mask, read off
    the cached table ``steenrod.right_masks`` and placed at j's block of
    the target.
    """

    def __init__(self, target):
        self.target = target
        self.prev = target if isinstance(target, _Stage) else None
        self.s = 0 if self.prev is None else self.prev.s + 1
        self.gens: list[Generator] = []
        self.diff: list = []  # each generator's module vector at stage 0, later its blocks
        self.offset: dict[int, list[int]] = {}
        self.rows: dict[int, list[int]] = {}
        self.rank: dict[int, int] = {}

    def dim(self, t: int) -> int:
        return self.offset.get(t, (0,))[-1]

    def extend(self, t: int) -> list[int]:
        """Lay out degree t for the generators present so far and return its images.

        Each generator's block is the images of ``steenrod.basis(t - g.t)``
        on it, in basis order, read off its ``diff`` entry alone.  At a
        later stage each ``right_masks`` row is shifted to its target
        block (not at all for block 0) and XORed with the other blocks'
        rows lazily, element by element, so no list is built per block.
        Once per degree, in order, and at a later stage only where the
        previous stage has laid degree t out.  The images are eliminated
        for their rank on the top bit and, where a generator is drawn,
        again on the low bit.
        """
        offset, img = [0], []
        self.offset[t] = offset
        top = self.target.offset.get(t) if self.s else ()
        if top is None:
            raise InternalError(f"degree {t} of the previous stage out of range")
        for g, dg in zip(self.gens, self.diff):
            if not self.s:  # the module's mon on the augmentation d(g)
                act = self.target.act_word
                img += [act(mon, g.t, dg) for mon in steenrod.basis(t - g.t)]
            else:  # sum_j (mon a_j) h_j, each mon a_j a row of right_masks at j's block
                rows = None
                for j, d, mask in dg:
                    part = steenrod.right_masks(mask, d, t - g.t)
                    if top[j]:
                        part = map(lshift, part, repeat(top[j]))
                    rows = part if rows is None else map(xor, rows, part)
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
        ys = [sum(1 << off[b] for b in _bits(rel))
              for rel in f2linalg.relations([rows[i] for i in off])]
        if len(piv) + len(ys) != (want := len(rows) - self.rank[t]):
            raise InternalError(f"resolution not exact at stage {self.s + 1}, degree {t}: image "
                                f"rank {len(piv)} plus {len(ys)} relations off its pivots, "
                                f"kernel dim {want}")
        return ys if len(ys) == 1 else f2linalg.reduced_basis(list(piv.values()) + ys)

    def add_generator(self, t: int, image, label: str):
        """Add a generator in degree t mapping to image (a module vector, later blocks).

        Only its unit element joins degree t; higher degrees read its
        image off ``diff`` when they are laid out.
        """
        self.gens.append(Generator(t, label))
        self.offset[t].append(self.offset[t][-1] + 1)
        self.diff.append(image)

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
    # A degree is laid out before any of its generators exist, so its
    # rows first hold only decomposables, at every stage.
    for s, cur in enumerate(stages):
        prev = cur.prev
        lowest = m.lo if prev is None else min((g.t for g in prev.gens), default=max_t + 1) + 1
        for t in range(lowest, max_t + 1):
            # The image must fill the module at stage 0, and later the kernel.
            want = m.dim(t) if prev is None else len(prev.rows[t]) - prev.rank[t]
            rows = cur.extend(t)
            top = f2linalg.top_echelon(rows)  # a rank: pivots on the top bit
            got = len(top)
            if s < max_s:
                cur.rows[t], cur.rank[t] = rows, got
            if got < want:  # generators are named against the low-bit table
                piv = f2linalg.echelon(top.values())
                ordinal, first = 0, len(cur.gens)
                draw = ([1 << f for f in range(want) if f not in piv] if prev is None
                        else prev.kernel(t, piv))
                for v in draw:
                    red = f2linalg.reduce(piv, v)
                    if red == 0:
                        continue
                    image = red if prev is None else prev.split(t, red)
                    cur.add_generator(t, image, _label_for(s, t, image, prev, m, piv, ordinal))
                    ordinal += 1
                    piv[_low_bit(red)] = red
                    if len(piv) == want:
                        break  # every later vector reduces to 0
                got = len(piv)
                if prev is None:  # the augmentation must be onto: recount what was recorded
                    got = len(f2linalg.top_echelon(rows + cur.diff[first:]))
            _check_exact(s, t, got, want)
            if prev is not None:
                del prev.rows[t]
        if s:
            problems = verify(_freeze(m, max_s, max_t, stages), s)
            if problems:
                raise InternalError("resolution failed verification: " + "; ".join(problems))
    return _freeze(m, max_s, max_t, stages)


def _freeze(m: GradedModule, max_s: int, max_t: int, stages: list[_Stage]) -> FreeResolution:
    """The resolution the stages hold so far."""
    return FreeResolution(m, max_s, max_t, tuple(tuple(st.gens) for st in stages),
                          tuple(tuple(st.diff) for st in stages))


def _check_exact(s: int, t: int, got: int, want: int):
    """Raise unless the image at (s, t) has the dimension exactness needs.

    At stage 0 that is the module's dimension, and ``got`` is a fresh
    rank count of the augmentation stage 0 recorded, which must be onto;
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


def _label_for(s: int, t: int, image, prev: Optional[_Stage], m: GradedModule,
               piv: dict[int, int], ordinal: int) -> str:
    """The label of a stage-s generator drawn at degree t with image e_f, later blocks.

    At stage 0 it is e_f's coset against ``piv``: e_f plus every pivot
    e_p whose canonical representative (e_p plus p's reduced row) has
    bit f.  Generators drawn before it in the degree are pivots at their
    own bits only, which change no other bit of a representative.
    """
    if prev is None:
        f = _low_bit(image)
        return m.element_name(t, image | sum(
            1 << p for p in piv if f2linalg.reduce(piv, 1 << p) >> f & 1))
    # Rule 1: an h_k edge (one block holds at most one); the earliest source wins.
    for g, d, mask in image:
        k = _hk(d, mask)
        if k is not None:
            return _h_label(k, prev.gens[g].label)
    # Rule 2: one block of one monomial starting with a 2-power, traced into the module.
    if s == 1 and len(image) == 1:
        (g, d, mask), = image
        mon = steenrod.basis(d)[mask.bit_length() - 1]
        if mask & (mask - 1) == 0 and mon and mon[0] & (mon[0] - 1) == 0:
            elem = m.act_word(mon[1:], prev.gens[g].t, prev.diff[g])
            if elem:
                k = mon[0].bit_length() - 1
                return _h_label(k, m.element_name(prev.gens[g].t + d - mon[0], elem))
    return f"[{s},{t}]" if ordinal == 0 else f"[{s},{t}:{ordinal}]"


def verify(res: FreeResolution, s: int) -> list[str]:
    """Minimality (no block at relative degree 0) and d.d = 0 at stage s >= 1.

    Only ``diff[s]`` and ``diff[s - 1]`` are read, so each stage is
    checked as it is laid out.  Composed blocks are multiplied by
    ``steenrod.mask_product``, which straightens by the Adem relations,
    and XORed per target generator; at s = 1 the module applies each
    block to the augmentation, ``diff[0]``, by ``act_mask``.  The resolver's ``sq_masks``,
    ``right_masks`` and ``first_letters`` are never read.
    """
    problems = [f"unit entry in differential at stage {s}, generator {i}"
                for i, blocks in enumerate(res.diff[s]) if any(d == 0 for _, d, _ in blocks)]
    if s == 1:
        for i, blocks in enumerate(res.diff[1]):
            out = 0
            for j, d, mask in blocks:
                out ^= res.module.act_mask(mask, d, res.stages[0][j].t, res.diff[0][j])
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
    (s+1, t+2^k, j)) pairs.  ``inside`` is group assembly's one test of
    the computed rectangle; with the trust metadata (stem bound from
    module truncation, stage floors from minimality) it lets group
    assembly prove a column is complete.
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

    def inside(self, s: int, t: int) -> bool:
        """Whether the computed rectangle, s <= max_s and t <= max_t, holds (s, t)."""
        return s <= self.max_s and t <= self.max_t

    def stem_complete(self, stem: int) -> bool:
        """True when no class in this stem can sit outside the computed rectangle.

        Geometry only: ``homotopy_from_chart`` checks the window
        truncation first.  Staircase: over a connected algebra each stage
        of a minimal resolution starts at least one degree above the
        previous one, so a stem below the last stage's floor minus max_s
        is finished if its top-row spot is inside.  Vanishing line: a
        nonzero positive class over a cell in degree d has stem - d >=
        2s - 3 (the classical edge, attained by the degree-doubling
        family), so a stem with no cell at its own degree is finished if
        its spot at s = max((stem - d + 3) // 2) is inside.
        """
        staircase = stem < self.stage_min_degree[-1] - self.max_s
        if staircase and self.inside(self.max_s, stem + self.max_s):
            return True
        if stem in self.cell_degrees:
            return False
        s_bound = max(((stem - d + 3) // 2 for d in self.cell_degrees if d < stem),
                      default=0)
        return self.inside(s_bound, stem + s_bound)

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


def _h0_strings(chart: ExtChart) -> tuple[dict[int, tuple[list, list]], set[int]]:
    """Each untangled stem's maximal h_0 strings, bottom-up, split in two, and the tangled stems.

    A string is finite when its top's h_0 multiple is inside the
    computed rectangle, so h_0 kills the top there; otherwise it reaches
    the boundary.  Each stem maps to (finite strings, boundary strings).
    A stem is tangled when its h_0 edges branch or merge: its strings
    need a basis change before they can be read as cyclic summands, so
    none is listed and nothing may be read off them.  A stem flagged
    torsion-free-at-top is refused unless it is untangled and holds a
    boundary string up to s = max_s, the tower the flag promises.
    """
    up, hit, tangled = {}, set(), set()
    for a, b in chart.products.get(0, ()):
        if a in up or b in hit:
            tangled.add(a[1] - a[0])
        up[a] = b
        hit.add(b)
    strings: dict = {}
    for (s, t), ls in sorted(chart.labels.items()):
        if t - s in tangled:
            continue
        for i in range(len(ls)):
            run = [(s, t, i)]
            if run[0] in hit:
                continue
            while run[-1] in up:
                run.append(up[run[-1]])
            top_s, top_t, _ = run[-1]
            finite, boundary = strings.setdefault(t - s, ([], []))
            (finite if chart.inside(top_s + 1, top_t + 1) else boundary).append(run)
    for stem in sorted(chart.torsion_free_top_stems):  # a tangled stem lists no string
        if not any(run[-1][0] == chart.max_s for run in strings.get(stem, ((), ()))[1]):
            raise RefusalError(f"stem {stem} is flagged torsion-free-at-top but holds no "
                               f"untangled h0 tower up to s = {chart.max_s}")
    return strings, tangled


def check_no_differentials(chart: ExtChart, degree_window: tuple[int, int]) -> list[dict]:
    """All possible Adams d_r arrows between nonzero spots, source stem in window.

    An empty list certifies collapse in the window.  Arrows are reported
    for every r >= 2 whose target is ``inside`` the chart, except those
    ruled out by h_0-linearity: if every source class lies on a finite
    h_0 string (h_0^L kills it) and the target on a boundary string of
    a flagged stem (a torsion-free tower), a nonzero d_r would make h_0^L
    of a tower class vanish, which it cannot.  Both kinds of string are
    ``_h0_strings``'s split, which lists none in a tangled stem.
    Dimensions are read off the chart's labels.
    """
    finite, towers = set(), set()
    for stem, (bounded, reaching) in _h0_strings(chart)[0].items():
        finite.update(c for run in bounded for c in run)
        if stem in chart.torsion_free_top_stems:
            towers.update(c[:2] for run in reaching for c in run)
    arrows = []
    lo, hi = degree_window
    for (s, t), d in sorted(chart.dims.items()):
        stem = t - s
        if stem < lo or stem > hi:
            continue
        for r in range(2, chart.max_s - s + 1):
            s2, t2 = s + r, t + r - 1
            if not chart.inside(s2, t2) or not chart.dim(s2, t2):
                continue
            if (s2, t2) in towers and all((s, t, i) in finite for i in range(d)):
                continue
            arrows.append({
                "r": r, "from": (stem, s), "to": (stem - 1, s2),
                "source": (s, t), "target": (s2, t2)})
    return arrows


def homotopy_from_chart(chart: ExtChart, stem: int) -> AbelianGroup:
    """Assemble the stem's group from maximal h_0 strings.

    Finite strings of length m give Z/2^m; a string that reaches the
    boundary counts as a 2-complete Z only when the stem is flagged
    torsion-free-at-top, and is refused otherwise.  Refuses stems beyond
    the window truncation, stems with possible Adams differentials,
    columns the resolution cannot certify complete, and tangled columns
    (h_0 edges that branch or merge).
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
    bounded, reaching = strings.get(stem, ((), ()))
    if reaching and not flagged:
        raise RefusalError(
            f"h0 string in stem {stem} reaches the computed boundary; "
            "not flagged torsion-free-at-top")
    return AbelianGroup(len(reaching),
                        tuple(sorted((1 << len(run) for run in bounded), reverse=True)))
