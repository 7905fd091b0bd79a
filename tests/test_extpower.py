"""Quadratic extended powers: golden action tables and bookkeeping laws."""

from __future__ import annotations

import pytest

from hcm import extpower as ep
from hcm import stmodule as sm
from hcm.errors import RangeError, UnsupportedError

# Golden action tables, one per residue class, transcribed as
# (k, source, target) homology operations on the window classes.
# y = bottom cell; higher cells shifted by the stated offsets.


def o_edges(n):
    y = lambda k: f"y{k}"
    Q = lambda i, c: f"Q{i}({c})"
    prod = lambda a, b: f"{a}·{b}"
    r = n % 8
    if r == 0:
        return {
            (1, Q(1, y(n - 1)), Q(0, y(n - 1))),
            (1, Q(3, y(n - 1)), Q(2, y(n - 1))),
            (2, Q(2, y(n - 1)), Q(0, y(n - 1))),
        }
    if r == 1:
        return {
            (1, Q(2, y(n - 1)), Q(1, y(n - 1))),
            (1, Q(1, y(n)), Q(0, y(n))),
            (1, prod(y(n - 1), y(n)), Q(0, y(n - 1))),
            (2, Q(0, y(n)), Q(0, y(n - 1))),
            (2, Q(1, y(n)), Q(1, y(n - 1))),
            (2, prod(y(n - 1), y(n + 2)), prod(y(n - 1), y(n))),
        }
    return {
        (1, Q(1, y(n - 1)), Q(0, y(n - 1))),
        (1, Q(3, y(n - 1)), Q(2, y(n - 1))),
        (1, prod(y(n - 1), y(n + 2)), prod(y(n - 1), y(n + 1))),
        (2, Q(2, y(n - 1)), Q(0, y(n - 1))),
        (2, prod(y(n - 1), y(n + 1)), Q(0, y(n - 1))),
    }


@pytest.mark.parametrize("n", [16, 24, 32, 17, 25, 33, 12, 20, 28])
def test_golden_action_tables(n):
    _, d2 = ep.d2_splitting_summands(n)
    assert set(ep.derived_edges(d2)) == o_edges(n)


@pytest.mark.parametrize("n", [16, 17, 12])
def test_d2_output_validates(n):
    _, d2 = ep.d2_splitting_summands(n)
    assert d2.validate() == []


@pytest.mark.parametrize("n,expected", [
    (16, {30: ["Q0(y15)"], 31: ["Q1(y15)"], 32: ["Q2(y15)"], 33: ["Q3(y15)"]}),
    (17, {32: ["Q0(y16)"], 33: ["Q1(y16)", "y16·y17"],
          34: ["Q2(y16)", "Q0(y17)"], 35: ["Q3(y16)", "Q1(y17)", "y16·y19"]}),
    (12, {22: ["Q0(y11)"], 23: ["Q1(y11)"], 24: ["Q2(y11)", "y11·y13"],
          25: ["Q3(y11)", "y11·y14"]}),
])
def test_basis_layout(n, expected):
    _, d2 = ep.d2_splitting_summands(n)
    got = {d: list(d2.labels(d)) for d in range(d2.lo, d2.hi + 1) if d2.dim(d)}
    assert got == expected


def test_degree_bookkeeping_exhaustive():
    # every Q_i(x) sits in degree 2 deg(x) + i
    for n in (16, 17, 12):
        _, d2 = ep.d2_splitting_summands(n)
        base = {f"y{k}": k for k in range(n - 1, n + 3)}
        for d in range(d2.lo, d2.hi + 1):
            for lbl in d2.labels(d):
                if lbl.startswith("Q"):
                    i, cell = lbl[1:-1].split("(")
                    assert d == 2 * base[cell] + int(i)
                else:
                    a, b = lbl.split("·")
                    assert d == base[a] + base[b]


def test_symmetrization_bookkeeping():
    # unordered pairs appear once; squares are the Q_0 classes
    m = sm.builtin("o:1", 17)
    _, d2 = ep.d2_splitting_summands(17)
    cells = [(d, lbl) for d in range(m.lo, m.hi + 1) for lbl in m.labels(d)]
    window = range(d2.lo, d2.hi + 1)
    for da, a in cells:
        if 2 * da in window:
            assert f"Q0({a})" in d2.labels(2 * da)
        for db, b in cells:
            if (da, a) < (db, b) and da + db in window:
                assert f"{a}·{b}" in d2.labels(da + db)
                assert f"{b}·{a}" not in d2.labels(da + db)


def test_d2_sphere_chart_homology():
    s = ep.d2_sphere(15)
    assert {d: list(s.labels(d)) for d in range(30, 34)} == {
        30: ["i15^2"], 31: ["Q1(i15)"], 32: ["Q2(i15)"], 33: ["Q3(i15)"]}
    # the drawn picture omits the Sq_1 from Q3 to Q2; the relations force it
    assert set(ep.derived_edges(s)) == {
        (1, "Q1(i15)", "i15^2"), (1, "Q3(i15)", "Q2(i15)"), (2, "Q2(i15)", "i15^2")}


def test_d2_integral_chart_homology():
    z = ep.d2_integral(15)
    assert {d: list(z.labels(d)) for d in range(30, 34)} == {
        30: ["i15^2"], 31: ["Q1(i15)"],
        32: ["Q2(i15)", "i15·(z1^2 i15)"],
        33: ["Q3(i15)", "i15·(z2 i15)"]}
    assert set(ep.derived_edges(z)) == {
        (1, "Q1(i15)", "i15^2"),
        (1, "Q3(i15)", "Q2(i15)"),
        (1, "i15·(z2 i15)", "i15·(z1^2 i15)"),
        (2, "Q2(i15)", "i15^2"),
        (2, "i15·(z1^2 i15)", "i15^2")}


def test_splitting_summand_contents():
    bo, d2 = ep.d2_splitting_summands(16)
    assert sum(len(v) for v in bo.basis.values()) == 1 and bo.labels(15) == ("y15",)
    assert [d2.dim(d) for d in range(30, 34)] == [1, 1, 1, 1]
    _, d2 = ep.d2_splitting_summands(17)
    labels = [lbl for d in range(32, 36) for lbl in d2.labels(d)]
    for want in ("Q0(y16)", "Q1(y16)", "Q2(y16)", "Q3(y16)",
                 "Q0(y17)", "Q1(y17)", "y16·y17", "y16·y19"):
        assert want in labels
    _, d2 = ep.d2_splitting_summands(12)
    labels = [lbl for d in range(22, 26) for lbl in d2.labels(d)]
    for want in ("Q0(y11)", "Q1(y11)", "Q2(y11)", "y11·y13"):
        assert want in labels


def _shape(m, shift):
    """A module's dimensions and nonzero action tables, its degrees moved down by shift."""
    return (m.lo - shift, m.hi - shift, m.unstable, m.truncated,
            tuple(m.dim(d) for d in range(m.lo, m.hi + 1)),
            {(a, d - shift): rows for (a, d), rows in m.action.items() if any(rows)})


def test_bar_page_modules_repeat_with_period_8():
    # n enters these modules only through degree shifts, o_diagram's residue
    # mod 8 and binomial coefficients mod 2, so module(n + 8) is module(n)
    # shifted up by 16.
    shapes = {n: (_shape(ep.d2_splitting_summands(n)[1], 2 * n),
                  _shape(ep.tensor_square(n), 2 * n))
              for n in range(16, 513) if n % 8 in (0, 1, 4)}
    checked = [n for n in shapes if n + 8 in shapes]
    assert len(checked) == 184
    for n in checked:
        assert shapes[n] == shapes[n + 8], n


def test_residue_guard():
    with pytest.raises(UnsupportedError):
        ep.d2_splitting_summands(14)  # 6 mod 8


def test_window_range_guard():
    base = sm.builtin("o:0", 16)
    with pytest.raises(RangeError):
        ep.d2_homology(base, (30, 3 * 15))  # beyond 3*bottom - 1
    with pytest.raises(RangeError):
        ep.d2_homology(base, (30, 34))  # needs base degree 19 > window top 18


def test_d2_of_zero_module():
    z = ep.d2_homology(sm.zero_module((0, 3)), (0, 3))
    assert sum(len(v) for v in z.basis.values()) == 0


@pytest.mark.parametrize("d", [7, 8, 9, 11, 12, 15, 16, 20])
def test_single_cell_matches_stunted_projective_pattern(d):
    # For one cell in degree d, the quadratic construction is the d-fold
    # shift of a stunted projective spectrum: its cohomology classes X_m
    # (m >= d) sit in degree d + m and satisfy Sq^a X_m = C(m, a) X_{m+a}.
    # That classical pattern is an independent check of the operation
    # bookkeeping (it never mentions the Nishida sum).
    from math import comb

    width = min(6, 3 * d - 1 - 2 * d)
    window = (2 * d, 2 * d + width)
    base = sm.from_cells(sm.diagram([(f"i{d}", d)], []), (d, d),
                         unstable=False, truncated=False)
    out = ep.d2_homology(base, window)
    for i in range(width + 1):
        deg = 2 * d + i
        for a in range(1, window[1] - deg + 1):
            got = out.act(a, deg, 1)
            want = (1 if comb(d + i, a) % 2 else 0)
            assert got == want, (d, i, a)


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def random_diagrams(draw):
    n_cells = draw(st.integers(1, 4))
    degrees = sorted(draw(st.lists(st.integers(10, 15), min_size=n_cells,
                                   max_size=n_cells)))
    cells = [(f"c{i}", d) for i, (d) in enumerate(degrees)]
    edges = []
    for i, (src, ds) in enumerate(cells):
        for j, (dst, dd) in enumerate(cells):
            if ds - dd in (1, 2, 4) and draw(st.booleans()):
                edges.append((src, dst, ds - dd))
    return cells, edges


@given(random_diagrams())
@settings(max_examples=60, deadline=None)
def test_fuzz_from_cells_and_d2(data):
    from hcm.errors import ConstructionError, RangeError

    cells, edges = data
    lo = min(d for _, d in cells)
    hi = max(d for _, d in cells)
    try:
        m = sm.from_cells(sm.diagram(cells, edges), (lo, hi), unstable=False)
    except ConstructionError:
        return  # inconsistent homology action: correctly rejected
    assert m.validate() == []
    try:
        d2 = ep.d2_homology(m, (2 * lo, min(2 * lo + 3, 3 * lo - 1, lo + hi)))
    except RangeError:
        return
    assert d2.validate() == []


def test_wedge_of_spheres_free_rank():
    from hcm import resolution as rs

    wedge = sm.GradedModule(0, 4, {0: ("a", "b")}, {}, truncated=False)
    ch = rs.ext_chart(rs.minimal_resolution(wedge, 4, 4),
                      torsion_free_top_stems=(0,))
    from hcm.groups import AbelianGroup
    assert rs.homotopy_from_chart(ch, 0) == AbelianGroup(2, ())


def test_d2_of_general_module_validates():
    # not a named chart: the integral module one degree further out
    base = sm.builtin("Z", 15, window=(15, 19))
    out = ep.d2_homology(base, (30, 34), square_style="power")
    assert out.validate() == []
    assert "Q4(i15)" in out.labels(34)
    assert "i15·(z1^4 i15)" in out.labels(34)
    assert "(z1^2 i15)^2" in out.labels(34)
