"""Cell-diagram construction, dualization, Cartan tensor, validation."""

from __future__ import annotations

import pytest

from hcm import stmodule as sm
from hcm.errors import ConstructionError, DiagramError, RangeError


def cell_dims(m):
    return {d: m.dim(d) for d in range(m.lo, m.hi + 1) if m.dim(d)}


def test_single_cell_residue0():
    m = sm.builtin("o:0", 16)
    assert cell_dims(m) == {15: 1}
    assert m.validate() == []


def test_residue1_diagram():
    m = sm.builtin("o:1", 17)
    assert cell_dims(m) == {16: 1, 17: 1, 19: 1}
    # homology edges: Sq_1 carries y17 to y16, Sq_2 carries y19 to y17
    d, i = m.locate("y16")
    assert m.element_name(17, m.act(1, 16, 1 << i)) == "y17"
    d, i = m.locate("y17")
    assert m.element_name(19, m.act(2, 17, 1 << i)) == "y19"
    assert m.validate() == []


def test_residue4_diagram():
    m = sm.builtin("o:4", 12)
    assert cell_dims(m) == {11: 1, 13: 1, 14: 1}
    d, i = m.locate("y11")
    assert m.element_name(13, m.act(2, 11, 1 << i)) == "y13"
    d, i = m.locate("y13")
    assert m.element_name(14, m.act(1, 13, 1 << i)) == "y14"
    assert m.validate() == []


def test_from_cells_rejects_bad_edge_degree():
    with pytest.raises(DiagramError):
        sm.diagram([("a", 0), ("b", 3)], [("b", "a", 2)])


def test_from_cells_rejects_an_edge_to_an_unknown_cell():
    with pytest.raises(DiagramError, match=r"^edge x->a references unknown cell$"):
        sm.diagram([("a", 0)], [("x", "a", 1)])


def test_from_cells_rejects_duplicate_labels():
    with pytest.raises(DiagramError):
        sm.diagram([("a", 0), ("a", 1)], [])


def test_non_power_edge_must_be_adem_forced():
    # Sq_3 edge with no Sq_1/Sq_2 support cannot be realized.
    diag = sm.diagram([("a", 0), ("b", 3)], [("b", "a", 3)])
    with pytest.raises(ConstructionError):
        sm.from_cells(diag, (0, 3))


def test_non_power_edge_accepted_when_forced():
    # With Sq_1 b->m and Sq_2 m->a, the Sq_3 action b->a is forced.
    diag = sm.diagram(
        [("a", 0), ("m", 2), ("b", 3)],
        [("m", "a", 2), ("b", "m", 1), ("b", "a", 3)])
    m = sm.from_cells(diag, (0, 3), unstable=False)
    assert m.validate() == []


def test_validate_reports_adem_violation():
    bad = sm.GradedModule(
        0, 2, {0: ("a",), 1: ("b",), 2: ("c",)},
        {(1, 0): (0b1,), (1, 1): (0b1,), (2, 0): (0b0,)})
    report = bad.validate()
    assert any("(1,1)" in line for line in report)


@pytest.mark.parametrize("sq1_y, sq3_x", [(1, 0), (0, 1), (1, 1)])
def test_validate_checks_a_nonzero_right_side(sq1_y, sq3_x):
    # Sq^1 Sq^2 = Sq^3, with Sq^2 x = y and Sq^3 x set by hand (a spectrum,
    # so Sq^2 x may be nonzero): it holds only when Sq^1 y and Sq^3 x agree.
    m = sm.GradedModule(
        0, 3, {0: ("x",), 2: ("y",), 3: ("z",)},
        {(2, 0): (0b1,), (1, 2): (sq1_y,), (3, 0): (sq3_x,)}, unstable=False)
    want = [] if sq1_y == sq3_x else ["Adem relation (1,2) violated on degree-0 class x"]
    assert m.validate() == want


def test_from_cells_output_always_validates():
    for name, n in (("o:0", 16), ("o:1", 17), ("o:4", 12), ("o:0", 24), ("o:1", 25)):
        assert sm.builtin(name, n).validate() == []


def test_integral_module_window_0_4():
    m = sm.builtin("Z", 0, window=(0, 4))
    assert cell_dims(m) == {0: 1, 2: 1, 3: 1, 4: 1}
    assert m.validate() == []
    # polynomial structure: the degree-4 class maps onto the unit under Sq_4
    d, i = m.locate("1")
    assert m.act(4, 0, 1 << i)  # cohomology Sq^4 of the bottom dual is the top dual


def test_round_trip_all_builtin_diagrams():
    for name, n, win in (("o:0", 16, None), ("o:1", 17, None), ("o:4", 12, None),
                         ("Z", 0, (0, 5)), ("Z", 15, (15, 18))):
        m = sm.builtin(name, n, window=win)
        again = sm.from_cells(m.to_cells(), (m.lo, m.hi), unstable=m.unstable)
        assert again == m


def test_total_dimension_matches_cell_counts():
    # residues 0/1/4 have 1/3/3 cells in the window
    assert sum(len(v) for v in sm.builtin("o:0", 16).basis.values()) == 1
    assert sum(len(v) for v in sm.builtin("o:1", 17).basis.values()) == 3
    assert sum(len(v) for v in sm.builtin("o:4", 12).basis.values()) == 3


def test_tensor_unit():
    one = sm.GradedModule(0, 0, {0: ("1",)}, {}, truncated=False)
    m = sm.builtin("o:4", 12)
    u = sm.tensor(one, m, (11, 14))
    assert cell_dims(u) == cell_dims(m)
    d, i = u.locate("1⊗y11")
    assert u.element_name(13, u.act(2, 11, 1 << i)) == "1⊗y13"


def test_tensor_cartan_residue1():
    m = sm.builtin("o:1", 17)
    t = sm.tensor(m, m, (32, 35))
    assert t.validate() == []
    d, i = t.locate("y16⊗y16")
    assert t.element_name(33, t.act(1, 32, 1 << i)) == "y16⊗y17 + y17⊗y16"
    assert t.element_name(34, t.act(2, 32, 1 << i)) == "y17⊗y17"


def test_tensor_symmetric_under_swap():
    m = sm.builtin("o:1", 17)
    t = sm.tensor(m, m, (32, 35))

    def swap(label):
        a, b = label.split("⊗")
        return f"{b}⊗{a}"

    for a in range(1, 4):
        for d in range(t.lo, t.hi - a + 1):
            for i, lbl in enumerate(t.labels(d)):
                img = t.act(a, d, 1 << i)
                names = {t.labels(d + a)[j] for j in range(t.dim(d + a)) if (img >> j) & 1}
                ds, js = t.locate(swap(lbl))
                img2 = t.act(a, ds, 1 << js)
                names2 = {t.labels(d + a)[j] for j in range(t.dim(d + a)) if (img2 >> j) & 1}
                assert {swap(x) for x in names} == names2


def test_tensor_refuses_an_output_that_fails_validation():
    # Sq^1 Sq^1 x0 = x2 breaks the Adem relation Sq^1 Sq^1 = 0, and the
    # Cartan formula carries it to x⊗1; before, tensor returned it silently.
    bad = sm.GradedModule(0, 2, {0: ("x0",), 1: ("x1",), 2: ("x2",)},
                          {(1, 0): (1,), (1, 1): (1,)}, unstable=False)
    one = sm.GradedModule(0, 0, {0: ("1",)}, {}, truncated=False)
    with pytest.raises(ConstructionError, match=r"Cartan output fails validation: "
                                                r"Adem relation \(1,1\) violated"):
        sm.tensor(bad, one, (0, 2))


def test_tensor_window_guard():
    m = sm.builtin("o:0", 16)
    with pytest.raises(RangeError):
        sm.tensor(m, m, (30, 40))


def test_json_round_trip():
    m = sm.builtin("o:1", 17)
    again = sm.from_json(m.to_json())
    assert again == m


def test_warnings_list_default_zero_actions():
    # one cell in degree 0 and one in degree 1, no edges: Sq^1 defaulted
    diag = sm.diagram([("a", 0), ("b", 1)], [])
    m = sm.from_cells(diag, (0, 1))
    assert any("Sq^1 on a" in w for w in m.warnings)
    assert sm.builtin("o:1", 17).warnings == ()
