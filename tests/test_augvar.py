import pytest

from legclus.augvar import (
    Style,
    closed_form_value,
    count_block,
    count_points,
    enumerate_points,
    f_poly,
    forced_t1,
    forced_t2,
    homotopy_reduce,
    first_row_distribution,
    initial_seed,
    matrix_distribution,
    point_count_closed_form,
    presentation,
    solve_t2_char2,
    verify_forced_units_exhaustive,
)
from legclus.bridge import BridgeWord, Move, apply_move, rational_form_words
from legclus.continuant import continuant
from legclus.dga import build_dga, is_augmentation
from legclus.errors import BudgetError, InputError
from legclus.ring import Coefficients, LaurentPolynomial

Z = Coefficients.integers()


def K(table, names):
    xs = [LaurentPolynomial.variable(table, Z, n) for n in names]
    return continuant(xs, table, Z)


def test_presentation_33():
    pres = presentation(BridgeWord((3, 3)))
    assert pres.coordinates == ("a1", "a2", "a3", "a5", "a6")
    assert list(pres.equations) == [K(pres.table, ["a1", "a2", "a3"])]
    assert list(pres.inequations) == [K(pres.table, ["a5", "a6"])]


def test_presentation_22():
    pres = presentation(BridgeWord((2, 2)))
    assert pres.coordinates == ("a1", "a2", "a4")
    assert list(pres.equations) == [K(pres.table, ["a1", "a2"])]
    assert list(pres.inequations) == [K(pres.table, ["a4"])]


def test_presentation_54():
    pres = presentation(BridgeWord((5, 4)))
    assert list(pres.equations) == [K(pres.table, ["a1", "a2", "a3", "a4", "a5"])]
    assert list(pres.inequations) == [K(pres.table, ["a7", "a8", "a9"])]


def test_presentation_equation_style():
    pres = presentation(BridgeWord((3, 3)), Style.EQUATION)
    assert pres.coordinates == ("a1", "a2", "a3", "a4", "a5", "a6")
    assert len(pres.equations) == 2
    assert not pres.inequations
    with pytest.raises(InputError):
        presentation(BridgeWord((3,)), Style.EQUATION)


def test_equation_count_rule():
    for w in [BridgeWord((3, 3)), BridgeWord((2, 3, 2)), BridgeWord((2, 2, 2, 2))]:
        assert len(presentation(w, Style.INEQUALITY).equations) == w.k - 1
        assert len(presentation(w, Style.EQUATION).equations) == w.k


def test_enumerate_trefoil_five_points():
    pts = enumerate_points(presentation(BridgeWord((3,))), 2)
    assert len(pts) == 5


def test_enumerate_33_nine_points():
    pts = enumerate_points(presentation(BridgeWord((3, 3))), 2)
    assert len(pts) == 9


def test_enumerate_22_single_point():
    pts = enumerate_points(presentation(BridgeWord((2, 2))), 2)
    assert len(pts) == 1
    assert pts[0].values == {"a1": 1, "a2": 1, "a4": 1}
    assert pts[0].t1 == 1 and pts[0].t2 == 1


def test_budget():
    with pytest.raises(BudgetError):
        enumerate_points(presentation(BridgeWord((9,))), 5, budget=100)


def test_closed_forms():
    q = f_poly(2)
    assert point_count_closed_form(BridgeWord((3, 3))) == q * q
    assert closed_form_value(BridgeWord((3, 3)), 2) == 9
    assert point_count_closed_form(BridgeWord((3,))) == f_poly(3)
    assert closed_form_value(BridgeWord((3,)), 2) == 5
    assert point_count_closed_form(BridgeWord((5, 4))) == f_poly(4) * f_poly(3)


def test_counts_match_closed_form_small_sweep():
    for w in rational_form_words(7):
        pres = presentation(w)
        for p in (2, 3, 5):
            assert count_points(pres, p) == closed_form_value(w, p)
        pts = enumerate_points(pres, 3)
        assert len(pts) == closed_form_value(w, 3)


def test_equation_style_bijection():
    for w in rational_form_words(7, min_total=2):
        if w.k < 2:
            continue
        for p in (2, 3):
            a = count_points(presentation(w, Style.INEQUALITY), p)
            b = count_points(presentation(w, Style.EQUATION), p)
            assert a == b


def test_forced_units_nonzero_and_kill_differentials():
    for w in rational_form_words(7):
        dga = build_dga(w)
        for pt in enumerate_points(presentation(w), 2):
            assert pt.t1 != 0 and pt.t2 != 0
            full = {f"a{j}": pt.values.get(f"a{j}", 0) for j in range(1, w.total + 1)}
            full.update({"b1": 0, "b2": 0, "t1": pt.t1, "t2": pt.t2})
            assert is_augmentation(dga, full)
            assert solve_t2_char2(w, pt.values) == pt.t2


def test_forced_units_exhaustive_dp():
    for w in rational_form_words(8):
        for p in (2, 3, 5):
            assert verify_forced_units_exhaustive(w, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_first_row_count_matches_full_matrix_distribution(p):
    for length in range(6):
        full = matrix_distribution(length, p)
        assert len(first_row_distribution(length, p)) <= p * p
        for nonzero in (False, True):
            want = sum(cnt for m, cnt in full.items() if (m[0][0] != 0) == nonzero)
            assert count_block(length, p, nonzero) == want


def test_forced_t2_nonzero_odd_primes():
    for w in rational_form_words(6):
        for p in (3, 5):
            for pt in enumerate_points(presentation(w), p):
                assert forced_t1(w, pt.values, p) != 0
                assert forced_t2(w, pt.values, p) != 0


def test_topological_invariance_of_counts():
    for w in rational_form_words(10):
        base = point_count_closed_form(w)
        for move in Move:
            other = apply_move(w, move)
            if other.is_rational_form:
                assert point_count_closed_form(other) == base


def test_homotopy_reduce():
    w = BridgeWord((2, 2))
    full = {"a1": 1, "a2": 1, "a3": 0, "a4": 1, "b1": 0, "b2": 1, "t1": 1, "t2": 1}
    pt = homotopy_reduce(w, full)
    assert pt.values == {"a1": 1, "a2": 1, "a4": 1}
    other = dict(full, a3=1, b2=0)
    assert homotopy_reduce(w, other).values == pt.values
    with pytest.raises(InputError):
        homotopy_reduce(w, dict(full, a1=0))


def test_initial_seed_layout_54():
    ws = initial_seed(BridgeWord((5, 4)))
    t = ws.seed.variables[0].table
    assert ws.seed.variables[0] == K(t, ["a1"])
    assert ws.seed.variables[3] == K(t, ["a1", "a2", "a3", "a4"])
    assert ws.seed.variables[4] == K(t, ["a7"])
    assert ws.seed.variables[6] == K(t, ["a7", "a8", "a9"])
    assert ws.seed.quiver.frozen == {3, 6}


def test_initial_seed_k1_full_path():
    ws = initial_seed(BridgeWord((3,)))
    assert len(ws.seed.variables) == 3
    assert ws.seed.quiver.frozen == {2}
    t = ws.seed.variables[0].table
    assert ws.seed.variables[2] == K(t, ["a1", "a2", "a3"])


def test_initial_seed_is_really_full_rank():
    for w in rational_form_words(12):
        assert initial_seed(w).seed.quiver.is_really_full_rank()
