import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legclus.ring import Coefficients, LaurentPolynomial, VariableTable, exact_divide

Z = Coefficients.integers()
F2 = Coefficients.prime_field(2)


def table_xyz(invertible=()):
    return VariableTable(["x", "y", "z"], invertible=invertible)


def poly_of(table, ring, expr):
    """expr: list of (coeff, {name: exp})."""
    out = LaurentPolynomial.zero(table, ring)
    for coeff, powers in expr:
        out = out + LaurentPolynomial.monomial(table, ring, coeff, powers)
    return out


def test_prime_check():
    with pytest.raises(ValueError):
        Coefficients.prime_field(6)
    assert Coefficients.prime_field(7).char == 7


def test_add_char2_cancels():
    t = table_xyz()
    x1 = poly_of(t, F2, [(1, {"x": 1}), (1, {})])
    assert (x1 + x1).is_zero


def test_unit_cancellation():
    t = table_xyz(invertible=("y",))
    xy_inv = poly_of(t, Z, [(1, {"x": 1, "y": -1})])
    y = LaurentPolynomial.variable(t, Z, "y")
    assert xy_inv * y == LaurentPolynomial.variable(t, Z, "x")


def test_product_expansion():
    t = VariableTable(["x1", "x2", "x3"])
    a = poly_of(t, Z, [(1, {"x1": 1, "x2": 1}), (-1, {})])
    b = poly_of(t, Z, [(1, {"x2": 1, "x3": 1}), (-1, {})])
    expected = poly_of(
        t,
        Z,
        [
            (1, {"x1": 1, "x2": 2, "x3": 1}),
            (-1, {"x1": 1, "x2": 1}),
            (-1, {"x2": 1, "x3": 1}),
            (1, {}),
        ],
    )
    assert a * b == expected


def test_negative_exponent_rejected_on_plain_variable():
    t = table_xyz()
    with pytest.raises(ValueError):
        LaurentPolynomial.monomial(t, Z, 1, {"x": -1})


def test_substitute_basic():
    t = VariableTable(["x", "y", "s"], invertible=("s",))
    f = poly_of(t, F2, [(1, {"x": 1}), (1, {"y": 1})])
    s = LaurentPolynomial.variable(t, F2, "s")
    assert f.substitute({"x": s}) == s + LaurentPolynomial.variable(t, F2, "y")


def test_substitute_one_step_expansion():
    t = VariableTable(["a1", "a2", "s1"], invertible=("s1",))
    a1 = LaurentPolynomial.variable(t, F2, "a1")
    a2 = LaurentPolynomial.variable(t, F2, "a2")
    s1_inv = poly_of(t, F2, [(1, {"s1": -1})])
    image = (a1 * a2).substitute({"a1": a1 + s1_inv})
    assert image == a1 * a2 + s1_inv * a2


def test_substitute_non_unit_for_invertible_errors():
    t = VariableTable(["x", "t1"], invertible=("t1",))
    x = LaurentPolynomial.variable(t, Z, "x")
    f = LaurentPolynomial.variable(t, Z, "t1")
    with pytest.raises(ValueError):
        f.substitute({"t1": x})


def test_evaluate():
    t = VariableTable(["x1", "x2"])
    f = poly_of(t, Z, [(1, {"x1": 1, "x2": 1}), (-1, {})])
    assert f.evaluate({"x1": 1, "x2": 1}, p=2) == 0
    # continuant K_3 at the all-ones point over F_2
    t3 = VariableTable(["a1", "a2", "a3"])
    k3 = poly_of(
        t3,
        Z,
        [(1, {"a1": 1, "a2": 1, "a3": 1}), (-1, {"a1": 1}), (-1, {"a3": 1})],
    )
    assert k3.evaluate({"a1": 1, "a2": 1, "a3": 1}, p=2) == 1


def test_evaluate_zero_at_invertible_errors():
    t = VariableTable(["t1"], invertible=("t1",))
    f = poly_of(t, F2, [(1, {"t1": -1})])
    with pytest.raises(ValueError):
        f.evaluate({"t1": 0}, p=2)


def test_exact_divide_simple():
    t = table_xyz()
    x = LaurentPolynomial.variable(t, Z, "x")
    one = LaurentPolynomial.constant(t, Z, 1)
    assert exact_divide(x * x - one, x - one) == x + one


def test_exact_divide_factor():
    t = VariableTable(["x1", "x2"])
    x1 = LaurentPolynomial.variable(t, Z, "x1")
    x2 = LaurentPolynomial.variable(t, Z, "x2")
    assert exact_divide(x1 * x2 + x2, x1 + 1) == x2


def test_exact_divide_failure_without_unit():
    t = table_xyz()
    x = LaurentPolynomial.variable(t, Z, "x")
    assert exact_divide(x + 1, x) is None


def test_exact_divide_laurent_when_invertible():
    t = VariableTable(["x"], invertible=("x",))
    x = LaurentPolynomial.variable(t, Z, "x")
    q = exact_divide(x + 1, x)
    assert q is not None and q * x == x + 1


def test_divide_by_zero():
    t = table_xyz()
    x = LaurentPolynomial.variable(t, Z, "x")
    with pytest.raises(ZeroDivisionError):
        exact_divide(x, LaurentPolynomial.zero(t, Z))


def test_canonical_text():
    t = VariableTable(["a1", "a2"])
    f = poly_of(t, Z, [(1, {"a1": 1, "a2": 1}), (-1, {})])
    assert f.canonical_text() == "a1*a2 - 1"


def test_terms_is_a_read_only_tuple_keyed_view():
    t = table_xyz(invertible=("z",))
    f = poly_of(t, Z, [(3, {"x": 2, "z": -1}), (-1, {})])
    assert len(f.terms) == 2
    assert f.terms[(2, 0, -1)] == 3 and f.terms[(0, 0, 0)] == -1
    assert (0, 0, 1) not in f.terms and (0, -1, 0) not in f.terms and (1, 2) not in f.terms
    assert f.terms == {(2, 0, -1): 3, (0, 0, 0): -1}
    assert sorted(f.items()) == sorted(f.terms.items()) == [((0, 0, 0), -1), ((2, 0, -1), 3)]
    assert LaurentPolynomial(t, Z, f.terms) == f
    with pytest.raises(TypeError):
        f.terms[(0, 0, 0)] = 5


def test_pickle_and_deepcopy_round_trip():
    t = table_xyz(invertible=("z",))
    f = poly_of(t, Z, [(3, {"x": 2, "z": -1}), (-1, {})])
    for copy_of in (lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy):
        g = copy_of(f)
        assert g == f and g.table.invertible == t.invertible and g.terms == f.terms


def test_variable_name():
    t = table_xyz(invertible=("z",))
    x, z = (LaurentPolynomial.variable(t, Z, n) for n in ("x", "z"))
    assert x.variable_name() == "x" and z.variable_name() == "z"
    for other in (x * x, x * z, 2 * x, -x, z.invert_unit(), x + 1, LaurentPolynomial.constant(t, Z, 1)):
        assert other.variable_name() is None


@pytest.mark.parametrize(
    "op",
    [lambda x: x + "a", lambda x: "a" + x, lambda x: 1.5 * x, lambda x: x - "a"],
    ids=["add", "radd", "rmul", "sub"],
)
def test_foreign_operand_raises_type_error(op):
    x = LaurentPolynomial.variable(table_xyz(), Z, "x")
    with pytest.raises(TypeError, match="unsupported operand|can only concatenate"):
        op(x)


# ----------------------------------------------------------------------
# ring axioms and homomorphism properties on random polynomials


def random_poly(rng, table, ring, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = []
        for inv in table.invertible:
            lo = -max_exp if inv else 0
            exps.append(rng.randint(lo, max_exp))
        terms[tuple(exps)] = rng.randint(-3, 3)
    return LaurentPolynomial(table, ring, terms)


@pytest.mark.parametrize("ring", [Z, F2, Coefficients.prime_field(3), Coefficients.prime_field(5)])
def test_ring_axioms_random(ring):
    rng = random.Random(7)
    t = table_xyz(invertible=("z",))
    for _ in range(60):
        a, b, c = (random_poly(rng, t, ring) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_exact_divide_roundtrip_random():
    rng = random.Random(11)
    t = table_xyz(invertible=("z",))
    for ring in (Z, F2, Coefficients.prime_field(5)):
        for _ in range(80):
            a = random_poly(rng, t, ring)
            b = random_poly(rng, t, ring)
            if b.is_zero:
                continue
            assert exact_divide(a * b, b) == a


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_substitute_is_ring_homomorphism(data):
    t = VariableTable(["x", "y", "s"], invertible=("s",))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = random_poly(rng, t, F2)
    g = random_poly(rng, t, F2)
    s = LaurentPolynomial.variable(t, F2, "s")
    sub = {"x": LaurentPolynomial.variable(t, F2, "y") + s, "y": s ** -1}
    assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)
    assert (f + g).substitute(sub) == f.substitute(sub) + g.substitute(sub)


def test_evaluate_after_substitute_matches_composite():
    rng = random.Random(13)
    t = VariableTable(["x", "y", "s"], invertible=("s",))
    for _ in range(40):
        f = random_poly(rng, t, F2)
        sub = {"x": LaurentPolynomial.variable(t, F2, "y") + 1}
        point = {"x": rng.randint(0, 1), "y": rng.randint(0, 1), "s": 1}
        composite = dict(point)
        composite["x"] = (point["y"] + 1) % 2
        assert f.substitute(sub).evaluate(point, 2) == f.evaluate(composite, 2)
