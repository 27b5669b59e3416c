"""Differential tests of the packed Laurent kernel against sympy.

Random Laurent polynomials over Z, F_2 and F_p (negative exponents only at
invertible variables) are mapped to sympy expressions; products, sums,
substitutions, exact quotients, evaluations and the printed term order must
agree with sympy's answers.  A second group checks that exponents past the
packed field range raise ``AlgebraError`` instead of wrapping into the
neighbouring variable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from legclus.errors import AlgebraError  # noqa: E402
from legclus.ring import (  # noqa: E402
    EXP_LIMIT,
    Coefficients,
    LaurentPolynomial,
    VariableTable,
    exact_divide,
)

NAMES = ("x", "s", "y", "t")
INVERTIBLE = ("s", "t")
TABLE = VariableTable(NAMES, invertible=INVERTIBLE)
SYMBOLS = sympy.symbols(NAMES)
RINGS = [Coefficients.integers(), Coefficients.prime_field(2), Coefficients.prime_field(5)]

oracle = settings(max_examples=60, deadline=None)


# ----------------------------------------------------------------------
# random inputs


def exponents(draw):
    return tuple(
        draw(st.integers(-3, 3) if inv else st.integers(0, 3)) for inv in TABLE.invertible
    )


@st.composite
def polys(draw, ring, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[exponents(draw)] = draw(st.integers(-4, 4))
    return LaurentPolynomial(TABLE, ring, terms)


@st.composite
def units(draw, ring):
    exps = tuple(draw(st.integers(-2, 2)) if inv else 0 for inv in TABLE.invertible)
    c = draw(st.sampled_from([1, -1] if ring.p is None else range(1, ring.p)))
    return LaurentPolynomial(TABLE, ring, {exps: c})


ring_st = st.sampled_from(RINGS)


# ----------------------------------------------------------------------
# conversion to and from sympy


def to_sympy(poly):
    return sympy.Add(
        *(
            c * sympy.Mul(*(v**e for v, e in zip(SYMBOLS, exps)))
            for exps, c in poly.items()
        )
    )


def reduce_coeff(c, ring):
    c = sympy.Rational(c)
    if ring.p is None:
        assert c.q == 1, f"non-integer coefficient {c}"
        return int(c)
    return int(c.p) * pow(int(c.q), -1, ring.p) % ring.p


def from_sympy(expr, ring):
    """Terms of an expanded sympy expression, coefficients reduced into ring."""
    out = {}
    for mono, c in sympy.expand(expr).as_coefficients_dict().items():
        powers = mono.as_powers_dict()
        exps = tuple(int(powers.get(v, 0)) for v in SYMBOLS)
        c = reduce_coeff(c, ring)
        if c:
            out[exps] = c
    return out


def as_dict(poly):
    return dict(poly.items())


def clearing_monomial(poly):
    """A monomial whose product with poly has no negative exponent."""
    lows = [min((exps[i] for exps in poly.terms), default=0) for i in range(len(NAMES))]
    return sympy.Mul(*(v ** max(0, -lo) for v, lo in zip(SYMBOLS, lows)))


def sympy_poly(expr, ring):
    if ring.p is None:
        return sympy.Poly(expr, *SYMBOLS, domain="ZZ")
    return sympy.Poly(expr, *SYMBOLS, modulus=ring.p)


# ----------------------------------------------------------------------
# arithmetic


@oracle
@given(data=st.data())
def test_product_and_sum_match_sympy(data):
    ring = data.draw(ring_st)
    a, b = data.draw(polys(ring)), data.draw(polys(ring))
    assert as_dict(a * b) == from_sympy(to_sympy(a) * to_sympy(b), ring)
    assert as_dict(a + b) == from_sympy(to_sympy(a) + to_sympy(b), ring)


@oracle
@given(data=st.data())
def test_substitute_matches_sympy(data):
    ring = data.draw(ring_st)
    f = data.draw(polys(ring))
    images = {
        "x": data.draw(polys(ring, max_terms=3)),
        "s": data.draw(units(ring)),
        "y": data.draw(polys(ring, max_terms=3)),
    }
    assignment = {name: images[name] for name in data.draw(st.sets(st.sampled_from(sorted(images))))}
    expected = to_sympy(f).subs(
        {SYMBOLS[NAMES.index(n)]: to_sympy(p) for n, p in assignment.items()},
        simultaneous=True,
    )
    assert as_dict(f.substitute(assignment)) == from_sympy(expected, ring)


def sympy_quotient(num, den, ring):
    """The terms of num/den in the Laurent ring, or None when it has none.

    With P and Q the numerator and denominator cleared of negative
    exponents, num/den is a Laurent polynomial iff Q divides P times a
    high enough power of each invertible variable (the exponents drawn
    here keep Q's degree in each of them at most 6).
    """
    lift = sympy.Mul(*(v**12 for v, n in zip(SYMBOLS, NAMES) if n in INVERTIBLE))
    m_num, m_den = clearing_monomial(num), clearing_monomial(den)
    P = sympy_poly(sympy.expand(to_sympy(num) * m_num * lift), ring)
    Q = sympy_poly(sympy.expand(to_sympy(den) * m_den), ring)
    try:
        quotient = P.exquo(Q, auto=False)
    except sympy.polys.polyerrors.ExactQuotientFailed:
        return None
    return from_sympy(quotient.as_expr() * m_den / (m_num * lift), ring)


@oracle
@given(data=st.data())
def test_exact_quotient_matches_sympy(data):
    ring = data.draw(ring_st)
    a, b = data.draw(polys(ring)), data.draw(polys(ring))
    if b.is_zero:
        return
    q = exact_divide(a * b, b)
    assert q is not None and q == a
    assert as_dict(q) == sympy_quotient(a * b, b, ring)


@oracle
@given(data=st.data())
def test_exact_divide_fails_where_sympy_finds_no_quotient(data):
    ring = data.draw(ring_st)
    num, den = data.draw(polys(ring)), data.draw(polys(ring, max_terms=3))
    if den.is_zero:
        return
    q = exact_divide(num, den)
    expected = sympy_quotient(num, den, ring)
    assert (None if q is None else as_dict(q)) == expected


@oracle
@given(data=st.data())
def test_evaluate_matches_sympy(data):
    ring = data.draw(ring_st)
    f = data.draw(polys(ring))
    p = ring.p or data.draw(st.sampled_from([3, 7, 11]))
    point = {
        n: data.draw(st.integers(1, p - 1) if n in INVERTIBLE else st.integers(0, p - 1))
        for n in NAMES
    }
    value = to_sympy(f).subs({v: point[n] for v, n in zip(SYMBOLS, NAMES)})
    assert f.evaluate(point, p) == reduce_coeff(value, Coefficients.prime_field(p))


def expected_text(poly):
    """The documented format, with terms in sympy's descending lex order."""
    if poly.is_zero:
        return "0"
    lows = [min(exps[i] for exps in poly.terms) for i in range(len(NAMES))]
    shifted = sympy_poly(to_sympy(poly) * clearing_monomial(poly), Coefficients.integers())
    pieces = []
    for mono, c in shifted.terms(order="lex"):
        exps = [e + min(lo, 0) for e, lo in zip(mono, lows)]
        body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(NAMES, exps) if e)
        mag = abs(int(c))
        text = (("" if mag == 1 else f"{mag}*") + body) if body else str(mag)
        sign = ("-" if c < 0 else "") if not pieces else ("- " if c < 0 else "+ ")
        pieces.append(sign + text)
    return " ".join(pieces)


@oracle
@given(data=st.data())
def test_canonical_text_order_matches_sympy_lex(data):
    ring = data.draw(ring_st)
    f = data.draw(polys(ring))
    assert f.canonical_text() == expected_text(f)


# ----------------------------------------------------------------------
# the packed field range


def test_exponent_at_the_limit_is_exact():
    s = LaurentPolynomial.variable(TABLE, RINGS[0], "s")
    top = s**EXP_LIMIT
    assert dict(top.items()) == {(0, EXP_LIMIT, 0, 0): 1}
    assert dict((s ** -EXP_LIMIT).items()) == {(0, -EXP_LIMIT, 0, 0): 1}
    assert top * s ** -EXP_LIMIT == 1


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_exponent_past_the_limit_raises_instead_of_wrapping(ring):
    s = LaurentPolynomial.variable(TABLE, ring, "s")
    x = LaurentPolynomial.variable(TABLE, ring, "x")
    top = s**EXP_LIMIT
    with pytest.raises(AlgebraError):
        top * s  # would carry into the neighbouring field of y
    with pytest.raises(AlgebraError):
        s ** -EXP_LIMIT * s.invert_unit()  # would borrow from x
    with pytest.raises(AlgebraError):
        x ** (EXP_LIMIT + 1)
    with pytest.raises(AlgebraError):
        (x ** 20000).substitute({"x": x * x})
    with pytest.raises(AlgebraError):
        LaurentPolynomial(TABLE, ring, {(EXP_LIMIT + 1, 0, 0, 0): 1})
    with pytest.raises(AlgebraError):
        exact_divide(s**EXP_LIMIT, s.invert_unit())  # quotient s^(EXP_LIMIT + 1)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_results_inside_the_limit_never_raise(ring):
    s = LaurentPolynomial.variable(TABLE, ring, "s")
    x = LaurentPolynomial.variable(TABLE, ring, "x")
    y = LaurentPolynomial.variable(TABLE, ring, "y")
    # the stored bound is wider than the true range after a cancellation
    assert (s**20000 + 1 - s**20000) * s**20000 == s**20000
    # or when the extremes sit at different variables
    assert dict(((x**20000 * y) * (s**-1 * y**20000)).items()) == {(20000, -1, 20001, 0): 1}
    # a numerator spread past EXP_LIMIT, with a quotient that fits
    num = s**20000 - s**-20000
    q = exact_divide(num, s - 1)
    assert q is not None and q * (s - 1) == num
    assert exact_divide(num + x, s - 1) is None
