import itertools

import pytest

from legclus.augvar import enumerate_points, initial_seed, presentation
from legclus.bridge import BridgeWord, rational_form_words
from legclus.errors import InputError
from legclus.ring import Coefficients, LaurentPolynomial, VariableTable
from legclus.rulings import (
    DEPARTURE,
    RETURN,
    SWITCH,
    NormalRuling,
    StratumShape,
    anticlique_from_ruling,
    classify_point,
    enumerate_rulings,
    expected_ruling_count,
    kauffman_identity_check,
    parametrize_stratum,
    ruling_from_anticlique,
    ruling_polynomial,
    stratum_count_polynomial,
    undetermined_crossings,
)

Z = Coefficients.integers()


def test_undetermined_crossings():
    assert undetermined_crossings(BridgeWord((5, 4))) == [[1, 2, 3, 4], [7, 8, 9]]
    assert undetermined_crossings(BridgeWord((2, 2))) == [[1], [4]]
    assert undetermined_crossings(BridgeWord((3,))) == [[1, 2, 3]]


def test_enumerate_rulings_trefoil():
    rulings = enumerate_rulings(BridgeWord((3,)))
    assert len(rulings) == 3
    patterns = {tuple(t for _, t in r.types) for r in rulings}
    assert patterns == {
        (SWITCH, SWITCH, SWITCH),
        (SWITCH, DEPARTURE, RETURN),
        (DEPARTURE, RETURN, SWITCH),
    }


def test_ruling_counts():
    assert len(enumerate_rulings(BridgeWord((5, 4)))) == 15
    assert len(enumerate_rulings(BridgeWord((3, 3)))) == 4
    for w in rational_form_words(9):
        assert len(enumerate_rulings(w)) == expected_ruling_count(w)


def test_counts_match_anticliques():
    for w in rational_form_words(14):
        ws = initial_seed(w)
        assert expected_ruling_count(w) == len(ws.seed.quiver.anticliques())


def test_ruling_anticlique_bijection_examples():
    w = BridgeWord((3,))
    r = ruling_from_anticlique(w, [1])
    assert r.type_map == {1: DEPARTURE, 2: RETURN, 3: SWITCH}
    r0 = ruling_from_anticlique(w, [])
    assert set(r0.type_map.values()) == {SWITCH}
    w54 = BridgeWord((5, 4))
    r13 = ruling_from_anticlique(w54, [1, 3])
    assert [r13.type_map[c] for c in (1, 2, 3, 4)] == [
        DEPARTURE,
        RETURN,
        DEPARTURE,
        RETURN,
    ]
    with pytest.raises(InputError):
        ruling_from_anticlique(w54, [1, 2])


def test_bijection_roundtrip_sweep():
    for w in rational_form_words(14):
        rulings = enumerate_rulings(w)
        seen = set()
        for r in rulings:
            clique = anticlique_from_ruling(r)
            assert ruling_from_anticlique(w, clique) == r
            seen.add(clique)
        assert len(seen) == len(rulings)


def test_forced_boundary_types():
    r = enumerate_rulings(BridgeWord((2, 2)))[0]
    full = r.full_types()
    assert full[2] == DEPARTURE and full[3] == RETURN


def test_counts_identity_s_2pairs():
    for w in rational_form_words(10):
        for r in enumerate_rulings(w):
            undet = sum(len(b) for b in undetermined_crossings(w))
            pairs = len(anticlique_from_ruling(r))
            assert r.switches + 2 * pairs == undet
            assert r.switches + r.returns + r.departures == w.total


def test_parametrize_stratum_trefoil_all_switches():
    w = BridgeWord((3,))
    r = ruling_from_anticlique(w, [])
    pt = parametrize_stratum(w, r, {1: 1, 2: 1, 3: 1}, {}, 3)
    # (u1, u2 + u1^-1, u3 + u2^-1) with all units 1 gives (1, 2, 2)
    assert pt.values == {"a1": 1, "a2": 2, "a3": 2}


def test_parametrize_stratum_rules():
    w = BridgeWord((3,))
    r = ruling_from_anticlique(w, [2])  # (S, D, R)
    pt = parametrize_stratum(w, r, {1: 2}, {3: 0}, 5)
    assert pt.values["a1"] == 2
    assert pt.values["a2"] == 3  # u1^-1 mod 5
    assert pt.values["a3"] == 0
    r2 = ruling_from_anticlique(w, [1])  # (D, R, S)
    pt2 = parametrize_stratum(w, r2, {3: 4}, {2: 2}, 5)
    assert pt2.values == {"a1": 0, "a2": 2, "a3": 4}


def test_classify_point_examples():
    w = BridgeWord((3,))
    from legclus.augvar import VarietyPoint, forced_t1, forced_t2

    def mkpt(vals, p=2):
        values = {f"a{i}": v for i, v in enumerate(vals, start=1)}
        return VarietyPoint(w, p, values, forced_t1(w, values, p), forced_t2(w, values, p))

    assert classify_point(w, mkpt((1, 0, 0))) == frozenset()
    assert classify_point(w, mkpt((1, 1, 1))) == frozenset({2})
    w22 = BridgeWord((2, 2))
    pt = enumerate_points(presentation(w22), 2)[0]
    assert classify_point(w22, pt) == frozenset()


def test_stratification_partition_small():
    for w in [BridgeWord((3,)), BridgeWord((3, 3)), BridgeWord((2, 3, 2))]:
        for p in (2, 3):
            points = enumerate_points(presentation(w), p)
            buckets: dict[frozenset, int] = {}
            for pt in points:
                buckets[classify_point(w, pt)] = buckets.get(classify_point(w, pt), 0) + 1
            rulings = {anticlique_from_ruling(r): r for r in enumerate_rulings(w)}
            assert set(buckets) == set(rulings)
            for clique, count in buckets.items():
                assert count == StratumShape.of(rulings[clique]).size(p)


def test_parametrize_surjective_on_stratum():
    w = BridgeWord((3, 3))
    p = 3
    points = enumerate_points(presentation(w), p)
    for r in enumerate_rulings(w):
        shape = StratumShape.of(r)
        switch_chords = [c for c, t in r.types if t == SWITCH]
        return_chords = [c for c, t in r.types if t == RETURN]
        produced = set()
        for units in itertools.product(range(1, p), repeat=len(switch_chords)):
            for zs in itertools.product(range(p), repeat=len(return_chords)):
                pt = parametrize_stratum(
                    w, r, dict(zip(switch_chords, units)), dict(zip(return_chords, zs)), p
                )
                produced.add(tuple(sorted(pt.values.items())))
        assert len(produced) == shape.size(p)  # injectivity
        clique = anticlique_from_ruling(r)
        stratum = {
            tuple(sorted(pt.values.items()))
            for pt in points
            if classify_point(w, pt) == clique
        }
        assert produced == stratum  # surjectivity


def test_stratum_claims_symbolically():
    # along the parametrization of one block, each initial variable is 0
    # right before a return and the product of previous switch units after
    # a non-return
    from legclus.continuant import continuant

    for length in range(1, 8):
        from legclus.rulings import _block_tilings

        for tiling in _block_tilings(length):
            names = [f"u{i}" for i in range(1, length + 1)] + [
                f"z{i}" for i in range(1, length + 1)
            ]
            table = VariableTable(names, invertible=[n for n in names if n[0] == "u"])
            ring = Coefficients.prime_field(2)
            vals = []
            prev = None
            for i, t in enumerate(tiling, start=1):
                u = LaurentPolynomial.variable(table, ring, f"u{i}")
                z = LaurentPolynomial.variable(table, ring, f"z{i}")
                if t == SWITCH:
                    v = u
                    if prev == SWITCH:
                        v = v + LaurentPolynomial.variable(table, ring, f"u{i-1}").invert_unit()
                elif t == DEPARTURE:
                    if prev == SWITCH:
                        v = LaurentPolynomial.variable(table, ring, f"u{i-1}").invert_unit()
                    else:
                        v = LaurentPolynomial.zero(table, ring)
                else:
                    v = z
                vals.append(v)
                prev = t
            for i, t in enumerate(tiling, start=1):
                window = continuant(vals[: i - 1], table, ring) if i > 1 else None
                if window is None:
                    continue
                switch_units = LaurentPolynomial.constant(table, ring, 1)
                for j in range(1, i):
                    if tiling[j - 1] == SWITCH:
                        switch_units = switch_units * LaurentPolynomial.variable(
                            table, ring, f"u{j}"
                        )
                if t == RETURN:
                    assert window.is_zero
                else:
                    assert window == switch_units


def test_ruling_polynomial_examples():
    b3 = ruling_polynomial(BridgeWord((3,)))
    t = b3.table
    z = LaurentPolynomial.variable(t, Z, "z")
    assert b3 == z * z + 2
    b22 = ruling_polynomial(BridgeWord((2, 2)))
    assert b22 == LaurentPolynomial.variable(b22.table, Z, "z")
    b54 = ruling_polynomial(BridgeWord((5, 4)))
    assert sum(abs(c) for c in b54.terms.values()) == 15
    assert max(e for (e,) in b54.terms) == 6  # top switch count 7, shifted by 1


def test_ruling_polynomial_link_with_inverse_term():
    b33 = ruling_polynomial(BridgeWord((3, 3)))
    assert b33.terms == {(3,): 1, (1,): 2, (-1,): 1}


def test_kauffman_identity_examples():
    assert kauffman_identity_check(BridgeWord((3,)))
    assert kauffman_identity_check(BridgeWord((2, 2)))
    assert kauffman_identity_check(BridgeWord((3, 3)))


def test_stratum_counts_equal_closed_form_sweep():
    from legclus.augvar import point_count_closed_form

    for w in rational_form_words(10):
        assert stratum_count_polynomial(w) == point_count_closed_form(w)


def test_stratum_count_polynomial_takes_one_term_per_shape(monkeypatch):
    # 233 rulings of [12] fall into 7 shapes (s, r); each shape costs the
    # two powers (q-1)^s and q^(r-k+1), however many rulings share it
    from legclus.augvar import point_count_closed_form

    w = BridgeWord((12,))
    shapes = {(r.switches, r.returns) for r in enumerate_rulings(w)}
    power = LaurentPolynomial.__pow__
    calls = []

    def counted_power(self, n):
        calls.append(n)
        return power(self, n)

    monkeypatch.setattr(LaurentPolynomial, "__pow__", counted_power)
    counts = stratum_count_polynomial(w)
    monkeypatch.undo()
    assert len(calls) <= 2 * len(shapes)
    assert counts == point_count_closed_form(w)
