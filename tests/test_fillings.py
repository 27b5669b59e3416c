import dataclasses
import itertools
import random

import pytest

from legclus import fillings

from legclus.augvar import initial_seed
from legclus.bridge import BridgeWord, fraction_value, rational_form_words
from legclus.cluster import mutation_class, strip_unit_frozen
from legclus.errors import AlgebraError, BudgetError, InputError
from legclus.fillings import (
    PinchState,
    canonical_sequence,
    chart_image,
    commutation_equivalent,
    enumerate_complete_sequences,
    enumerate_filling_classes,
    expected_filling_count,
    is_torus_chart,
    pinch_count,
    representative_sequence,
    run_sequence,
    run_table,
    sequence_to_triangulations,
    unit_count,
)
from legclus.polygon import Triangulation
from legclus.ring import Coefficients, LaurentPolynomial

F2 = Coefficients.prime_field(2)


def mono(table, powers):
    return LaurentPolynomial.monomial(table, F2, 1, powers)


def test_pinchable_fresh_33():
    st = PinchState(BridgeWord((3, 3)))
    assert st.pinchable_chords() == [1, 2, 3, 5, 6]


def test_pinchable_fresh_22():
    st = PinchState(BridgeWord((2, 2)))
    assert st.pinchable_chords() == [1, 2, 4]


def test_pinchable_k1_every_crossing():
    st = PinchState(BridgeWord((3,)))
    assert st.pinchable_chords() == [1, 2, 3]


def test_terminal_state_has_no_pinchable():
    st = PinchState(BridgeWord((1, 2, 1)))
    assert st.pinchable_chords() == []
    assert st.complete


def test_pinch_example_four_images():
    # pinch the second then third crossing of a four-crossing block: the
    # first image picks up the second-order correction through both units
    w = BridgeWord((4, 2))
    st = PinchState(w)
    st.apply_pinch(2)
    st.apply_pinch(3)
    t = st.table
    a1 = LaurentPolynomial.variable(t, F2, "a1")
    a4 = LaurentPolynomial.variable(t, F2, "a4")
    assert st.images["a1"] == a1 + mono(t, {"s1": -1}) + mono(t, {"s1": -2, "s2": -1})
    assert st.images["a2"] == mono(t, {"s1": 1})
    assert st.images["a3"] == mono(t, {"s2": 1}) + mono(t, {"s1": -1})
    assert st.images["a4"] == a4 + mono(t, {"s2": -1})


def test_single_interior_pinch_corrects_neighbors():
    st = PinchState(BridgeWord((4, 2)))
    st.apply_pinch(2)
    t = st.table
    assert st.images["a1"] == LaurentPolynomial.variable(t, F2, "a1") + mono(t, {"s1": -1})
    assert st.images["a3"] == LaurentPolynomial.variable(t, F2, "a3") + mono(t, {"s1": -1})


def test_leftmost_pinch_corrects_only_right_neighbor():
    st = PinchState(BridgeWord((3, 3)))
    st.apply_pinch(1)
    t = st.table
    assert st.images["a1"] == mono(t, {"s1": 1})
    assert st.images["a2"] == LaurentPolynomial.variable(t, F2, "a2") + mono(t, {"s1": -1})
    assert st.images["a3"] == LaurentPolynomial.variable(t, F2, "a3")


def test_corrections_do_not_cross_blocks():
    st = PinchState(BridgeWord((3, 3)))
    st.apply_pinch(3)  # last crossing of block 1
    t = st.table
    assert st.images["a4"] == LaurentPolynomial.variable(t, F2, "a4")


def test_non_pinchable_raises():
    st = PinchState(BridgeWord((3, 3)))
    with pytest.raises(InputError):
        st.apply_pinch(4)


def test_sequence_to_triangulations_paper_block():
    # first block of six crossings: (2,4,3,1,5) and (4,2,3,1,5) give the
    # same triangulation; (2,4,6,3,1) gives it too
    w = BridgeWord((6, 2))
    expected = frozenset({(1, 3), (3, 5), (1, 5), (5, 7)})
    for head in [(2, 4, 3, 1, 5), (4, 2, 3, 1, 5), (2, 4, 6, 3, 1)]:
        t = sequence_to_triangulations(w, head + (8,))[0]
        assert t.diagonals == expected


def test_left_to_right_gives_fan():
    w = BridgeWord((5, 4))
    tris = sequence_to_triangulations(w, (1, 2, 3, 4, 7, 8, 9))
    assert tris[0] == Triangulation.fan(6)
    assert tris[1] == Triangulation.fan(5)


def test_incomplete_sequence_rejected():
    with pytest.raises(InputError):
        sequence_to_triangulations(BridgeWord((3, 3)), (1, 2))
    with pytest.raises(InputError):
        run_sequence(BridgeWord((3, 3)), (1, 2))


@pytest.mark.parametrize(
    "seq",
    [(1, 1, 5, 6), (0, 1, 5, 6), (-1, 1, 5, 6), (1, 2, 5, 7), (1, 2, 5, 6, 1)],
    ids=["repeated", "zero", "negative", "past-the-end", "pinched-after-complete"],
)
@pytest.mark.parametrize("follow", [run_sequence, sequence_to_triangulations, canonical_sequence])
def test_invalid_sequence_is_rejected_by_the_walk(follow, seq):
    with pytest.raises(InputError, match="not pinchable now"):
        follow(BridgeWord((3, 3)), seq)


def test_run_22():
    w = BridgeWord((2, 2))
    res = run_sequence(w, (1, 4))
    t = res.t1.table
    # the defining system holds identically and the units are monomials
    assert res.t1 == mono(t, {"s1": 1, "s2": 1})
    assert res.t2 == mono(t, {"s1": 1, "s2": -1})
    assert res.parametrization["a1"] == mono(t, {"s1": 1})
    assert res.parametrization["a2"] == mono(t, {"s1": -1})
    assert res.parametrization["a4"] == mono(t, {"s2": 1})


def test_run_trefoil_left_to_right():
    w = BridgeWord((3,))
    res = run_sequence(w, (2, 3))
    for var in res.seed.variables:
        image = _eval_seed_variable(var, res)
        assert image.is_unit()


def _eval_seed_variable(var, res):
    reduced = var.reduce_mod(2)
    table = res.t1.table
    out = LaurentPolynomial.zero(table, F2)
    for exps, c in reduced.terms.items():
        term = LaurentPolynomial.constant(table, F2, c)
        for i, e in enumerate(exps):
            if e:
                term = term * res.images[reduced.table.names[i]] ** e
        out = out + term
    return out


def test_run_33533_matches_pinned_unit_relations():
    # pinch (1,3,5,9,11,14) on [3,3,3,3,2]; the caption of the source
    # figure labels the middle pinches differently (its fourth pinch sits
    # at a block boundary, which the admissibility rules exclude), but the
    # forced unit relations come out exactly as displayed there
    w = BridgeWord((3, 3, 3, 3, 2))
    res = run_sequence(w, (1, 3, 5, 9, 11, 14))
    t = res.t1.table
    assert res.t1 == mono(t, {"s1": 1, "s3": 1, "s5": 1, "s6": 1, "s2": -1, "s4": -1})
    assert res.t2 == mono(t, {"s1": 1, "s6": 1, "s2": -1, "s3": -1, "s4": -1, "s5": -1})


def test_unit_count_and_pinch_count():
    assert unit_count(BridgeWord((3, 3, 3, 3, 2))) == 6
    assert pinch_count(BridgeWord((3,))) == 2
    assert unit_count(BridgeWord((3,))) == 3


def test_k1_terminal_unit_keeps_chart_dimension():
    w = BridgeWord((3,))
    res = run_sequence(w, (2, 3))
    t = res.t1.table
    # three units parametrize the three-dimensional variety; the first
    # crossing survives and carries the terminal unit
    assert res.t1 == mono(t, {"s1": 1, "s2": 1, "s3": 1})
    assert res.t2 == res.t1
    assert res.parametrization["a3"] == mono(t, {"s2": 1}) + mono(t, {"s1": -1})
    assert res.parametrization["a1"] == (
        mono(t, {"s3": 1}) + mono(t, {"s1": -1}) + mono(t, {"s1": -2, "s2": -1})
    )


def test_torus_chart_property_small_words():
    for w in [BridgeWord((3,)), BridgeWord((2, 2)), BridgeWord((3, 3)), BridgeWord((2, 3, 2))]:
        for seq in enumerate_complete_sequences(w):
            res = run_sequence(w, seq)
            for var in res.seed.variables:
                assert _eval_seed_variable(var, res).is_unit()


def test_commutation_examples():
    w = BridgeWord((6, 2))
    assert commutation_equivalent(w, (2, 4, 3, 1, 5, 8), (4, 2, 3, 1, 5, 8))
    w33 = BridgeWord((3, 3))
    assert not commutation_equivalent(w33, (1, 2, 5, 6), (2, 1, 5, 6))
    assert commutation_equivalent(w33, (1, 5, 2, 6), (5, 1, 2, 6))


def test_commutation_classes_match_triangulations_small():
    for w in [BridgeWord((4,)), BridgeWord((3, 3)), BridgeWord((2, 4, 2))]:
        seqs = list(enumerate_complete_sequences(w))
        by_tri = {}
        for s in seqs:
            by_tri.setdefault(sequence_to_triangulations(w, s), []).append(s)
        by_canon = {}
        for s in seqs:
            by_canon.setdefault(canonical_sequence(w, s), []).append(s)
        tri_parts = {frozenset(map(tuple, v)) for v in by_tri.values()}
        canon_parts = {frozenset(map(tuple, v)) for v in by_canon.values()}
        assert tri_parts == canon_parts


def test_filling_census_counts():
    assert enumerate_filling_classes(BridgeWord((3, 3))).count == 4
    assert enumerate_filling_classes(BridgeWord((5, 4))).count == 70
    assert enumerate_filling_classes(BridgeWord((3,))).count == 5


def test_census_representatives_hit_their_classes():
    for w in [BridgeWord((4,)), BridgeWord((3, 3)), BridgeWord((2, 3, 2))]:
        census = enumerate_filling_classes(w)
        tuples = {sequence_to_triangulations(w, rep) for rep in census.representatives}
        assert len(tuples) == census.count == expected_filling_count(w)


def test_every_tuple_achieved_small():
    for w in [BridgeWord((5,)), BridgeWord((4, 3))]:
        achieved = {
            sequence_to_triangulations(w, s) for s in enumerate_complete_sequences(w)
        }
        assert len(achieved) == expected_filling_count(w)


def test_census_matches_every_complete_sequence_up_to_m9():
    # the diagonals a block emits depend only on the order of its own
    # pinches, so one sequence per tuple of per-block orders is walked;
    # a stable sort by block is that tuple, concatenated
    for w in rational_form_words(9):
        census = enumerate_filling_classes(w)
        assert len(census.representatives) == census.count == expected_filling_count(w)
        classes = {sequence_to_triangulations(w, rep) for rep in census.representatives}
        block_of = [w.block_of(c) for c in range(w.total + 1)].__getitem__
        walked = {}
        for seq in enumerate_complete_sequences(w):
            walked.setdefault(tuple(sorted(seq, key=block_of)), seq)
        reached = {sequence_to_triangulations(w, seq) for seq in walked.values()}
        assert reached == classes, w


def test_fillings_reach_every_seed_of_the_mutation_class():
    for w in rational_form_words(7):
        census = enumerate_filling_classes(w)
        filled = {
            strip_unit_frozen(run_sequence(w, rep).seed).canonical_key()
            for rep in census.representatives
        }
        seeds, exceeded = mutation_class(strip_unit_frozen(initial_seed(w).seed))
        assert not exceeded
        assert filled == {s.canonical_key() for s in seeds}, w
        assert len(filled) == census.count, w


@pytest.mark.parametrize("blocks", [(3, 3, 3), (4, 5), (2, 4, 3), (5,), (3, 2, 2, 3)])
def test_pinch_state_walk_matches_sequence_to_triangulations(blocks):
    w = BridgeWord(blocks)
    rng = random.Random(sum(blocks) * 31 + len(blocks))
    for _ in range(3):
        st = PinchState(w)
        seq = []
        while not st.complete:
            seq.append(rng.choice(st.pinchable_chords()))
            st.apply_pinch(seq[-1])
        assert st.block_triangulations() == sequence_to_triangulations(w, seq)


@pytest.mark.parametrize(
    "corrupt",
    [lambda seq: seq[::-1], lambda seq: (seq[-1],) + seq[1:]],
    ids=["reversed-order", "repeated-chord"],
)
def test_census_self_check_catches_a_wrong_greedy(monkeypatch, corrupt):
    greedy = fillings._block_greedy
    monkeypatch.setattr(fillings, "_block_greedy", lambda layout, t: corrupt(greedy(layout, t)))
    with pytest.raises(AlgebraError):
        enumerate_filling_classes(BridgeWord((5, 4)))


def test_census_needs_no_word_walk(monkeypatch):
    # each block's order is checked on its own walk, so the census and the
    # representatives never walk a whole word
    def refuse(word, chords):
        raise AssertionError(f"word walk of {chords}")

    monkeypatch.setattr(fillings, "_walk", refuse)
    census = enumerate_filling_classes(BridgeWord((5, 6, 5)))
    assert census.count == len(set(census.representatives)) == 2744
    w = BridgeWord((6, 4, 6))
    tris = [Triangulation.fan(layout.size) for layout in w.layouts]
    rep = representative_sequence(w, tris)
    monkeypatch.undo()
    assert sequence_to_triangulations(w, rep) == tuple(tris)


def test_census_budget_is_checked_before_any_triangulation(monkeypatch):
    # [14] has C_13 = 742,900 classes: the budget must refuse them before
    # a single block triangulation is built
    def refuse(n):
        raise AssertionError(f"triangulations({n}) built before the budget check")

    monkeypatch.setattr(fillings, "triangulations", refuse)
    with pytest.raises(BudgetError):
        enumerate_filling_classes(BridgeWord((14,)))


def test_representative_sequence_roundtrip():
    w = BridgeWord((5, 4))
    census = enumerate_filling_classes(w)
    for rep in census.representatives[:10]:
        tris = sequence_to_triangulations(w, rep)
        assert representative_sequence(w, tris) == rep or sequence_to_triangulations(
            w, representative_sequence(w, tris)
        ) == tris


def test_same_component_labels_torus_links():
    # a pinch on the two-component link [2] joins the components
    st = PinchState(BridgeWord((2,)))
    st.apply_pinch(2)
    assert st.records[0].same_component is False
    # the trefoil is a knot, so the first pinch merges arcs of one component
    st = PinchState(BridgeWord((3,)))
    st.apply_pinch(2)
    assert st.records[0].same_component is True


def _union_find_same_component(state, c):
    """Reference: a union-find over the left and right strand ends of the
    plat closure of the state's surviving crossings."""
    word = state.word
    present = sorted(ch for block in state.survivors for ch in block)
    parent = {f"{side}{i}": f"{side}{i}" for side in "LR" for i in range(1, 5)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    positions = {i: i for i in range(1, 5)}  # left label -> current slot
    entering = {}
    for ch in present:
        pair = (2, 3) if word.block_of(ch) % 2 == 0 else (1, 2)
        slot_to_label = {slot: lab for lab, slot in positions.items()}
        if ch == c:
            entering[c] = (f"L{slot_to_label[pair[0]]}", f"L{slot_to_label[pair[1]]}")
        a, b = slot_to_label[pair[0]], slot_to_label[pair[1]]
        positions[a], positions[b] = pair[1], pair[0]
    for lab, slot in positions.items():
        union(f"L{lab}", f"R{slot}")
    union("L1", "L2")
    union("L3", "L4")
    if word.k % 2 == 1:
        union("R1", "R2")
        union("R3", "R4")
    else:
        union("R2", "R3")
        union("R1", "R4")
    x, y = entering[c]
    return find(x) == find(y)


def test_same_component_matches_union_find_on_every_pinch():
    pinches = 0
    for w in rational_form_words(6):
        for seq in enumerate_complete_sequences(w):
            st = PinchState(w)
            for c in seq:
                expected = _union_find_same_component(st, c)
                st.apply_pinch(c)
                assert st.records[-1].same_component is expected, (w, seq, c)
                pinches += 1
    assert pinches == 5878
    # on a knot every first pinch merges arcs of one component ([1] has none)
    for w in rational_form_words(12, min_total=2):
        if fraction_value(w).p % 2:
            st = PinchState(w)
            st.apply_pinch(st.pinchable_chords()[0])
            assert st.records[0].same_component is True, w


def test_parametrization_solves_variety_identically():
    for w in [BridgeWord((3, 3)), BridgeWord((5, 4))]:
        seq = enumerate_filling_classes(w).representatives[0]
        res = run_sequence(w, seq)
        # equations vanish identically: re-checked inside run_sequence;
        # here confirm the number of units matches the chart dimension
        used = set()
        for poly in res.parametrization.values():
            for exps in poly.terms:
                for i, e in enumerate(exps):
                    if e and poly.table.names[i].startswith("s"):
                        used.add(poly.table.names[i])
        assert len(used) == unit_count(w)


def test_chart_images_of_closure_differentials_match_forced_units():
    # the closure products of dga and the chart images t1, t2 are one
    # formula in two rings: map d(b1) + t1 (and, for odd k, d(b2) + t2)
    # through the chart of the first complete sequence of every word
    from legclus.dga import build_dga

    words = [w for w in rational_form_words(8) if w.k >= 2]
    for w in words:
        res = run_sequence(w, next(enumerate_complete_sequences(w)))
        dga = build_dga(w)
        t1 = LaurentPolynomial.variable(dga.table, F2, "t1")
        assert fillings.chart_image(res, dga.differentials["b1"] + t1) == res.t1
        if w.k % 2 == 1:
            t2 = LaurentPolynomial.variable(dga.table, F2, "t2")
            assert fillings.chart_image(res, dga.differentials["b2"] + t2) == res.t2
    assert len(words) == 79


def whole_table_images(w, seq):
    """The images after each pinch of seq, with every pinch substituted
    into every image: the pinch rule without the locality invariant."""
    table = run_table(w)

    def var(name):
        return LaurentPolynomial.variable(table, F2, name)

    survivors = [list(w.block_chords(b)) for b in range(w.k)]
    one = LaurentPolynomial.constant(table, F2, 1)
    gaps = [[one] * (len(block) + 1) for block in survivors]
    images = {f"a{j}": var(f"a{j}") for j in range(1, w.total + 1)}
    for step, c in enumerate(seq, 1):
        b = w.block_of(c)
        block = survivors[b]
        pos = block.index(c)
        u, v = gaps[b][pos], gaps[b][pos + 1]
        s = var(f"s{step}")
        subs = {f"a{c}": s}
        if pos > 0:
            subs[f"a{block[pos - 1]}"] = var(f"a{block[pos - 1]}") + (u * u * s).invert_unit()
        if pos < len(block) - 1:
            subs[f"a{block[pos + 1]}"] = var(f"a{block[pos + 1]}") + (v * v * s).invert_unit()
        images = {g: img.substitute(subs) for g, img in images.items()}
        gaps[b][pos : pos + 2] = [u * s * v]
        del block[pos]
        yield images


@pytest.mark.parametrize(
    "blocks", [(3, 3, 3), (4, 5), (2, 4, 3), (5,), (3, 2, 2, 3), (1, 3, 1)]
)
def test_local_pinches_match_whole_table_substitution(blocks):
    w = BridgeWord(blocks)
    rng = random.Random(sum(blocks) * 17 + len(blocks))
    for _ in range(3):
        st = PinchState(w)
        seq = []
        while not st.complete:
            seq.append(rng.choice(st.pinchable_chords()))
            st.apply_pinch(seq[-1])
        st = PinchState(w)
        for c, images in zip(seq, whole_table_images(w, seq)):
            st.apply_pinch(c)
            assert st.images == images, (seq, c)


def test_torus_chart_check_rejects_a_broken_image():
    # every chart of a complete sequence passes, so break one image at a
    # time and compare the windowed check with the term-by-term oracle
    verdicts = []
    for blocks in [(3, 3), (4,), (2, 4, 3)]:
        w = BridgeWord(blocks)
        res = run_sequence(w, next(enumerate_complete_sequences(w)))
        for g in res.images:
            bad = dataclasses.replace(res, images={**res.images, g: res.images[g] + 1})
            verdict = is_torus_chart(bad)
            assert verdict == all(chart_image(bad, v).is_unit() for v in bad.seed.variables)
            verdicts.append(verdict)
    assert len(verdicts) == 19 and verdicts.count(False) == 13
