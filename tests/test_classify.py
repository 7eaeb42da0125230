import importlib
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apparition.chebyshev import cheb_c_exact
from apparition.classify import (
    Genericity,
    cheb_preimages,
    circular_tower_depth,
    classify,
    predicted_densities,
    r_facts,
    r_primitive,
    to_json_dict,
)
from apparition.errors import ExcludedParameter


def test_excluded():
    for t in (0, 1, -1, 2, -2):
        with pytest.raises(ExcludedParameter):
            classify(t)


def test_classify_generic():
    c = classify(3)
    assert not (c.reducible or c.circular or c.cubic or c.type_a or c.type_b)
    assert c.two_generic and c.twin_primitive
    assert r_facts(c.t, 2).primitive and r_facts(c.t, 3).primitive
    assert r_facts(c.t, 3).genericity is Genericity.GENERIC
    assert r_facts(c.t, 5).genericity is Genericity.PLUS_SQUARE  # 5 = 5 * 1**2
    assert r_facts(c.t, 5).scale_root == 1


def test_classify_cubic():
    c = classify(F(2, 7))
    assert c.cubic and c.cubic_b == F(8, 7)
    assert c.cubic_associates == (F(11, 7), F(-13, 7))
    assert c.cubic_primitive  # den 7 is not a cube for any of the three
    assert r_facts(c.t, 3).genericity is Genericity.MINUS_SQUARE


def test_classify_circular():
    c = classify(F(6, 5))
    assert c.circular and c.circular_associate == F(8, 5)
    assert c.circular_primitive  # 16/5 and 32/5 are not squares
    assert not (c.type_a or c.type_b)


def test_classify_types_a_b():
    c = classify(F(2, 3))
    assert c.type_b and not c.type_a  # 2*(4 - 4/9) = (8/3)**2
    c = classify(6)
    assert c.type_a and not c.type_b  # 2*8 = 4**2
    c = classify(F(5, 2))
    assert c.reducible and c.reducible_witness == F(3, 2)
    assert c.type_a  # xi = 2 = 2*1**2
    c = classify(F(10, 3))
    assert c.reducible and c.two_generic and not c.type_a


def test_classify_minus_square_r7():
    c = classify(F(3, 2))
    assert r_facts(c.t, 7).genericity is Genericity.MINUS_SQUARE
    assert r_facts(c.t, 7).scale_root == F(1, 2)  # 9/4 - 4 = -7*(1/2)**2
    assert r_facts(c.t, 7).primitive


def test_cubic_invariant():
    # C_3(t) = C_3(a1) = C_3(a2) exactly
    from apparition.chebyshev import cheb_c_exact

    c = classify(F(2, 7))
    a1, a2 = c.cubic_associates
    val = cheb_c_exact(3, F(2, 7))
    assert val == cheb_c_exact(3, a1) == cheb_c_exact(3, a2) == F(-286, 343)
    # associates are themselves cubic
    for v in (a1, a2):
        assert classify(v).cubic


def test_preimages():
    assert cheb_preimages(2, 7) == [-3, 3]  # x**2 - 2 = 7
    assert cheb_preimages(3, 18) == [3]  # x**3 - 3x = 18
    # all three cubic associates are preimages of their common C_3 value
    assert cheb_preimages(3, F(-286, 343)) == [F(-13, 7), F(2, 7), F(11, 7)]
    assert cheb_preimages(2, 3) == []
    assert r_primitive(3, 3) and not r_primitive(18, 3)


@pytest.mark.parametrize("r", [3, 5, 7])
def test_preimages_contain_forward_roots(r):
    # every reduced c/d is found again among the preimages of C_r(c/d)
    for d in (1, 2, 3, 5, 7):
        for c in range(-40, 41):
            x = F(c, d)
            assert x in cheb_preimages(r, cheb_c_exact(r, x)), x


def _preimages_by_every_divisor(r, t):
    """Reference for odd r: try +-c/d for every divisor c of num(t)."""
    d = round(t.denominator ** (1 / r))
    if d**r != t.denominator:
        return []
    n = abs(t.numerator)
    divisors = [c for c in range(1, n + 1) if n % c == 0]
    return sorted({x for c in divisors for x in (F(c, d), F(-c, d)) if cheb_c_exact(r, x) == t})


@pytest.mark.parametrize("r", [3, 5, 7])
def test_preimages_match_every_divisor(r):
    # both sides of |t| = 2: one real root past 2, up to r of them inside
    ts = {F(a, b) for a in range(-150, 151) if a for b in (1, 8, 27, 32, 243)}
    ts |= {cheb_c_exact(r, F(c, d)) for c in range(-9, 10) for d in (1, 2, 3)}
    for t in sorted(ts - {0}):
        if abs(t.numerator) <= 10**5:
            assert cheb_preimages(r, t) == _preimages_by_every_divisor(r, t), t


@pytest.mark.parametrize("r", [3, 5, 7, 11, 13])
def test_preimages_forward_roots_past_factoring_bound(r):
    # d near 10**9 puts num(C_r(c/d)) past 3.3*10**24, where num(t) cannot be
    # factored; the q-adic lift finds every c/d without factoring it
    rng = random.Random(r)
    xs = [F(0), F(1), F(-1), F(2), F(-2)]
    while len(xs) < 40:
        d = rng.randrange(10**8, 10**9)
        c = rng.randrange(-2 * d, 2 * d) if len(xs) % 2 else rng.randrange(-d**2, d**2)
        if math.gcd(c, d) == 1:
            xs.append(F(c, d))
    for x in xs:
        t = cheb_c_exact(r, x)
        roots = cheb_preimages(r, t)
        assert x in roots and all(cheb_c_exact(r, y) == t for y in roots), x
    assert cheb_preimages(r, 0) == [0]
    assert cheb_preimages(r, 2) == ([-1, 2] if r == 3 else [2])  # C_3(-1) = 2
    assert cheb_preimages(r, -2) == ([-2, 1] if r == 3 else [-2])


def test_preimages_at_a_huge_r():
    # one lucas_pair_mod ladder per evaluation of F(c) = V_r(c, d**2) - num(t):
    # at r = 10**9 + 7 (= 5 mod 6) the roots of C_r(x) = t are found with
    # no coefficient list, and no exact power of a lift past |x| = 2 is taken
    r = 10**9 + 7
    assert cheb_preimages(r, 3) == cheb_preimages(r, F(3, 2)) == []
    assert [cheb_preimages(r, t) for t in (2, -2, 1, -1)] == [[2], [-2], [1], [-1]]
    assert r_primitive(F(5, 2**40), r) and r_primitive(-7, r)
    # a root past 2 at a moderate r: num C_101(5/2) has 203 bits
    assert cheb_preimages(101, cheb_c_exact(101, F(5, 2))) == [F(5, 2)]


def test_twin_mirror():
    for t in (F(3), F(2, 7), F(6, 5), F(2, 3), F(6), F(5, 2)):
        c, cm = classify(t), classify(-t)
        assert c.twin_primitive == cm.twin_primitive
        assert c.two_generic == cm.two_generic
        assert (c.reducible, c.circular, c.cubic) == (cm.reducible, cm.circular, cm.cubic)
        assert (c.type_a, c.type_b) == (cm.type_a, cm.type_b)
        if c.cubic:
            assert {a for a in cm.cubic_associates} == {-a for a in c.cubic_associates}


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------


def _dens(t, r, j_max):
    return predicted_densities(classify(F(t)), r, j_max)


def test_prediction_generic_r2():
    p = _dens(3, 2, 3)
    assert p.densities == [F(1, 3), F(1, 3), F(1, 6), F(1, 12)]
    assert p.source == "two-generic" and not p.conjectural


def test_prediction_cubic_primitive():
    p = _dens(F(2, 7), 3, 3)
    assert p.densities == [F(1, 4), F(1, 2), F(1, 6), F(1, 18)]


def test_prediction_minus_square_r7():
    p = _dens(F(3, 2), 7, 1)
    assert p.densities == [F(17, 24), F(1, 4)]


def test_prediction_type_b():
    p = _dens(F(2, 3), 2, 4)
    assert p.densities == [F(7, 24), F(7, 24), F(1, 12), F(1, 6), F(1, 12)]


def test_prediction_type_a():
    p = _dens(6, 2, 3)
    assert p.densities == [F(7, 24), F(7, 24), F(1, 3), F(1, 24)]


def test_prediction_circular_primitive():
    p = _dens(F(6, 5), 2, 3)
    assert p.densities == [F(1, 6), F(1, 6), F(1, 3), F(1, 6)]


def test_prediction_plus_square_equals_generic():
    # r = 1 mod 4 with delta = r*b**2 keeps the generic values
    p = _dens(3, 5, 2)
    assert p.source == "plus-square"
    assert p.densities == [F(19, 24), F(1, 6), F(1, 30)]
    # identical to a genuinely generic parameter at the same r
    q = _dens(4, 5, 2)
    assert q.source == "generic"
    assert q.densities == p.densities


def test_prediction_root_shift():
    # 7 = C_2(3): level 0 merges, deeper levels shift down
    p = _dens(7, 2, 3)
    assert p.densities == [F(2, 3), F(1, 6), F(1, 12), F(1, 24)]
    assert p.source.startswith("root-shift")
    # 18 = C_3(3)
    p = _dens(18, 3, 2)
    assert p.densities == [F(7, 8), F(1, 12), F(1, 36)]


def test_prediction_shifts_down_a_tower():
    # C_{2^k}(3) = C_2(C_{2^(k-1)}(3)): k root shifts reach 3's two-generic rule
    t = F(3)
    for k in range(1, 11):
        t = t * t - 2
        p = _dens(t, 2, 4)
        assert p.supported and p.total_mass() == 1
        assert p.source.count("root-shift(") == k and p.source.endswith("->two-generic"), k


def test_prediction_circular_tower():
    assert circular_tower_depth(F(48, 25)) == 1
    assert circular_tower_depth(F(-672, 625)) == 2
    assert circular_tower_depth(F(6, 5)) is None  # circular primitive itself
    p = _dens(F(48, 25), 2, 3)
    assert p.conjectural
    assert p.densities == [F(1, 12), F(1, 12), F(2, 3), F(1, 12)]
    p = _dens(F(-672, 625), 2, 3)
    assert p.densities == [F(1, 24), F(1, 24), F(5, 6), F(1, 24)]


def _circular_tower(k: int) -> F:
    """w_k of the tower from the circular-primitive pair (6/5, 8/5)."""
    t, w = F(6, 5), F(8, 5)
    for _ in range(k):
        t, w = t * t - 2, t * w
    return w


@pytest.mark.parametrize("k", range(1, 12))
def test_circular_tower_depth_has_no_cap(k):
    # den(w_k) has about 2**k * 2.3 bits; each halving takes it to its root
    assert circular_tower_depth(_circular_tower(k)) == k


def test_prediction_deep_circular_tower():
    p = _dens(_circular_tower(9), 2, 4)
    assert p.source == "circular-tower(k=9)" and p.total_mass() == 1


def test_circular_tower_depth_of_zero():
    # 4 - 0**2 = 2**2, and x = 2 is a fixed point of x -> sqrt(2 + x)
    assert circular_tower_depth(0) is None


def test_prediction_unsupported_cubic_tower():
    # cubic and 3-primitive, but an associate has a rational C_3-preimage
    p = _dens(F(683, 343), 3, 3)
    assert not p.supported


def test_prediction_not_twin_primitive_unsupported():
    # t = -7 is 2-primitive but its twin 7 is not; no table rule applies
    p = _dens(-7, 2, 3)
    assert not p.supported


def test_mass_is_one():
    cases = [
        (F(3), 2), (F(3), 3), (F(3), 5), (F(2, 7), 3), (F(2, 3), 2),
        (F(6, 5), 2), (F(6), 2), (F(3, 2), 7), (F(7), 2), (F(5, 2), 2),
        (F(10, 3), 3), (F(48, 25), 2), (F(18), 3),
    ]
    for t, r in cases:
        for j_max in (0, 1, 2, 5, 8):
            p = predicted_densities(classify(t), r, j_max)
            assert p.supported and p.total_mass() == 1, (t, r, j_max)
            assert all(0 <= d <= 1 for d in p.densities)
            assert len(p.densities) == j_max + 1


def test_r_must_be_prime():
    with pytest.raises(ValueError):
        predicted_densities(classify(3), 4, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(-60, 60), st.integers(1, 40), st.sampled_from([2, 3, 5, 7]))
def test_mass_property(num, den, r):
    t = F(num, den)
    if t in (0, 1, -1, 2, -2):
        return
    p = predicted_densities(classify(t), r, 6)
    if p.supported:
        assert p.total_mass() == 1
        assert all(0 <= d <= 1 for d in p.densities)


def test_json_dict():
    d = to_json_dict(classify(F(2, 7)))
    assert d["cubic"] is True and d["cubic_b"] == "8/7"
    assert d["cubic_associates"] == ["11/7", "-13/7"]
    assert d["per_r"]["3"]["genericity"] == "minus-square"


def test_r_facts_standalone():
    f = r_facts(F(3, 2), 7)
    assert f.genericity is Genericity.MINUS_SQUARE and f.primitive


_GENERIC = '{"primitive": true, "genericity": "generic", "scale_root": null}'


@pytest.mark.parametrize(
    "t, text",
    [
        (
            F(3),
            '{"t": "3", "excluded": false, "reducible": false, "reducible_witness": null,'
            ' "circular": false, "circular_associate": null, "cubic": false, "cubic_b": null,'
            ' "cubic_associates": null, "type_a": false, "type_b": false,'
            ' "twin_primitive": true, "cubic_primitive": false, "circular_primitive": false,'
            f' "two_generic": true, "per_r": {{"2": {_GENERIC}, "3": {_GENERIC},'
            ' "5": {"primitive": true, "genericity": "plus-square", "scale_root": "1"},'
            f' "7": {_GENERIC}, "11": {_GENERIC}, "13": {_GENERIC}}}}}',
        ),
        (
            F(2, 7),
            '{"t": "2/7", "excluded": false, "reducible": false, "reducible_witness": null,'
            ' "circular": false, "circular_associate": null, "cubic": true, "cubic_b": "8/7",'
            ' "cubic_associates": ["11/7", "-13/7"], "type_a": false, "type_b": false,'
            ' "twin_primitive": true, "cubic_primitive": true, "circular_primitive": false,'
            f' "two_generic": true, "per_r": {{"2": {_GENERIC},'
            ' "3": {"primitive": true, "genericity": "minus-square", "scale_root": "8/7"},'
            f' "5": {_GENERIC}, "7": {_GENERIC}, "11": {_GENERIC}, "13": {_GENERIC}}}}}',
        ),
        (
            F(48, 25),
            '{"t": "48/25", "excluded": false, "reducible": false, "reducible_witness": null,'
            ' "circular": true, "circular_associate": "14/25", "cubic": false,'
            ' "cubic_b": null, "cubic_associates": null, "type_a": false, "type_b": false,'
            ' "twin_primitive": true, "cubic_primitive": false, "circular_primitive": false,'
            f' "two_generic": false, "per_r": {{"2": {_GENERIC}, "3": {_GENERIC},'
            f' "5": {_GENERIC}, "7": {_GENERIC}, "11": {_GENERIC}, "13": {_GENERIC}}}}}',
        ),
    ],
)
def test_json_dict_text(t, text):
    # the per_r block lists every r of the classify CLI, in order
    assert json.dumps(to_json_dict(classify(t))) == text


def test_classify_reads_no_odd_r_facts(monkeypatch):
    # odd-r primitivity is left to r_facts; an r = 2 prediction never asks for it
    # (the package re-exports the function `classify`, which hides the module)
    module = importlib.import_module("apparition.classify")
    preimages, calls = module.cheb_preimages, []

    def spy(r, t):
        calls.append(r)
        return preimages(r, t)

    monkeypatch.setattr(module, "cheb_preimages", spy)
    t = F(10**18 + 3)
    assert not classify(t).cubic
    assert predicted_densities(classify(t), 2, 4).source == "two-generic"
    assert calls == [2]
