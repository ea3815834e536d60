import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisphere import (
    BisphericalFrame,
    ResonatorPair,
    TruncationCapError,
    capacitance_asymptotic_rescaled,
    capacitance_exact,
    eigen,
    frame_from_pair,
    image_charge_capacitance,
    rescale,
    sigma_terms,
)
from bisphere.oracle import n_series_capacitance
from bisphere.specfun import _em_remainder

# frozen with an mpmath (50 digit) evaluation of the bispherical series
C_12_005 = (25.06122560143623, -18.778117859663308, 40.180464148599846)
C_SYM_001 = (26.850197485122603, -18.130584124145248)


def test_series_matches_high_precision_literals(cap_12):
    c11, c12, c22 = C_12_005
    assert cap_12.c11 == pytest.approx(c11, rel=1e-12)
    assert cap_12.c12 == pytest.approx(c12, rel=1e-12)
    assert cap_12.c21 == pytest.approx(c12, rel=1e-12)
    assert cap_12.c22 == pytest.approx(c22, rel=1e-12)


def test_series_matches_image_charges(cap_12, pair_12):
    oracle = image_charge_capacitance(pair_12, n_reflections=500)
    assert cap_12.c11 == pytest.approx(oracle.c11, rel=1e-10)
    assert cap_12.c12 == pytest.approx(oracle.c12, rel=1e-10)
    assert cap_12.c22 == pytest.approx(oracle.c22, rel=1e-10)


def test_symmetric_entry_point_agrees_with_general_series():
    # equal radii go through the general series; its diagonal sums coincide
    c_sym = capacitance_exact(frame_from_pair(ResonatorPair(1.0, 1.0, 0.01)))
    c_gen = capacitance_exact(frame_from_pair(ResonatorPair(1.0, 1.0, 0.01)))
    assert c_sym.c11 == pytest.approx(c_gen.c11, rel=1e-12)
    assert c_sym.c12 == pytest.approx(c_gen.c12, rel=1e-12)
    # identical spheres: the two diagonal series are the same sum
    assert c_sym.c11 == c_sym.c22
    assert c_sym.c11 == pytest.approx(C_SYM_001[0], rel=1e-12)
    assert c_sym.c12 == pytest.approx(C_SYM_001[1], rel=1e-12)


def test_isolated_sphere_limit():
    # a huge gap decouples the spheres: C_ii -> 4 pi r_i, C_12 -> 0
    c = capacitance_exact(frame_from_pair(ResonatorPair(1.0, 2.0, 1e3)))
    assert c.c11 == pytest.approx(4.0 * math.pi, rel=1e-3)
    assert c.c22 == pytest.approx(8.0 * math.pi, rel=1e-3)
    assert abs(c.c12) < 0.1 * c.c11


def test_truncation_tail_bound_is_honored(frame_12):
    loose = capacitance_exact(frame_12, tol=1e-6)
    tight = capacitance_exact(frame_12, tol=1e-14)
    assert loose.tail_bound <= 1e-6
    for name in ("c11", "c12", "c22"):
        assert abs(getattr(loose, name) - getattr(tight, name)) <= loose.tail_bound


def test_truncation_cap_raises(frame_12):
    with pytest.raises(TruncationCapError):
        capacitance_exact(frame_12, tol=1e-12, cap=3)


def test_rescale_divides_rows_by_volume(cap_12, pair_12):
    ct = rescale(cap_12, pair_12)
    assert ct.vol1 == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert ct.vol2 == pytest.approx(32.0 * math.pi / 3.0, rel=1e-15)
    assert ct.ct11 == pytest.approx(cap_12.c11 / ct.vol1, rel=1e-15)
    assert ct.ct12 == pytest.approx(cap_12.c12 / ct.vol1, rel=1e-15)
    assert ct.ct21 == pytest.approx(cap_12.c21 / ct.vol2, rel=1e-15)
    assert ct.ct22 == pytest.approx(cap_12.c22 / ct.vol2, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    r1=st.floats(min_value=0.2, max_value=5.0),
    r2=st.floats(min_value=0.2, max_value=5.0),
    eps=st.floats(min_value=1e-4, max_value=10.0),
)
def test_sign_pattern_and_dominance(r1, r2, eps):
    c = capacitance_exact(frame_from_pair(ResonatorPair(r1, r2, eps)), tol=1e-10)
    assert c.c11 > 0.0 and c.c22 > 0.0
    assert c.c12 < 0.0
    assert c.c12 == c.c21
    # rows are diagonally dominant: the grounded-conductor charge wins
    assert c.c11 + c.c12 > 0.0
    assert c.c22 + c.c21 > 0.0


def test_close_gap_asymptotics_settle():
    # rescaled entries approach the digamma closed form at root-eps rate
    errs = []
    for eps in (1e-3, 1e-5):
        pair = ResonatorPair(1.0, 2.0, eps)
        exact = rescale(capacitance_exact(frame_from_pair(pair), tol=1e-13), pair)
        asym = capacitance_asymptotic_rescaled(pair)
        errs.append(
            max(
                abs(asym.ct11 - exact.ct11),
                abs(asym.ct12 - exact.ct12),
                abs(asym.ct21 - exact.ct21),
                abs(asym.ct22 - exact.ct22),
            )
        )
    # two decades of eps should buy about one decade of error
    assert errs[1] < errs[0] * 10 ** (-1 + 0.3)


def test_asymptotic_rejects_wide_gap():
    with pytest.raises(ValueError):
        capacitance_asymptotic_rescaled(ResonatorPair(1.0, 1.0, 50.0))


def test_sigma_terms_match_diagonal_minus_offdiagonal():
    # sigma_i is the small-gap limit of ct_i1 + ct_i2, which stays bounded
    pair = ResonatorPair(1.0, 2.0, 1e-6)
    frame = frame_from_pair(pair)
    ct = rescale(capacitance_exact(frame, tol=1e-13), pair)
    st_ = sigma_terms(frame, pair)
    assert st_.sigma1 > 0.0 and st_.sigma2 > 0.0
    assert ct.ct11 + ct.ct12 == pytest.approx(st_.sigma1, rel=2e-2)
    assert ct.ct21 + ct.ct22 == pytest.approx(st_.sigma2, rel=2e-2)


def test_matrix_validation_rejects_bad_signs():
    from bisphere import CapacitanceMatrix

    with pytest.raises(ValueError):
        CapacitanceMatrix(c11=-1.0, c12=-0.5, c21=-0.5, c22=1.0, n_terms=1, tail_bound=0.0)
    with pytest.raises(ValueError):
        CapacitanceMatrix(c11=1.0, c12=0.5, c21=0.5, c22=1.0, n_terms=1, tail_bound=0.0)
    with pytest.raises(ValueError):
        # off-diagonal cannot outweigh the diagonal
        CapacitanceMatrix(c11=1.0, c12=-2.0, c21=-2.0, c22=1.0, n_terms=1, tail_bound=0.0)


def _closed_form_truncation(frame: BisphericalFrame, tol: float) -> tuple[int, float]:
    """n_terms and tail_bound of the certified geometric tail, from the formulas.

    Every term of every series is at most 8 pi alpha exp(-(2n+1) a) / (1 -
    exp(-s)) with a = min(xi1, xi2) and s = xi1 + xi2, so the tail from
    term n on is below 8 pi alpha exp(-(2n+1) a) / ((1 - exp(-s))(1 - exp(-2a))).
    """
    a = min(frame.xi1, frame.xi2)
    s = frame.xi1 + frame.xi2
    pref = 8.0 * math.pi * frame.alpha

    def tail(n):
        return pref * math.exp(-(2 * n + 1) * a) / (-math.expm1(-s) * -math.expm1(-2.0 * a))

    n = 0
    if tail(0) > tol:
        n = math.ceil(math.log(tail(0) / tol) / (2.0 * a)) + 1
    return n, tail(n)


@pytest.mark.parametrize(
    "radii, eps, tol",
    [
        # the ids name the chunk layouts of the tabulated n-series these
        # cases were written for
        pytest.param((1.0, 2.0), 0.05, 1e-12, id="one-chunk"),
        # 1.4e5 terms, and exp(-x xi1) underflows past n = 2 637
        pytest.param((1.0, 1e3), 0.01, 1e-12, id="several-chunks-r1e3"),
        # exp(-x xi1) underflows past n = 283 of 12 k terms
        pytest.param((1.0, 1e3), 1.0, 1e-14, id="underflow-r1e3"),
        # exp(-x xi2) past n = 3 777 of 7 k terms
        pytest.param((7.3, 0.2), 1e-3, 1e-14, id="underflow-r0.2"),
    ],
)
def test_series_equals_a_per_term_sum(radii, eps, tol):
    # the image sums against the n-series summed term by term, within both
    # truncation bounds and the rounding of a sum of up to 1.4e5 terms
    frame = frame_from_pair(ResonatorPair(*radii, eps))
    c = capacitance_exact(frame, tol=tol)
    n_terms, tail_bound = _closed_form_truncation(frame, tol)
    assert c.n_terms == n_terms
    ref = n_series_capacitance(frame, n_terms)
    assert ref.tail_bound == tail_bound
    for name in ("c11", "c12", "c22"):
        got, want = getattr(c, name), getattr(ref, name)
        assert abs(got - want) <= ref.tail_bound + c.tail_bound + 4e-15 * abs(want)
    assert c.c21 == c.c12


with mpmath.workdps(40):
    # Laurent coefficients of G0(w) = 1 / (2 sinh(w/2)) = sum_n a_n w^(2n-1),
    # a_n = (1 - 2^(2n-1)) B_2n / (2^(2n-1) (2n)!), convergent for |w| < 2 pi
    _G0_LAURENT = [(1 - mpmath.mpf(2) ** (2 * n - 1)) * mpmath.bernoulli(2 * n)
                   / (mpmath.mpf(2) ** (2 * n - 1) * mpmath.factorial(2 * n)) for n in range(30)]


def _g0_derivatives(w, top: int) -> list:
    """G0^(m)(w) for m = 0 ... top in mpmath: the Laurent series below w = 1,
    sum_n e^{-(n + 1/2) w} above."""
    if w < 1:
        powers = [w ** (2 * n - 1 - top) for n in range(len(_G0_LAURENT))]
        return [mpmath.fsum(a * math.prod(range(2 * n - 1, 2 * n - 1 - m, -1)) * p * w ** (top - m)
                            for n, (a, p) in enumerate(zip(_G0_LAURENT, powers)))
                for m in range(top + 1)]
    rates = [n + mpmath.mpf(0.5) for n in range(120)]
    exps = [mpmath.exp(-r * w) for r in rates]
    return [mpmath.fsum((-r) ** m * e for r, e in zip(rates, exps)) for m in range(top + 1)]


def _mp_image_sum(w0, h):
    """sum_{k>=0} G0(w0 + k h) to ~35 digits: 64 terms, then Euler-Maclaurin through B_20."""
    head = mpmath.fsum(1 / (2 * mpmath.sinh((w0 + k * h) / 2)) for k in range(64))
    w = w0 + 64 * h
    d = _g0_derivatives(w, 19)
    tail = -mpmath.log(mpmath.tanh(w / 4)) / h + d[0] / 2
    tail -= mpmath.fsum(mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * h ** (2 * j - 1)
                        * d[2 * j - 1] for j in range(1, 11))
    return head + tail


@pytest.mark.parametrize("h, w", [(1e-12, 32e-12), (1e-3, 0.033), (0.1, 3.3), (0.5, 0.9),
                                  (1.0, 32.0), (12.6, 406.0), (5.0, 1.0)])
def test_em_remainder_is_the_first_omitted_correction(h, w):
    # |B_10| / 10! h^9 |G0^(9)(w)| / G0(w) from the analytic derivatives above
    with mpmath.workdps(40):
        d = _g0_derivatives(mpmath.mpf(w), 9)
        want = abs(mpmath.bernoulli(10)) / mpmath.factorial(10) * mpmath.mpf(h) ** 9 * abs(d[9] / d[0])
    assert _em_remainder(h, w) == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("radii", [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0), (1.0, 1e3), (7.3, 0.2)])
def test_entries_within_the_tail_bound_of_an_mpmath_image_sum(radii):
    # |C - C_ref| <= tail_bound + a few ulps, C_ref the image sums of the
    # same frame in 40 digits, and tail_bound is 8 pi alpha |B_10| / 10! h^9
    # |G0^(9)| at the nearest tail start; the cap admits every gap
    worst = 0.0
    for eps in (1.0, 1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-15, 1e-20, 1e-25, 1e-30):
        frame = frame_from_pair(ResonatorPair(*radii, eps))
        c = capacitance_exact(frame, cap=10**40)
        with mpmath.workdps(40):
            xi1, xi2 = mpmath.mpf(frame.xi1), mpmath.mpf(frame.xi2)
            h = 2 * (xi1 + xi2)
            pref = 8 * mpmath.pi * mpmath.mpf(frame.alpha)
            refs = (pref * _mp_image_sum(2 * xi1, h), -pref * _mp_image_sum(h, h),
                    pref * _mp_image_sum(2 * xi2, h))
            # the first omitted correction at the nearest tail start, 2 min(xi) + 32 h
            d9 = _g0_derivatives(2 * min(xi1, xi2) + 32 * h, 9)[9]
            bound = pref * abs(mpmath.bernoulli(10)) / mpmath.factorial(10) * h**9 * abs(d9)
        assert c.tail_bound == pytest.approx(float(bound), rel=1e-12, abs=0.0)
        for got, want in zip((c.c11, c.c12, c.c22), refs):
            err = abs(got - float(want))
            assert err <= c.tail_bound + 4 * 2.0**-52 * abs(got), (eps, got, float(want))
            worst = max(worst, err / abs(got))
    assert worst <= 4 * 2.0**-52


@pytest.mark.parametrize("eps", [1e-60, 1e-100, 1e-300])
@pytest.mark.parametrize("radii", [(1.0, 1.0), (1.0, 2.0), (0.5, 3.0)])
def test_deep_gap_entries_follow_the_asymptotics(radii, eps):
    # the leading-order remainder is O(sqrt eps), far below rounding here, so
    # the rescaled entries and lambda2 must agree to a few ulps; the rate of
    # omega1 is not tested, it converges only like 1/|log eps|
    pair = ResonatorPair(*radii, eps)
    ct = rescale(capacitance_exact(frame_from_pair(pair), cap=10**200), pair)
    asym = capacitance_asymptotic_rescaled(pair)
    rel = 10.0 * math.sqrt(eps) + 4 * 2.0**-52
    for name in ("ct11", "ct12", "ct21", "ct22"):
        got, want = getattr(ct, name), getattr(asym, name)
        assert abs(got - want) <= rel * abs(want), name
    lam2, want = eigen(ct).lambda2, eigen(asym).lambda2
    assert abs(lam2 - want) <= rel * abs(want)


@pytest.mark.parametrize("eps", [1e-310, 1e-320, 5e-324])
def test_subnormal_gap_entries_raise_no_overflow(eps):
    # image arguments below ~1e-154 would overflow the kernel's derivative
    # rows; the sums form G alone, so nothing overflows or turns invalid
    pair = ResonatorPair(1.0, 2.0, eps)
    with np.errstate(over="raise", invalid="raise"):
        c = capacitance_exact(frame_from_pair(pair), cap=10**300)
    ct, asym = rescale(c, pair), capacitance_asymptotic_rescaled(pair)
    for name in ("ct11", "ct12", "ct21", "ct22"):
        got, want = getattr(ct, name), getattr(asym, name)
        assert abs(got - want) <= 4 * 2.0**-52 * abs(want), name


def test_a_tol_below_the_remainder_raises(frame_12):
    bound = capacitance_exact(frame_12).tail_bound
    assert 0.0 < bound < 1e-15
    with pytest.raises(ValueError, match=f"remainder {bound:.1e}"):
        capacitance_exact(frame_12, tol=1e-40)
