import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisphere import (
    BisphericalFrame,
    ResonatorPair,
    TruncationCapError,
    capacitance_asymptotic_rescaled,
    capacitance_exact,
    frame_from_pair,
    image_charge_capacitance,
    rescale,
    sigma_terms,
)
from bisphere.capacitance import _CHUNK

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


def _tol_for_terms(frame: BisphericalFrame, n_terms: int) -> float:
    """A tolerance whose certified truncation keeps exactly n_terms terms."""
    a = min(frame.xi1, frame.xi2)
    _, tail0 = _closed_form_truncation(frame, math.inf)
    tol = tail0 * math.exp(-2.0 * a * (n_terms - 1.5))
    assert _closed_form_truncation(frame, tol)[0] == n_terms
    return tol


def _plain_series(frame: BisphericalFrame, n_terms: int) -> tuple[float, float, float]:
    """C11, C12, C22 from a per-term loop over the first n_terms terms."""
    xi1, xi2 = frame.xi1, frame.xi2
    s = xi1 + xi2
    s11, s22, s12 = [], [], []
    for n in range(n_terms):
        x = 2 * n + 1
        denom = -math.expm1(-x * s)
        s11.append(math.exp(-x * xi1) / denom)
        s22.append(math.exp(-x * xi2) / denom)
        s12.append(math.exp(-x * s) / denom)
    pref = 8.0 * math.pi * frame.alpha
    return pref * math.fsum(s11), -pref * math.fsum(s12), pref * math.fsum(s22)


@pytest.mark.parametrize(
    "radii, eps, tol, n_terms",
    [
        pytest.param((1.0, 2.0), 0.05, 1e-12, None, id="one-chunk"),
        # several chunks, and exp(-2j xi1) underflows in every one of them
        pytest.param((1.0, 1e3), 0.01, 1e-12, None, id="several-chunks-r1e3"),
        # the tables underflow: exp(-2j xi1) past j = 283 of 12 k terms
        pytest.param((1.0, 1e3), 1.0, 1e-14, None, id="underflow-r1e3"),
        # exp(-2j xi2) past j = 3 772 of 7 k terms
        pytest.param((7.3, 0.2), 1e-3, 1e-14, None, id="underflow-r0.2"),
        # a last chunk of one term, a series that ends on a chunk boundary,
        # and one that ends a term short of it
        pytest.param((1.0, 2.0), 1e-6, None, _CHUNK + 1, id="chunk-plus-one"),
        pytest.param((1.0, 2.0), 1e-6, None, 2 * _CHUNK, id="two-full-chunks"),
        pytest.param((0.5, 3.0), 1e-7, None, 3 * _CHUNK - 1, id="three-chunks-less-one"),
    ],
)
def test_series_equals_a_per_term_sum(radii, eps, tol, n_terms):
    frame = frame_from_pair(ResonatorPair(*radii, eps))
    if tol is None:
        tol = _tol_for_terms(frame, n_terms)
    c = capacitance_exact(frame, tol=tol)
    n_terms, tail_bound = _closed_form_truncation(frame, tol)
    assert c.n_terms == n_terms
    assert c.tail_bound == tail_bound
    c11, c12, c22 = _plain_series(frame, n_terms)
    assert c.c11 == pytest.approx(c11, rel=4e-15)
    assert c.c12 == pytest.approx(c12, rel=4e-15)
    assert c.c21 == c.c12
    assert c.c22 == pytest.approx(c22, rel=4e-15)
