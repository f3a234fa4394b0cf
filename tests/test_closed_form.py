"""Closed-form family formulas against the exact oracle and each other."""

from fractions import Fraction

import pytest

from invkit import (
    PrismSpec,
    cycle,
    family_report,
    gutman,
    gutman_gn,
    kf_cycle,
    kf_gn,
    kf_grn,
    kf_star_gn,
    kirchhoff_index,
    prism_family,
    ratio_report,
    spanning_trees,
    tau_gn,
    tau_grn,
    wiener,
    wiener_gn,
    wiener_grn,
)


def test_kf_gn_values():
    assert kf_gn(3) == 5
    assert kf_gn(6) == Fraction(59, 2)
    assert kf_gn(11) == Fraction(451, 3)


def test_tau_gn_values():
    assert tau_gn(4) == 20736
    assert tau_gn(10) == 154793410560
    assert tau_gn(3) == 1296 == 6**4  # complete-graph count at the smallest member


def test_kf_star_gn_values():
    assert kf_star_gn(5) == Fraction(1375, 3)
    assert kf_star_gn(15) == 8875
    assert kf_star_gn(9) == 25 * kf_gn(9)


def test_kf_star_is_25_kf_for_all_n():
    assert all(kf_star_gn(n) == 25 * kf_gn(n) for n in range(3, 60))


def test_wiener_gn_values():
    assert wiener_gn(3) == 15
    assert wiener_gn(6) == 114 == wiener(prism_family(PrismSpec(6)))


def test_gutman_gn_value():
    assert gutman_gn(7) == 4375 == gutman(prism_family(PrismSpec(7)))


def test_kf_grn_reduces_at_r_zero():
    assert kf_grn(8, 0) == kf_gn(8) == Fraction(190, 3)
    assert tau_grn(8, 0) == tau_gn(8)
    assert wiener_grn(8, 0) == wiener_gn(8)


def test_tau_grn_against_exact_oracle():
    # 5 * 2^10 * 3^3; the exact matrix-tree count settles the constant
    expected = 138240
    assert tau_grn(5, 2) == expected
    assert spanning_trees(prism_family(PrismSpec(5, frozenset({1, 2})))) == expected
    assert spanning_trees(prism_family(PrismSpec(5, frozenset({2, 4})))) == expected


def test_kf_grn_against_exact_oracle():
    assert kf_grn(4, 4) == 13
    assert kirchhoff_index(prism_family(PrismSpec(4, frozenset({1, 2, 3, 4})))) == 13
    assert kf_grn(5, 2) == 20
    assert kirchhoff_index(prism_family(PrismSpec(5, frozenset({2, 4})))) == 20


def test_wiener_grn_against_exact_oracle():
    for n, r in [(5, 1), (6, 3), (7, 7)]:
        g = prism_family(PrismSpec(n, frozenset(range(1, r + 1))))
        assert wiener_grn(n, r) == wiener(g)


def test_kf_cycle_values():
    assert kf_cycle(3) == 2
    assert kf_cycle(5) == 10 == kirchhoff_index(cycle(5))
    assert kf_cycle(12) == 143 == kirchhoff_index(cycle(12))


def test_ratio_report_smallest_member():
    ratio, dev = ratio_report(3, 0)
    assert ratio == Fraction(1, 3)
    assert dev == Fraction(1, 6)


def test_ratio_report_converges():
    _, dev = ratio_report(1000, 0)
    assert dev < Fraction(1, 1000)
    _, dev_2000 = ratio_report(2000, 0)
    assert dev_2000 < dev


def test_tau_identity_in_r():
    """tau(n, r) * 3^r == tau(n, 0) * 2^r, exactly."""
    for n in range(3, 25):
        for r in range(n + 1):
            assert tau_grn(n, r) * 3**r == tau_gn(n) * 2**r


def test_kf_monotone_increasing_in_r():
    for n in (3, 9, 20):
        values = [kf_grn(n, r) for r in range(n + 1)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_tau_monotone_decreasing_in_r():
    for n in (3, 9, 20):
        values = [tau_grn(n, r) for r in range(n + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_family_report_fields():
    rep = family_report(6, 0)
    assert (rep.kf, rep.tau, rep.wiener) == (kf_gn(6), tau_gn(6), wiener_gn(6))
    assert rep.kf_star == kf_star_gn(6)
    assert rep.gutman == gutman_gn(6)
    assert rep.tau > 0 and rep.kf > 0

    rep_r = family_report(6, 2)
    assert rep_r.kf_star is None
    assert rep_r.gutman is None
    assert rep_r.kf == kf_grn(6, 2)


@pytest.mark.parametrize("fn", [kf_gn, tau_gn, kf_star_gn, wiener_gn, gutman_gn, kf_cycle])
def test_domain_guard_n(fn):
    with pytest.raises(ValueError):
        fn(2)


def test_domain_guard_r():
    with pytest.raises(ValueError):
        kf_grn(5, 6)
    with pytest.raises(ValueError):
        tau_grn(5, -1)
    with pytest.raises(ValueError):
        wiener_grn(2, 0)
