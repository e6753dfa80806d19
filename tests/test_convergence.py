"""Certified convergence in the three topologies."""

from fractions import Fraction as F

import pytest

from kappalab import (
    ConvergenceCertificate,
    DoubleArrowPoint,
    MalformedWitnessError,
    NiemytzkiPoint,
    ParamValue,
    SorgenfreyPoint,
    basic_member,
    verify_convergence,
)
from kappalab.rosets import tail_positive
from kappalab.sampling import (
    SEQUENCE_LENGTH,
    double_arrow_certificate,
    niemytzki_axis_certificate,
    niemytzki_interior_certificate,
    sorgenfrey_certificate,
)


def test_niemytzki_axis_sequence():
    # (1/(3n), 1/(6n)) -> (0,0); membership in B*(0,1/n) is 29/36 < 1 scaled
    cert = ConvergenceCertificate(
        NiemytzkiPoint(F(0), F(0)),
        (ParamValue(0, F(1, 3)), ParamValue(0, F(1, 6))),
        ParamValue(0, 1),
    )
    assert verify_convergence(cert)
    # the defining inequality, exactly
    assert F(1, 9) + F(25, 36) == F(29, 36) < 1


def test_sorgenfrey_right_approach():
    x = F(3, 7)
    cert = ConvergenceCertificate(SorgenfreyPoint(x), (ParamValue(x, 1),), ParamValue(0, 2))
    assert verify_convergence(cert)


def test_sorgenfrey_left_approach_fails():
    x = F(1)
    cert = ConvergenceCertificate(SorgenfreyPoint(x), (ParamValue(x, -1),), ParamValue(0, 2))
    assert not verify_convergence(cert)


def test_malformed_witness_shapes():
    limit = NiemytzkiPoint(F(0), F(0))
    seq = (ParamValue(0), ParamValue(0, F(1, 8)))
    # witnesses that do not shrink, or that grow, are malformed
    for size in (ParamValue(0, 0), ParamValue(0, -1), ParamValue(F(1, 2))):
        with pytest.raises(MalformedWitnessError):
            verify_convergence(ConvergenceCertificate(limit, seq, size))
    # so is a first witness that is no base set: a tangent disc of radius 2
    with pytest.raises(MalformedWitnessError):
        verify_convergence(ConvergenceCertificate(limit, seq, ParamValue(0, 2)))
    # the sequence and the size share one shift, and the coordinates fit the space
    with pytest.raises(ValueError):
        ConvergenceCertificate(limit, seq, ParamValue(0, 1, 0, 1))
    with pytest.raises(ValueError):
        ConvergenceCertificate(limit, seq[:1], ParamValue(0, 1))


def test_double_arrow_left_and_right_approaches():
    left = double_arrow_certificate(F(1, 2), 0, F(1, 8))
    right = double_arrow_certificate(F(1, 2), 1, F(1, 8))
    assert verify_convergence(left)
    assert verify_convergence(right)
    # strictly inside the interval the side of the points does not matter
    twin = ConvergenceCertificate(left.limit, left.sequence, left.size, side=0)
    assert verify_convergence(twin)
    # approaching (1/2, 0) from the right never enters its left intervals
    wrong = ConvergenceCertificate(left.limit, right.sequence, left.size, side=0)
    assert not verify_convergence(wrong)


def test_double_arrow_isolated_extremes():
    low = DoubleArrowPoint(F(0), 0)
    fixed = ConvergenceCertificate(low, (ParamValue(0),), ParamValue(0, 1))
    assert verify_convergence(fixed)
    assert not verify_convergence(ConvergenceCertificate(low, (ParamValue(0),), ParamValue(0, 1), side=1))
    assert not verify_convergence(ConvergenceCertificate(low, (ParamValue(0, F(1, 4)),), ParamValue(0, 1), side=1))


def test_generator_certificates_verify():
    assert verify_convergence(sorgenfrey_certificate(F(-1, 3), F(1, 5)))
    assert verify_convergence(niemytzki_axis_certificate(F(1, 2), F(1, 40), F(1, 8)))
    assert verify_convergence(niemytzki_interior_certificate(F(0), F(1), F(1, 8)))


def test_tail_property_against_witness_family():
    """A verified certificate's tails really sit inside every witness."""
    certs = [
        niemytzki_axis_certificate(F(0), F(1, 20), F(1, 8)),
        niemytzki_interior_certificate(F(1, 2), F(1), F(1, 8)),
        sorgenfrey_certificate(F(1, 3), F(1, 7)),
        double_arrow_certificate(F(1, 2), 0, F(1, 16)),
        double_arrow_certificate(F(1, 2), 1, F(1, 16)),
    ]
    for cert in certs:
        assert verify_convergence(cert)
        for n in range(1, 25):
            w = cert.witness(n)
            assert basic_member(w, cert.limit)
            assert all(basic_member(w, cert.point(m)) for m in range(n, 49))


def test_generator_points_follow_their_formulas():
    # condition 3 reads these points: (a + slope*y0/n^2, y0/n^2), exactly
    cert = niemytzki_axis_certificate(F(1, 2), F(1, 40), F(1, 8))
    for n in (1, 100, SEQUENCE_LENGTH):
        y = F(1, 8) / (n * n)
        assert cert.point(n) == NiemytzkiPoint(F(1, 2) + F(1, 40) * y, y)


def test_constant_sequence_with_non_vanishing_witnesses_is_rejected():
    # 1/2 stays in [0, 1/2 + 1/(n+1)) for every n, but does not converge to 0
    cert = ConvergenceCertificate(
        SorgenfreyPoint(F(0)), (ParamValue(F(1, 2), 0, 0, 1),), ParamValue(F(1, 2), 1, 0, 1)
    )
    assert all(basic_member(cert.witness(n), cert.point(n)) for n in range(1, 200))
    with pytest.raises(MalformedWitnessError):
        verify_convergence(cert)


def test_size_with_nonzero_constant_term_is_rejected():
    # shrinking strictly to 1/1000 instead of 0: the witnesses form no
    # neighborhood base, even though the sequence sits at the limit
    limit = NiemytzkiPoint(F(0), F(1))
    cert = ConvergenceCertificate(limit, (ParamValue(0), ParamValue(1)), ParamValue(F(1, 1000), F(1, 2)))
    with pytest.raises(MalformedWitnessError):
        verify_convergence(cert)
    # the sequence's constant term must be the limit itself
    drift = ConvergenceCertificate(limit, (ParamValue(F(1, 10**6)), ParamValue(1)), ParamValue(0, F(1, 2)))
    assert not verify_convergence(drift)


def test_trajectory_leaving_after_n_128_is_caught_by_the_sign_test():
    # x_n - x = t (1001/1000 - t/5) against s_n = t, t = 1/n: inside exactly
    # while t > 1/200, so the points leave their witness from n = 200 on
    x = F(1, 3)
    cert = ConvergenceCertificate(
        SorgenfreyPoint(x), (ParamValue(x, F(1001, 1000), F(-1, 5)),), ParamValue(0, 1)
    )
    assert all(basic_member(cert.witness(n), cert.point(n)) for n in range(1, SEQUENCE_LENGTH + 1))
    assert basic_member(cert.witness(199), cert.point(199))
    assert not basic_member(cert.witness(200), cert.point(200))
    assert not verify_convergence(cert)


def test_sign_test_reads_ends_and_vertex():
    # (t - 1/400)(t - 1/300) is positive at t = 0 and t = 1 but not between
    a, b = F(1, 400), F(1, 300)
    dip = (a * b, -(a + b), 1)
    assert not tail_positive(dip, 0)
    # with the vertex beyond the interval only the ends count
    assert tail_positive(dip, 1000)
    # zero constant terms divide out: t^2 > 0 on t > 0, t^2 - t is not
    assert tail_positive((0, 0, 1), 0)
    assert not tail_positive((0, -1, 1), 0)
    # the identically zero polynomial is >= 0 but not > 0
    assert tail_positive((0, 0, 0), 0, strict=False)
    assert not tail_positive((0, 0, 0), 0)
    # binary64 coefficients go through lt/le
    assert tail_positive((0.0, 0.5, -0.25), 0)
    assert not tail_positive((1e-12, -1.0), 0)
