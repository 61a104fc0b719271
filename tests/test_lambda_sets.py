import contextlib
import tracemalloc
from fractions import Fraction

import pytest

from carlesonlab import lambda_sets
from carlesonlab.lambda_sets import (
    CoverError,
    LambdaSet,
    _cantor_tail,
    cantor_set,
    certificate_to_json,
    cover,
    lambda_set_from_json,
    lambda_set_to_json,
    verify_certificate,
)


class TestCantorSet:
    def test_depth_one(self):
        c = cantor_set(2, 1)
        assert list(c.points) == [0, Fraction(1, 4)]

    def test_depth_two(self):
        c = cantor_set(2, 2)
        assert list(c.points) == [0, Fraction(1, 16), Fraction(1, 4),
                                  Fraction(5, 16)]

    def test_d3_depth_two(self):
        c = cantor_set(3, 2)
        assert len(c.points) == 4
        assert c.points[-1] == Fraction(1, 8) + Fraction(1, 512)

    @pytest.mark.parametrize("D,depth", [(2, 6), (3, 5), (4, 4)])
    def test_exact_cardinality(self, D, depth):
        c = cantor_set(D, depth)
        assert len(set(c.points)) == 2 ** depth

    def test_float_images_may_collide(self):
        # round-to-nearest floats cannot separate deep tail digits
        c = cantor_set(3, 5)
        assert len(set(c.floats.tolist())) < 2 ** 5

    def test_cap(self):
        with pytest.raises(ValueError):
            cantor_set(2, 25)
        with pytest.raises(ValueError):
            cantor_set(1, 3)

    @pytest.mark.parametrize("D,depth", [(4, 12), (3, 16)])
    def test_digit_cap_before_allocation(self, D, depth):
        # both pass POINT_CAP; their numerators would need GBs of digits
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="numerator bits"):
                cantor_set(D, depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestCover:
    def test_label_scale_cover_d2(self):
        # t = 2^-3: centers are the level-1 truncations {0, 1/4} with
        # denominator 4 <= 2 t^(-1/2); the exact radius exceeds t/2 by
        # the sub-leading tail, recorded via the achieved t
        c = cantor_set(2, 3)
        cert = cover(c, Fraction(1, 8))
        assert cert.N == 2
        assert sorted((iv.num, iv.den) for iv in cert.intervals) == [(0, 4), (1, 4)]
        assert cert.t_requested == Fraction(1, 8)
        assert cert.t == 2 * (Fraction(1, 16) + Fraction(1, 256))
        assert cert.max_denominator <= 2.0 * float(cert.t) ** -0.5

    def test_d3_deep_scale(self):
        c = cantor_set(3, 3)
        cert = cover(c, Fraction(2, 2 ** 27))
        assert cert.N == 4
        assert cert.max_denominator == 2 ** 9
        assert cert.max_denominator <= 2.0 * float(cert.t) ** (-1.0 / 3.0)

    def test_certificates_reverified_pointwise(self):
        for D, depth, t in [(2, 5, Fraction(1, 8)), (3, 4, Fraction(2, 2 ** 27)),
                            (2, 6, Fraction(1, 2 ** 7))]:
            c = cantor_set(D, depth)
            cert = cover(c, t)
            rep = verify_certificate(c, cert)
            assert rep["ok"], rep

    def test_explicit_singleton(self):
        e = LambdaSet(points=(Fraction(0),), provenance=("explicit",))
        cert = cover(e, Fraction(1, 100))
        assert cert.N == 1
        assert (cert.intervals[0].num, cert.intervals[0].den) == (0, 1)

    def test_explicit_uncoverable_reports_witness(self):
        # an irrational-looking point cannot be approximated to 1e-9 by
        # denominators <= 3
        p = Fraction(7071067811865476, 10 ** 16)
        e = LambdaSet(points=(p,), provenance=("explicit",))
        with pytest.raises(CoverError) as exc:
            cover(e, Fraction(1, 10 ** 9), den_cap=3)
        assert "0.7071" in str(exc.value)

    def test_t_validation(self):
        c = cantor_set(2, 3)
        with pytest.raises(ValueError):
            cover(c, Fraction(3, 2))

    def test_between_label_scales(self):
        # a request between label scales snaps down a level; the achieved
        # interval length is then well below the request and the
        # denominator bound holds against it
        c = cantor_set(2, 6)
        cert = cover(c, Fraction(1, 10))
        assert cert.N == 4
        assert cert.max_denominator == 16
        assert float(cert.t) < 0.1
        assert 2 * cert.intervals[0].half_width <= Fraction(1, 10)
        assert cert.max_denominator <= 2.0 * float(cert.t) ** -0.5
        assert verify_certificate(c, cert)["ok"]

    @pytest.mark.parametrize("D", [2, 3, 4])
    def test_level_is_the_first_label_at_or_below_t(self, D, monkeypatch):
        # the level n is the first n whose label scale 2^(1 - D^(n+1)) is
        # <= t, stepping up from 1 and stopping at depth; the cover reads
        # its radius at that level, also where its certificate then fails
        def stepped_level(depth, t):
            n = 1
            while Fraction(1, 2 ** (D ** (n + 1) - 1)) > t:
                n += 1
                if n > depth:
                    break
            return min(n, depth)

        levels = []

        def tail(D, depth, n):
            levels.append(n)
            return _cantor_tail(D, depth, n)

        monkeypatch.setattr(lambda_sets, "_cantor_tail", tail)
        for depth in range(1, 6):
            c = cantor_set(D, depth)
            for e in range(1, 40):
                for t in (Fraction(1, 2 ** e), Fraction(3, 2 ** (e + 2)),
                          Fraction(2, 3 * 2 ** e)):
                    del levels[:]
                    with contextlib.suppress(CoverError):
                        cover(c, t)
                    assert levels == [stepped_level(depth, t)], (depth, t)

    def test_count_grows_as_t_shrinks(self):
        c = cantor_set(2, 6)
        counts = [cover(c, Fraction(2, 2 ** (2 ** (n + 1)))).N
                  for n in range(1, 5)]
        assert counts == sorted(counts)


class TestFileFormats:
    def test_roundtrip_exact(self):
        c = cantor_set(2, 4)
        back = lambda_set_from_json(lambda_set_to_json(c))
        assert tuple(back.points) == tuple(c.points)

    def test_decimal_strings_exact(self):
        js = lambda_set_to_json(cantor_set(2, 2))
        assert js == '["0", "0.0625", "0.25", "0.3125"]'

    def test_certificate_json_fields(self):
        cert = cover(cantor_set(2, 3), Fraction(1, 8))
        import json
        obj = json.loads(certificate_to_json(cert))
        assert set(obj) == {"t", "t_requested", "N", "C_lambda", "d", "intervals"}
        assert obj["N"] == 2
        assert set(obj["intervals"][0]) == {"num", "den", "center", "half_width"}
