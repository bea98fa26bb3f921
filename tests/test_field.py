"""Tests for binary field contexts and element arithmetic."""

import pytest
from hypothesis import given, strategies as st

from charfield2 import bitpoly, field as gf
from charfield2.errors import DomainError, InvalidElementError, UnsupportedDegreeError

F4 = gf.FieldCtx(0b111)          # 1+x+x^2
F16 = gf.FieldCtx(0b10011)       # 1+x+x^4
F256 = gf.FieldCtx(0b100011011)  # 1+x+x^3+x^4+x^8

elems16 = st.integers(min_value=0, max_value=15)
elems256 = st.integers(min_value=0, max_value=255)


def test_ctx_construction_and_validation():
    assert F16.n == 4
    assert F16.order == 15
    assert F16.order_factors == (3, 5)
    with pytest.raises(DomainError):
        gf.FieldCtx(0)
    with pytest.raises(DomainError):
        gf.FieldCtx(1)
    with pytest.raises(DomainError):
        gf.FieldCtx(0b101)  # (1+x)^2 is reducible
    # the check can be bypassed for internal callers that already know
    assert gf.FieldCtx(0b101, check_irreducible=False).n == 2


def test_ctx_equality_and_repr():
    assert gf.FieldCtx(0b10011) == F16
    assert F16 != F4
    assert hash(gf.FieldCtx(0b10011)) == hash(F16)
    assert "1+x+x^4" in repr(F16)


def test_degree_cap_env(monkeypatch):
    monkeypatch.delenv("CHARFIELD2_MAX_N", raising=False)
    assert gf.max_degree() == 64
    with pytest.raises(UnsupportedDegreeError):
        gf.FieldCtx((1 << 65) | 3, check_irreducible=False)
    monkeypatch.setenv("CHARFIELD2_MAX_N", "100")
    assert gf.max_degree() == 100
    assert gf.FieldCtx((1 << 65) | 3, check_irreducible=False).n == 65
    monkeypatch.setenv("CHARFIELD2_MAX_N", "4")
    with pytest.raises(UnsupportedDegreeError):
        gf.FieldCtx(0b100101)
    for bad in ("bogus", "0", "-3"):
        monkeypatch.setenv("CHARFIELD2_MAX_N", bad)
        with pytest.raises(UnsupportedDegreeError, match=repr(bad)):
            gf.max_degree()


def test_validate_rejects_out_of_range():
    with pytest.raises(InvalidElementError):
        gf.validate(F16, -1)
    with pytest.raises(InvalidElementError):
        gf.validate(F16, 16)
    with pytest.raises(InvalidElementError):
        gf.validate(F16, "x")
    assert gf.validate(F16, 15) == 15


@given(elems256, elems256)
def test_mul_matches_naive_reduction(a, b):
    expected = bitpoly.poly_mod(bitpoly.poly_mul(a, b), F256.modulus)
    assert gf.poly_mul_mod(F256, a, b) == expected


@given(elems16, elems16, elems16)
def test_field_axioms(a, b, c):
    mul = lambda x, y: gf.poly_mul_mod(F16, x, y)
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    assert mul(a, 1) == a
    assert mul(a, 0) == 0


def test_inverse_round_trip():
    for a in range(1, 16):
        assert gf.poly_mul_mod(F16, a, gf.inverse(F16, a)) == 1
    with pytest.raises(DomainError):
        gf.inverse(F16, 0)


@given(elems256)
def test_square_and_frobenius(a):
    assert gf.square(F256, a) == gf.poly_mul_mod(F256, a, a)
    assert gf.frobenius(F256, a) == gf.square(F256, a)
    assert gf.frobenius(F256, a, F256.n) == a  # full orbit returns home
    assert gf.frobenius(F256, gf.frobenius(F256, a, 3), 5) == a


@given(elems256, elems256)
def test_frobenius_is_additive_and_multiplicative(a, b):
    fr = lambda x: gf.frobenius(F256, x)
    assert fr(a ^ b) == fr(a) ^ fr(b)
    assert fr(gf.poly_mul_mod(F256, a, b)) == gf.poly_mul_mod(F256, fr(a), fr(b))


def test_power_matches_repeated_mul():
    for a in range(16):
        acc = 1
        for e in range(20):
            assert gf.power(F16, a, e) == acc
            acc = gf.poly_mul_mod(F16, acc, a)


def test_trace_properties():
    # additive, Frobenius-invariant, and balanced across the field
    for a in range(256):
        assert gf.trace(F256, a) == gf.trace(F256, gf.square(F256, a))
    for a in range(16):
        for b in range(16):
            assert gf.trace(F16, a ^ b) == gf.trace(F16, a) ^ gf.trace(F16, b)
    assert sum(gf.trace(F256, a) for a in range(256)) == 128
    assert gf.trace(F16, 0) == 0


def test_multiplicative_order_divides_group_order():
    for a in range(1, 16):
        t = gf.multiplicative_order(F16, a)
        assert F16.order % t == 0
        assert gf.power(F16, a, t) == 1
        for p in (3, 5):
            if t % p == 0:
                assert gf.power(F16, a, t // p) != 1
    with pytest.raises(DomainError):
        gf.multiplicative_order(F16, 0)


def test_is_primitive_counts():
    # F_16 has phi(15) = 8 primitive elements; x itself is one of them
    assert gf.is_primitive(F16, 0b10)
    assert not gf.is_primitive(F16, 0)
    assert not gf.is_primitive(F16, 1)
    assert sum(gf.is_primitive(F16, a) for a in range(16)) == 8
    assert gf.is_primitive(F4, 0b10)


def test_is_cube_counts():
    # 3 | 15: cubes of F_16 are 0 plus the 5 fifth roots of unity
    cubes = {gf.power(F16, a, 3) for a in range(16)}
    assert {a for a in range(16) if gf.is_cube(F16, a)} == cubes
    assert len(cubes) == 6
    # 3 does not divide 2^3 - 1 = 7: everything is a cube in F_8
    f8 = gf.FieldCtx(0b1011)
    assert all(gf.is_cube(f8, a) for a in range(8))


def test_solve_artin_schreier_iff_trace_zero():
    for c in range(256):
        roots = gf.solve_artin_schreier(F256, c)
        if gf.trace(F256, c) == 0:
            assert len(roots) == 2
            assert roots[1] == roots[0] ^ 1  # the two preimages differ by 1
            for y in roots:
                assert gf.square(F256, y) ^ y == c
        else:
            assert roots == []


def test_elem_hex_round_trip():
    for a in range(16):
        s = gf.elem_to_hex(F16, a)
        assert len(s) == 2  # one byte for n=4
        assert gf.elem_parse(F16, s) == a
    assert gf.elem_to_hex(F256, 0xAB) == "ab"
    f1024 = gf.FieldCtx(bitpoly.min_irreducible(10))
    assert len(gf.elem_to_hex(f1024, 1)) == 4  # two bytes for n=10
    assert gf.elem_parse(F16, "x^3") == 8
    with pytest.raises(InvalidElementError):
        gf.elem_parse(F16, "x^4")
