import itertools
import math
import random

import pytest

from llclab.errors import InsufficientPrecision, ZeroInput
from llclab import laurent
from llclab.laurent import (
    DEFAULT_REL_PREC,
    LocalField,
    add_t,
    addmul_t,
    cancel_t,
    coeff_at_t,
    det_t,
    digits_t,
    dot_t,
    inverse_t,
    minors_t,
    mul_t,
    neg_t,
    truncate_t,
    wrap,
)
from llclab.matrices import wrap_matrix

from test_matrices import coeff_at, shift, truncate


# dict-based polynomial arithmetic, written independently of the series
# class, used as the oracle for exact products and the small norm forms
def d_of(x):
    return {x.val + i: c for i, c in enumerate(x.coeffs) if c}


def d_add(ff, A, B):
    out = dict(A)
    for e, c in B.items():
        out[e] = ff.add(out.get(e, 0), c)
    return {e: c for e, c in out.items() if c}


def d_mul(ff, A, B):
    out = {}
    for e1, c1 in A.items():
        for e2, c2 in B.items():
            e = e1 + e2
            out[e] = ff.add(out.get(e, 0), ff.mul(c1, c2))
    return {e: c for e, c in out.items() if c}


def from_base(E, x):
    """Image of a base-field element in the extension E: t = u0^-1 u^n."""
    ff, n = E.residue, E.degree
    terms = {n * k: ff.mul(c, ff.pow(E.pi_unit, -k)) for k, c in enumerate(x.coeffs, x.val) if c}
    return E._from_dict(terms, None if x.prec is None else n * x.prec)


def integer_reps(F, lo, hi):
    """All truncated series supported on exponents lo <= e < hi."""
    if hi < lo:
        raise ValueError("empty exponent window")
    return [F.elem(lo, digits) for digits in itertools.product(range(F.residue.q), repeat=hi - lo)]


def unit_reps(F, m):
    """Representatives of the unit group modulo one-units of depth m: the
    leading digit first, then the m - 1 lower digits, the last one running
    fastest."""
    ff = F.residue
    return [F.elem(0, (c0,) + tail)
            for c0 in ff.units() for tail in itertools.product(range(ff.q), repeat=m - 1)]


def random_exact(rng, field, min_val=-3, max_len=6):
    val = rng.randrange(min_val, 4)
    length = rng.randrange(1, max_len + 1)
    coeffs = [rng.randrange(field.residue.q) for _ in range(length)]
    return field.elem(val, coeffs)


def test_exact_ring_ops_match_dict_oracle():
    rng = random.Random(9157)
    for q in (3, 5, 9):
        F = LocalField.base_field(q)
        ff = F.residue
        for _ in range(40):
            x = random_exact(rng, F)
            y = random_exact(rng, F)
            minus_y = d_of(wrap(F, neg_t(ff, _t(y))))
            assert d_of(wrap(F, mul_t(ff, _t(x), _t(y)))) == d_mul(ff, d_of(x), d_of(y))
            assert d_of(wrap(F, add_t(ff, _t(x), _t(y)))) == d_add(ff, d_of(x), d_of(y))
            assert d_of(wrap(F, add_t(ff, _t(x), _t(y), ff._neg))) == d_add(ff, d_of(x), minus_y)


INF = float("inf")


def o_prec(x):
    return INF if x.prec is None else x.prec


def o_val_bound(x):
    d = d_of(x)
    return min(d) if d else o_prec(x)


def o_result(terms, prec):
    """Oracle terms cut at prec, and prec in the series' None-for-exact form."""
    cut = {e: c for e, c in terms.items() if e < prec}
    return cut, (None if prec == INF else prec)


def o_add(ff, x, y):
    return o_result(d_add(ff, d_of(x), d_of(y)), min(o_prec(x), o_prec(y)))


def o_sub(ff, x, y):
    neg_y = {e: ff.neg(c) for e, c in d_of(y).items()}
    return o_result(d_add(ff, d_of(x), neg_y), min(o_prec(x), o_prec(y)))


def o_mul(ff, x, y):
    # an unknown tail O(var^p) times a factor of valuation >= v is O(var^(p+v))
    prec = min(o_prec(x) + o_val_bound(y), o_prec(y) + o_val_bound(x))
    return o_result(d_mul(ff, d_of(x), d_of(y)), prec)


def random_series(rng, field):
    """Exact or truncated, possibly zero at its precision, negative
    valuations included, with zeros sprinkled inside."""
    q = field.residue.q
    val = rng.randrange(-5, 4)
    coeffs = [rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(rng.randrange(7))]
    kind = rng.randrange(4)
    if kind == 0:
        return field.elem(val, coeffs)
    if kind == 1:
        return field.zero(val + rng.randrange(-2, 4))
    return field.elem(val, coeffs, val + rng.randrange(-2, 9))


def oracle_fields():
    for q in (3, 5, 9):
        yield LocalField.base_field(q)
    yield LocalField.base_field(5).extension(3, 2)
    yield LocalField.base_field(9).extension(2, 7)


def test_ring_ops_with_precision_match_dict_oracle():
    rng = random.Random(2718)
    seen = {"finite_both": 0, "finite_one": 0, "zero_at_prec": 0, "negative_val": 0}
    for F in oracle_fields():
        ff = F.residue
        for _ in range(300):
            x = random_series(rng, F)
            y = random_series(rng, F)
            for got, (terms, prec) in (
                (add_t(ff, _t(x), _t(y)), o_add(ff, x, y)),
                (add_t(ff, _t(x), _t(y), ff._neg), o_sub(ff, x, y)),
                (mul_t(ff, _t(x), _t(y)), o_mul(ff, x, y)),
            ):
                got = wrap(F, got)
                assert (d_of(got), got.prec) == (terms, prec), (x, y, got)
                # the stored form is normalized: no zero at either end
                assert not got.coeffs or (got.coeffs[0] and got.coeffs[-1])
            finite = (x.prec is not None) + (y.prec is not None)
            seen["finite_both"] += finite == 2
            seen["finite_one"] += finite == 1
            seen["zero_at_prec"] += any(z.prec is not None and not z.coeffs for z in (x, y))
            seen["negative_val"] += any(z.coeffs and z.val < 0 for z in (x, y))
    assert min(seen.values()) >= 100, seen


def test_inverse_times_self_is_one_at_the_product_precision():
    rng = random.Random(3141)
    for F in oracle_fields():
        for _ in range(60):
            x = random_series(rng, F)
            if not x.coeffs:
                continue
            prod = x * x.inverse()
            # every digit the product claims to know is that of 1
            assert d_of(prod) == {0: 1}, (x, prod)
            if x.prec is not None:
                assert prod.prec == x.prec - x.val
            elif len(x.coeffs) > 1:
                assert prod.prec == DEFAULT_REL_PREC
            else:
                assert prod.prec is None


def test_normalization_strips_zeros():
    F = LocalField.base_field(5)
    x = F.elem(2, (0, 0, 3, 0, 1, 0, 0))
    assert x.val == 4 and x.coeffs == (3, 0, 1)
    z = F.elem(7, ())
    assert not z.coeffs and z.is_exact_zero()


def test_digits_t_matches_the_constructor():
    # every digit string of length 0..3 over F_3, zeros at either end
    # included, from three starting exponents
    F = LocalField.base_field(3)
    for lo in (-1, 0, 2):
        for k in range(4):
            for digits in itertools.product(range(3), repeat=k):
                x = F.elem(lo, digits)
                assert digits_t(lo, list(digits)) == (x.val, x.coeffs, x.prec)


def test_precision_of_products():
    F = LocalField.base_field(3)
    a = F.elem(0, (1,), 2)       # 1 + O(t^2)
    b = F.elem(3, (1,))
    assert (a * b).prec == 5 and (a * b).val == 3
    c = F.elem(-1, (1,), 0)      # t^-1 + O(1)
    d = F.elem(1, (1,), 3)       # t + O(t^3)
    prod = c * d
    assert prod.prec == 1
    assert coeff_at(prod, 0) == 1
    with pytest.raises(InsufficientPrecision):
        coeff_at(prod, 1)


def test_zero_at_precision_products():
    F = LocalField.base_field(3)
    a = F.zero(2)
    b = F.zero(3)
    assert (a * b).prec == 5
    assert not (a * b).coeffs
    # exact zero annihilates regardless of the other factor's precision
    assert (F.zero() * F.elem(0, (1,), 1)).is_exact_zero()


def test_leading_and_coeff_errors():
    F = LocalField.base_field(5)
    with pytest.raises(ZeroInput):
        F.zero().leading()
    with pytest.raises(InsufficientPrecision):
        F.zero(4).leading()
    x = F.elem(0, (1, 2), 3)
    assert coeff_at(x, 2) == 0
    with pytest.raises(InsufficientPrecision):
        coeff_at(x, 3)


def test_inverse_of_one_plus_t():
    F = LocalField.base_field(5)
    x = F.elem(0, (1, 1))
    inv = truncate(x.inverse(), 10)
    # alternating geometric series
    for k in range(10):
        assert coeff_at(inv, k) == (1 if k % 2 == 0 else 4)
    prod = x * inv
    assert coeff_at(prod, 0) == 1
    assert all(coeff_at(prod, k) == 0 for k in range(1, 9))


def test_inverse_of_exact_monomial_is_exact():
    F = LocalField.base_field(7)
    x = F.elem(3, (2,))
    inv = x.inverse()
    assert inv.prec is None and inv.val == -3
    assert (x * inv) == F.one()


def test_truncate():
    assert truncate_t((0, (1, 2, 1, 2), None), 2) == (0, (1, 2), 2)


def _triple_grid():
    # exact and finite precision, zeros exact and at precision, negative
    # and positive val, zero digits inside, a last digit at the cut
    for val in (-3, -1, 0, 2):
        for coeffs in ((), (4,), (1, 0, 3), (2, 0, 0, 1)):
            for prec in (None, val - 1, val, val + 1, val + 3, val + 6):
                x = LocalField.base_field(5).elem(val, coeffs, prec)
                yield x, (x.val, x.coeffs, x.prec)


def test_truncate_t_matches_constructor_cut():
    F = LocalField.base_field(5)
    seen = 0
    for x, t in _triple_grid():
        for N in range(t[0] - 2, t[0] + 6):
            cut = N if x.prec is None else min(x.prec, N)
            # the constructor normalizes on its own: the oracle
            expect = F.elem(x.val, x.coeffs, cut)
            assert truncate_t(t, N) == (expect.val, expect.coeffs, expect.prec), (t, N)
            seen += 1
    assert seen > 500


def test_truncate_t_normal_form_of_zero():
    # a zero known to t^p comes back as (0, (), p), whatever val it had
    assert truncate_t((3, (), 5), 7) == (0, (), 5)
    assert truncate_t((3, (), None), 7) == (0, (), 7)
    assert truncate_t((-2, (), 9), 4) == (0, (), 4)
    assert truncate_t((3, (2, 1), None), 2) == (0, (), 2)
    assert truncate_t((3, (2, 1), 4), 3) == (0, (), 3)
    assert truncate_t((0, (1, 0, 2), None), 2) == (0, (1,), 2)


def test_coeff_at_t_matches_digits_and_precision():
    seen = 0
    for x, t in _triple_grid():
        digits = d_of(x)
        for k in range(x.val - 3, x.val + 9):
            if x.prec is not None and k >= x.prec:
                with pytest.raises(InsufficientPrecision):
                    coeff_at_t(t, k, "t")
            else:
                assert coeff_at_t(t, k, "t") == digits.get(k, 0)
            seen += 1
    assert seen > 500


def _as_triple(terms, prec):
    """The normalized (val, coeffs, prec) of the oracle's terms."""
    if not terms:
        return (0, (), prec)
    lo, hi = min(terms), max(terms)
    return (lo, tuple(terms.get(e, 0) for e in range(lo, hi + 1)), prec)


def _kernel_operand(rng, F, length, val):
    """Exactly length stored digits from val, nonzero at both ends; exact,
    or known one to three digits past the last."""
    q = F.residue.q
    coeffs = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(length - 2)]
    if length > 1:
        coeffs.append(rng.randrange(1, q))
    prec = None if rng.random() < 0.5 else val + length + rng.randrange(3)
    x = F.elem(val, coeffs[:length], prec)
    assert len(x.coeffs) == length
    return x


def _t(x):
    return (x.val, x.coeffs, x.prec)


def o_addmul(ff, z, x, y):
    terms, prec = o_mul(ff, x, y)
    prec = min(o_prec(z), INF if prec is None else prec)
    return o_result(d_add(ff, d_of(z), terms), prec)


def o_dot(ff, xs, ys):
    terms, prec = {}, INF
    for x, y in zip(xs, ys):
        t, p = o_mul(ff, x, y)
        terms = d_add(ff, terms, t)
        prec = min(prec, INF if p is None else p)
    return o_result(terms, prec)


@pytest.mark.parametrize("q", [3, 9, 25])
def test_product_kernels_match_dict_oracle_in_both_orders(q):
    # every pair of lengths 0..18 in both orders, so each kernel runs with
    # either factor the shorter one; z starts below c*y, and its precision,
    # or another product's, cuts the sum inside the shorter factor; a zero
    # known only below a precision cuts it without a visible product; and
    # z + c*y with c = -z * y^-1 cancels to cancel_t's zero
    rng = random.Random(5050 + q)
    F = LocalField.base_field(q)
    ff = F.residue
    seen = dict.fromkeys(
        ("start", "cut_in_shorter", "dot_cut_in_shorter", "exact", "zero_at_prec",
         "cancel_exact", "cancel_truncated"), 0
    )
    for la in range(19):
        for lb in range(19):
            x = _kernel_operand(rng, F, la, rng.randrange(-3, 3))
            y = _kernel_operand(rng, F, lb, rng.randrange(-3, 3))
            lo, short = x.val + y.val, min(la, lb)
            assert mul_t(ff, _t(x), _t(y)) == _as_triple(*o_mul(ff, x, y)), (x, y)
            seen["exact"] += x.prec is None and y.prec is None

            z = _kernel_operand(rng, F, rng.randrange(1, 6), lo - rng.randrange(1, 4))
            zp = lo + rng.randrange(short + 1) if rng.random() < 0.7 else None
            z = truncate(z, zp) if zp is not None else z
            got = addmul_t(ff, _t(z), _t(x), _t(y))
            assert got == _as_triple(*o_addmul(ff, z, x, y)), (z, x, y)
            seen["start"] += bool(la and lb and z.coeffs and z.val < lo)
            seen["cut_in_shorter"] += bool(
                short > 1 and z.prec is not None and z.prec - lo < short
            )

            zero = F.zero(lo + rng.randrange(-2, short + 2))
            for c, y2 in ((zero, y), (x, zero)):
                assert mul_t(ff, _t(c), _t(y2)) == _as_triple(*o_mul(ff, c, y2)), (c, y2)
                got = addmul_t(ff, _t(z), _t(c), _t(y2))
                assert got == _as_triple(*o_addmul(ff, z, c, y2)), (z, c, y2)
                seen["zero_at_prec"] += 1

            # z as drawn and its digits taken as exact
            for z2 in (z, F.elem(z.val, z.coeffs)) if y.coeffs else ():
                c = neg_t(ff, mul_t(ff, _t(z2), inverse_t(ff, _t(y), F.var)))
                want = addmul_t(ff, _t(z2), c, _t(y))
                assert not want[1] and cancel_t(_t(z2), c, _t(y)) == want, (z2, y)
                exact = z2.prec is None and y.prec is None
                seen["cancel_exact" if exact else "cancel_truncated"] += 1

            # a third product of low precision cuts the sum the same way
            w = F.elem(lo, (1,), lo + rng.randrange(short + 1))
            xs = [_t(x), _t(z), _t(F.one())]
            ys = [_t(y), _t(F.variable()), _t(w)]
            want = o_dot(ff, [x, z, F.one()], [y, F.variable(), w])
            assert dot_t(ff, xs, ys) == _as_triple(*want), (x, y, z, w)
            assert dot_t(ff, ys, xs) == _as_triple(*want)
            seen["dot_cut_in_shorter"] += bool(short > 1 and want[1] - lo < short)
    assert min(seen.values()) >= 40, seen


# The kernels' fast paths against oracles that share no code with them:
# o_mul and o_dot only convolve, on dicts, whatever the factors' lengths,
# and backward_inverse sums the one-unit recurrence digit by digit.

KERNEL_QS = (3, 5, 9, 25, 27)


def backward_inverse(ff, x):
    """inverse_t's result by the recurrence b_0 = 1, b_k = -sum_{j>=1}
    w_j b_{k-j}, each digit summed from the ones before it, for x with a
    visible digit."""
    v, cs, p = x
    inv0 = ff.inv(cs[0])
    if len(cs) == 1 and p is None:
        return (-v, (inv0,), None)
    rel = p - v if p is not None else DEFAULT_REL_PREC
    w = [ff.mul(inv0, c) for c in cs[:rel]]
    b = [1]
    for k in range(1, rel):
        acc = 0
        for j in range(1, min(k, len(w) - 1) + 1):
            acc = ff.add(acc, ff.mul(w[j], b[k - j]))
        b.append(ff.neg(acc))
    return _as_triple({-v + k: ff.mul(inv0, e) for k, e in enumerate(b) if e}, -v + rel)


@pytest.mark.parametrize("q", KERNEL_QS)
def test_inverse_matches_the_backward_recurrence(q):
    # 400 inputs per field: lengths 1..20, exact or known up to 0..4 digits
    # past the last, zero digits inside
    rng = random.Random(6060 + q)
    F = LocalField.base_field(q)
    ff = F.residue
    seen = dict.fromkeys(("exact", "finite", "monomial", "cut_below_length"), 0)
    for length in range(1, 21):
        for i in range(20):
            val = rng.randrange(-3, 4)
            coeffs = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(length - 1)]
            prec = None if i % 2 else val + rng.randrange(1, length + 5)
            x = _t(F.elem(val, coeffs, prec))
            assert inverse_t(ff, x, F.var) == backward_inverse(ff, x), x
            seen["exact" if prec is None else "finite"] += 1
            seen["monomial"] += len(x[1]) == 1
            seen["cut_below_length"] += prec is not None and prec - val < length
    assert min(seen.values()) >= 20, seen


def _with_zero_at(rng, F, val, length, k):
    """length digits from val, nonzero at both ends and 0 at index k."""
    q = F.residue.q
    coeffs = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(length - 2)] + [rng.randrange(1, q)]
    coeffs[k] = 0
    return F.elem(val, coeffs)


@pytest.mark.parametrize("q", KERNEL_QS)
def test_single_coefficient_products_match_the_convolution(q):
    # a one-digit factor against partners of lengths 1..20, exact or not,
    # in both orders, and in dot_t beside pairs with an exact zero on
    # either side; the one-digit factor's precision cuts its partner just
    # past a zero digit, which the scaled result must strip
    rng = random.Random(7070 + q)
    F = LocalField.base_field(q)
    ff = F.residue
    zero = F.zero()
    seen = dict.fromkeys(("exact", "finite", "zero_at_cut", "exact_zero_pairs"), 0)
    for length in range(1, 21):
        for _ in range(8):
            y = _kernel_operand(rng, F, length, rng.randrange(-3, 3))
            cv = rng.randrange(-2, 3)
            c = F.elem(cv, (rng.randrange(1, q),), None if rng.random() < 0.5 else cv + rng.randrange(1, length + 3))
            for a, b in ((c, y), (y, c)):
                assert mul_t(ff, _t(a), _t(b)) == _as_triple(*o_mul(ff, a, b)), (a, b)
            seen["exact" if c.prec is None and y.prec is None else "finite"] += 1

            # exact zeros beside the product add no precision
            other = _kernel_operand(rng, F, rng.randrange(1, 5), rng.randrange(-2, 2))
            xs, ys = [zero, c, other, zero], [other, y, zero, F.zero(rng.randrange(-2, 3))]
            want = _as_triple(*o_dot(ff, xs, ys))
            assert dot_t(ff, [_t(e) for e in xs], [_t(e) for e in ys]) == want, (xs, ys)
            assert dot_t(ff, [_t(e) for e in ys], [_t(e) for e in xs]) == want
            seen["exact_zero_pairs"] += 1

            if length >= 3:
                # c known to cv + k cuts c*y after y's digit k - 1, which is 0
                k = rng.randrange(2, length)
                y0 = _with_zero_at(rng, F, y.val, length, k - 1)
                c0 = F.elem(cv, c.coeffs, cv + k)
                for a, b in ((c0, y0), (y0, c0)):
                    want = _as_triple(*o_mul(ff, a, b))
                    assert mul_t(ff, _t(a), _t(b)) == want, (a, b)
                    assert dot_t(ff, [_t(zero), _t(a)], [_t(b), _t(b)]) == want, (a, b)
                seen["zero_at_cut"] += 1
    assert min(seen.values()) >= 20, seen


def test_extension_defining_relation():
    for q, n, u0 in [(5, 2, 1), (5, 2, 3), (7, 3, 2), (3, 4, 2), (13, 6, 6)]:
        F = LocalField.base_field(q)
        E = F.extension(n, u0)
        u = E.variable()
        pi = from_base(E, F.elem(1, (u0,)))
        assert math.prod([u] * n, start=E.one()) == pi


def test_extension_rejects_wild_degrees():
    F = LocalField.base_field(3)
    with pytest.raises(ValueError):
        F.extension(3)
    with pytest.raises(ValueError):
        F.extension(6, 2)
    with pytest.raises(ValueError):
        F.extension(2, 0)


def test_embedding_precision_and_ring_map():
    rng = random.Random(77)
    F = LocalField.base_field(5)
    E = F.extension(3, 2)
    x = F.elem(0, (1, 2), 4)
    assert from_base(E, x).prec == 12
    for _ in range(20):
        a = random_exact(rng, F)
        b = random_exact(rng, F)
        assert from_base(E, a * b) == from_base(E, a) * from_base(E, b)
        assert from_base(E, a + b) == from_base(E, a) + from_base(E, b)


def test_trace_of_scalars_and_basis_powers():
    for q, n, u0 in [(5, 2, 3), (7, 3, 2), (3, 4, 2), (11, 5, 7)]:
        F = LocalField.base_field(q)
        E = F.extension(n, u0)
        ff = F.residue
        c = 2 % q
        assert E.trace_to_base(from_base(E, F.scalar(c))) == F.scalar(ff.scalar_mul(n, c))
        for k in range(1, n):
            assert E.trace_to_base(E.elem(k, (1,))).is_exact_zero()
        assert E.trace_to_base(E.elem(n, (1,))) == F.elem(1, (ff.scalar_mul(n, u0),))


def test_trace_of_inverse_uniformizer_times_unit():
    # Tr(u^-1 * (a0 + a1 u)) collapses to n * a1: the a0 part has no
    # diagonal contribution, the a1 part sits on it with multiplicity n
    rng = random.Random(515)
    for q, n, u0 in [(5, 2, 3), (7, 3, 5), (3, 4, 1), (13, 6, 2), (9, 5, 4)]:
        F = LocalField.base_field(q)
        E = F.extension(n, u0)
        ff = F.residue
        for _ in range(10):
            a0 = rng.randrange(1, q)
            a1 = rng.randrange(q)
            x = E.elem(-1, (a0, a1))
            expect = F.scalar(ff.scalar_mul(n, a1))
            assert E.trace_to_base(x) == expect


def test_trace_is_base_linear():
    rng = random.Random(616)
    F = LocalField.base_field(7)
    E = F.extension(3, 4)
    for _ in range(15):
        x = random_exact(rng, E)
        y = random_exact(rng, E)
        c = random_exact(rng, F)
        lhs = E.trace_to_base(x + y)
        assert lhs == E.trace_to_base(x) + E.trace_to_base(y)
        assert E.trace_to_base(from_base(E, c) * x) == c * E.trace_to_base(x)


def test_norm_of_uniformizer_has_the_ramified_sign():
    for q, n, u0 in [(5, 2, 3), (7, 3, 5), (3, 4, 1), (13, 6, 2), (11, 5, 7)]:
        F = LocalField.base_field(q)
        E = F.extension(n, u0)
        ff = F.residue
        sign_u0 = u0 if (n - 1) % 2 == 0 else ff.neg(u0)
        assert E.norm_to_base(E.variable()) == F.elem(1, (sign_u0,))


def test_norm_of_scalars_and_embedded_elements():
    rng = random.Random(717)
    F = LocalField.base_field(5)
    E = F.extension(4, 3)
    ff = F.residue
    for c in ff.units():
        assert E.norm_to_base(from_base(E, F.scalar(c))) == F.scalar(ff.pow(c, 4))
    for _ in range(8):
        y = random_exact(rng, F, min_val=0, max_len=3)
        assert E.norm_to_base(from_base(E, y)) == y * y * y * y


def test_norm_is_multiplicative():
    rng = random.Random(818)
    for q, n, u0 in [(5, 2, 3), (7, 3, 2), (3, 4, 2)]:
        F = LocalField.base_field(q)
        E = F.extension(n, u0)
        for _ in range(8):
            x = random_exact(rng, E, min_val=-2, max_len=4)
            y = random_exact(rng, E, min_val=-2, max_len=4)
            if not (x.coeffs and y.coeffs):
                continue
            assert E.norm_to_base(x * y) == E.norm_to_base(x) * E.norm_to_base(y)


def test_quadratic_norm_form():
    # n = 2: N(a + b u) = a^2 - u0 t b^2, checked against the dict oracle
    rng = random.Random(919)
    for q, u0 in [(5, 3), (9, 7), (13, 2)]:
        F = LocalField.base_field(q)
        E = F.extension(2, u0)
        ff = F.residue
        for _ in range(10):
            a = rng.randrange(q)
            b = rng.randrange(q)
            if a == b == 0:
                continue
            x = E.elem(0, (a, b))
            expect = d_add(
                ff,
                d_mul(ff, {0: a}, {0: a}),
                d_mul(ff, {1: ff.neg(u0)}, d_mul(ff, {0: b}, {0: b})),
            )
            assert d_of(E.norm_to_base(x)) == expect


def test_cubic_norm_form():
    # n = 3: N(a + b u + c u^2) = a^3 + u0 t b^3 + (u0 t)^2 c^3 - 3 u0 t a b c
    rng = random.Random(1021)
    for q, u0 in [(5, 2), (7, 3), (13, 11)]:
        F = LocalField.base_field(q)
        E = F.extension(3, u0)
        ff = F.residue
        pi = {1: u0}
        for _ in range(10):
            a, b, c = (rng.randrange(q) for _ in range(3))
            if a == b == c == 0:
                continue
            x = E.elem(0, (a, b, c))
            cube = lambda z: ff.mul(z, ff.mul(z, z))
            expect = {0: cube(a)}
            expect = d_add(ff, expect, d_mul(ff, pi, {0: cube(b)}))
            expect = d_add(ff, expect, d_mul(ff, d_mul(ff, pi, pi), {0: cube(c)}))
            cross = ff.neg(ff.scalar_mul(3, ff.mul(a, ff.mul(b, c))))
            expect = d_add(ff, expect, d_mul(ff, pi, {0: cross}))
            assert d_of(E.norm_to_base(x)) == expect



# ----- determinants ------------------------------------------------------


def leibniz_det(ff, rows):
    """The determinant oracle: the signed sum over permutations of the
    products of the entries, each product taken left to right and added
    in turn by the kernels, so n!*n products."""
    n = len(rows)
    total = (0, (), None)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        prod = (0, (1,), None)
        for i, j in enumerate(perm):
            prod = mul_t(ff, prod, rows[i][j])
        total = add_t(ff, total, prod, ff._neg if inversions % 2 else None)
    return total


def random_rows(rng, F, n, exact=True, zeros=0.15):
    """n rows of n triples over F, each entry a zero with probability
    zeros, else up to three digits from t^-2 on.  Inexact entries are
    known up to a precision from one below their last digit to two past
    it, and half their zeros are zeros known only below some t^p."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < zeros:
                row.append((0, (), None if exact or rng.random() < 0.5 else rng.randrange(-1, 4)))
                continue
            v = rng.randrange(-2, 3)
            cs = [rng.randrange(F.residue.q) for _ in range(rng.randrange(1, 4))]
            prec = None if exact else v + len(cs) + rng.randrange(-1, 3)
            x = F.elem(v, cs, prec)
            row.append((x.val, x.coeffs, x.prec))
        rows.append(row)
    return rows


def _prec_at_least(p, q):
    return p is None or (q is not None and p >= q)


def _completed(rng, F, rows):
    """An exact matrix the inexact rows could stand for: each entry's
    known digits, then three random digits from its precision on."""
    q = F.residue.q
    out = []
    for row in rows:
        out.append([])
        for v, cs, p in row:
            if p is not None:
                if not cs:
                    v = p
                cs = cs + (0,) * (p - v - len(cs)) + tuple(rng.randrange(q) for _ in range(3))
            x = F.elem(v, cs)
            out[-1].append((x.val, x.coeffs, x.prec))
    return out


@pytest.mark.parametrize("q", [3, 5, 9, 25])
def test_det_t_equals_the_leibniz_sum_on_exact_matrices(q):
    # exact entries give the exact determinant: ==, not agreement, for
    # n = 1..7, with an exact-zero row and singular matrices among them
    rng = random.Random(2300 + q)
    F = LocalField.base_field(q)
    ff = F.residue
    for n in range(1, 8):
        for _ in range(12 if n <= 5 else 2 if n == 6 else 1):
            rows = random_rows(rng, F, n)
            zero_row = [list(r) for r in rows]
            zero_row[rng.randrange(n)] = [(0, (), None)] * n
            # the last row the sum of the others: singular, and exact zero
            summed = [list(r) for r in rows]
            summed[-1] = [(0, (), None)] * n
            for r in rows[:-1]:
                summed[-1] = [add_t(ff, a, b) for a, b in zip(summed[-1], r)]
            for m in (rows, zero_row, summed):
                got = det_t(ff, m)
                assert got == leibniz_det(ff, m)
                assert wrap_matrix(F, m).det() == wrap(F, got)
            assert det_t(ff, zero_row) == (0, (), None)
            assert det_t(ff, summed) == (0, (), None)
    assert det_t(ff, [[(3, (1, 2), None)]]) == (3, (1, 2), None)


def test_det_t_keeps_every_digit_the_leibniz_sum_knows():
    # inexact entries: both sides agree on every digit both know, the
    # expansion into minors never reports less precision than the sum,
    # and every digit it reports is the determinant's for a completion
    # of the entries' unknown digits
    rng = random.Random(4800)
    for q in (3, 5, 9, 25):
        F = LocalField.base_field(q)
        ff = F.residue
        for n in range(1, 7):
            for _ in range(40 if n <= 5 else 6):
                rows = random_rows(rng, F, n, exact=False)
                got, want = det_t(ff, rows), leibniz_det(ff, rows)
                assert _prec_at_least(got[2], want[2]), (rows, got, want)
                if want[2] is not None:
                    assert truncate_t(got, want[2]) == want
                if got[2] is not None:
                    assert truncate_t(leibniz_det(ff, _completed(rng, F, rows)), got[2]) == got


def test_det_t_takes_one_product_per_entry_and_minor(monkeypatch):
    # a dense matrix costs n * (2^(n-1) - 1) products, one per entry of
    # each minor's top row; a monomial one costs one per row below the
    # top, since no minor under an exact zero is computed
    pairs = []

    def counting(ff, xs, ys):
        xs, ys = list(xs), list(ys)
        pairs.append(len(xs))
        return dot_t(ff, xs, ys)

    monkeypatch.setattr(laurent, "dot_t", counting)
    rng = random.Random(28)
    F = LocalField.base_field(7)
    ff = F.residue
    for n in range(1, 8):
        pairs.clear()
        rows = [[(rng.randrange(-2, 3), (rng.randrange(1, 7), rng.randrange(7)), None)
                 for _ in range(n)] for _ in range(n)]
        det_t(ff, rows)
        assert sum(pairs) == n * (2 ** (n - 1) - 1)
        perm = rng.sample(range(n), n)
        mono = [[(i, (1 + i % 6,), None) if j == perm[i] else (0, (), None) for j in range(n)]
                for i in range(n)]
        pairs.clear()
        got = det_t(ff, mono)
        assert sum(pairs) == n - 1 and got == leibniz_det(ff, mono) != (0, (), None)


def test_minors_t_gives_every_bottom_row_minor_once(monkeypatch):
    # minor(mask) is the Leibniz sum on the last popcount(mask) rows and
    # the columns in mask, exact or to every digit the sum knows; asked
    # for in any order, each minor costs one dot_t, and a minor already
    # computed under a larger one costs none
    calls = []

    def counting(ff, xs, ys):
        calls.append(1)
        return dot_t(ff, xs, ys)

    monkeypatch.setattr(laurent, "dot_t", counting)
    rng = random.Random(4901)
    for q in (3, 5, 9):
        F = LocalField.base_field(q)
        ff = F.residue
        for n in range(1, 6):
            for exact in (True, False):
                rows = random_rows(rng, F, n, exact=exact)
                minor = minors_t(ff, rows)
                masks = list(range(1, 1 << n))
                rng.shuffle(masks)
                calls.clear()
                for mask in masks:
                    cols = [j for j in range(n) if mask >> j & 1]
                    sub = [[row[j] for j in cols] for row in rows[n - len(cols):]]
                    got, want = minor(mask), leibniz_det(ff, sub)
                    assert _prec_at_least(got[2], want[2])
                    assert (got if want[2] is None else truncate_t(got, want[2])) == want
                    assert minor(mask) is got
                assert len(calls) <= (1 << n) - 1 - n


NORM_CELLS = [(3, 2, 2), (5, 3, 4), (5, 4, 3), (7, 5, 6), (9, 4, 5), (11, 5, 7), (13, 6, 2),
              (25, 3, 8)]


@pytest.mark.parametrize("q,n,u0", NORM_CELLS)
def test_norm_is_the_leibniz_determinant_of_the_multiplication_matrix(q, n, u0):
    rng = random.Random(360 + 10 * q + n)
    F = LocalField.base_field(q)
    E = F.extension(n, u0)
    ff = F.residue
    for _ in range(8):
        x = random_exact(rng, E, max_len=8)
        rows = E.mult_matrix(x)
        # the matrix is multiplication by x: column j rebuilds x * u^j
        for j in range(n):
            col = E.zero()
            for r in range(n):
                col = col + shift(from_base(E, F.elem(*rows[r][j])), r)
            assert col == shift(x, j)
        assert E.norm_to_base(x) == wrap(F, leibniz_det(ff, rows))
    # inexact elements: the same columns, each known as far as x is
    for _ in range(4):
        y = random_exact(rng, E, max_len=8)
        x = truncate(y, y.val + rng.randrange(1, 9))
        rows = E.mult_matrix(x)
        for j in range(n):
            col = E.zero()
            for r in range(n):
                col = col + shift(from_base(E, F.elem(*rows[r][j])), r)
            assert col == shift(x, j)


def test_unit_reps_census():
    for q, m in [(3, 1), (3, 2), (5, 2), (7, 1), (9, 2)]:
        F = LocalField.base_field(q)
        reps = unit_reps(F, m)
        assert len(reps) == (q - 1) * q ** (m - 1)
        seen = set()
        for r in reps:
            assert r.val == 0 and r.coeffs[0] != 0
            key = tuple(coeff_at(r, k) for k in range(m))
            assert key not in seen
            seen.add(key)


def test_integer_reps_census():
    F = LocalField.base_field(3)
    reps = integer_reps(F, -1, 2)
    assert len(reps) == 27
    assert len({d_of(r) and tuple(sorted(d_of(r).items())) or () for r in reps}) == 27


def test_json_round_trip():
    F = LocalField.base_field(5)
    E = F.extension(3, 2)
    for x in [F.elem(-2, (1, 0, 3), 4), E.elem(0, (2, 1)), F.zero(3)]:
        fld = x.field
        data = fld.elem_to_json(x)
        assert fld.elem_from_json(data) == x
    with pytest.raises(ValueError):
        F.elem_from_json({"field": "E", "n": 3, "val": 0, "coeffs": [1]})
