"""Predicted parameter data on the Galois side.

The candidate parameter for a given supercuspidal datum is induced from
a depth-one character of the totally ramified degree-n extension
E = F(pi_E), pi_E^n = pi.  This module assembles that character, the
quadratic discriminant character of E/F, brute-force Gauss sums over
unit cosets of E, and the resulting epsilon factor.

The Gauss sums are exact sums over every unit coset of E modulo depth-m
one-units, computed on residue integers: a coset's term depends only on
its leading residue pair (a0, a1), so the sum enumerates those pairs,
each weighted by the q^(m-2) cosets that share it, into one table per
(q, m) that every degree and uniformizer class of E shares.

The constant attached to the induction step is never given a numeric
value; it enters as the formal unit Lambda, with the single rewriting
rule Lambda^n = kappa(pi), which the determinant applies.  Every
identity in scope holds at the level of Lambda-graded coefficients, and
the epsilon factor itself comes out Lambda-free.
"""

from __future__ import annotations

import functools
from math import gcd

from .characters import LevelOneCharE, TameChar
from .cyclotomic import CycloNumber, RootOfUnity
from .errors import ZeroInput
from .finitefield import field_of_size
from .laurent import LaurentElem, LocalField
from .monomials import EpsMonomial, LambdaGraded
from .supercuspidal import SSCDatum


def disc_unit_residue(efield: LocalField) -> int:
    """Residue of the unit part of disc(x^n - pi) = (-1)^((n-1)(n-2)/2) n^n pi^(n-1)."""
    ff = efield.residue
    n = efield.degree
    out = ff.mul(ff.pow(ff.scalar(n), n), ff.pow(efield.pi_unit, n - 1))
    if ((n - 1) * (n - 2) // 2) % 2:
        out = ff.mul(out, ff.minus_one())
    return out


def kappa_eval(efield: LocalField, x: LaurentElem) -> int:
    """The quadratic character of E/F at x, through the tame symbol of x
    against the discriminant of x^n - pi.  Returns +1 or -1."""
    F = efield.base
    if F is None:
        raise ValueError("expected the extension field, not the base")
    if x.field is not F:
        raise TypeError("argument must live on the base field")
    if x.is_exact_zero():
        raise ZeroInput("quadratic character of zero")
    ff = F.residue
    a = x.valuation()
    b = efield.degree - 1
    # the tame symbol of (x, d) is the residue square class of
    # (-1)^(v(x)v(d)) * xbar^v(d) / dbar^v(x), both unit parts taken at t = 0
    res = ff.mul(ff.pow(x.leading()[1], b), ff.pow(disc_unit_residue(efield), -a))
    if (a * b) % 2:
        res = ff.mul(res, ff.minus_one())
    return 1 if ff.is_square(res) else -1


@functools.lru_cache(maxsize=None)
def kappa_char(efield: LocalField) -> TameChar:
    """kappa packaged as a tame character of the base field.  Cached per
    extension, which LocalField.extension hands out shared."""
    F = efield.base
    q = F.residue.q
    e = 0 if (efield.degree - 1) % 2 == 0 else (q - 1) // 2
    sign_t = kappa_eval(efield, F.variable())
    return TameChar(F, e, RootOfUnity(0 if sign_t == 1 else 1, 2))


class ParameterDatum:
    """Everything the Galois side needs: the ramified extension, its
    quadratic character, and the depth-one character being induced."""

    __slots__ = ("ssc", "efield", "kappa", "xi")

    def __init__(self, ssc: SSCDatum):
        self.ssc = ssc
        self.efield = ssc.extension_field()
        self.kappa = kappa_char(self.efield)
        e_xi = (ssc.omega_exp - self.kappa.exp_unit) % (ssc.q - 1)
        self.xi = LevelOneCharE(self.efield, LambdaGraded.lambda_power(-1, ssc.zeta), e_xi)

    def __repr__(self) -> str:
        return f"ParameterDatum(q={self.ssc.q}, n={self.ssc.n}, zeta={self.ssc.zeta})"


def build_parameter(d: SSCDatum) -> ParameterDatum:
    return ParameterDatum(d)


@functools.lru_cache(maxsize=None)
def _gauss_rows(q: int, m: int) -> tuple[int, ...]:
    """The part of the depth-m Gauss sum that no tame exponent changes.

    A unit coset x = a0 + a1 u + ... + a_(m-1) u^(m-1) contributes
    unitchar^-1(a0) * psi(Tr(x/pi_E)) / psi(n a1/a0) to the inner sum,
    the last quotient being the wild factor of every depth-one character.
    Entry dlog(a0) * p + e counts the cosets whose quotient is zeta_p^e.

    Only the residue pair (a0, a1) moves that quotient, whatever the
    uniformizer unit u0 of u^n = u0 t.  The exponents of x/pi_E are
    -1..m-2; the trace keeps those divisible by n, exponent kn landing
    on u0^k t^k with n times its digit.  So exponent 0 gives the constant
    term n a1 for every u0, while exponents n, 2n, ... land on t^1, t^2,
    ..., which psi kills.  The digits a2, a3, ... therefore move neither
    psi nor the wild factor: each pair stands for the q^(m-2) cosets that
    share it (a1 = 0 alone when m = 1).  The quotient is
    psi(b) / psi(b/a0) with b = n a1, and as p does not divide n, b runs
    over F_q exactly when a1 does; so the loop runs over (a0, b) and the
    table is shared by every degree n and every uniformizer class.
    """
    ff = field_of_size(q)
    p = ff.p
    dlog, trace, mul, inv = ff._dlog, ff._trace, ff.mul, ff.inv
    bs, weight = (range(q), q ** (m - 2)) if m >= 2 else ((0,), 1)
    counts = [0] * ((q - 1) * p)
    for b in bs:
        tr = trace[b]
        for a0 in ff.units():
            e = (tr - trace[mul(b, inv(a0))]) % p
            counts[dlog[a0] * p + e] += weight
    return tuple(counts)


def _gauss_histogram(q: int, exp_unit: int, m: int) -> CycloNumber:
    """Sum of unitchar^-1(x) psi(Tr(x/pi_E)) over unit cosets of depth m.

    Every term of the full Gauss sum carries the same at_pi^-1 factor, so
    that factor is pulled out by the caller and the remaining sum depends
    only on the residue data.

    Each coset's term is zeta_(q-1)^(-exp_unit dlog a0) zeta_p^e with its
    (dlog a0, e) counted in _gauss_rows; the terms collect in one
    exponent histogram over the p(q-1)-th roots of unity, where the tame
    root sits at p * (-exp_unit dlog a0 mod q-1).  The result has the
    order the term-by-term sum would reach: the lcm of the orders of the
    roots that occur.
    """
    counts = _gauss_rows(q, m)
    p = field_of_size(q).p
    big = p * (q - 1)  # lcm(p, q - 1): p does not divide q - 1
    hist = [0] * big
    for dlog in range(q - 1):
        shift = p * ((-exp_unit * dlog) % (q - 1))
        for e in range(p):
            c = counts[dlog * p + e]
            if c:
                hist[(shift + e * (q - 1)) % big] += c
    step = gcd(big, *(k for k, c in enumerate(hist) if c))
    terms = {k // step: c for k, c in enumerate(hist) if c}
    return CycloNumber._from_clean(big // step, terms).compact()


@functools.lru_cache(maxsize=None)
def _gauss_inner(q: int, exp_unit: int, m: int) -> LambdaGraded:
    """The histogram of _gauss_histogram as a unit, recognised once per key."""
    return LambdaGraded.from_cyclo(_gauss_histogram(q, exp_unit, m))


def gauss_sum_bruteforce(xi: LevelOneCharE, m: int = 2) -> LambdaGraded:
    """The exact sum of xi^-1(x/pi_E) psi(Tr(x/pi_E)) over units of E
    modulo depth-m one-units: q^(m-1)(q-1) cyclotomic terms.

    The sum enumerates the (q-1) q leading residue pairs (a0, a1) of the
    cosets, each weighted by the q^(m-2) cosets sharing it, since the
    deeper digits move no term (see _gauss_rows).

    xi has conductor p_E^2, so below depth 2 the sum is no Gauss sum."""
    if m < 2:
        raise ValueError("need depth m >= 2: below the conductor of xi it is no Gauss sum")
    inner = _gauss_inner(xi.efield.residue.q, xi.exp_unit, m)
    # xi(x/pi_E) = at_pi^-1 * unitchar(x) uniformly over the summation range
    return xi.at_pi * inner


_LAMBDA = LambdaGraded.lambda_power(1)


def epsilon_galois(P: ParameterDatum, lam: TameChar) -> EpsMonomial:
    """Epsilon factor of the induced parameter twisted by lam.

    Induction contributes one factor of Lambda; the extension-level
    epsilon is (tau/q) q^(1/2-s) = tau q^(-1/2-s) with tau the brute-force
    Gauss sum of xi twisted by lam through the norm.
    """
    tau = gauss_sum_bruteforce(P.xi.twist_by_base(lam))
    return EpsMonomial._of_twice(P.ssc.q, _LAMBDA * tau, -1, -1)


class DetCharacter:
    """Tame character of the base field, read by its unit exponent and its
    value at the uniformizer, which may carry powers of Lambda."""

    __slots__ = ("exp_unit", "at_pi")

    def __init__(self, q: int, exp_unit: int, at_pi: LambdaGraded):
        self.exp_unit = exp_unit % (q - 1)
        self.at_pi = at_pi

    def __repr__(self) -> str:
        return f"DetCharacter(exp_unit={self.exp_unit}, at_pi={self.at_pi!r})"


def det_parameter(P: ParameterDatum, lam: TameChar | None = None) -> DetCharacter:
    """Determinant of the induced parameter, twisted by lam composed with
    the norm when lam is given: the restriction of xi (or of its twist)
    to the base field times kappa.  Its value at pi folds
    Lambda^n = kappa(pi), so untwisted it is exactly the central character
    there, and twisted it is omega * lam^n."""
    d = P.ssc
    xi = P.xi if lam is None else P.xi.twist_by_base(lam)
    kp = P.kappa.of_leading(1, d.pi_unit)
    at_pi = ((xi.at_pi ** d.n) * kp).reduce_lambda(d.n, 1 if kp.is_one() else -1)
    e = xi.exp_unit + P.kappa.exp_unit
    return DetCharacter(d.q, e, at_pi)
