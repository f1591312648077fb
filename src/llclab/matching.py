"""End-to-end comparison of the epsilon engines, and recovery of a datum
from its table of twisted epsilon factors.

A twist here is a tame character of the base field, enumerated by its
residue exponent e against the stored generator together with its value
at t (a root of unity of order dividing q-1).  Tables keyed by those two
integers are what the determination procedure consumes: the trivial
entry exposes the third root-of-unity invariant of the datum, and the
e = 1 column exposes the uniformizer's residue class.  Both are read
straight off the root of unity that each entry's unit carries.
"""

from __future__ import annotations

from .characters import TameChar
from .cyclotomic import RootOfUnity
from .errors import InconsistentTable
from .galois import build_parameter, det_parameter, epsilon_galois
from .monomials import EpsMonomial, LambdaGraded
from .supercuspidal import SSCDatum
from .zeta import closed_form_epsilon, gamma_automorphic


def twist_char(field, e: int, at_t_num: int = 0) -> TameChar:
    q = field.residue.q
    return TameChar(field, e, RootOfUnity(at_t_num, q - 1))


class EpsilonTable:
    """Map from enumerated tame twists to their epsilon monomials."""

    __slots__ = ("q", "n", "entries")

    def __init__(self, q: int, n: int, entries: dict[tuple[int, int], EpsMonomial]):
        if (0, 0) not in entries:
            raise ValueError("table must contain the trivial twist")
        self.q = q
        self.n = n
        self.entries = dict(entries)

    @classmethod
    def of_datum(cls, d: SSCDatum) -> EpsilonTable:
        """Closed-form table over every residue exponent, at the t-value 0."""
        entries = {(e, 0): closed_form_epsilon(d, twist_char(d.F, e)) for e in range(d.q - 1)}
        return cls(d.q, d.n, entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpsilonTable):
            return NotImplemented
        if (self.q, self.n) != (other.q, other.n):
            return False
        if set(self.entries) != set(other.entries):
            return False
        return all(self.entries[k] == other.entries[k] for k in self.entries)

    __hash__ = None


class DeterminationResult:
    """Outcome of reading a datum back off its epsilon table."""

    __slots__ = ("zeta", "pi_unit", "complete", "datum")

    def __init__(self, zeta: RootOfUnity, pi_unit, complete: bool, datum):
        self.zeta = zeta
        self.pi_unit = pi_unit
        self.complete = complete
        self.datum = datum

    def __repr__(self) -> str:
        return (
            f"DeterminationResult(zeta={self.zeta}, pi_unit={self.pi_unit}, "
            f"complete={self.complete})"
        )


def _expected_entry(d: SSCDatum, e: int, b: int) -> EpsMonomial:
    return closed_form_epsilon(d, twist_char(d.F, e, b))


def verify_matching(d: SSCDatum, twists=None, include_integral: bool = True) -> dict:
    """Compare the closed form, the Galois side, and (unless include_integral
    is false) the integral path on a set of twists; report per-twist
    verdicts plus the central character condition.  Failures land in the
    report, not in exceptions.

    Each row carries the EpsMonomial of every side it compared, under
    "closed", "galois" and "automorphic"; turning them into JSON is the
    caller's business.
    """
    if twists is None:
        twists = [(e, 0) for e in range(d.q - 1)]
    P = build_parameter(d)
    rows = []
    all_equal = True
    for e, b in twists:
        lam = twist_char(d.F, e, b)
        closed = closed_form_epsilon(d, lam)
        galois = epsilon_galois(P, lam)
        row = {"twist": {"e": e, "at_t": b}, "closed": closed, "galois": galois}
        equal = closed == galois
        if include_integral:
            integral = gamma_automorphic(d, lam)
            row["automorphic"] = integral
            equal = equal and integral == closed
        row["equal"] = equal
        all_equal = all_equal and equal
        rows.append(row)
    det = det_parameter(P)
    central_ok = (
        det.exp_unit == d.omega_exp % (d.q - 1)
        and det.at_pi == LambdaGraded.from_cyclo(d.omega(d.pi_elem()))
    )
    return {
        "q": d.q,
        "n": d.n,
        "twists": rows,
        "central_character_matches": central_ok,
        "all_equal": all_equal and central_ok,
    }


def _entry_root(entry: EpsMonomial) -> RootOfUnity:
    """Shape-check an entry and return the root of unity it carries."""
    shape = EpsMonomial._of_twice(entry.q, LambdaGraded(0, entry.unit.root), 1, -1)
    if entry != shape:
        raise InconsistentTable(f"entry {entry!r} is not a root of unity times q^(1/2 - s)")
    return entry.unit.root


def determine_from_table(T: EpsilonTable, omega: TameChar, n: int, q: int) -> DeterminationResult:
    """Recover (zeta, uniformizer class) from a twisted-epsilon table.

    The trivial entry gives zeta, of whatever order.  The e = 1, t-trivial
    entry divided by the trivial one gives lam(-1)^(n-1) lam(pi), whose
    discrete log exposes the residue class of the uniformizer.  Every
    other entry is then checked against the closed form; any mismatch, or
    any entry off the monomial shape, raises InconsistentTable.  A table,
    or a central character, of another (q, n) raises ValueError.
    """
    ff = omega.field.residue
    if (T.q, T.n) != (q, n):
        raise ValueError(f"the table is for (q, n) = ({T.q}, {T.n}), not ({q}, {n})")
    if ff.q != q:
        raise ValueError(f"the central character lives over F_{ff.q}, not F_{q}")
    zeta = _entry_root(T.entries[(0, 0)])
    if (1, 0) not in T.entries:
        return DeterminationResult(zeta, None, False, None)
    # ratio = zeta_{q-1}^((n-1) dlog(-1) + dlog u0), all through exponent e=1
    ratio = _entry_root(T.entries[(1, 0)]) * zeta.inverse()
    if (q - 1) % ratio.order:
        raise InconsistentTable(f"coefficient is not a root of unity of order dividing {q - 1}")
    num = ratio.num * ((q - 1) // ratio.order)
    dlog_u0 = (num - (n - 1) * ff.dlog(ff.minus_one())) % (q - 1)
    u0 = ff.exp[dlog_u0 % (q - 1)]
    pi_elem_value = omega(omega.field.elem(1, (u0,)))
    if zeta**n != pi_elem_value:
        raise InconsistentTable("central value at the recovered uniformizer is off")
    d = SSCDatum(q, n, zeta, omega_exp=omega.exp_unit, omega_at_pi=pi_elem_value, pi_unit=u0)
    for (e, b), entry in T.entries.items():
        if entry != _expected_entry(d, e, b):
            raise InconsistentTable(f"entry at twist ({e}, {b}) is inconsistent")
    return DeterminationResult(zeta, u0, True, d)
