"""Simple supercuspidal data and the explicit Whittaker function.

A datum fixes the residue size q, the matrix size n (prime to the
residue characteristic), a uniformizer pi = pi_unit * t, a tame central
character omega, and a choice zeta of n-th root of omega(pi).  Out of it
come the affine generic character of the pro-unipotent Iwahori, its
extension to the group generated by the affine rotation, the center and
the Iwahori, and the Whittaker function supported on U times that group.
"""

from __future__ import annotations

from .bruhat import MonomialClass, SolvedInvariant, WhittakerInvariant
from .characters import AdditiveCharPsi, TameChar
from .cyclotomic import RootOfUnity
from .laurent import LocalField
from .matrices import MatG


class SSCDatum:
    """Everything needed to evaluate one simple supercuspidal Whittaker
    function exactly."""

    def __init__(
        self,
        q: int,
        n: int,
        zeta: RootOfUnity,
        omega_exp: int = 0,
        omega_at_pi: RootOfUnity | None = None,
        pi_unit: int = 1,
    ):
        if n < 2:
            raise ValueError("matrix size must be at least 2")
        self.q = q
        self.n = n
        self.F = LocalField.base_field(q)
        ff = self.F.residue
        if n % ff.p == 0:
            raise ValueError("residue characteristic must not divide n")
        if not 1 <= pi_unit < q:
            raise ValueError("pi_unit must be a nonzero residue")
        self.pi_unit = pi_unit
        self._extension = self.F.extension(n, pi_unit)
        self.zeta = zeta
        omega_at_pi = omega_at_pi if omega_at_pi is not None else RootOfUnity.one()
        if zeta**n != omega_at_pi:
            raise ValueError("zeta must be an n-th root of the central value at pi")
        self.omega_exp = omega_exp % (q - 1)
        self.omega_at_pi = omega_at_pi
        # omega as a tame character: value at t adjusted so that the value
        # at pi = pi_unit * t is the prescribed one, omega(pi) / omega(pi_unit)
        unit_part = TameChar(self.F, self.omega_exp).of_unit(pi_unit)
        self.omega = TameChar(self.F, self.omega_exp, omega_at_pi * unit_part.inverse())
        self.psi = AdditiveCharPsi.of_field(self.F)

    # ----- basic objects -------------------------------------------------
    def pi_elem(self):
        return self.F.elem(1, (self.pi_unit,))

    def extension_field(self) -> LocalField:
        """The ramified extension u^n = pi_unit * t, looked up once."""
        return self._extension

    def rotation_class(self, r: int = 1) -> MonomialClass:
        return MonomialClass.rotation(self.F, self.n, self.pi_unit) ** r

    # ----- characters ----------------------------------------------------
    def extended_char(self, r: int, s: int, d: int, k: MatG) -> RootOfUnity:
        """Value at rotation^r * (s t^d) * k of the extension by zeta."""
        inv = WhittakerInvariant.of(None, MonomialClass.identity(self.F, self.n), k)
        return self.invariant_root(SolvedInvariant(r, s, d, inv.affine_residue(self.pi_unit)))

    # ----- the Whittaker function ----------------------------------------
    def psi_u(self, u: MatG) -> RootOfUnity:
        """The generic character of the upper unipotent group."""
        inv = WhittakerInvariant.of(u, MonomialClass.identity(self.F, self.n), None)
        return self.psi.of_residue(inv.residue)

    def invariant_root(self, solved: SolvedInvariant | None) -> RootOfUnity | None:
        """psi(residue) zeta^r omega(s t^d) at a solved invariant (r, s, d,
        residue); None, which stands for off the support, maps to None."""
        if solved is None:
            return None
        r, s, d, residue = solved
        return self.zeta**r * self.omega.of_leading(d, s) * self.psi.of_residue(residue)

    def whittaker_root(self, g: MatG) -> RootOfUnity | None:
        """The Whittaker value as a root of unity, or None off the support.

        g is eliminated once at the precision it carries, one digit past
        its last stored digit, and once more as given only where that
        window cannot decide (WhittakerInvariant.read).
        """
        inv = WhittakerInvariant.read(g)
        return self.invariant_root(inv.solve(self.pi_unit))

    def __repr__(self) -> str:
        return (
            f"SSCDatum(q={self.q}, n={self.n}, zeta={self.zeta}, "
            f"omega_exp={self.omega_exp}, omega_at_pi={self.omega_at_pi}, "
            f"pi_unit={self.pi_unit})"
        )
