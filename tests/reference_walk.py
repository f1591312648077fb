"""The oracle of pairs.KWalk: the same random word kept on series."""

import random

from llclab import pairs
from llclab.bruhat import MonomialClass, WhittakerInvariant
from llclab.errors import LLCError
from llclab.laurent import LocalField
from llclab.matrices import MatG

from test_matrices import entries, in_iplus, scale, shift, sub, truncate


class ReferenceWalk:
    """The walk on series: k and ki as MatGs of LaurentElem, each entry
    truncated at t^N, the whole of both tested for Iwahori membership
    after every step.  Its prefixes are the matrices M * k themselves, and
    KWalk's snapshots must match its own step for step, the random stream
    included."""

    def __init__(self, q, n, u1, u2, precision=2, seed=0):
        self.F = LocalField.base_field(q)
        self.q, self.n, self.u1, self.u2 = q, n, u1, u2
        self.N = precision
        self.rng = random.Random(seed)
        self.rot = {1: MonomialClass.rotation(self.F, n, u1), 2: MonomialClass.rotation(self.F, n, u2)}
        ident = MonomialClass.identity(self.F, n).as_matrix()
        self.M = MonomialClass.identity(self.F, n)
        self.k = ident
        self.Mi = MonomialClass.identity(self.F, n)
        self.ki = ident
        self.used1 = False
        self.used2 = False

    def _check_iwahori(self):
        if not in_iplus(self.k) or not in_iplus(self.ki):
            raise LLCError("walk state left the Iwahori subgroup")

    def _conj_by(self, cls, A):
        F, ff, n, N = self.F, self.F.residue, self.n, self.N
        rows = [[F.zero()] * n for _ in range(n)]
        for i, row in enumerate(entries(A)):
            for j, e in enumerate(row):
                if e.is_exact_zero():
                    continue
                c = ff.mul(cls.units[j], ff.inv(cls.units[i]))
                shifted = truncate(shift(scale(e, c), cls.exps[j] - cls.exps[i]), N)
                rows[cls.cols[i]][cls.cols[j]] = shifted
        return MatG(F, rows)

    def _push_monomial(self, cls, conj_is_trivial=False):
        if not conj_is_trivial:
            self.k = self._conj_by(cls, self.k)
        self.M = self.M.compose(cls)
        self.Mi = cls.inverse().compose(self.Mi)
        self._check_iwahori()

    def push_rotation(self, which):
        self._push_monomial(self.rot[which])
        if which == 1:
            self.used1 = True
        else:
            self.used2 = True

    def push_central(self, s, d):
        self._push_monomial(MonomialClass.central(self.F, self.n, s, d), conj_is_trivial=True)

    def push_elementary(self, a, b, x):
        n, N, ff = self.n, self.N, self.F.residue
        krows = entries(self.k)
        for i in range(n):
            krows[i][b] = truncate(krows[i][b] + krows[i][a] * x, N)
        self.k = MatG(self.F, krows)
        cols, exps, units = self.Mi.cols, self.Mi.exps, self.Mi.units
        xi = shift(scale(sub(self.F.zero(), x), ff.mul(units[b], ff.inv(units[a]))), exps[b] - exps[a])
        ap, bp = cols[a], cols[b]
        kirows = entries(self.ki)
        for j in range(n):
            kirows[ap][j] = truncate(kirows[ap][j] + xi * kirows[bp][j], N)
        self.ki = MatG(self.F, kirows)
        self._check_iwahori()

    def push_one_unit_diag(self, a, e):
        n, N = self.n, self.N
        # e is a one-unit: its inverse cut to N + 1 digits
        einv = truncate(e.inverse(), N + 1)
        krows = entries(self.k)
        for i in range(n):
            krows[i][a] = truncate(krows[i][a] * e, N)
        self.k = MatG(self.F, krows)
        ap = self.Mi.cols[a]
        kirows = entries(self.ki)
        for j in range(n):
            kirows[ap][j] = truncate(kirows[ap][j] * einv, N)
        self.ki = MatG(self.F, kirows)
        self._check_iwahori()

    def push_random_iplus(self):
        rng, F, n, q, N = self.rng, self.F, self.n, self.q, self.N
        kind = rng.randrange(3)
        if kind == 0:
            a = rng.randrange(n)
            j = rng.randrange(1, N)
            self.push_one_unit_diag(a, F.one() + F.elem(j, (rng.randrange(1, q),)))
            return
        if kind == 1:
            a = rng.randrange(n - 1)
            b = rng.randrange(a + 1, n)
            j = rng.randrange(0, N)
        else:
            b = rng.randrange(n - 1)
            a = rng.randrange(b + 1, n)
            j = rng.randrange(1, N)
        self.push_elementary(a, b, F.elem(j, (rng.randrange(1, q),)))

    def random_step(self):
        roll = self.rng.randrange(6)
        if roll == 0:
            self.push_rotation(1)
        elif roll == 1:
            self.push_rotation(2)
        elif roll == 2:
            self.push_central(self.rng.randrange(1, self.q), self.rng.choice((-1, 0, 1)))
        else:
            self.push_random_iplus()

    def snapshot(self):
        fwd = WhittakerInvariant.of(None, self.M, self.k)
        inv = WhittakerInvariant.of(None, self.Mi, self.ki)
        return pairs.KWord(self.used1, self.used2, fwd, inv)

    def forward_matrix(self):
        return self.M.as_matrix() * self.k

    def inverse_matrix(self):
        return self.Mi.as_matrix() * self.ki
