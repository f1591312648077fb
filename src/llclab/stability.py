"""Constructive stability and instability certificates for the graded
pieces attached to points of the building.

Nothing here computes an orbit closure.  Each certificate packages the
finite checks that the corresponding existence or nonexistence argument
reduces to, and each has an independent verifier:

* StableExists: the all-ones functional on the alcove quiver, with its
  stabilizer counted exhaustively over F_q and over F_{q^2}.  Equal
  counts q-1 and q^2-1 are the finiteness evidence modulo scalars; a
  positive-dimensional stabilizer would grow with the field.  The search
  assigns one node at a time and checks at each node only the arrows
  that node closes.
* NoStableDimGap: a positive gap dim G - dim V forces every closed-orbit
  stabilizer to dimension at least 2, one more than the scalars.
* NoStableJordanWitness: for equal blocks of size m > 1, two functionals
  whose arrow products share a determinant but have different Jordan
  type; both products are nilpotent, so the rank profile of their powers
  separates the types over any extension field.  The block products
  read only nonzero entries: identity, Jordan and nilpotent blocks are
  mostly zeros.
* UnstableCocharacter: integer torus weights strictly decreasing along
  the quiver cycle opened at a missing arrow; every present arrow then
  scales with a positive exponent, driving any functional to zero.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .building import (
    ApartmentPoint,
    FacetSpec,
    GradedQuotient,
    graded_quotient,
    is_barycenter,
    jump_numerator,
)
from .errors import EmptyFacet, LLCError, NotNonBarycenter, SizeGuardExceeded
from .finitefield import MAX_FIELD_SIZE, field_of_size

BRUTE_FORCE_GUARD = 500_000


# ----- small exact matrices over a finite field --------------------------

def _identity(m):
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def _zero(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def _jordan_block(m):
    return tuple(tuple(1 if j == i + 1 else 0 for j in range(m)) for i in range(m))


# the kernels below read the field's operation tables directly, as
# laurent does: sub(a, b) is _add[a][_neg[b]]; a product reads only the
# nonzero entries of both factors, since the identity, Jordan and
# nilpotent-power blocks the certificates multiply are mostly zeros

def _mmul(ff, A, B):
    """A times B, each output row the sum over the nonzero entries a of
    A's row of a times the nonzero entries of the matching row of B."""
    mul, add = ff._mul, ff._add
    width = len(B[0]) if B else 0
    sparse = [[(c, v) for c, v in enumerate(row) if v] for row in B]
    out = []
    for row in A:
        acc = [0] * width
        for a, terms in zip(row, sparse):
            if a:
                by = mul[a]
                for c, v in terms:
                    acc[c] = add[acc[c]][by[v]]
        out.append(tuple(acc))
    return tuple(out)


def _rank_det(ff, rows):
    """Rank and determinant of a matrix, by one forward elimination on
    the nonzero entries of its rows.  Each row, kept as column -> value,
    is reduced by the earlier pivot rows at its leftmost column until
    that column holds no pivot, where it becomes one.  The pivots then
    sit in distinct columns, so the determinant is the product of the
    pivots, signed by the parity of their columns in row order; it is 0
    unless the matrix is square of full rank."""
    mul, add, neg = ff._mul, ff._add, ff._neg
    pivots = {}
    order = []
    det = 1
    for row in rows:
        acc = {c: v for c, v in enumerate(row) if v}
        while acc:
            c = min(acc)
            hit = pivots.get(c)
            if hit is None:
                pivots[c] = (acc, neg[ff.inv(acc[c])])
                order.append(c)
                det = mul[det][acc[c]]
                break
            prow, minus_inv = hit
            by = mul[mul[acc[c]][minus_inv]]
            for j, w in prow.items():
                x = add[acc.get(j, 0)][by[w]]
                if x:
                    acc[j] = x
                else:
                    del acc[j]
    rank = len(order)
    if rank != len(rows) or rows and rank != len(rows[0]):
        return rank, 0
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return rank, neg[det] if inversions % 2 else det


def _rank_profile(ff, A):
    """Ranks of A, A^2, ..., A^m for an m x m matrix."""
    m = len(A)
    out = []
    P = A
    for _ in range(m):
        rank = _rank_det(ff, P)[0]
        out.append(rank)
        if rank == 0:
            # every higher power is zero too
            break
        P = _mmul(ff, P, A)
    return tuple(out) + (0,) * (m - len(out))


# ----- functionals -------------------------------------------------------

def _present_shape(gq: GradedQuotient, arrow) -> tuple[int, int]:
    """(rows, cols) of a present arrow."""
    if arrow not in gq.arrows:
        raise ValueError(f"arrow {arrow} is not present at this point")
    return gq.arrow_shape(arrow)


def _residue_matrix(M, rows: int, cols: int, q: int) -> tuple:
    """M as a tuple of row tuples, once it is a rows x cols matrix of
    residue representatives modulo q."""
    if len(M) != rows or any(len(r) != cols for r in M):
        raise ValueError(f"matrix must be {rows}x{cols}")
    for r in M:
        for v in r:
            if not 0 <= v < q:
                raise ValueError("entries must be residue representatives")
    return tuple(tuple(r) for r in M)


def _checked_matrix(gq: GradedQuotient, q: int, arrow, M) -> tuple:
    """M as a tuple of row tuples, once it is a matrix of residue
    representatives of the shape of a present arrow."""
    rows, cols = _present_shape(gq, arrow)
    try:
        return _residue_matrix(M, rows, cols, q)
    except ValueError as exc:
        raise ValueError(f"arrow {arrow}: {exc}") from None


@lru_cache(maxsize=None)
def _all_matrices(rows: int, cols: int, q: int) -> tuple:
    """Every rows x cols matrix of residues modulo q, row-major and
    lexicographic in the entries, each through _residue_matrix."""
    return tuple(
        _residue_matrix([entries[r * cols:(r + 1) * cols] for r in range(rows)], rows, cols, q)
        for entries in itertools.product(range(q), repeat=rows * cols)
    )


class FunctionalOverFq:
    """A point of the graded dual over F_q: one matrix per present arrow.

    matrices is a tuple aligned with gq.arrows; an arrow the constructor's
    dict leaves out holds the zero matrix of its shape.  mats reads the
    same matrices as a dict keyed by arrow."""

    __slots__ = ("gq", "q", "matrices")

    def __init__(self, gq: GradedQuotient, q: int, mats: dict):
        field_of_size(q)  # rejects a q that is not an odd prime power
        checked = {a: _checked_matrix(gq, q, a, M) for a, M in mats.items()}
        self.gq = gq
        self.q = q
        self.matrices = tuple(
            checked[a] if a in checked else _zero(*gq.arrow_shape(a)) for a in gq.arrows
        )

    @classmethod
    def all_ones(cls, gq: GradedQuotient, q: int) -> FunctionalOverFq:
        return cls(gq, q, {a: tuple((1,) * gq.arrow_shape(a)[1] for _ in range(gq.arrow_shape(a)[0])) for a in gq.arrows})

    def arrow_matrix(self, arrow):
        if arrow in self.gq.arrows:
            return self.matrices[self.gq.arrows.index(arrow)]
        return _zero(*self.gq.arrow_shape(arrow))

    def __repr__(self):
        return f"FunctionalOverFq(q={self.q}, mats={dict(zip(self.gq.arrows, self.matrices))!r})"


def enumerate_functionals(gq: GradedQuotient, q: int):
    """Every functional over F_q, guarded by total count.

    The order is arrow-major, row-major and lexicographic in the entries:
    the last entry of the last arrow moves fastest.  Each present arrow
    reads the list of all q^(rows*cols) matrices of its shape, built and
    checked once per process for each (rows, cols, q); each functional
    stores its tuple of those checked matrices, one per arrow in the
    order of gq.arrows, without a second check."""
    dim = gq.dim_v
    if q**dim > BRUTE_FORCE_GUARD:
        raise SizeGuardExceeded(f"{q}^{dim} functionals exceed the guard {BRUTE_FORCE_GUARD}")
    field_of_size(q)  # rejects a q that is not an odd prime power
    per_arrow = [_all_matrices(*_present_shape(gq, a), q) for a in gq.arrows]
    new = object.__new__
    for combo in itertools.product(*per_arrow):
        lam = new(FunctionalOverFq)
        lam.gq = gq
        lam.q = q
        lam.matrices = combo
        yield lam


# ----- certificate payloads ----------------------------------------------

class StableExists:
    kind = "stable-exists"

    def __init__(self, facet, q, functional, stab_count_q, stab_count_q2):
        self.facet = facet
        self.q = q
        self.functional = functional
        self.stab_count_q = stab_count_q
        self.stab_count_q2 = stab_count_q2

    def __repr__(self):
        return (
            f"StableExists({self.facet}, q={self.q}, "
            f"stab={self.stab_count_q}/{self.stab_count_q2})"
        )


class NoStableDimGap:
    kind = "no-stable-dim-gap"

    def __init__(self, facet, dim_g, dim_v):
        self.facet = facet
        self.dim_g = dim_g
        self.dim_v = dim_v

    def __repr__(self):
        return f"NoStableDimGap({self.facet}, gap={self.dim_g - self.dim_v})"


class NoStableJordanWitness:
    kind = "no-stable-jordan"

    def __init__(self, facet, q, x_blocks, w_blocks):
        self.facet = facet
        self.q = q
        self.x_blocks = x_blocks
        self.w_blocks = w_blocks

    def __repr__(self):
        return f"NoStableJordanWitness({self.facet}, q={self.q})"


class UnstableCocharacter:
    kind = "unstable-cocharacter"

    def __init__(self, point, missing_arrow, weights):
        self.point = point
        self.missing_arrow = missing_arrow
        # a tuple, so the weights _stuck_arrows remembers cannot change
        self.weights = tuple(weights)

    def __repr__(self):
        return (
            f"UnstableCocharacter(missing={self.missing_arrow}, "
            f"b={self.weights})"
        )


# ----- stabilizer counting on the alcove torus ---------------------------

def _torus_stabilizer_count(q: int, functional_values) -> int:
    """Exhaustive count, with pruning, of torus elements fixing a scalar
    functional on the cyclic quiver with K one-dimensional nodes.

    The search assigns unit coordinates g_0, g_1, ... in order.  Arrow i
    runs from node i to node (i + 1) mod K, so assigning g_a completes
    arrow a - 1 and, at a = K - 1, the closing arrow K - 1 (arrow 0 when
    K = 1); only those conditions g_i * v = v * g_b are checked at node a,
    and a branch is cut as soon as one fails.  Every arrow is checked
    once on every branch that reaches the end, so this enumerates
    exactly the solutions of the full product search.
    """
    ff = field_of_size(q)
    mul = ff._mul
    K = len(functional_values)
    units = list(ff.units())
    # closes[a]: (i, b, v) for each arrow i -> b with value v != 0 whose
    # condition assigning g_a completes, a = max(i, b)
    closes = [[] for _ in range(K)]
    for i, v in enumerate(functional_values):
        b = (i + 1) % K
        if v != 0:
            closes[max(i, b)].append((i, b, v))

    g = [0] * K

    def extend(a):
        if a == K:
            return 1
        total = 0
        for u in units:
            g[a] = u
            for i, b, v in closes[a]:
                if mul[g[i]][v] != mul[v][g[b]]:
                    break
            else:
                total += extend(a + 1)
        return total

    return extend(0)


# ----- certificates for barycenters --------------------------------------

def stability_certificate(f: FacetSpec, q: int):
    """The paper trail for 'stable functionals exist here or they do not'."""
    if f.is_empty():
        raise EmptyFacet(f"{f} has no points")
    gq = graded_quotient(f.barycenter())
    if f.is_alcove():
        # the stabilizer is counted over F_q and over F_{q^2}; name the q
        # given, not only the field it leads to
        field_of_size(q)
        if q * q > MAX_FIELD_SIZE:
            raise ValueError(
                f"q = {q}: an alcove certificate counts the stabilizer over F_(q^2), "
                f"and q^2 = {q * q} is above MAX_FIELD_SIZE = {MAX_FIELD_SIZE}"
            )
        lam = FunctionalOverFq.all_ones(gq, q)
        values = [lam.arrow_matrix(a)[0][0] for a in gq.arrows]
        count_q = _torus_stabilizer_count(q, values)
        count_q2 = _torus_stabilizer_count(q * q, values)
        return StableExists(f, q, lam, count_q, count_q2)
    if gq.dim_g > gq.dim_v:
        return NoStableDimGap(f, gq.dim_g, gq.dim_v)
    sizes = gq.sizes
    m = sizes[0]
    if any(s != m for s in sizes) or m <= 1:
        raise ValueError(f"unexpected zero-gap block pattern {sizes}")
    K = gq.num_nodes
    x_blocks = tuple([_identity(m)] * (K - 1) + [_jordan_block(m)])
    w_blocks = tuple([_identity(m)] * (K - 1) + [_zero(m, m)])
    return NoStableJordanWitness(f, q, x_blocks, w_blocks)


def destabilizing_cocharacter(x: ApartmentPoint) -> UnstableCocharacter:
    """Integer torus weights contracting every functional at a
    nonbarycenter to zero."""
    if is_barycenter(x):
        raise NotNonBarycenter(f"{x} is a barycenter")
    gq = graded_quotient(x)
    K = gq.num_nodes
    a0 = gq.missing_arrows()[0][0]
    b = [0] * K
    if a0 == K - 1:
        for i in range(K):
            b[i] = K - 1 - i
    else:
        order = list(range(a0 + 1, K)) + list(range(0, a0 + 1))
        for idx, node in enumerate(order):
            b[node] = K - a0 - 1 - idx
    return UnstableCocharacter(x, (a0, (a0 + 1) % K), tuple(b))


# ----- verifiers ---------------------------------------------------------

def root_count_dims(x: ApartmentPoint) -> tuple[int, int]:
    """(dim G, dim V) by direct affine-root counting at the point: pairs
    with integral difference for grade zero plus the torus, pairs landing
    on r modulo 1 for grade r, the torus again when r is integral.

    Counted over all ordered pairs (i, j), i == j included, of the
    numerators over x.den: a diagonal pair stands for the torus grade
    x_i - x_i = 0, which lands on r modulo 1 exactly when r is integral.
    The pairs are grouped by residue class mod x.den, cnt[c] numerators
    in class c.  A pair with its first numerator in class c counts for
    grade zero when the second is in class c too, and for grade r when
    the second is in class c - R (mod x.den), R = r * x.den; so
    g = sum cnt[c]^2 and v = sum cnt[c] * cnt[c - R]."""
    D = x.den
    R = jump_numerator(x)
    cnt: dict[int, int] = {}
    for a in x.nums:
        c = a % D
        cnt[c] = cnt.get(c, 0) + 1
    g = sum(m * m for m in cnt.values())
    v = sum(m * cnt.get((c - R) % D, 0) for c, m in cnt.items())
    return g, v


def _require(ok: bool, what: str) -> None:
    """One certificate check, raised explicitly so that python -O keeps it."""
    if not ok:
        raise LLCError(f"certificate rejected: {what}")


def verify_certificate(cert) -> bool:
    """Independent recheck of any certificate; returns True or raises LLCError."""
    if cert.kind == "stable-exists":
        f = cert.facet
        _require(f.is_alcove(), "StableExists is only claimed on alcoves")
        gq = graded_quotient(f.barycenter())
        values = [cert.functional.arrow_matrix(a)[0][0] for a in gq.arrows]
        _require(
            len(values) == f.n and all(v != 0 for v in values),
            "functional must be nonzero on every arrow",
        )
        _require(
            _torus_stabilizer_count(cert.q, values) == cert.stab_count_q,
            "stabilizer count over F_q is off",
        )
        _require(
            _torus_stabilizer_count(cert.q * cert.q, values) == cert.stab_count_q2,
            "stabilizer count over F_q^2 is off",
        )
        _require(cert.stab_count_q == cert.q - 1, "stabilizer over F_q must be the scalars")
        _require(
            cert.stab_count_q2 == cert.q * cert.q - 1, "stabilizer must not grow beyond scalars"
        )
        return True
    if cert.kind == "no-stable-dim-gap":
        g, v = root_count_dims(cert.facet.barycenter())
        _require((g, v) == (cert.dim_g, cert.dim_v), "claimed dimensions are off")
        _require(g - v > 0, "no gap, certificate invalid")
        _require(cert.facet.dim_gap() == g - v, "facet dimension gap is off")
        return True
    if cert.kind == "no-stable-jordan":
        ff = field_of_size(cert.q)
        gq = graded_quotient(cert.facet.barycenter())
        sizes = gq.sizes
        m = sizes[0]
        _require(gq.dim_g == gq.dim_v, "witness only applies at zero gap")
        _require(all(s == m for s in sizes) and m > 1, "blocks must share one size above 1")
        _require(
            len(cert.x_blocks) == len(cert.w_blocks) == gq.num_nodes,
            "one witness block per node",
        )
        px = cert.x_blocks[0]
        pw = cert.w_blocks[0]
        for X in cert.x_blocks[1:]:
            px = _mmul(ff, px, X)
        for W in cert.w_blocks[1:]:
            pw = _mmul(ff, pw, W)
        _require(_rank_det(ff, px)[1] == _rank_det(ff, pw)[1], "products must share the determinant")
        prof_x = _rank_profile(ff, px)
        prof_w = _rank_profile(ff, pw)
        _require(prof_x[-1] == prof_w[-1] == 0, "witness products must be nilpotent")
        _require(prof_x != prof_w, "products must have different Jordan type")
        return True
    if cert.kind == "unstable-cocharacter":
        x = cert.point
        _require(not is_barycenter(x), "point must not be a barycenter")
        gq = graded_quotient(x)
        _require(cert.missing_arrow in gq.missing_arrows(), "cited arrow is present")
        b = cert.weights
        _require(len(b) == gq.num_nodes, "one weight per node")
        for (a, bb) in gq.arrows:
            if b[a] - b[bb] <= 0:
                raise LLCError(f"certificate rejected: arrow {(a, bb)} does not contract")
        return True
    raise ValueError(f"unknown certificate kind {cert.kind}")


# the last (weights, gq, positions) _stuck_arrows computed; holding both
# objects keeps their ids from being reused while the entry is live
_last_stuck = (None, None, ())


def _stuck_arrows(weights: tuple, gq: GradedQuotient) -> tuple[int, ...]:
    """Positions in gq.arrows of the arrows the weights do not contract,
    remembered for the last (weights, gq) pair by identity; raises
    LLCError unless there is one weight per node."""
    global _last_stuck
    last_weights, last_gq, stuck = _last_stuck
    if last_weights is weights and last_gq is gq:
        return stuck
    if len(weights) != len(gq.sizes):
        raise LLCError("certificate rejected: one weight per node")
    stuck = tuple(i for i, (a, bb) in enumerate(gq.arrows) if weights[a] <= weights[bb])
    _last_stuck = (weights, gq, stuck)
    return stuck


def contracts_functional(cert: UnstableCocharacter, lam: FunctionalOverFq) -> bool:
    """Whether the cocharacter limit kills this particular functional:
    its matrix on every arrow the weights do not contract must be zero.

    Which arrows those are depends only on the weights and the graded
    quotient, so it is decided once per (cert.weights, lam.gq) pair and
    only those matrices are read; for a valid certificate there are
    none."""
    mats = lam.matrices
    for i in _stuck_arrows(cert.weights, lam.gq):
        if any(map(any, mats[i])):
            return False
    return True
