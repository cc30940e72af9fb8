"""Exact spectral analysis of square nonnegative rational matrices.

The engine decides, with rational certificates only, how the leading
eigenvalue of a nonnegative matrix compares to 1, exposes the strongly
connected block structure of the support digraph, tests irreducibility
and primitivity, builds the cyclic (imprimitive) block decomposition, and
searches for positive subinvariant vectors.  Floating point is never
consulted for a verdict.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from ._records import record
from .polynomials import LargestRootIsolator, Poly, _primitive, poly


class PreconditionError(ValueError):
    """An operation was invoked outside its documented domain."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating-point matrix entries are not accepted")
    return value if type(value) is Fraction else Fraction(value)


class NonnegMatrix:
    """Immutable square matrix of nonnegative rationals, stored as ``(scale, ints)``.

    ``ints`` is L*M for L = ``scale``, with gcd(L, every entry) = 1: L is the
    lcm of the reduced denominators, one pair per matrix.  The ``Fraction``
    ``rows``, the spectral profile, the leading-root isolator and the cyclic
    structure are built on first use and kept, so every question about one
    matrix shares one closure of the support, one set of block tags, one
    characteristic polynomial and one boolean-power loop.
    """

    __slots__ = ("scale", "ints", "n", "_rows", "_profile", "_isolator", "_cyclic")

    def __init__(self, rows: Iterable[Iterable]):
        mat = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
        for row in mat:
            if len(row) != len(mat):
                raise ValueError("matrix must be square")
            for x in row:
                if x < 0:
                    raise ValueError("matrix entries must be nonnegative")
        scale = lcm(*(x.denominator for row in mat for x in row))
        ints = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in mat)
        self._fill(scale, ints, mat)

    @classmethod
    def _from_ints(cls, scale: int, ints: Sequence[Sequence[int]]) -> "NonnegMatrix":
        """The matrix A / L from L > 0 and a nonnegative integer matrix A, unchecked."""
        g = gcd(scale, *(x for row in ints for x in row))
        m = object.__new__(cls)
        m._fill(scale // g, tuple(tuple(x // g for x in row) for row in ints), None)
        return m

    def _fill(self, scale, ints, rows) -> None:
        for name, value in zip(self.__slots__, (scale, ints, len(ints), rows, None, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("NonnegMatrix is immutable")

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as ``Fraction`` rows, for reports and ``repr``."""
        if self._rows is None:
            rows = tuple(tuple(Fraction(x, self.scale) for x in row) for row in self.ints)
            object.__setattr__(self, "_rows", rows)
        return self._rows

    def __eq__(self, other) -> bool:
        same = isinstance(other, NonnegMatrix) and self.scale == other.scale
        return same and self.ints == other.ints

    def __hash__(self) -> int:
        return hash((self.scale, self.ints))

    def __repr__(self) -> str:
        return f"NonnegMatrix({[[str(x) for x in row] for row in self.rows]})"

    def pow(self, k: int) -> "NonnegMatrix":
        """M**k: (L*M)**k by repeated squaring from k's leading bit, over L**k."""
        if k < 0:
            raise ValueError("negative power")
        power = self.ints if k else [[int(i == j) for j in range(self.n)] for i in range(self.n)]
        for bit in bin(k)[3:]:
            power = _int_mul(power, power)
            if bit == "1":
                power = _int_mul(power, self.ints)
        return NonnegMatrix._from_ints(self.scale**k, power)

    def submatrix(self, indices: Sequence[int]) -> "NonnegMatrix":
        return NonnegMatrix._from_ints(*_cleared(self, indices))

    def is_positive(self) -> bool:
        return all(x > 0 for row in self.ints for x in row)

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(sum(row), self.scale) for row in self.ints)

    def support(self) -> tuple[int, ...]:
        """Row bitmasks of the support digraph (edge i -> j iff entry > 0)."""
        return tuple(sum(1 << j for j, x in enumerate(row) if x) for row in self.ints)


class SpectralTag(enum.Enum):
    BELOW_ONE = "below_one"
    EXACTLY_ONE = "exactly_one"
    ABOVE_ONE = "above_one"


_TAG_ORDER = tuple(SpectralTag)  # members are declared in increasing order of rho


@record
class SpectralClass:
    """Trichotomy of the leading eigenvalue against 1, with a rational bracket."""

    tag: SpectralTag
    lo: Fraction
    hi: Fraction


@record
class BlockStructure:
    """Strongly-connected condensation of the support digraph.

    ``permutation`` lists original indices in the new order; the permuted
    matrix is block lower triangular and every diagonal block is a single
    strongly connected component.  ``blocks_irreducible`` is False exactly
    for 1x1 blocks whose vertex carries no loop.
    """

    permutation: tuple[int, ...]
    block_sizes: tuple[int, ...]
    blocks_irreducible: tuple[bool, ...]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Original-index groups, in permuted order."""
        ends = accumulate(self.block_sizes)
        return tuple(self.permutation[end - k : end] for k, end in zip(self.block_sizes, ends))


# ---------------------------------------------------------------------------
# support digraph machinery


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(adj: Sequence[int]) -> list[int]:
    """Transitive closure of support rows: bit j of row i iff a nonempty path leads from i to j.

    Warshall's algorithm (S. Warshall, J. ACM 9, 1962): for each k, every
    row holding bit k takes in row k.
    """
    reach = list(adj)
    for k in range(len(reach)):
        bit, row = 1 << k, reach[k]
        reach = [r | row if r & bit else r for r in reach]
    return reach


def _condense(reach: Sequence[int]) -> BlockStructure:
    """Condensation of a support digraph in ``scc_partition``'s order, from its closure.

    Vertices on a cycle with equal closure rows form one block, and any
    other vertex is a block alone.  Blocks are listed one at a time: the
    first, by least vertex, of those whose reachable vertices are all listed.
    """
    groups: dict[int, list[int]] = {}
    for v, r in enumerate(reach):
        groups.setdefault(r if r >> v & 1 else ~v, []).append(v)
    pending = [(sum(1 << v for v in block), block) for block in groups.values()]
    blocks: list[list[int]] = []
    done = 0
    while pending:
        i = next(i for i, (mask, b) in enumerate(pending) if not reach[b[0]] & ~(done | mask))
        mask, block = pending.pop(i)
        done |= mask
        blocks.append(block)
    return BlockStructure(
        permutation=tuple(v for block in blocks for v in block),
        block_sizes=tuple(len(block) for block in blocks),
        blocks_irreducible=tuple(bool(reach[b[0]] >> b[0] & 1) for b in blocks),
    )


def scc_partition(m: NonnegMatrix) -> BlockStructure:
    """Condense the support digraph into a block lower triangular form.

    Components are emitted so that all support edges point from later
    blocks to earlier blocks; among valid orders the one whose next block
    has the smallest original index is chosen, which makes reports
    deterministic.
    """
    return spectral_profile(m).structure


def is_irreducible(m: NonnegMatrix) -> bool:
    """Support digraph strongly connected, every vertex on a cycle.

    A 1x1 zero matrix counts as reducible so that irreducible matrices
    always have a positive leading eigenvalue.
    """
    return spectral_profile(m).irreducible


def _cyclic_structure(m: NonnegMatrix) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """``(h, classes, j)`` of an irreducible matrix, built once and kept on it.

    One BFS from vertex 0 gives levels; h is the gcd over support edges
    u -> v of level(u) + 1 - level(v), which is the gcd of all cycle
    lengths, and the cyclic classes are the levels modulo h.  M maps each
    class into the next, so every class block of M**h is primitive and
    every other block of it is zero (Berman & Plemmons, ch. 2).  j is the
    least power of M**h whose support is exactly the class pattern, found
    by one loop over boolean powers within the Wielandt bound; for h = 1 it
    is the first positive power of M.
    """
    if m._cyclic is None:
        if not is_irreducible(m):
            raise PreconditionError("cyclic structure requires an irreducible matrix")
        n = m.n
        adj = spectral_profile(m).support
        level = [0] + [-1] * (n - 1)
        queue = [0]
        for v in queue:
            for w in _bits(adj[v]):
                if level[w] == -1:
                    level[w] = level[v] + 1
                    queue.append(w)
        h = 0
        for u in range(n):
            for v in _bits(adj[u]):
                h = gcd(h, abs(level[u] + 1 - level[v]))
        classes = tuple(tuple(v for v in range(n) if level[v] % h == c) for c in range(h))
        masks = [sum(1 << v for v in cls) for cls in classes]
        pattern = tuple(masks[depth % h] for depth in level)
        step = adj
        for _ in range(h - 1):
            step = _bool_mul(step, adj)
        power, j = step, 1
        while power != pattern:
            if j == wielandt_bound(n):  # pragma: no cover - class blocks of M**h are primitive
                raise AssertionError("a class block of M**h is not primitive")
            power, j = _bool_mul(power, step), j + 1
        object.__setattr__(m, "_cyclic", (h, classes, j))
    return m._cyclic


def imprimitivity_index(m: NonnegMatrix) -> int:
    """gcd of all directed cycle lengths of the support digraph."""
    return _cyclic_structure(m)[0]


def is_primitive(m: NonnegMatrix) -> bool:
    return is_irreducible(m) and imprimitivity_index(m) == 1


def wielandt_bound(n: int) -> int:
    return (n - 1) ** 2 + 1 if n >= 1 else 1


def power_positive_exponent(m: NonnegMatrix, cap: Optional[int] = None) -> Optional[int]:
    """Smallest k <= cap with m**k entrywise positive, or None.

    The default cap is the Wielandt bound (n-1)^2 + 1, which every
    primitive matrix meets.  No power of a reducible or imprimitive matrix
    is positive, so those get None without a search; for a primitive
    matrix k is the ``j`` of its cyclic structure.  The empty matrix is
    vacuously positive at k = 1.
    """
    if cap is None:
        cap = wielandt_bound(m.n)
    if cap < 1:
        raise PreconditionError("cap must be at least 1")
    if m.n == 0:
        return 1
    if not is_primitive(m):
        return None
    k = _cyclic_structure(m)[2]
    return k if k <= cap else None


def _int_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _bool_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Support rows of a product of nonnegative matrices from those of its factors."""
    out = []
    for row in a:
        acc = 0
        for j in _bits(row):
            acc |= b[j]
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# characteristic polynomial and the exact trichotomy


def _cleared(m: NonnegMatrix, indices: Sequence[int]) -> tuple[int, list[list[int]]]:
    """``(L, L*B)`` for the principal submatrix B on ``indices``, L the lcm of its denominators.

    That lcm is K / g for K = ``m.scale`` and g = gcd(K, B's entries of ``m.ints``).
    """
    ints = m.ints
    sub = [[ints[i][j] for j in indices] for i in indices]
    g = gcd(m.scale, *(x for row in sub for x in row))
    if g > 1:
        sub = [[x // g for x in row] for row in sub]
    return m.scale // g, sub


def charpoly(m: NonnegMatrix) -> Poly:
    """Monic characteristic polynomial det(xI - M), exact over the rationals.

    Berkowitz's division-free algorithm (S. J. Berkowitz, Inform. Process.
    Lett. 18, 1984) runs on the integer matrix A = L*M, L the lcm of the
    entry denominators.  With det(yI - A) = sum_k c_k y^k, the coefficient
    of x^k in det(xI - M) is c_k / L^(n-k).  O(n^4) integer operations.
    """
    scale, a = m.scale, m.ints
    # det(yI - A_r) of the leading r x r block, highest degree first
    vect = [1]
    for r in range(m.n):
        row, col = a[r][:r], [a[i][r] for i in range(r)]
        # first column of the Toeplitz factor: 1, -a_rr, -R C, -R M C, ...
        toeplitz = [1, -a[r][r]]
        for k in range(r):
            if k:
                col = [sum(map(mul, a[i], col)) for i in range(r)]
            toeplitz.append(-sum(map(mul, row, col)))
        vect = [
            sum(toeplitz[i - j] * vect[j] for j in range(min(i, r) + 1))
            for i in range(r + 2)
        ]
    return poly(reversed([Fraction(c, scale**k) for k, c in enumerate(vect)]))


def _eye_minus(scale: int, b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer Z-matrix L*I - L*B from ``_cleared``'s ``(L, L*B)``."""
    return [[(scale if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(b)]


def _bareiss(c: list[list[int]]) -> int:
    """Fraction-free elimination of the k rows of ``c`` (any width), in place.

    Bareiss's scheme without pivoting (E. H. Bareiss, Math. Comp. 22, 1968)
    divides exactly.  It stops at the first of pivots 0..k-2 that is not
    positive and returns its index p, or k-1 when there is none; for each
    row i <= p, ``c[i][j]``, j >= i, is then the minor on rows 0..i and
    columns 0..i-1, j, so ``c[i][i]`` is the leading (i+1)-minor.
    """
    k = len(c)
    prev = 1
    for p in range(k - 1):
        pivot_row = c[p]
        pivot = pivot_row[p]
        if pivot <= 0:
            return p
        tail = pivot_row[p + 1 :]
        for row in c[p + 1 :]:
            f = row[p]
            row[p + 1 :] = [(x * pivot - f * y) // prev for x, y in zip(row[p + 1 :], tail)]
        prev = pivot
    return k - 1


def _back_substitute(c: Sequence[Sequence[int]], m: int) -> list[int]:
    """Integer kernel vector z of the first m eliminated rows on columns 0..m.

    The leading m x m block A of those rows has the positive determinant
    d = ``c[m-1][m-1]`` (1 when m = 0).  Then z = d * (x, 1) with
    A x = -(column m), so by Cramer's rule every entry of z is an integer
    and each division below is exact.
    """
    z = [0] * m + [c[m - 1][m - 1] if m else 1]
    for i in reversed(range(m)):
        row = c[i]
        z[i] = -sum(row[j] * z[j] for j in range(i + 1, m + 1)) // row[i]
    return z


def _block_tag(m: NonnegMatrix, block: Sequence[int]) -> SpectralTag:
    """Leading eigenvalue of the principal submatrix on one SCC block against 1.

    ``_bareiss`` on the integer Z-matrix C = L*I - L*B yields the leading
    principal minors of C.  Minors 1..k-1 positive make I - B_(k-1) a
    nonsingular M-matrix, i.e. rho(B_(k-1)) < 1 (Berman & Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, ch. 6).  For t above
    rho(B_(k-1)), det(tI - B_k) has the sign of a Schur complement that
    increases with t, so its sign at t = 1 says whether B_k has a real
    eigenvalue >= 1.  Hence a minor <= 0 before the last means
    rho(B_k) >= 1, and since B is irreducible its proper principal
    submatrices have strictly smaller rho, so rho(B) > 1; otherwise the
    sign of det C decides.  A 1x1 zero block has C = [L] and is below 1.
    ``BELOW_ONE`` (all k minors positive) is exact for any nonnegative
    block, reducible or not; only the split of the rest needs irreducibility.
    """
    c = _eye_minus(*_cleared(m, block))
    if _bareiss(c) < len(c) - 1:
        return SpectralTag.ABOVE_ONE
    det = c[-1][-1]
    if det > 0:
        return SpectralTag.BELOW_ONE
    return SpectralTag.EXACTLY_ONE if det == 0 else SpectralTag.ABOVE_ONE


@record
class SpectralProfile:
    """Support, condensation and spectral tags of one matrix.

    ``closed_below[b]`` says that block ``b`` of ``structure`` and every
    block reachable from it are below 1.  ``tag`` is the largest block tag,
    the trichotomy of rho(M).
    """

    support: tuple[int, ...]
    structure: BlockStructure
    block_tags: tuple[SpectralTag, ...]
    closed_below: tuple[bool, ...]
    tag: SpectralTag

    @property
    def irreducible(self) -> bool:
        return self.structure.blocks_irreducible == (True,)


def spectral_profile(m: NonnegMatrix) -> SpectralProfile:
    """The matrix's spectral profile, built on first use and kept on the matrix."""
    if m._profile is None:
        support = m.support()
        reach = _reach(support)
        structure = _condense(reach)
        blocks = structure.blocks()
        tags = tuple(_block_tag(m, block) for block in blocks)
        # a block is closed below 1 when nothing it reaches lies in a block at or above 1
        above = (b for b, t in zip(blocks, tags) if t is not SpectralTag.BELOW_ONE)
        high = sum(1 << v for b in above for v in b)
        closed = tuple(not (reach[b[0]] | 1 << b[0]) & high for b in blocks)
        overall = max(tags, key=_TAG_ORDER.index, default=SpectralTag.BELOW_ONE)
        profile = SpectralProfile(support, structure, tags, closed, overall)
        object.__setattr__(m, "_profile", profile)
    return m._profile


def spectral_tag(m: NonnegMatrix) -> SpectralTag:
    """Exact trichotomy of the leading eigenvalue rho(M) against 1.

    rho(M) is the largest rho over the strongly connected blocks of the
    support digraph, and each block is decided by the M-matrix minors test
    of ``_block_tag``: all leading principal minors of L*I - L*B positive
    means below 1, the first n-1 positive and the determinant zero means
    exactly 1, anything else above 1 (Berman & Plemmons, ch. 6; Bareiss
    1968).  Integer arithmetic only; the empty matrix is below 1.
    """
    return spectral_profile(m).tag


def _leading_root_isolator(m: NonnegMatrix) -> LargestRootIsolator:
    """The isolator for the leading eigenvalue of a nonempty matrix.

    The leading eigenvalue rho is the largest real root of the characteristic
    polynomial, and every eigenvalue z has Re z <= |z| <= rho <= rs, rs the
    maximal row sum (Perron-Frobenius): the isolator's contract holds, with
    start bracket (-rs-1, rs].  Built once per matrix and immutable; each
    query bisects from that start whatever was asked before.
    """
    if m._isolator is None:
        rs = max(m.row_sums(), default=Fraction(0))
        object.__setattr__(m, "_isolator", LargestRootIsolator(charpoly(m), -rs - 1, rs))
    return m._isolator


def leading_eigenvalue_interval(m: NonnegMatrix, width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bracket of width <= ``width`` (at least 2^-4096) around the leading eigenvalue.

    Successive calls with shrinking widths always return overlapping
    intervals, since every result contains the eigenvalue itself.
    """
    width = Fraction(width)
    if width <= 0:
        raise PreconditionError("width must be positive")
    if width < Fraction(1, 2**4096):  # the bisection's cost grows with the square of its digits
        raise PreconditionError("width must be at least 2^-4096")
    if m.n == 0:
        return (Fraction(0), Fraction(0))
    return _leading_root_isolator(m).refine_to_width(width)


def spectral_radius_class(m: NonnegMatrix) -> SpectralClass:
    """Exact trichotomy of the leading eigenvalue against 1, with a bracket.

    The tag comes from ``spectral_tag`` (M-matrix leading minors, Berman &
    Plemmons ch. 6, by Bareiss elimination).  The bracket is only printed:
    it is [1, 1] in the exact case, and otherwise bisection from (-rs-1, rs],
    rs the largest row sum, by the signs of the characteristic polynomial and
    its derivatives, shrinks it until it lies strictly on the tag's side of 1.
    """
    one = Fraction(1)
    if m.n == 0:
        return SpectralClass(SpectralTag.BELOW_ONE, Fraction(0), Fraction(0))
    tag = spectral_tag(m)
    if tag is SpectralTag.EXACTLY_ONE:
        return SpectralClass(tag, one, one)
    lo, hi = _leading_root_isolator(m).refine_until_separated_from(one)
    return SpectralClass(tag, lo, hi)


# ---------------------------------------------------------------------------
# imprimitive decomposition


@record
class ImprimitiveDecomposition:
    """Permuted power of an irreducible matrix with positive diagonal blocks.

    ``matrix.pow(exponent)`` reindexed by ``permutation`` is block diagonal:
    the listed blocks are entrywise positive and every off-diagonal block
    is exactly zero.  The exponent is a multiple of the imprimitivity index.
    """

    exponent: int
    permutation: tuple[int, ...]
    block_sizes: tuple[int, ...]
    blocks: tuple[NonnegMatrix, ...]


def cyclic_classes(m: NonnegMatrix) -> list[list[int]]:
    """The h cyclic classes of an irreducible matrix, h its imprimitivity index.

    Class c holds the vertices whose BFS level from vertex 0 is c modulo h,
    in increasing order, so vertex 0 is in class 0; every support edge
    leads from a class into the next one, cyclically.
    """
    return [list(cls) for cls in _cyclic_structure(m)[1]]


def imprimitive_block_decomposition(m: NonnegMatrix) -> ImprimitiveDecomposition:
    """Block-diagonal positive decomposition of a power of an irreducible matrix.

    With ``(h, classes, j)`` the cyclic structure, the exponent is h*j: j is
    the least power of m**h whose class blocks are all positive, while every
    block between two classes stays zero.  Only that one power is computed
    in integers, and its support is checked exactly against the class
    pattern before the blocks are cut out of it.
    """
    h, classes, j = _cyclic_structure(m)
    k = h * j
    mk = m.pow(k)
    support = mk.support()
    if any(support[v] != sum(1 << w for w in cls) for cls in classes for v in cls):
        raise AssertionError("power does not have the cyclic block pattern")  # pragma: no cover
    return ImprimitiveDecomposition(
        exponent=k,
        permutation=tuple(v for cls in classes for v in cls),
        block_sizes=tuple(len(cls) for cls in classes),
        blocks=tuple(mk.submatrix(cls) for cls in classes),
    )


# ---------------------------------------------------------------------------
# positive subinvariant vectors (simple-obstruction certificates)


def below_one_closed_indices(m: NonnegMatrix) -> tuple[int, ...]:
    """Indices lying in blocks whose whole forward closure stays below 1.

    These are exactly the rows a reordering can expose as a leading
    principal block with leading eigenvalue below 1; dropping them never
    changes the leading eigenvalue of a matrix whose eigenvalue is >= 1.
    """
    profile = spectral_profile(m)
    closed = zip(profile.structure.blocks(), profile.closed_below)
    return tuple(sorted(i for block, below in closed if below for i in block))


def exists_positive_subinvariant_vector(m: NonnegMatrix) -> Optional[tuple[Fraction, ...]]:
    """Positive rational v with M v >= v componentwise, or None when impossible.

    Existence is equivalent to: no reordering of indices exposes a leading
    principal block, closed under support edges, whose leading eigenvalue
    is below 1 (the matrix as a whole counts as such a block).  The profile
    answers that.  Each block B of the condensation gets its part of the
    certificate from the ``_bareiss`` elimination of C = L*I - L*B that
    decides its tag, in integers until one division per block:

    - below 1, C gets the inflow from the blocks assigned before, summed
      over the integer rows ``m.ints``, as an extra column, and back
      substitution solves (I - B) x = inflow; x > 0, since the block is
      strongly connected (or a single fed vertex) and some inflow is positive;
    - at or above 1, the elimination stops at p with the leading p x p
      block of C a nonsingular M-matrix and the next leading minor <= 0.
      So x = (y, 1, 0, ..., 0) with (I - B_p) y = B[:p, p] has y >= 0 and
      B x >= x: rows 0..p-1 are equal and row p exceeds by minus the Schur
      complement of that minor.  The step x <- B x keeps B x >= x, and as
      B x >= x it adds the predecessors of the support to it; B is
      irreducible, so x is positive within k - 1 steps.  At exactly 1,
      p = k - 1 and x is the Perron vector with x_last = 1.
    """
    n = m.n
    profile = spectral_profile(m)
    if n == 0 or any(profile.closed_below):
        return None
    ints = m.ints
    vec = [Fraction(0)] * n
    # support edges point to earlier blocks, which are assigned first
    for block, tag in zip(profile.structure.blocks(), profile.block_tags):
        scale, b = _cleared(m, block)
        c = _eye_minus(scale, b)
        if tag is SpectralTag.BELOW_ONE:
            # the integer rows give m.scale * inflow, m.scale // scale times the
            # scale * inflow that C's column stands for; den takes that factor out
            inflow = [sum(a * vec[j] for j, a in enumerate(ints[i]) if a) for i in block]
            den = lcm(*(f.denominator for f in inflow))
            for row, f in zip(c, inflow):
                row.append(-f.numerator * (den // f.denominator))
            _bareiss(c)
            z = _back_substitute(c, len(block))
            den *= z.pop() * (m.scale // scale)
        else:
            p = _bareiss(c)
            z = _back_substitute(c, p) + [0] * (len(block) - 1 - p)
            den = z[p]
            for _ in range(len(block) - 1):
                if all(z):
                    break
                z = [sum(map(mul, row, z)) for row in b]
        for i, value in zip(block, z):
            vec[i] = Fraction(value, den)
    cert = _primitive(vec)
    # exact self-check, as the certificate is public: M v >= v iff (L*M) v >= L v
    if any(x <= 0 or sum(map(mul, row, cert)) < m.scale * x for row, x in zip(ints, cert)):
        raise AssertionError("subinvariant certificate failed verification")
    return tuple(map(Fraction, cert))
