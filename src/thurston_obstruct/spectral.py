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
from operator import lshift, mul
from typing import Iterable, Iterator, Optional, Sequence

from ._records import record
from .polynomials import LargestRootIsolator, Poly, _as_fraction, _frame, _level, _primitive
from .polynomials import simplest_rational_between


class PreconditionError(ValueError):
    """An operation was invoked outside its documented domain."""


class NonnegMatrix:
    """Immutable square matrix of nonnegative rationals, stored as ``(scale, ints)``.

    ``ints`` is L*M for L = ``scale``, with gcd(L, every entry) = 1: L is the
    lcm of the reduced denominators, one pair per matrix.  The ``Fraction``
    ``rows`` are built on each call.  The spectral profile, the leading-root
    isolator, the cyclic structure and the Collatz-Wielandt bounds are built
    on first use and kept, so every question about one matrix shares one
    closure of the support, one set of block tags, one characteristic
    polynomial, one doubling over boolean powers and one power iteration.
    """

    __slots__ = ("scale", "ints", "n", "_profile", "_isolator", "_cyclic", "_bounds")

    def __init__(self, rows: Iterable[Iterable]):
        mat = tuple(tuple(_as_fraction(x, "matrix entries") for x in row) for row in rows)
        for row in mat:
            if len(row) != len(mat):
                raise ValueError("matrix must be square")
            for x in row:
                if x < 0:
                    raise ValueError("matrix entries must be nonnegative")
        scale = lcm(*(x.denominator for row in mat for x in row))
        ints = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in mat)
        self._fill(scale, ints)

    @classmethod
    def _from_ints(cls, scale: int, ints: Sequence[Sequence[int]]) -> "NonnegMatrix":
        """The matrix A / L from L > 0 and a nonnegative integer matrix A, unchecked."""
        g = gcd(scale, *(x for row in ints for x in row))
        m = object.__new__(cls)
        if g == 1:  # every decoded input and many powers: no division by 1
            m._fill(scale, tuple(map(tuple, ints)))
        else:
            m._fill(scale // g, tuple(tuple(x // g for x in row) for row in ints))
        return m

    def _fill(self, scale, ints) -> None:
        for name, value in zip(self.__slots__, (scale, ints, len(ints), None, None, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("NonnegMatrix is immutable")

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as ``Fraction`` rows, for reports and ``repr``."""
        return tuple(tuple(Fraction(x, self.scale) for x in row) for row in self.ints)

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
        ints = self.ints
        return NonnegMatrix._from_ints(self.scale, [[ints[i][j] for j in indices] for i in indices])

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


def _period(adj: Sequence[int], vertices: Sequence[int]) -> tuple[int, tuple[tuple[int, ...], ...], list]:
    """``(h, classes, level)`` of the strongly connected support on ``vertices``, in increasing order.

    One BFS from the first vertex gives levels (-1 outside); h, the gcd of level(u) + 1 - level(v)
    over support edges u -> v inside, is that of all cycle lengths; classes are levels modulo h.
    """
    inside = sum(1 << v for v in vertices)
    level, queue = [-1] * len(adj), [vertices[0]]
    level[vertices[0]] = 0
    for v in queue:
        for w in _bits(adj[v] & inside):
            if level[w] < 0:
                level[w] = level[v] + 1
                queue.append(w)
    h = 0
    for u in vertices:
        for v in _bits(adj[u] & inside):
            h = gcd(h, level[u] + 1 - level[v])
        if h == 1:  # no later edge changes it
            break
    return h, tuple(tuple(v for v in vertices if level[v] % h == c) for c in range(h)), level


def _cyclic_structure(m: NonnegMatrix) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """``(h, classes, j)`` of an irreducible matrix, built once and kept on it.

    ``_period`` gives h and the classes, so vertex 0 is in class 0.  M maps
    each class into the next, so every class block of M**h is primitive and
    every other block of it is zero (Berman & Plemmons, ch. 2).  j is the
    least power of A = M**h whose support is exactly the class pattern; for
    h = 1 it is the first positive power of M.  Once a power of A has that
    support, every later one has it too (each row of A meets its class), so
    j is found by doubling: square A until the pattern shows, within the
    Wielandt bound, then fix the bits of j - 1 from the highest down by
    products of the squares, about 2 log2 j boolean products in all.
    """
    if m._cyclic is None:
        if not is_irreducible(m):
            raise PreconditionError("cyclic structure requires an irreducible matrix")
        n = m.n
        adj = spectral_profile(m).support
        h, classes, level = _period(adj, range(n))
        masks = [sum(1 << v for v in cls) for cls in classes]
        pattern = tuple(masks[depth % h] for depth in level)
        step = adj
        for _ in range(h - 1):
            step = _bool_mul(step, adj)
        squares = [step]  # the supports of A**(2**i) for A = M**h
        while squares[-1] != pattern:
            if 1 << len(squares) - 1 >= wielandt_bound(n):  # pragma: no cover - A's blocks are primitive
                raise AssertionError("a class block of M**h is not primitive")
            squares.append(_bool_mul(squares[-1], squares[-1]))
        # j - 1, the greatest power of A whose support is not the pattern, bit by bit from the
        # top: power is the support of A**(j - 1), and None stands for A**0
        power, j = None, 1
        for i in range(len(squares) - 2, -1, -1):
            below = squares[i] if power is None else _bool_mul(power, squares[i])
            if below != pattern:
                power, j = below, j + (1 << i)
        object.__setattr__(m, "_cyclic", (h, classes, j))
    return m._cyclic


def imprimitivity_index(m: NonnegMatrix) -> int:
    """gcd of all directed cycle lengths of the support digraph."""
    return _cyclic_structure(m)[0]


def is_primitive(m: NonnegMatrix) -> bool:
    return is_irreducible(m) and imprimitivity_index(m) == 1


def wielandt_bound(n: int) -> int:
    return (n - 1) ** 2 + 1 if n >= 1 else 1


def power_positive_exponent(m: NonnegMatrix) -> Optional[int]:
    """Smallest k with m**k entrywise positive, or None if no power is positive.

    No power of a reducible or imprimitive matrix is positive, so those get
    None without a search; for a primitive matrix k is the ``j`` of its
    cyclic structure, and k never exceeds the Wielandt bound (n-1)^2 + 1
    (H. Wielandt, Math. Z. 52, 1950).  The empty matrix is vacuously
    positive at k = 1.
    """
    if m.n == 0:
        return 1
    if not is_primitive(m):
        return None
    return _cyclic_structure(m)[2]


_PACK_MIN_DIM = 7  # see _int_mul


def _int_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The product of two integer matrices whose entries are all nonnegative.

    An m x k by k x n product with m, n >= ``_PACK_MIN_DIM`` packs each row of b into one integer,
    its entries w bits apart (Kronecker substitution; D. Harvey, J. Symbolic Comput. 44, 2009):
    row i of the product is then one sum of a[i][t] times packed row t, read back by shift and
    mask.  w is one bit more than the bit length of max(a) * max(b) * k, which bounds every entry
    of the product, so no slot carries into the next; a negative entry would borrow from the slot
    below it.  Smaller products take one dot product per entry.  Measured in process (CPython
    3.11, x86_64), packing took 1.0-1.25x the dot products' time at n = 5-6, 0.7-1.0x at n = 7 and
    0.45-0.8x at n = 8-16 with slots up to 300 bits.
    """
    n = len(b[0]) if b else 0
    if min(len(a), n) >= _PACK_MIN_DIM:
        w = (max(map(max, a)) * max(map(max, b)) * len(b)).bit_length() + 1
        shifts, mask = range(0, n * w, w), (1 << w) - 1
        packed = [sum(map(lshift, row, shifts)) for row in b]
        return [list(map(mask.__and__, map(sum(map(mul, row, packed)).__rshift__, shifts))) for row in a]
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _bool_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Support rows of a product of nonnegative matrices from those of its factors."""
    out = []
    for row in a:
        acc = 0
        while row:  # the set bits of row, lowest first
            low = row & -row
            acc |= b[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# characteristic polynomial and the exact trichotomy


def _class_product(ints: Sequence[Sequence[int]], classes: Sequence[Sequence[int]], c: int) -> list[list[int]]:
    """L^h times the block of M**h on class c (A = L*M): A's blocks between classes, around the cycle."""
    h = len(classes)
    prod = [[ints[i][j] for j in classes[(c + 1) % h]] for i in classes[c]]
    for step in range(c + 1, c + h):
        src, dst = classes[step % h], classes[(step + 1) % h]
        prod = _int_mul(prod, [[ints[i][j] for j in dst] for i in src])
    return prod


def _berkowitz(a: Sequence[Sequence[int]]) -> list[int]:
    """det(yI - A), highest degree first, by Berkowitz's division-free algorithm in O(n^4)."""
    # det(yI - A_r) of the leading r x r block
    vect = [1]
    for r in range(len(a)):
        rows, row, col = [ai[:r] for ai in a[:r]], a[r][:r], [ai[r] for ai in a[:r]]
        # first column of the Toeplitz factor: 1, -a_rr, -R C, -R M C, ...
        toeplitz = [1, -a[r][r]]
        for k in range(r):
            if k:
                col = [sum(map(mul, ai, col)) for ai in rows]
            toeplitz.append(-sum(map(mul, row, col)))
        vect = [sum(map(mul, vect, toeplitz[i::-1])) for i in range(r + 2)]
    return vect


def _block_charpoly(m: NonnegMatrix, block: Sequence[int]) -> list[int]:
    """det(yI - A_b) of one block b of the profile (A = L*M), highest degree first."""
    profile = spectral_profile(m)
    if profile.irreducible:
        h, classes, _ = _cyclic_structure(m)
    elif len(block) == 1 or any(m.ints[v][v] for v in block):  # no cycle, or a loop
        h, classes = 1, (block,)
    else:
        h, classes, _ = _period(profile.support, block)
    c = min(range(h), key=lambda i: len(classes[i]))
    # det(y^h I - P), spread to the powers of y^h
    det, factor = _berkowitz(_class_product(m.ints, classes, c)), [0] * (len(block) + 1)
    factor[: h * len(det) : h] = det
    return factor


def charpoly(m: NonnegMatrix) -> Poly:
    """Monic characteristic polynomial det(xI - M), exact over the rationals.

    Built in integers on A = L*M (L the lcm of the entry denominators) from
    the profile's blocks, which make A block triangular: det(yI - A) is the
    product over the blocks (``_block_charpoly``), a loopless 1x1 block giving y.
    A block of n_b vertices, index h (1 with a loop) and smallest cyclic class
    of size k has y^(n_b - h*k) * det(y^h I - P), P = ``_class_product`` on that
    class (Berman & Plemmons, Nonnegative Matrices in the Mathematical Sciences,
    ch. 2), and ``_berkowitz`` runs on the k x k matrix P.  With
    det(yI - A) = sum_k c_k y^k, det(xI - M) has c_k / L^(n-k) at x^k.
    """
    # det(yI - A) over the blocks so far, highest degree first
    vect = [1]
    for block in spectral_profile(m).structure.blocks():
        product = [0] * (len(vect) + len(block))
        for d, x in enumerate(_block_charpoly(m, block)):
            for i, y in enumerate(vect, d):
                product[i] += x * y
        vect = product
    return tuple(Fraction(vect[k], m.scale**k) for k in range(m.n, -1, -1))


def _bareiss(c: list[list[int]]) -> int:
    """Fraction-free elimination of the k rows of ``c`` (any width), in place.

    Bareiss's scheme without pivoting (E. H. Bareiss, Math. Comp. 22, 1968)
    divides exactly.  It stops at the first of pivots 0..k-2 that is not
    positive and returns its index p, or k-1 when there is none; for each
    row i <= p, ``c[i][j]``, j >= i, is then the minor on rows 0..i and
    columns 0..i-1, j, so ``c[i][i]`` is the leading (i+1)-minor, and
    ``c[i][q]``, q < i, keeps the multiplier of step q for row i.
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


def _eliminate(m: NonnegMatrix, block: Sequence[int]) -> tuple:
    """``(tag, p, g, c)``: one SCC block's leading eigenvalue against 1, by ``_bareiss``.

    Row i of the integer Z-matrix C = K*I - K*B (K = ``m.scale``, B the
    principal submatrix on ``block``) is divided by its gcd g_i, which
    keeps rows with their own denominators small and divides each leading
    minor by a positive factor; ``_bareiss`` stops at p and leaves those
    minors in ``c``.  Minors 1..k-1 positive make I - B_(k-1) a
    nonsingular M-matrix, i.e. rho(B_(k-1)) < 1 (Berman & Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, ch. 6).  For t above
    rho(B_(k-1)), det(tI - B_k) has the sign of a Schur complement that
    increases with t, so its sign at t = 1 says whether B_k has a real
    eigenvalue >= 1.  Hence a minor <= 0 before the last means
    rho(B_k) >= 1, and since B is irreducible its proper principal
    submatrices have strictly smaller rho, so rho(B) > 1; otherwise the
    sign of det C decides.  A 1x1 zero block has C = [K] and is below 1.
    ``BELOW_ONE`` (all k minors positive) is exact for any nonnegative
    block, reducible or not; only the split of the rest needs irreducibility.
    """
    scale, ints = m.scale, m.ints
    rows = [[(scale if i == j else 0) - ints[i][j] for j in block] for i in block]
    gcds = [gcd(*row) or 1 for row in rows]
    c = [[x // g for x in row] for row, g in zip(rows, gcds)]
    p = _bareiss(c)
    det = c[-1][-1] if p == len(c) - 1 else -1
    tag = _TAG_ORDER[0 if det > 0 else 1 if det == 0 else 2]
    return tag, p, gcds, c


def _row_sum_tag(m: NonnegMatrix, block: Sequence[int]) -> Optional[SpectralTag]:
    """The tag of the row sums inside the block when all lie below, above or at L = ``m.scale``; else None.

    For B >= 0, min_i (B 1)_i <= rho(B) <= max_i (B 1)_i (``_bounds_bracket``'s bounds at x = 1).
    """
    ints, scale = m.ints, m.scale
    if len(block) == 1:  # its loop alone: most blocks of a curve table's matrix
        sums = [ints[block[0]][block[0]]]
    else:
        sums = list(map(sum, ints)) if len(block) == m.n else [sum(ints[i][j] for j in block) for i in block]
    low, high = min(sums), max(sums)
    if high < scale or low > scale:
        return SpectralTag.BELOW_ONE if high < scale else SpectralTag.ABOVE_ONE
    return SpectralTag.EXACTLY_ONE if low == high else None


def _block_tag(m: NonnegMatrix, block: Sequence[int]) -> SpectralTag:
    """The block's tag by its row sums, else by ``_eliminate``; also the minimal search's subset test.

    Both agree on a strongly connected block.  On a reducible one at 1 with every row sum L,
    ``_eliminate`` may say above; both say not below 1, all that a reducible block is asked.
    """
    return _row_sum_tag(m, block) or _eliminate(m, block)[0]


@record
class SpectralProfile:
    """Support, condensation and spectral tags of one matrix.

    ``closed_below[b]`` says that block ``b`` of ``structure`` and every
    block reachable from it are below 1.  ``tag`` is the largest block tag,
    the trichotomy of rho(M).  ``eliminations[b]`` is ``_eliminate``'s
    ``(tag, p, g, c)`` for block ``b`` as tuples where its row sums left the
    tag open, kept for the certificate, and None where they decided it.
    """

    support: tuple[int, ...]
    structure: BlockStructure
    block_tags: tuple[SpectralTag, ...]
    closed_below: tuple[bool, ...]
    tag: SpectralTag
    eliminations: tuple[tuple, ...]

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
        by_sums = [_row_sum_tag(m, block) for block in blocks]
        eliminations = [None if t else _eliminate(m, b) for b, t in zip(blocks, by_sums)]
        tags = tuple(t or e[0] for t, e in zip(by_sums, eliminations))
        kept = tuple(e and (*e[:2], tuple(e[2]), tuple(map(tuple, e[3]))) for e in eliminations)
        # a block is closed below 1 when nothing it reaches lies in a block at or above 1
        above = (b for b, t in zip(blocks, tags) if t is not SpectralTag.BELOW_ONE)
        high = sum(1 << v for b in above for v in b)
        closed = tuple(not (reach[b[0]] | 1 << b[0]) & high for b in blocks)
        overall = max(tags, key=_TAG_ORDER.index, default=SpectralTag.BELOW_ONE)
        profile = SpectralProfile(support, structure, tags, closed, overall, kept)
        object.__setattr__(m, "_profile", profile)
    return m._profile


def spectral_tag(m: NonnegMatrix) -> SpectralTag:
    """Exact trichotomy of the leading eigenvalue rho(M) against 1.

    rho(M) is the largest rho over the strongly connected blocks of the
    support digraph, and each block is decided by ``_block_tag``: by its row
    sums when they all lie on one side of L or all equal it, else by the
    M-matrix minors test: all leading principal minors of L*I - L*B positive
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
    start bracket (-rs-1, rs].  rho is also the largest rho of the blocks
    with the matrix's tag, as a block with a lower tag lies below them, and
    each block's rho is the largest real root of its own polynomial under the
    same contract.  So the walk gets the one polynomial ``charpoly`` of an
    irreducible matrix, else det(L x I - A_b) (``_block_charpoly`` at
    y = L x) of each such block b with several vertices, and L x - a for the
    largest diagonal entry a of A on those with one.  Built once per matrix
    that needs a bracket; both kinds of query walk its one bisection path
    from that start.
    """
    if m._isolator is None:
        rs = max(m.row_sums(), default=Fraction(0))
        profile = spectral_profile(m)
        if profile.irreducible:
            polys = [charpoly(m)]
        else:
            blocks = [b for b, tag in zip(profile.structure.blocks(), profile.block_tags) if tag is profile.tag]
            # det(L x I - A_b) and L x - a: integer coefficients, lowest degree first
            polys = [[c * m.scale**k for k, c in enumerate(reversed(_block_charpoly(m, b)))]
                     for b in blocks if len(b) > 1]
            ones = [m.ints[b[0]][b[0]] for b in blocks if len(b) == 1]
            polys += [(-max(ones), m.scale)] if ones else []
        object.__setattr__(m, "_isolator", LargestRootIsolator(polys, -rs - 1, rs))
    return m._isolator


_BOUNDS_MIN_DIM = 7  # a primitive 6x6 matrix still walks its characteristic polynomial
_BOUNDS_LEVELS = 64  # the deepest bisection level the bounds serve
_BOUNDS_BITS = _BOUNDS_LEVELS + 16  # fraction bits of each ratio
_BOUNDS_STEPS = 80  # power steps per matrix before the isolator takes over


def _bounds_bracket(m: NonnegMatrix, width: Optional[Fraction]) -> Optional[tuple[Fraction, Fraction]]:
    """The isolator's ``refine_to_width(width)``, or ``refine_until_separated_from(1)`` for None, by bounds.

    Both answers depend on rho and the level-s grid x_k = (A 2^s + E k) / (B 2^s)
    of the start bracket (-rs-1, rs] alone, (A, E, B) its frame.  The width
    query stops at level ``_level``, the separation at the first level whose
    closed cell excludes 1.  Either gives (rho, rho) at a grid point rho on
    the way, else the cell (x_k, x_(k+1)) holding rho, snapped: (c, c) when
    its simplest rational c is rho and above x_k (never the start bracket's
    c = 0 < rho).  Equal row sums make rho = rs, the grid point at level 0;
    otherwise bounds x_k < lo/den <= rho < hi/den <= x_(k+1) fix the cell,
    and the snap unless c lies in [lo/den, hi/den).

    For A = L*M >= 0 and x > 0, min_i (Ax)_i / x_i <= rho(A) <= max_i (Ax)_i / x_i
    (Collatz 1942; Wielandt 1950; Horn & Johnson, Matrix Analysis, 2nd ed.,
    8.1).  From x = 1, each step takes y = A x (one sum of x_j times packed
    column j, as in ``_int_mul``; every x_i < 2^P, so no slot carries), keeps
    the best lo = min r and hi = max r + 1 over r_i = floor(2^P y_i / x_i),
    den = L 2^P, and shifts y right to P = ``_BOUNDS_BITS`` bits, each entry
    at least 1, as the next x.  On a primitive matrix the bounds close at the
    rate |lambda_2| / rho; the steps are kept on the matrix for the next
    query.  Only primitive matrices of ``_BOUNDS_MIN_DIM`` rows or more are
    answered here, to level ``_BOUNDS_LEVELS`` and in at most ``_BOUNDS_STEPS``
    steps, stopping from step 9 on once hi - lo has not halved over the last
    four, and at once when every closed cell to that level holds 1 for the
    separation, as the bounds only narrow inside those cells; None leaves
    the answer to the isolator.
    """
    if m.n < _BOUNDS_MIN_DIM or not is_primitive(m):
        return None
    sums = list(map(sum, m.ints))
    rs = Fraction(max(sums), m.scale)
    if min(sums) == max(sums):
        return (rs, rs)
    a, e, b = frame = _frame(-rs - 1, rs)
    stop = _BOUNDS_LEVELS if width is None else _level(frame, width)
    if stop > _BOUNDS_LEVELS:
        return None
    if m._bounds is None:
        w = (max(map(max, m.ints)) * m.n << _BOUNDS_BITS).bit_length()
        shifts = range(0, m.n * w, w)
        pack = ([sum(map(lshift, col, shifts)) for col in zip(*m.ints)], shifts, (1 << w) - 1)
        top = max(sums) << _BOUNDS_BITS  # rho <= rs
        object.__setattr__(m, "_bounds", (pack, [1] * m.n, 0, top + 1, m.scale << _BOUNDS_BITS, 0, (top + 1,) * 4))
    while True:
        (cols, shifts, mask), x, lo, hi, den, steps, widths = m._bounds
        # t = (B x - A) / E, the place of x in the start bracket, is low / d at lo / den
        d, low, high = e * den, b * lo - a * den, b * hi - a * den
        for s in range(0 if width is None else stop, stop + 1):
            k = -(-(high << s) // d) - 1  # x_k < hi / den <= x_(k+1)
            if low << s <= k * d:
                break  # lo / den <= x_k: the bounds hold a grid point
            x0, grid = (a << s) + e * k, b << s
            if width is None and x0 <= grid <= x0 + e:
                continue  # the closed cell holds 1
            cell = (Fraction(x0, grid), Fraction(x0 + e, grid))
            c = simplest_rational_between(*cell)
            if c == cell[0] or not lo * c.denominator <= c.numerator * den < hi * c.denominator:
                return cell
            if (high - low) << (s + 16) < d:
                return None  # c within bounds 2^16 times narrower than the cell: c may be rho
            break
        else:
            return None  # every closed cell to the last level holds 1, and later steps keep those cells
        if steps == _BOUNDS_STEPS or steps > 8 and 2 * (hi - lo) > widths[0]:
            return None  # the budget is spent, or the width has not halved over the last four steps
        y = list(map(mask.__and__, map(sum(map(mul, x, cols)).__rshift__, shifts)))
        r = [(v << _BOUNDS_BITS) // u for v, u in zip(y, x)]
        shift = max(y).bit_length() - _BOUNDS_BITS
        x = [max(1, v >> shift) for v in y] if shift > 0 else y
        widths = widths[1:] + (hi - lo,)
        bounds = ((cols, shifts, mask), x, max(lo, min(r)), min(hi, max(r) + 1), den, steps + 1, widths)
        object.__setattr__(m, "_bounds", bounds)  # replaced whole: a racing query repeats steps at most


def leading_eigenvalue_interval(m: NonnegMatrix, width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bracket of width <= ``width`` (at least 2^-4096) around the leading eigenvalue.

    Successive calls with shrinking widths always return overlapping
    intervals, since every result contains the eigenvalue itself.  A
    primitive matrix of 7 rows or more gets its bracket from Collatz-Wielandt
    bounds (``_bounds_bracket``), others by bisection with Taylor probes.  At
    rho = 1, tagged from row sums first, a width below 1 needs no
    characteristic polynomial: 1 is the only integer in a bisection bracket
    that narrow, so a midpoint or the final snap to the simplest rational
    lands on it.  A float width raises ``TypeError``, as a float matrix
    entry does.
    """
    width = _as_fraction(width, "widths")
    if width <= 0:
        raise PreconditionError("width must be positive")
    if width < Fraction(1, 2**4096):  # the bisection's cost grows with the square of its digits
        raise PreconditionError("width must be at least 2^-4096")
    if m.n == 0:
        return (Fraction(0), Fraction(0))
    if width < 1 and spectral_tag(m) is SpectralTag.EXACTLY_ONE:
        return (Fraction(1), Fraction(1))
    return _bounds_bracket(m, width) or _leading_root_isolator(m).refine_to_width(width)


def spectral_radius_class(m: NonnegMatrix) -> SpectralClass:
    """Exact trichotomy of the leading eigenvalue against 1, with a bracket.

    The tag comes from ``spectral_tag``: row sums first, then M-matrix
    leading minors (Berman & Plemmons ch. 6, by Bareiss elimination).  The
    bracket is only printed: it is [1, 1] in the exact case, and otherwise
    bisection from (-rs-1, rs], rs the largest row sum, shrinks it until it
    lies strictly on the tag's side of 1: by Collatz-Wielandt bounds for a
    primitive matrix of 7 rows or more (``_bounds_bracket``), else by probes
    that take the signs of the characteristic polynomial and its derivatives
    from its Taylor coefficients at the probed point (see ``polynomials``).
    """
    one = Fraction(1)
    if m.n == 0:
        return SpectralClass(SpectralTag.BELOW_ONE, Fraction(0), Fraction(0))
    tag = spectral_tag(m)
    if tag is SpectralTag.EXACTLY_ONE:
        return SpectralClass(tag, one, one)
    lo, hi = _bounds_bracket(m, None) or _leading_root_isolator(m).refine_until_separated_from(one)
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

    With ``(h, classes, j)`` the cyclic structure, the exponent is h*j: j is the least
    power of m**h whose class blocks are all positive, and m maps each class into the next,
    so every other block is zero.  The block on class c is P_c**j, P_c = ``_class_product``
    (m itself for h = 1), with no power of the whole matrix; each is checked positive.
    """
    h, classes, j = _cyclic_structure(m)
    blocks = tuple(
        (m if h == 1 else NonnegMatrix._from_ints(m.scale**h, _class_product(m.ints, classes, c))).pow(j)
        for c in range(h)
    )
    if not all(block.is_positive() for block in blocks):
        raise AssertionError("a class block of the power is not positive")  # pragma: no cover
    return ImprimitiveDecomposition(
        exponent=h * j,
        permutation=tuple(v for cls in classes for v in cls),
        block_sizes=tuple(len(cls) for cls in classes),
        blocks=blocks,
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
    answers that.  Each block B of the condensation whose row sums are all 1
    gets 1, its Perron vector; every other gets its part of the certificate
    from the elimination of C (``_eliminate``): the profile's where the row
    sums left B's tag open, else its own, so each block is eliminated once.
    In integers until one division per block:

    - below 1, the inflow from the blocks assigned before, summed over the
      integer rows ``m.ints`` and over C's row gcds, goes through C's
      stored multipliers in O(k^2) as an extra column, and back
      substitution solves (I - B) x = inflow; x > 0, since the block is
      strongly connected (or a single fed vertex) and some inflow is positive;
    - at or above 1, the elimination stops at p with the leading p x p
      block of C a nonsingular M-matrix and the next leading minor <= 0.
      So x = (y, 1, 0, ..., 0) with (I - B_p) y = B[:p, p] has y >= 0 and
      B x >= x: rows 0..p-1 are equal and row p exceeds by minus the Schur
      complement of that minor.  The step x <- B x keeps B x >= x, and as
      B x >= x it adds the predecessors of the support to it; B is
      irreducible, so x is positive within k - 1 steps (on ``m.ints`` for one
      block, else ``m.submatrix(block)``).  At exactly 1, p = k - 1 and x is
      the Perron vector with x_last = 1.
    """
    n = m.n
    profile = spectral_profile(m)
    if n == 0 or any(profile.closed_below):
        return None
    ints = m.ints
    vec = [Fraction(0)] * n
    # support edges point to earlier blocks, which are assigned first
    for block, tag, elimination in zip(profile.structure.blocks(), profile.block_tags, profile.eliminations):
        k = len(block)
        if elimination is None and tag is not SpectralTag.EXACTLY_ONE:  # tagged by its row sums
            elimination = _eliminate(m, block)
        if elimination is None:  # every row sum 1: the Perron vector 1
            z, den = [1] * k, 1
        elif elimination[0] is SpectralTag.BELOW_ONE:
            _, _, gcds, c = elimination
            # row i of K*(I - B) x = K*inflow over g_i, times den to clear it
            inflow = [Fraction(sum(a * vec[j] for j, a in enumerate(ints[i]) if a), g)
                      for i, g in zip(block, gcds)]
            den = lcm(*(f.denominator for f in inflow))
            col = [-f.numerator * (den // f.denominator) for f in inflow]
            for q in range(k - 1):  # Bareiss's step q on the extra column
                pivot, prev = c[q][q], c[q - 1][q - 1] if q else 1
                col[q + 1 :] = [(x * pivot - c[i][q] * col[q]) // prev
                                for i, x in enumerate(col[q + 1 :], q + 1)]
            z = _back_substitute([(*row, x) for row, x in zip(c, col)], k)
            den *= z.pop()
        else:
            _, p, _, c = elimination
            z = _back_substitute(c, p) + [0] * (k - 1 - p)
            den = z[p]
            b = ints if len(profile.block_tags) == 1 else m.submatrix(block).ints
            for _ in range(k - 1):
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
