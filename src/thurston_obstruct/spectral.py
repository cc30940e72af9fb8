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
import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .polynomials import LargestRootIsolator, Poly, poly


class PreconditionError(ValueError):
    """An operation was invoked outside its documented domain."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating-point matrix entries are not accepted")
    return Fraction(value)


class NonnegMatrix:
    """Immutable square matrix of nonnegative rationals."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Iterable[Iterable]):
        mat = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
        n = len(mat)
        for row in mat:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for x in row:
                if x < 0:
                    raise ValueError("matrix entries must be nonnegative")
        object.__setattr__(self, "rows", mat)
        object.__setattr__(self, "n", n)

    def __setattr__(self, *_):
        raise AttributeError("NonnegMatrix is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, NonnegMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"NonnegMatrix({[[str(x) for x in row] for row in self.rows]})"

    @staticmethod
    def identity(n: int) -> "NonnegMatrix":
        return NonnegMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def mul(self, other: "NonnegMatrix") -> "NonnegMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        cols = list(zip(*other.rows)) if n else []
        return NonnegMatrix(
            [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols] for row in self.rows]
        )

    def pow(self, k: int) -> "NonnegMatrix":
        if k < 0:
            raise ValueError("negative power")
        result = NonnegMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            base = base.mul(base) if k > 1 else base
            k >>= 1
        return result

    def submatrix(self, indices: Sequence[int]) -> "NonnegMatrix":
        return NonnegMatrix([[self.rows[i][j] for j in indices] for i in indices])

    def is_positive(self) -> bool:
        return all(x > 0 for row in self.rows for x in row)

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.rows)

    def support(self) -> tuple[int, ...]:
        """Row bitmasks of the support digraph (edge i -> j iff entry > 0)."""
        out = []
        for row in self.rows:
            bits = 0
            for j, x in enumerate(row):
                if x > 0:
                    bits |= 1 << j
            out.append(bits)
        return tuple(out)


class SpectralTag(enum.Enum):
    BELOW_ONE = "below_one"
    EXACTLY_ONE = "exactly_one"
    ABOVE_ONE = "above_one"


@dataclass(frozen=True)
class SpectralClass:
    """Trichotomy of the leading eigenvalue against 1, with a rational bracket."""

    tag: SpectralTag
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
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
        out = []
        pos = 0
        for size in self.block_sizes:
            out.append(self.permutation[pos : pos + size])
            pos += size
        return tuple(out)


# ---------------------------------------------------------------------------
# support digraph machinery


def _strongly_connected_components(adj: Sequence[int], n: int) -> list[list[int]]:
    """Tarjan's algorithm, iterative, components as sorted vertex lists."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            mask = adj[v] >> pi
            j = pi
            while mask:
                if mask & 1:
                    w = j
                    if index[w] == -1:
                        work.append((v, j + 1))
                        work.append((w, 0))
                        advanced = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                mask >>= 1
                j += 1
            if advanced:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def scc_partition(m: NonnegMatrix) -> BlockStructure:
    """Condense the support digraph into a block lower triangular form.

    Components are emitted so that all support edges point from later
    blocks to earlier blocks; among valid orders the one whose next block
    has the smallest original index is chosen, which makes reports
    deterministic.
    """
    n = m.n
    if n == 0:
        return BlockStructure((), (), ())
    adj = m.support()
    comps = _strongly_connected_components(adj, n)
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    # condensation: edge a -> b when some support edge leaves comp a into comp b
    succ: list[set[int]] = [set() for _ in comps]
    for v in range(n):
        mask = adj[v]
        j = 0
        while mask:
            if mask & 1 and comp_of[v] != comp_of[j]:
                succ[comp_of[v]].add(comp_of[j])
            mask >>= 1
            j += 1
    # a block may be listed once all blocks it points to are listed
    pending = [len(s) for s in succ]
    preds: list[set[int]] = [set() for _ in comps]
    for a, targets in enumerate(succ):
        for b in targets:
            preds[b].add(a)
    heap = [(comps[ci][0], ci) for ci in range(len(comps)) if pending[ci] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        _, ci = heapq.heappop(heap)
        order.append(ci)
        for a in preds[ci]:
            pending[a] -= 1
            if pending[a] == 0:
                heapq.heappush(heap, (comps[a][0], a))
    perm: list[int] = []
    sizes: list[int] = []
    irreducible: list[bool] = []
    for ci in order:
        comp = comps[ci]
        perm.extend(comp)
        sizes.append(len(comp))
        if len(comp) == 1:
            v = comp[0]
            irreducible.append(bool(adj[v] >> v & 1))
        else:
            irreducible.append(True)
    return BlockStructure(tuple(perm), tuple(sizes), tuple(irreducible))


def is_irreducible(m: NonnegMatrix) -> bool:
    """Support digraph strongly connected, every vertex on a cycle.

    A 1x1 zero matrix counts as reducible so that irreducible matrices
    always have a positive leading eigenvalue.
    """
    n = m.n
    if n == 0:
        return False
    if n == 1:
        return m.rows[0][0] > 0
    return len(_strongly_connected_components(m.support(), n)) == 1


def imprimitivity_index(m: NonnegMatrix) -> int:
    """gcd of all directed cycle lengths of the support digraph."""
    if not is_irreducible(m):
        raise PreconditionError("imprimitivity index requires an irreducible matrix")
    adj = m.support()
    n = m.n
    dist = [-1] * n
    dist[0] = 0
    queue = [0]
    edges: list[tuple[int, int]] = []
    while queue:
        nxt: list[int] = []
        for v in queue:
            mask = adj[v]
            j = 0
            while mask:
                if mask & 1:
                    edges.append((v, j))
                    if dist[j] == -1:
                        dist[j] = dist[v] + 1
                        nxt.append(j)
                mask >>= 1
                j += 1
        queue = nxt
    h = 0
    for u, v in edges:
        h = gcd(h, abs(dist[u] + 1 - dist[v]))
    return h


def is_primitive(m: NonnegMatrix) -> bool:
    return is_irreducible(m) and imprimitivity_index(m) == 1


def wielandt_bound(n: int) -> int:
    return (n - 1) ** 2 + 1 if n >= 1 else 1


def power_positive_exponent(m: NonnegMatrix, cap: Optional[int] = None) -> Optional[int]:
    """Smallest k <= cap with m**k entrywise positive, or None.

    The default cap is the Wielandt bound (n-1)^2 + 1, which suffices for
    every primitive matrix.  Positivity of a power depends only on the
    support, so the search runs on boolean matrices.
    """
    if cap is None:
        cap = wielandt_bound(m.n)
    if cap < 1:
        raise PreconditionError("cap must be at least 1")
    n = m.n
    if n == 0:
        return 1
    full = (1 << n) - 1
    base = m.support()
    cur = base
    for k in range(1, cap + 1):
        if k > 1:
            cur = tuple(
                _bool_row_mul(cur[i], base, n) for i in range(n)
            )
        if all(row == full for row in cur):
            return k
    return None


def _bool_row_mul(row_bits: int, mat: Sequence[int], n: int) -> int:
    out = 0
    j = 0
    bits = row_bits
    while bits:
        if bits & 1:
            out |= mat[j]
        bits >>= 1
        j += 1
    return out


# ---------------------------------------------------------------------------
# characteristic polynomial and the exact trichotomy


def _cleared(rows, indices: Sequence[int]) -> tuple[int, list[list[int]]]:
    """``(L, L*B)`` for the principal submatrix B on ``indices``.

    L is the lcm of B's entry denominators, so L*B is an integer matrix.
    """
    scale = lcm(*(rows[i][j].denominator for i in indices for j in indices))
    return scale, [
        [rows[i][j].numerator * (scale // rows[i][j].denominator) for j in indices]
        for i in indices
    ]


def charpoly(m: NonnegMatrix) -> Poly:
    """Monic characteristic polynomial det(xI - M), exact over the rationals.

    Berkowitz's division-free algorithm (S. J. Berkowitz, Inform. Process.
    Lett. 18, 1984) runs on the integer matrix A = L*M, L the lcm of the
    entry denominators.  With det(yI - A) = sum_k c_k y^k, the coefficient
    of x^k in det(xI - M) is c_k / L^(n-k).  O(n^4) integer operations.
    """
    n = m.n
    scale, a = _cleared(m.rows, range(n))
    # det(yI - A_r) of the leading r x r block, highest degree first
    vect = [1]
    for r in range(n):
        row, col = a[r][:r], [a[i][r] for i in range(r)]
        # first column of the Toeplitz factor: 1, -a_rr, -R C, -R M C, ...
        toeplitz = [1, -a[r][r]]
        for k in range(r):
            if k:
                col = [sum(x * y for x, y in zip(a[i], col)) for i in range(r)]
            toeplitz.append(-sum(x * y for x, y in zip(row, col)))
        vect = [
            sum(toeplitz[i - j] * vect[j] for j in range(min(i, r) + 1))
            for i in range(r + 2)
        ]
    coeffs = []
    power = 1
    for c in vect:
        coeffs.append(Fraction(c, power))
        power *= scale
    return poly(reversed(coeffs))


def _block_tag(rows, block: Sequence[int]) -> SpectralTag:
    """Leading eigenvalue of the principal submatrix on one SCC block against 1.

    Fraction-free Bareiss elimination without pivoting (E. H. Bareiss,
    Math. Comp. 22, 1968) on the integer Z-matrix C = L*I - L*B yields the
    leading principal minors of C.  Minors 1..k-1 positive make I - B_(k-1)
    a nonsingular M-matrix, i.e. rho(B_(k-1)) < 1 (Berman & Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, ch. 6).  For t above
    rho(B_(k-1)), det(tI - B_k) has the sign of a Schur complement that
    increases with t, so its sign at t = 1 says whether B_k has a real
    eigenvalue >= 1.  Hence a minor <= 0 before the last means
    rho(B_k) >= 1, and since B is irreducible its proper principal
    submatrices have strictly smaller rho, so rho(B) > 1; otherwise the
    sign of det C decides.  A 1x1 zero block has C = [L] and is below 1.
    """
    scale, b = _cleared(rows, block)
    c = [[(scale if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(b)]
    k = len(c)
    prev = 1
    for p in range(k - 1):
        pivot_row = c[p]
        pivot = pivot_row[p]
        if pivot <= 0:
            return SpectralTag.ABOVE_ONE
        tail = pivot_row[p + 1 :]
        for row in c[p + 1 :]:
            f = row[p]
            row[p + 1 :] = [(x * pivot - f * y) // prev for x, y in zip(row[p + 1 :], tail)]
        prev = pivot
    det = c[-1][-1]
    if det > 0:
        return SpectralTag.BELOW_ONE
    return SpectralTag.EXACTLY_ONE if det == 0 else SpectralTag.ABOVE_ONE


def spectral_tag(m: NonnegMatrix) -> SpectralTag:
    """Exact trichotomy of the leading eigenvalue rho(M) against 1.

    rho(M) is the largest rho over the strongly connected blocks of the
    support digraph, and each block is decided by the M-matrix minors test
    of ``_block_tag``: all leading principal minors of L*I - L*B positive
    means below 1, the first n-1 positive and the determinant zero means
    exactly 1, anything else above 1 (Berman & Plemmons, ch. 6; Bareiss
    1968).  Integer arithmetic only; the empty matrix is below 1.
    """
    tag = SpectralTag.BELOW_ONE
    for comp in _strongly_connected_components(m.support(), m.n):
        block = _block_tag(m.rows, comp)
        if block is SpectralTag.ABOVE_ONE:
            return block
        if block is SpectralTag.EXACTLY_ONE:
            tag = block
    return tag


def _leading_root_isolator(m: NonnegMatrix) -> LargestRootIsolator:
    """Isolator for the leading eigenvalue of a nonempty matrix.

    The leading eigenvalue is the largest real root of the characteristic
    polynomial; every eigenvalue has modulus at most the maximal row sum,
    which gives rational starting brackets.
    """
    rs = max(m.row_sums(), default=Fraction(0))
    return LargestRootIsolator(charpoly(m), -rs - 1, rs)


def leading_eigenvalue_interval(m: NonnegMatrix, width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bracket of width <= ``width`` around the leading eigenvalue.

    Successive calls with shrinking widths always return overlapping
    intervals, since every result contains the eigenvalue itself.
    """
    width = Fraction(width)
    if width <= 0:
        raise PreconditionError("width must be positive")
    if m.n == 0:
        return (Fraction(0), Fraction(0))
    return _leading_root_isolator(m).refine_to_width(width)


def spectral_radius_class(m: NonnegMatrix) -> SpectralClass:
    """Exact trichotomy of the leading eigenvalue against 1, with a bracket.

    The tag comes from ``spectral_tag`` (M-matrix leading minors, Berman &
    Plemmons ch. 6, by Bareiss elimination).  The bracket is only printed:
    it is [1, 1] in the exact case, and otherwise Sturm bisection of the
    characteristic polynomial from (-rs-1, rs], rs the largest row sum,
    shrinks it until it lies strictly on the tag's side of 1.
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


@dataclass(frozen=True)
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
    """Vertex classes modulo the imprimitivity index, each mapped into the next."""
    h = imprimitivity_index(m)
    adj = m.support()
    n = m.n
    dist = [-1] * n
    dist[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for v in queue:
            mask = adj[v]
            j = 0
            while mask:
                if mask & 1 and dist[j] == -1:
                    dist[j] = dist[v] + 1
                    nxt.append(j)
                mask >>= 1
                j += 1
        queue = nxt
    classes: list[list[int]] = [[] for _ in range(h)]
    for v in range(n):
        classes[dist[v] % h].append(v)
    return classes


def imprimitive_block_decomposition(m: NonnegMatrix) -> ImprimitiveDecomposition:
    """Block-diagonal positive decomposition of a power of an irreducible matrix.

    The cyclic classes of the support digraph are invariant under m**h;
    each restriction is primitive, so a further uniform power makes all
    diagonal blocks positive while the off-diagonal blocks stay zero.
    """
    if not is_irreducible(m):
        raise PreconditionError("imprimitive decomposition requires an irreducible matrix")
    h = imprimitivity_index(m)
    classes = cyclic_classes(m)
    mh = m.pow(h)
    extra = 1
    for cls in classes:
        block = mh.submatrix(cls)
        e = power_positive_exponent(block)
        if e is None:  # pragma: no cover - blocks of m**h are primitive
            raise AssertionError("cyclic-class block failed to become positive")
        extra = max(extra, e)
    k = h * extra
    mk = m.pow(k)
    perm: list[int] = []
    for cls in classes:
        perm.extend(cls)
    blocks = []
    for cls in classes:
        block = NonnegMatrix([[mk.rows[i][j] for j in cls] for i in cls])
        if not block.is_positive():  # pragma: no cover - persistence of positivity
            raise AssertionError("diagonal block is not positive")
        blocks.append(block)
    # off-diagonal blocks must vanish exactly
    cls_of = {}
    for ci, cls in enumerate(classes):
        for v in cls:
            cls_of[v] = ci
    for i in range(m.n):
        for j in range(m.n):
            if cls_of[i] != cls_of[j] and mk.rows[i][j] != 0:  # pragma: no cover
                raise AssertionError("off-diagonal block is not zero")
    return ImprimitiveDecomposition(
        exponent=k,
        permutation=tuple(perm),
        block_sizes=tuple(len(c) for c in classes),
        blocks=tuple(blocks),
    )


# ---------------------------------------------------------------------------
# positive subinvariant vectors (simple-obstruction certificates)


def _condensation_with_tags(
    m: NonnegMatrix,
) -> tuple[tuple[tuple[int, ...], ...], list[set[int]], list[SpectralTag]]:
    """SCC blocks (children listed before parents), child sets, spectral tags."""
    structure = scc_partition(m)
    blocks = structure.blocks()
    tags = [_block_tag(m.rows, b) for b in blocks]
    index_of = {}
    for bi, b in enumerate(blocks):
        for v in b:
            index_of[v] = bi
    children: list[set[int]] = [set() for _ in blocks]
    adj = m.support()
    for u in range(m.n):
        mask = adj[u]
        j = 0
        while mask:
            if mask & 1 and index_of[u] != index_of[j]:
                children[index_of[u]].add(index_of[j])
            mask >>= 1
            j += 1
    return blocks, children, tags


def below_one_closed_indices(m: NonnegMatrix) -> tuple[int, ...]:
    """Indices lying in blocks whose whole forward closure stays below 1.

    These are exactly the rows a reordering can expose as a leading
    principal block with leading eigenvalue below 1; dropping them never
    changes the leading eigenvalue of a matrix whose eigenvalue is >= 1.
    """
    blocks, children, tags = _condensation_with_tags(m)
    all_below = [False] * len(blocks)
    out: list[int] = []
    for bi in range(len(blocks)):  # children precede parents
        below = tags[bi] is SpectralTag.BELOW_ONE
        all_below[bi] = below and all(all_below[c] for c in children[bi])
        if all_below[bi]:
            out.extend(blocks[bi])
    return tuple(sorted(out))


def _solve_unique(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Solve a nonsingular square rational system by Gaussian elimination."""
    n = len(a)
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _kernel_vector(a: list[list[Fraction]]) -> list[Fraction]:
    """A nonzero kernel vector of a square rational matrix with nullity >= 1."""
    n = len(a)
    mat = [row[:] for row in a]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for r in range(n):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[row])]
        pivots.append((row, col))
        row += 1
    pivot_cols = {c for _, c in pivots}
    free = next((c for c in range(n) if c not in pivot_cols), None)
    if free is None:
        raise ArithmeticError("matrix has trivial kernel")
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for r, c in pivots:
        x[c] = -mat[r][free]
    return x


def _scale_integer(v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale a rational vector by a positive factor to coprime integers."""
    if not v:
        return ()
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for val in ints:
        g = gcd(g, abs(val))
    g = g or 1
    return tuple(Fraction(val // g) for val in ints)


def _block_subinvariant(block: NonnegMatrix, tag: SpectralTag) -> list[Fraction]:
    """Positive v with block*v >= v for an SCC block with leading eigenvalue >= 1."""
    n = block.n
    ones = [Fraction(1)] * n
    if tag is SpectralTag.EXACTLY_ONE:
        a = [
            [block.rows[i][j] - (1 if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        v = _kernel_vector(a)
        if all(x < 0 for x in v):
            v = [-x for x in v]
        if not all(x > 0 for x in v):  # pragma: no cover - Perron vector is positive
            raise AssertionError("kernel vector of an irreducible block is not positive")
        return v
    # leading eigenvalue > 1: geometric sums v = sum_{j<k} M^j 1 satisfy
    # M v - v = M^k 1 - 1, so any power with M^k 1 >= 1 yields a certificate.
    power_ones = ones[:]
    acc = ones[:]
    while True:
        power_ones = [
            sum((block.rows[i][j] * power_ones[j] for j in range(n)), Fraction(0))
            for i in range(n)
        ]
        if all(x >= 1 for x in power_ones):
            return acc
        acc = [a + p for a, p in zip(acc, power_ones)]


def exists_positive_subinvariant_vector(
    m: NonnegMatrix,
) -> Optional[tuple[Fraction, ...]]:
    """Positive rational v with M v >= v componentwise, or None when impossible.

    Existence is equivalent to: no reordering of indices exposes a leading
    principal block, closed under support edges, whose leading eigenvalue
    is below 1 (the matrix as a whole counts as such a block).  The search
    walks the condensation; certificates are assembled per component:
    an exact kernel vector at eigenvalue 1, a geometric power sum above 1,
    and an inflow-fed resolvent solve below 1.
    """
    n = m.n
    if n == 0:
        return None
    blocks, children, tags = _condensation_with_tags(m)
    # blocks are ordered with all support edges pointing to earlier blocks;
    # a block whose forward closure sees only sub-1 eigenvalues is fatal
    k = len(blocks)
    all_below: list[bool] = [False] * k
    for bi in range(k):  # children precede parents in this order
        below = tags[bi] is SpectralTag.BELOW_ONE
        all_below[bi] = below and all(all_below[c] for c in children[bi])
        if all_below[bi]:
            return None
    # assemble the certificate block by block
    vec: list[Optional[Fraction]] = [None] * n
    for bi, block_indices in enumerate(blocks):
        idx = list(block_indices)
        block = m.submatrix(idx)
        if tags[bi] is SpectralTag.BELOW_ONE:
            inflow = []
            for i in idx:
                total = Fraction(0)
                for j in range(n):
                    if j not in block_indices and m.rows[i][j] != 0:
                        contribution = vec[j]
                        assert contribution is not None
                        total += m.rows[i][j] * contribution
                inflow.append(total)
            # solve (I - B) x = inflow; x > 0 since the block is strongly
            # connected (or a single fed vertex) and some inflow is positive
            a = [
                [(1 if r == c else 0) - block.rows[r][c] for c in range(block.n)]
                for r in range(block.n)
            ]
            x = _solve_unique(a, inflow)
            if not all(val > 0 for val in x):  # pragma: no cover - fed blocks stay positive
                raise AssertionError("resolvent certificate is not positive")
        else:
            x = _block_subinvariant(block, tags[bi])
        for pos, i in enumerate(idx):
            vec[i] = x[pos]
    assert all(v is not None for v in vec)
    result = _scale_integer([v for v in vec if v is not None])
    # exact self-check: the certificate is part of the public contract
    mv = [sum((m.rows[i][j] * result[j] for j in range(n)), Fraction(0)) for i in range(n)]
    if not all(val > 0 for val in result) or not all(a >= b for a, b in zip(mv, result)):
        raise AssertionError("subinvariant certificate failed verification")
    return result
