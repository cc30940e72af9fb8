"""Independent brute-force oracles used by the test suite.

Everything here recomputes answers along a different route than the
library: generic linear solves instead of adjugates, subset enumeration
instead of condensation reasoning, literal coset enumeration instead of
order arithmetic.  Oracles stay deliberately slow and simple.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Optional, Sequence

from thurston_obstruct import (
    UNTRACKED,
    CurveTable,
    MinimalObstructionSearch,
    NonnegMatrix,
    PreconditionError,
    SpectralTag,
    exists_positive_subinvariant_vector,
    spectral_radius_class,
    thurston_matrix,
)
from thurston_obstruct import orbifold, slopes, spectral, tables
from thurston_obstruct.documents import _echo
from thurston_obstruct.spectral import cyclic_classes
from thurston_obstruct.polynomials import Poly, _primitive, poly

ZERO = Fraction(0)
ONE = Fraction(1)


def solve2(rows, rhs) -> Optional[tuple[Fraction, Fraction]]:
    """Solve a 2x2 rational system by elimination; None when singular."""
    (a, b), (c, d) = rows
    a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
    r1, r2 = Fraction(rhs[0]), Fraction(rhs[1])
    if a == 0:
        if c == 0:
            return None
        a, b, r1, c, d, r2 = c, d, r2, a, b, r1
    factor = c / a
    d2 = d - factor * b
    r2 = r2 - factor * r1
    if d2 == 0:
        return None
    y = r2 / d2
    x = (r1 - b * y) / a
    return (x, y)


def normalize_pq(p: int, q: int) -> tuple[int, int]:
    g = gcd(abs(p), abs(q))
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return (p, q)


def covering_pullback_oracle(rows, v: tuple[int, int]) -> tuple[tuple[int, int], int, int]:
    """Preimage combinatorics of a slope by scanning multiples of its class.

    The preimage components of the curve with class v correspond to cosets
    of the cyclic subgroup generated by [v] in Z^2 / A Z^2: the smallest
    j >= 1 with A^{-1}(j v) integral is the per-component mapping degree,
    the component count is det / j, and the integral solution itself is a
    primitive vector spanning the target class.
    """
    (a, b), (c, d) = rows
    det = a * d - b * c
    assert det >= 2
    for j in range(1, det + 1):
        sol = solve2(rows, (j * v[0], j * v[1]))
        assert sol is not None
        x, y = sol
        if x.denominator == 1 and y.denominator == 1:
            k = (int(x), int(y))
            assert gcd(abs(k[0]), abs(k[1])) == 1, "first integral multiple must be primitive"
            return (normalize_pq(*k), det // j, j)
    raise AssertionError("the class order must divide the coset count")


def _in_image(rows, m: tuple[int, int], box: int) -> bool:
    """Membership of m in A Z^2 by forward search over a box of preimages."""
    (a, b), (c, d) = rows
    for s in range(-box, box + 1):
        for t in range(-box, box + 1):
            if (a * s + b * t, c * s + d * t) == m:
                return True
    return False


def box_coset_pullback_oracle(rows, v: tuple[int, int]) -> tuple[tuple[int, int], int, int]:
    """Fully inverse-free oracle for small actions: enumerate the cosets of
    A Z^2 in Z^2 by box scanning, walk the subgroup generated by [v], and
    find the target vector by forward search."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    assert det >= 2
    entry_bound = max(abs(a), abs(b), abs(c), abs(d))

    def box_for(m):
        return entry_bound * (abs(m[0]) + abs(m[1])) + 1

    # coset representatives inside [0, det)^2
    reps: list[tuple[int, int]] = []
    for x in range(det):
        for y in range(det):
            m = (x, y)
            if not any(
                _in_image(rows, (m[0] - r[0], m[1] - r[1]), box_for((m[0] - r[0], m[1] - r[1])))
                for r in reps
            ):
                reps.append(m)
    assert len(reps) == det, "the quotient group has det(A) elements"
    order = None
    for j in range(1, det + 1):
        m = (j * v[0], j * v[1])
        if _in_image(rows, m, box_for(m)):
            order = j
            break
    assert order is not None
    target_rhs = (order * v[0], order * v[1])
    bound = box_for(target_rhs)
    hit = None
    for s in range(-bound, bound + 1):
        for t in range(-bound, bound + 1):
            if (a * s + b * t, c * s + d * t) == target_rhs:
                hit = (s, t)
                break
        if hit:
            break
    assert hit is not None
    assert gcd(abs(hit[0]), abs(hit[1])) == 1
    return (normalize_pq(*hit), det // order, order)


def obstruction_slope_by_scan(
    tmap: slopes.TorusQuotientMap, bound: int
) -> Optional[slopes.ObstructionSlope]:
    """The first slope of ``enumerate_slopes(bound)`` that pulls back to
    itself with more preimage components than their covering degree."""
    for slope in slopes.enumerate_slopes(bound):
        pb = slopes.pullback_slope(tmap, slope)
        if pb.target == slope and pb.component_count > pb.component_degree:
            return slopes.ObstructionSlope(
                slope=slope,
                multiplier=Fraction(pb.component_count, pb.component_degree),
            )
    return None


# ---------------------------------------------------------------------------
# matrix oracles


def out_closed_subsets(m: NonnegMatrix):
    """All nonempty index subsets with no support edge leaving the subset."""
    n = m.n
    for mask in range(1, 1 << n):
        subset = [i for i in range(n) if mask >> i & 1]
        closed = True
        for i in subset:
            for j in range(n):
                if not (mask >> j & 1) and m.rows[i][j] != 0:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            yield subset


def simple_by_exhaustion(m: NonnegMatrix) -> bool:
    """Simple-obstruction test straight from the block-form definition.

    A reordering exposes a leading principal block exactly on the
    out-closed subsets (the whole index set included); the matrix is a
    simple obstruction iff none of those blocks has eigenvalue below 1.
    """
    if m.n == 0:
        return False
    for subset in out_closed_subsets(m):
        if spectral_radius_class(m.submatrix(subset)).tag is SpectralTag.BELOW_ONE:
            return False
    return True


def elementary_cycle_lengths(adj: Sequence[Sequence[bool]]) -> list[int]:
    """Lengths of all elementary directed cycles, by rooted DFS."""
    n = len(adj)
    lengths: list[int] = []
    for root in range(n):
        stack = [(root, (root,))]
        while stack:
            v, path = stack.pop()
            for w in range(n):
                if not adj[v][w] or w < root:
                    continue
                if w == root:
                    lengths.append(len(path))
                elif w not in path:
                    stack.append((w, path + (w,)))
    return lengths


def imprimitivity_by_cycles(m: NonnegMatrix) -> int:
    """gcd of all elementary cycle lengths of the support digraph."""
    adj = [[x > 0 for x in row] for row in m.rows]
    h = 0
    for length in elementary_cycle_lengths(adj):
        h = gcd(h, length)
    return h


def cyclic_structure_by_single_steps(m: NonnegMatrix) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """``(h, classes, j)`` of an irreducible matrix by one boolean power of M**h at a time.

    h is the gcd of level(u) + 1 - level(v) over support edges u -> v for
    BFS levels from vertex 0, the classes are the levels modulo h, and j is
    the first power of M**h whose support is the class pattern, found by
    multiplying the supports one step at a time up to the Wielandt bound.
    """
    n, adj = m.n, m.support()
    level = {0: 0}
    queue = [0]
    for u in queue:
        for v in range(n):
            if adj[u] >> v & 1 and v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    assert len(level) == n, "not irreducible"
    h = 0
    for u in range(n):
        for v in range(n):
            if adj[u] >> v & 1:
                h = gcd(h, abs(level[u] + 1 - level[v]))
    classes = tuple(tuple(v for v in range(n) if level[v] % h == c) for c in range(h))
    pattern = [sum(1 << w for w in range(n) if level[w] % h == level[v] % h) for v in range(n)]

    def product(a, b):  # row i of the support of AB: the rows of b that row i of a selects
        out = []
        for row in a:
            acc = 0
            for k in range(n):
                if row >> k & 1:
                    acc |= b[k]
            out.append(acc)
        return out

    step = list(adj)
    for _ in range(h - 1):
        step = product(step, adj)
    power, j = step, 1
    while power != pattern:
        assert j < (n - 1) ** 2 + 1, "a class block of M**h is not primitive"
        power, j = product(power, step), j + 1
    return h, classes, j


def matrix_powers_by_fraction_products(m: NonnegMatrix, k_max: int) -> list[list[list[Fraction]]]:
    """Rows of m**0, m**1, ..., m**k_max, each one Fraction product from the last."""
    power = [[Fraction(int(i == j)) for j in range(m.n)] for i in range(m.n)]
    powers = [power]
    for _ in range(k_max):
        power = _mul(power, m.rows) if m.n else []
        powers.append(power)
    return powers


def cleared_by_lcm(rows, indices: Sequence[int]) -> tuple[int, list[list[int]]]:
    """``(L, L*B)`` for the principal submatrix B on ``indices`` of Fraction rows.

    L is the lcm of B's entry denominators, so L*B is an integer matrix.
    """
    scale = lcm(*(rows[i][j].denominator for i in indices for j in indices))
    return scale, [
        [rows[i][j].numerator * (scale // rows[i][j].denominator) for j in indices]
        for i in indices
    ]


def power_positive_exponent_by_rational_powers(m: NonnegMatrix, cap: int) -> Optional[int]:
    """Smallest k <= cap whose Fraction power m**k is entrywise positive, or None."""
    powers = matrix_powers_by_fraction_products(m, cap)
    for k in range(1, cap + 1):
        if all(x > 0 for row in powers[k] for x in row):
            return k
    return None


def decomposition_exponent_by_rational_powers(m: NonnegMatrix) -> int:
    """Exponent of the imprimitive decomposition from the rational power m**h.

    h is the gcd of the elementary cycle lengths.  Each cyclic-class block
    of m**h is primitive; the uniform extra power is the largest of their
    first positive powers, each within its block's Wielandt bound.
    """
    h = imprimitivity_by_cycles(m)
    mh = NonnegMatrix(matrix_powers_by_fraction_products(m, h)[h])
    extra = []
    for cls in cyclic_classes(m):
        cap = (len(cls) - 1) ** 2 + 1
        extra.append(power_positive_exponent_by_rational_powers(mh.submatrix(cls), cap))
    return h * max(extra)


def minimal_obstructions_by_exhaustion(m: NonnegMatrix) -> list[tuple[int, ...]]:
    """Minimal obstruction index sets straight from the definition."""
    n = m.n
    obstructions = []
    for mask in range(1, 1 << n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        if sturm_tag(m.submatrix(list(subset))) is not SpectralTag.BELOW_ONE:
            obstructions.append((mask, subset))
    minimal = []
    for mask, subset in obstructions:
        if not any(
            other != mask and other & mask == other for other, _ in obstructions
        ):
            minimal.append(subset)
    return minimal


def determinant_by_elimination(rows) -> Fraction:
    """det via fraction-free-ish Gaussian elimination with partial pivoting."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col] != 0:
                factor = mat[r][col] * inv
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    return det


def int_mul_by_entries(a, b) -> list[list[int]]:
    """The m x n integer product of an m x k and a k x n matrix, one entry at a time by a triple loop."""
    m, k, n = len(a), len(b), len(b[0])
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i][j] += a[i][t] * b[t][j]
    return out


def _mul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def charpoly_faddeev_leverrier(m: NonnegMatrix) -> Poly:
    """det(xI - M) by the Faddeev-LeVerrier recursion over Fractions, O(n^4)."""
    n = m.n
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    aux = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = _mul(m.rows, aux)
        a_k = -sum((prod[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = a_k
        aux = [[prod[i][j] + (a_k if i == j else 0) for j in range(n)] for i in range(n)]
    return poly(coeffs)


def charpoly_by_whole_berkowitz(m: NonnegMatrix) -> Poly:
    """det(xI - M) by Berkowitz's division-free algorithm on the whole integer matrix A = L*M.

    With det(yI - A) = sum_k c_k y^k, the coefficient of x^k is c_k / L^(n-k);
    no block or cyclic structure is used.  O(n^4) integer operations.
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
                col = [sum(x * y for x, y in zip(a[i], col)) for i in range(r)]
            toeplitz.append(-sum(x * y for x, y in zip(row, col)))
        vect = [sum(toeplitz[i - j] * vect[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return poly(reversed([Fraction(c, scale**k) for k, c in enumerate(vect)]))


def imprimitive_decomposition_by_whole_power(m: NonnegMatrix) -> spectral.ImprimitiveDecomposition:
    """The decomposition cut out of the whole power M**(h*j).

    ``(h, classes, j)`` come from ``cyclic_structure_by_single_steps``; the
    power's support is checked against the class pattern before each class
    block is cut out of it.
    """
    h, classes, j = cyclic_structure_by_single_steps(m)
    power = m.pow(h * j)
    support = power.support()
    assert all(support[v] == sum(1 << w for w in cls) for cls in classes for v in cls), "not the class pattern"
    return spectral.ImprimitiveDecomposition(
        exponent=h * j,
        permutation=tuple(v for cls in classes for v in cls),
        block_sizes=tuple(len(cls) for cls in classes),
        blocks=tuple(power.submatrix(cls) for cls in classes),
    )


def sturm_tag(m: NonnegMatrix) -> SpectralTag:
    """Leading eigenvalue against 1 by counting real roots of the
    characteristic polynomial above 1 with a Sturm chain.

    The leading eigenvalue of a nonnegative matrix is its largest real
    eigenvalue, so it exceeds 1 exactly when some real root does.
    """
    if m.n == 0:
        return SpectralTag.BELOW_ONE
    one = Fraction(1)
    sf = squarefree_part_by_gcd(charpoly_faddeev_leverrier(m))
    at_one = evaluate(sf, one) == 0
    if at_one:
        sf, rem = divmod_poly(sf, poly([-1, 1]))
        assert not rem
    if len(sf) > 1:
        hi = max(one + 1, cauchy_root_bound(sf))
        if count_roots_by_evaluation(sturm_chain_by_division(sf), one, hi) > 0:
            return SpectralTag.ABOVE_ONE
    return SpectralTag.EXACTLY_ONE if at_one else SpectralTag.BELOW_ONE


def kernel_vector(a: list[list[Fraction]]) -> list[Fraction]:
    """A nonzero kernel vector of a rational matrix of rank below its column count.

    Gauss-Jordan elimination to reduced row echelon form; the first free
    column gets 1 and the pivot columns are solved for.  On ``[A | -b]``
    with A square and nonsingular the free column is the last, so the
    vector is ``(x, 1)`` with ``A x = b``.
    """
    mat = [row[:] for row in a]
    n, cols = len(mat), len(mat[0])
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(cols):
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
    free = next((c for c in range(cols) if c not in pivot_cols), None)
    if free is None:
        raise ArithmeticError("matrix has trivial kernel")
    x = [Fraction(0)] * cols
    x[free] = Fraction(1)
    for r, c in pivots:
        x[c] = -mat[r][free]
    return x


def geometric_certificate(rows, block: Sequence[int]) -> list[Fraction]:
    """Positive v with B v >= v for the block B on ``block``, rho(B) > 1.

    Geometric sums v = sum_{j<k} B^j 1 satisfy B v - v = B^k 1 - 1, so
    any power with B^k 1 >= 1 yields a certificate.  The number of terms
    grows without bound as rho(B) approaches 1.
    """
    power = [Fraction(1)] * len(block)
    acc = power
    while True:
        power = [sum((rows[i][j] * p for j, p in zip(block, power)), Fraction(0)) for i in block]
        if all(x >= 1 for x in power):
            return acc
        acc = [a + p for a, p in zip(acc, power)]


def subinvariant_by_fraction_solves(m: NonnegMatrix) -> Optional[tuple[Fraction, ...]]:
    """Positive v with M v >= v assembled per condensation block over Fractions.

    The Perron vector by Gauss-Jordan at eigenvalue 1, a geometric power
    sum above 1, and a Gauss-Jordan solve of (I - B) x = inflow below 1;
    existence from the same profile as the library.
    """
    n = m.n
    profile = spectral.spectral_profile(m)
    if n == 0 or any(profile.closed_below):
        return None
    rows = m.rows
    vec = [Fraction(0)] * n
    for block, tag in zip(profile.structure.blocks(), profile.block_tags):
        eye_minus = [[(1 if i == j else 0) - rows[i][j] for j in block] for i in block]
        if tag is SpectralTag.EXACTLY_ONE:
            x = kernel_vector(eye_minus)
        elif tag is SpectralTag.ABOVE_ONE:
            x = geometric_certificate(rows, block)
        else:
            inflow = [sum((rows[i][j] * vec[j] for j in range(n)), Fraction(0)) for i in block]
            x = kernel_vector([r + [-f] for r, f in zip(eye_minus, inflow)])[:-1]
        for i, value in zip(block, x):
            vec[i] = value
    return tuple(map(Fraction, _primitive(vec)))


def eye_minus_cleared(scale: int, b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer Z-matrix L*I - L*B from a submatrix's stored ``(L, L*B)``."""
    return [[(scale if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(b)]


def ones_by_row_sums(rows, block: Sequence[int]) -> bool:
    """Whether the block's ``Fraction`` row sums are all above 1 or all 1, so B 1 >= 1."""
    sums = [sum((rows[i][j] for j in block), Fraction(0)) for i in block]
    return all(x > 1 for x in sums) or all(x == 1 for x in sums)


def subinvariant_by_fraction_inflow(m: NonnegMatrix) -> Optional[tuple[Fraction, ...]]:
    """The library's per-block certificate with each inflow summed over the
    Fraction rows and each block cleared by its own lcm of denominators;
    1 on a block whose row sums are all above 1 or all 1."""
    n = m.n
    profile = spectral.spectral_profile(m)
    if n == 0 or any(profile.closed_below):
        return None
    rows = m.rows
    vec = [Fraction(0)] * n
    for block, tag in zip(profile.structure.blocks(), profile.block_tags):
        scale, b = cleared_by_lcm(rows, block)
        c = eye_minus_cleared(scale, b)
        if ones_by_row_sums(rows, block):
            z, den = [1] * len(block), 1
        elif tag is SpectralTag.BELOW_ONE:
            inflow = [
                scale * sum((rows[i][j] * vec[j] for j in range(n)), Fraction(0)) for i in block
            ]
            den = lcm(*(f.denominator for f in inflow))
            for row, f in zip(c, inflow):
                row.append(-f.numerator * (den // f.denominator))
            spectral._bareiss(c)
            z = spectral._back_substitute(c, len(block))
            den *= z.pop()
        else:
            p = spectral._bareiss(c)
            z = spectral._back_substitute(c, p) + [0] * (len(block) - 1 - p)
            den = z[p]
            for _ in range(len(block) - 1):
                if all(z):
                    break
                z = [sum(y * w for y, w in zip(row, z)) for row in b]
        for i, value in zip(block, z):
            vec[i] = Fraction(value, den)
    return tuple(map(Fraction, _primitive(vec)))


def block_tags_by_elimination(m: NonnegMatrix) -> tuple[SpectralTag, ...]:
    """The profile's block tags with every block decided by ``_eliminate`` (no row-sum read-off)."""
    return tuple(spectral._eliminate(m, block)[0] for block in spectral.scc_partition(m).blocks())


def subinvariant_by_eliminations(m: NonnegMatrix) -> Optional[tuple[Fraction, ...]]:
    """The library's certificate: 1 where a block's row sums reach 1, else from its elimination.

    Existence from the elimination tags and the closure of the support,
    every block eliminated for them; each block's part is 1 where its row
    sums are all above 1 or all 1, else from its ``_eliminate`` as the
    library reads one, kept by the profile or run by the certificate: the
    inflow column through the stored multipliers below 1, back substitution
    and x <- B x steps at or above 1.
    """
    n = m.n
    blocks = spectral.scc_partition(m).blocks()
    eliminations = [spectral._eliminate(m, block) for block in blocks]
    reach = spectral._reach(m.support())
    high = sum(1 << v for b, e in zip(blocks, eliminations) if e[0] is not SpectralTag.BELOW_ONE for v in b)
    if n == 0 or any(not (reach[b[0]] | 1 << b[0]) & high for b in blocks):
        return None
    ints, rows = m.ints, m.rows
    vec = [Fraction(0)] * n
    for block, (tag, p, gcds, c) in zip(blocks, eliminations):
        k = len(block)
        if ones_by_row_sums(rows, block):
            z, den = [1] * k, 1
        elif tag is SpectralTag.BELOW_ONE:
            inflow = [Fraction(sum(a * vec[j] for j, a in enumerate(ints[i])), g)
                      for i, g in zip(block, gcds)]
            den = lcm(*(f.denominator for f in inflow))
            col = [-f.numerator * (den // f.denominator) for f in inflow]
            for q in range(k - 1):
                pivot, prev = c[q][q], c[q - 1][q - 1] if q else 1
                col[q + 1 :] = [(x * pivot - c[i][q] * col[q]) // prev
                                for i, x in enumerate(col[q + 1 :], q + 1)]
            z = spectral._back_substitute([[*row, x] for row, x in zip(c, col)], k)
            den *= z.pop()
        else:
            z = spectral._back_substitute(c, p) + [0] * (k - 1 - p)
            den = z[p]
            b = m.submatrix(block).ints
            for _ in range(k - 1):
                if all(z):
                    break
                z = [sum(y * w for y, w in zip(row, z)) for row in b]
        for i, value in zip(block, z):
            vec[i] = Fraction(value, den)
    return tuple(map(Fraction, _primitive(vec)))


# ---------------------------------------------------------------------------
# curve-table oracles


def thurston_matrix_by_fraction_sums(
    table: CurveTable, curves: Optional[Sequence[str]] = None
) -> list[list[Fraction]]:
    """Rows of the Thurston matrix, each entry a sum of Fractions 1/degree."""
    order = tables.curve_order(table, curves)
    index = {cid: k for k, cid in enumerate(order)}
    n = len(order)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j, cid in enumerate(order):
        for comp in table.row(cid).pullback:
            i = index.get(comp.target)
            if i is not None:
                rows[i][j] += Fraction(1, comp.degree)
    return rows


def simple_obstructions_by_subsets(table: CurveTable, subset_cap: int) -> list[tuple[str, ...]]:
    """Every multicurve of up to ``subset_cap`` classes with a simple certificate.

    Visits each subset of the declared classes and asks for a positive
    subinvariant vector of its own submatrix.
    """
    ids = table.class_ids()
    full = thurston_matrix(table, None)
    out = []
    for size in range(1, min(subset_cap, len(ids)) + 1):
        for combo in itertools.combinations(ids, size):
            sub = full.submatrix([ids.index(c) for c in combo])
            if exists_positive_subinvariant_vector(sub) is not None:
                out.append(combo)
    return out


def scc_blocks_by_dfs(
    adj: Sequence[int],
) -> tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]]:
    """Blocks of a support digraph (row bitmasks) and their irreducibility flags.

    Each vertex's reachable set comes from its own depth-first search over
    successor sets; a block is a set of mutually reachable vertices, or a
    vertex on no cycle alone.  Blocks are listed one at a time: of those
    whose reachable vertices are all listed or inside it, the one with the
    smallest least vertex.  A block is irreducible when its first vertex
    reaches itself.
    """
    n = len(adj)
    succ = [{j for j in range(n) if adj[i] >> j & 1} for i in range(n)]

    def reachable(v: int) -> set[int]:
        seen: set[int] = set()
        stack = list(succ[v])
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(succ[w])
        return seen

    reach = [reachable(v) for v in range(n)]
    comps: list[tuple[int, ...]] = []
    for v in range(n):
        if not any(v in comp for comp in comps):
            comps.append(tuple(sorted({v} | {w for w in reach[v] if v in reach[w]})))
    order: list[tuple[int, ...]] = []
    listed: set[int] = set()
    while len(order) < len(comps):
        ready = [
            comp for comp in comps
            if comp not in order and reach[comp[0]] <= listed | set(comp)
        ]
        block = min(ready, key=lambda comp: comp[0])
        order.append(block)
        listed.update(block)
    return tuple(order), tuple(comp[0] in reach[comp[0]] for comp in order)


def minimal_obstructions_by_subsets(table: CurveTable, subset_cap: int) -> MinimalObstructionSearch:
    """Minimal obstructions by visiting every subset of tracked classes.

    Subsets come by size, in ``itertools.combinations`` order; a subset
    containing an earlier hit is skipped, and the rest are tested on the
    full matrix's principal submatrix: irreducibility on its support (one
    block of ``scc_blocks_by_dfs``, flagged irreducible), then ``sturm_tag``.
    """
    if subset_cap < 1:
        raise PreconditionError("subset cap must be at least 1")
    tracked = [
        c.id
        for c in table.classes
        if all(comp.target != UNTRACKED for comp in c.pullback)
    ]
    full = thurston_matrix(table, None)
    ids = table.class_ids()
    pos = {cid: k for k, cid in enumerate(ids)}
    found: list[tuple[str, ...]] = []
    found_sets: list[frozenset[str]] = []
    limit = min(subset_cap, len(tracked))
    for size in range(1, limit + 1):
        for combo in itertools.combinations(tracked, size):
            combo_set = frozenset(combo)
            if any(f <= combo_set for f in found_sets):
                continue
            sub = full.submatrix([pos[c] for c in combo])
            if scc_blocks_by_dfs(sub.support())[1] != (True,):
                continue
            if sturm_tag(sub) is not SpectralTag.BELOW_ONE:
                found.append(combo)
                found_sets.append(combo_set)
    return MinimalObstructionSearch(
        multicurves=tuple(found),
        truncated=len(tracked) > subset_cap,
        subset_cap=subset_cap,
    )


def levy_cycles_by_path_search(table: CurveTable) -> tuple[tuple[str, ...], ...]:
    """Elementary cycles of the degree-1 digraph by extending every path.

    From each root, every simple path through classes declared no earlier
    than the root is extended; one that steps back onto the root is a cycle.
    """
    ids = table.class_ids()
    pos = {cid: k for k, cid in enumerate(ids)}
    succ: dict[str, list[str]] = {
        cid: sorted(
            {
                comp.target
                for comp in table.row(cid).pullback
                if comp.degree == 1 and comp.target in pos
            },
            key=pos.get,
        )
        for cid in ids
    }
    cycles: list[tuple[str, ...]] = []
    for s, root in enumerate(ids):
        stack: list[tuple[str, tuple[str, ...]]] = [(root, (root,))]
        while stack:
            v, path = stack.pop()
            for w in succ[v]:
                if pos[w] < s:
                    continue
                if w == root:
                    cycles.append(path)
                elif w not in path:
                    stack.append((w, path + (w,)))
    cycles.sort(key=lambda cyc: (len(cyc), tuple(pos[c] for c in cyc)))
    return tuple(cycles)


# ---------------------------------------------------------------------------
# orbifold oracles


def ramification_by_backward_paths(portrait: orbifold.CriticalPortrait) -> dict[str, Any]:
    """Ramification weights without a fixpoint or a transitive closure.

    A point is on a cycle when it appears among its first n images, and is
    infinite when that cycle holds a point of local degree >= 2.  Any other
    marked point's weight is the lcm, over the simple backward paths of
    listed points starting at it, of the product of their local degrees
    (the start excluded); an unmarked point's weight is 1.
    """
    by_label = {p.label: p for p in portrait.points}
    weights: dict[str, Any] = {}

    def path_lcm(path: tuple[str, ...], product: int) -> int:
        value = product
        for pre in portrait.points:
            if pre.image == path[-1] and pre.label not in path:
                value = lcm(value, path_lcm(path + (pre.label,), product * pre.local_degree))
        return value

    for p in portrait.points:
        orbit = [p.image]
        while len(orbit) < len(by_label):
            orbit.append(by_label[orbit[-1]].image)
        if p.label in orbit:
            cycle = orbit[: orbit.index(p.label) + 1]
            if any(by_label[c].local_degree >= 2 for c in cycle):
                weights[p.label] = orbifold.INFINITE_WEIGHT
                continue
        weights[p.label] = path_lcm((p.label,), 1) if p.marked else 1
    return weights


# ---------------------------------------------------------------------------
# polynomial oracles: Euclid, Sturm chains and Horner over Fractions


def evaluate(p: Poly, x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def derivative(p: Poly) -> Poly:
    return tuple(i * c for i, c in enumerate(p) if i)


def scale(p: Poly, c: Fraction) -> Poly:
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: p = quot * q + rem with deg rem < deg q."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = degree(q)
    lead = q[-1]
    quot = [ZERO] * max(0, len(p) - dq)
    while len(rem) - 1 >= dq and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem.pop()
    return poly(quot), poly(rem)


def primitive_fractions(p: Poly) -> Poly:
    """p over a positive rational, with coprime integer coefficients, as Fractions."""
    if not p:
        return p
    den_lcm = 1
    for c in p:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in p]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(Fraction(v // g) for v in ints)


def gcd_poly(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor."""
    a, b = primitive_fractions(p), primitive_fractions(q)
    while b:
        _, r = divmod_poly(a, b)
        a, b = b, primitive_fractions(r)
    if not a:
        return ()
    return scale(a, ONE / a[-1])


def cauchy_root_bound(p: Poly) -> Fraction:
    """Rational B with every complex root of p inside |z| < B."""
    if degree(p) < 1:
        return ONE
    lead = abs(p[-1])
    return ONE + max(abs(c) / lead for c in p[:-1])


def squarefree_part_by_gcd(p: Poly) -> Poly:
    """p divided by its monic gcd with p', so with the same leading sign."""
    p = poly(p)
    if degree(p) <= 0:
        return p
    g = gcd_poly(p, poly(derivative(p)))
    if degree(g) == 0:
        return p
    q, r = divmod_poly(p, g)
    assert not r, "squarefree division left a remainder"
    return q


def sturm_chain_by_division(p: Poly) -> list[Poly]:
    """Classical Sturm chain p, p', -rem, ... by Fraction Euclidean division,
    each element rescaled by a positive rational."""
    p = poly(p)
    chain = [primitive_fractions(p)]
    d = poly(derivative(p))
    if d:
        chain.append(primitive_fractions(d))
    while chain[-1] and degree(chain[-1]) > 0:
        _, r = divmod_poly(chain[-2], chain[-1])
        if not r:
            break
        chain.append(primitive_fractions(neg(r)))
    return chain


def _variations_of(positive: list[bool]) -> int:
    return sum(1 for a, b in zip(positive, positive[1:]) if a != b)


def _sign_variations(chain: list[Poly], x: Fraction) -> int:
    return _variations_of([v > 0 for v in (evaluate(q, x) for q in chain) if v != 0])


def fourier_sign_count(q: Poly, t: Fraction) -> tuple[bool, int]:
    """Whether t is a root of q, and the sign variations of q, q', ..., q^(n) at t, zeros dropped.

    The derivative chain evaluated member by member over Fractions: the
    route the isolator's one Taylor shift per probe replaced.
    """
    chain = [q]
    while len(chain[-1]) > 1:
        chain.append(derivative(chain[-1]))
    return evaluate(q, t) == 0, _sign_variations(chain, t)


def _homogeneous_value(q: tuple[int, ...], x: Fraction) -> int:
    """b^deg q(a/b) for an integer polynomial q and x = a/b, b > 0, by Horner's rule."""
    a, b = x.numerator, x.denominator
    acc, power = q[-1], 1
    for c in q[-2::-1]:
        power *= b
        acc = acc * a + c * power
    return acc


def count_roots_by_evaluation(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b) of a squarefree chain; a < b, neither a root."""
    assert a < b and evaluate(chain[0], a) != 0 and evaluate(chain[0], b) != 0
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def simplest_rational_by_recursion(lo: Fraction, hi: Fraction) -> Fraction:
    """A smallest-denominator rational in [lo, hi], one call per shared
    continued-fraction term of the endpoints."""
    assert lo <= hi
    if lo <= 0 <= hi:
        return ZERO
    if hi < 0:
        return -simplest_rational_by_recursion(-hi, -lo)
    f = lo.numerator // lo.denominator
    if f >= lo:
        return Fraction(f)
    if f + 1 <= hi:
        return Fraction(f + 1)
    inner = simplest_rational_by_recursion(1 / (hi - f), 1 / (lo - f))
    return f + 1 / inner


# ---------------------------------------------------------------------------
# root-isolation oracles


def roots_strictly_above(p: Poly, x: Fraction) -> int:
    """Distinct real roots of p in (x, +inf), deflating x when it is a root.

    Counts between two non-roots only: x itself after dividing out (X - x),
    and the Cauchy bound, which every root lies below.
    """
    sf = squarefree_part_by_gcd(p)
    if evaluate(sf, x) == 0:
        sf, rem = divmod_poly(sf, poly([-x, 1]))
        assert not rem
    if degree(sf) < 1:
        return 0
    hi = max(x + 1, cauchy_root_bound(sf))
    return count_roots_by_evaluation(sturm_chain_by_division(sf), x, hi)


class DeflatingRootIsolator:
    """Mutable bisection for the largest real root: two chain evaluations
    per step, and a second Sturm chain of the deflated polynomial whenever
    a midpoint is a root.  Refines its own state, so one instance answers
    one query.  The bracket contract of ``LargestRootIsolator``, the
    largest real root in (lo, hi] and p(lo) != 0, but for any polynomial:
    Sturm counts need no bound on the real parts of the complex roots.
    """

    def __init__(self, p: Poly, lo: Fraction, hi: Fraction):
        self.sf = squarefree_part_by_gcd(p)
        self.chain = sturm_chain_by_division(self.sf)
        assert evaluate(self.sf, lo) != 0
        self.lo = lo
        self.hi = hi
        self.exact: Optional[Fraction] = None
        if evaluate(self.sf, hi) == 0:
            self.exact = self.lo = hi
        else:
            assert count_roots_by_evaluation(self.chain, lo, hi) >= 1

    def _roots_strictly_above(self, x: Fraction) -> int:
        """Roots in (x, hi); x may be a root, hi never is at call time."""
        sf, chain = self.sf, self.chain
        if evaluate(sf, x) == 0:
            sf, rem = divmod_poly(sf, poly([-x, 1]))
            assert not rem
            if degree(sf) < 1:
                return 0
            chain = sturm_chain_by_division(sf)
        return count_roots_by_evaluation(chain, x, self.hi)

    def refine_to_width(self, width: Fraction) -> tuple[Fraction, Fraction]:
        if self.exact is not None:
            return (self.exact, self.exact)
        while self.hi - self.lo > width:
            mid = (self.lo + self.hi) / 2
            if evaluate(self.sf, mid) == 0:
                if self._roots_strictly_above(mid) == 0:
                    self.exact = self.lo = self.hi = mid
                    return (mid, mid)
                self.lo = mid
            elif count_roots_by_evaluation(self.chain, mid, self.hi) >= 1:
                self.lo = mid
            else:
                self.hi = mid
        cand = simplest_rational_by_recursion(self.lo, self.hi)
        if self.lo < cand and evaluate(self.sf, cand) == 0:
            if self._roots_strictly_above(cand) == 0:
                self.exact = self.lo = self.hi = cand
        return (self.lo, self.hi)

    def refine_until_separated_from(self, point: Fraction) -> tuple[Fraction, Fraction]:
        while self.exact is None and self.lo <= point <= self.hi:
            self.refine_to_width((self.hi - self.lo) / 2)
        return (self.lo, self.hi)


class FractionRootIsolator:
    """The largest-root isolator with a Sturm chain over Fractions:
    squarefree part by a gcd Euclid, a second Euclid for its Sturm chain,
    whose members are integer-valued after ``primitive_fractions``, and at
    every probe x = a/b the sign of each integer b^deg q(a/b).  Immutable,
    one chain evaluation per bisection step, and the midpoints and snap of
    ``LargestRootIsolator``.  Its bracket contract, the largest real root
    in (lo, hi] and p(lo) != 0, but for any polynomial, like
    ``DeflatingRootIsolator``.
    """

    def __init__(self, p: Poly, lo: Fraction, hi: Fraction):
        chain = sturm_chain_by_division(squarefree_part_by_gcd(p))
        assert all(c.denominator == 1 for q in chain for c in q)
        self.chain = [tuple(c.numerator for c in q) for q in chain]
        self.v_inf = _variations_of([q[-1] > 0 for q in self.chain])
        self.lo, self.hi = lo, hi
        assert self.probe(lo)[0] is False and self.probe(lo)[1] > self.probe(hi)[1]

    def probe(self, x: Fraction) -> tuple[bool, int]:
        """Whether x is a root, and the number of distinct roots in (x, +inf)."""
        values = [_homogeneous_value(q, x) for q in self.chain]
        return values[0] == 0, _variations_of([v > 0 for v in values if v]) - self.v_inf

    def _bisect(self, done) -> tuple[Fraction, Fraction]:
        lo, hi = self.lo, self.hi
        if self.probe(hi) == (True, 0):
            return (hi, hi)
        while not done(lo, hi):
            mid = (lo + hi) / 2
            is_root, above = self.probe(mid)
            if above:
                lo = mid
            elif is_root:
                return (mid, mid)
            else:
                hi = mid
        cand = simplest_rational_by_recursion(lo, hi)
        if lo < cand and self.probe(cand) == (True, 0):
            return (cand, cand)
        return (lo, hi)

    def refine_to_width(self, width: Fraction) -> tuple[Fraction, Fraction]:
        return self._bisect(lambda lo, hi: hi - lo <= width)

    def refine_until_separated_from(self, point: Fraction) -> tuple[Fraction, Fraction]:
        if not self.lo <= point <= self.hi and self.probe(self.hi) != (True, 0):
            return (self.lo, self.hi)
        if self.probe(point) == (True, 0):  # no bracket excludes rho itself
            raise ValueError("point is the largest root")
        return self._bisect(lambda lo, hi: not lo <= point <= hi)


#: Every frozen record class of the package (built by ``_records.record``).
RECORD_CLASSES = (
    orbifold.PortraitPoint,
    orbifold.CriticalPortrait,
    orbifold.OrbifoldSignature,
    slopes.Slope,
    slopes.TorusQuotientMap,
    slopes.SlopePullback,
    slopes.TwoDistinctIntegers,
    slopes.EqualIntegers,
    slopes.NonIntegerOrComplex,
    slopes.ObstructionSlope,
    slopes.SlopeOrbit,
    spectral.SpectralClass,
    spectral.BlockStructure,
    spectral.SpectralProfile,
    spectral.ImprimitiveDecomposition,
    tables.PullbackComponent,
    tables.CurveClass,
    tables.CurveTable,
    tables.MulticurveClassification,
    tables.MinimalObstructionSearch,
    tables.ObstructionReport,
    tables.ReturnHomeomorphism,
    tables.Return2222,
    tables.ReturnGeneral,
    tables.DecompositionComponent,
    tables.ComponentVerdict,
    tables.CanonicalCandidateReport,
)


def dataclass_twin(cls: type) -> type:
    """The standard library's ``dataclass(frozen=True)`` of a record's class body.

    The twin has the record's name, annotations, defaults and ``__post_init__``.
    """
    annotations = cls.__dict__.get("__annotations__", {})
    namespace = {name: cls.__dict__[name] for name in annotations if name in cls.__dict__}
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    namespace.update(__annotations__=dict(annotations), __qualname__=cls.__qualname__)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def dumps_by_json(doc: Any) -> str:
    """The report bytes through the standard library's indenting encoder."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# the shipped schemas, interpreted with a ``$ref`` lookup at every node and
# the field path built as a string on the way down

_SCHEMA_DIR = os.path.join(os.path.dirname(os.path.abspath(spectral.__file__)), "schemas")

_files: dict[str, dict] = {}  # schema file name -> parsed file, loaded on first use
_targets: dict[tuple[str, str], tuple[Any, str]] = {}  # ($ref, file) -> (schema, its file)

_TYPES = {  # schema type -> (Python type, what an error message calls it)
    "object": (dict, "an object"), "array": (list, "an array"), "string": (str, "a string"),
    "integer": (int, "an integer"), "boolean": (bool, "a boolean"), "null": (type(None), "null"),
}


def _resolve(ref: str, base: str) -> tuple[Any, str]:
    """The schema that ``ref`` names when read in the file ``base``, and its file."""
    target = _targets.get((ref, base))
    if target is None:
        name, _, pointer = ref.partition("#")
        name = name or base
        node = _files.get(name)
        if node is None:
            with open(os.path.join(_SCHEMA_DIR, name), encoding="utf-8") as f:
                node = _files[name] = json.load(f)
        for part in pointer.split("/")[1:]:
            node = node[part.replace("~1", "/").replace("~0", "~")]
        target = _targets[ref, base] = (node, name)
    return target


def _join(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _check(value: Any, schema: dict, base: str, where: str) -> Optional[tuple[str, str]]:
    """The ``(path, message)`` of the first failure of ``value``, or None.

    Failures are returned, not raised: ``oneOf`` tries every branch, and an
    exception per failed branch (one per string entry of a matrix) would
    cost more than the rest of the validation.
    """
    error = _failure(value, schema, base, where, 0)
    return None if error is None else error[:2]


def _failure(value: Any, schema: dict, base: str, where: str, depth: int) -> Optional[tuple[str, str, int]]:
    """``_check``'s ``(path, message)`` and the path's depth: ``depth``, that of ``where``, plus the keys added."""
    if "$ref" in schema:
        error = _failure(value, *_resolve(schema["$ref"], base), where, depth)
        if error is not None:
            return error
    branches = schema.get("oneOf")
    if branches is not None:
        errors = [_failure(value, branch, base, where, depth) for branch in branches]
        errors = [e for e in errors if e is not None]
        if len(errors) < len(branches) - 1:
            return where, "matches more than one allowed form", depth
        if len(errors) == len(branches):
            paths = [e[0] for e in errors]
            if paths.count(paths[0]) == len(paths):
                return paths[0], schema.get("description", errors[0][1]), errors[0][2]
            # the branch that got furthest into the value, by the keys and
            # indices of its path, counted as they are appended (a key may hold
            # a dot); of equally deep failures, the one fewest branches share
            # (the others failed on a discriminating field such as "kind")
            return max(errors, key=lambda e: (e[2], -paths.count(e[0])))
    kind = schema.get("type")
    if kind is not None:
        kinds = (kind,) if isinstance(kind, str) else kind
        for k in kinds:
            # "integer" is stricter than jsonschema, which takes 1.0: floats
            # never enter the program; and a boolean is not a number
            if isinstance(value, _TYPES[k][0]) and not (k == "integer" and isinstance(value, bool)):
                break
        else:
            return where, "expected " + " or ".join(_TYPES[k][1] for k in kinds), depth
    if "const" in schema:
        const = schema["const"]
        if value != const or type(value) is not type(const):
            return where, f"expected {const!r}, got {_echo(value)}", depth
    if isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            return where, f"expected at least {schema['minLength']} character(s)", depth
        pattern = schema.get("pattern")
        # the whole string, as ECMA-262's `$` requires: Python's `$` also
        # matches before a final newline, so re.search would take "1/2\n"
        if pattern is not None and re.fullmatch(pattern, value) is None:
            return where, f"expected a string matching {pattern}", depth
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return where, f"expected at least {schema['minItems']} entries", depth
        if len(value) > schema.get("maxItems", len(value)):
            return where, f"expected at most {schema['maxItems']} entries", depth
        items = schema.get("items")
        if items is not None:
            for i, item in enumerate(value):
                error = _failure(item, items, base, f"{where}[{i}]", depth + 1)
                if error is not None:
                    return error
    elif isinstance(value, dict):
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                error = _failure(value[key], sub, base, _join(where, key), depth + 1)
                if error is not None:
                    return error
        if schema.get("additionalProperties", True) is False:
            for key in value:
                if key not in properties:
                    return _join(where, key), "unknown field", depth + 1
        for key in schema.get("required", ()):
            if key not in value:
                return _join(where, key), "missing field", depth + 1
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < schema.get("minimum", value):
            return where, f"expected at least {schema['minimum']}", depth
    return None


def validation_error_by_interpreter(value: Any, ref: str, where: str = "") -> Optional[str]:
    """The ``InputFormatError`` message of ``documents.validate(value, ref, where)``, or None."""
    error = _check(value, *_resolve(ref, ""), where)
    if error is None:
        return None
    path, message = error
    return f"{path or 'input'}: {message}"


# ---------------------------------------------------------------------------
# a ``matrix`` input decoded through ``Fraction`` rows


def matrix_input_by_fractions(value: Any) -> tuple[int, Any]:
    """What ``matrix`` makes of the input ``value`` before its analysis.

    Validated by the interpreter above, each entry parsed by
    ``Fraction(str)``, the rows checked square, the matrix built by
    ``NonnegMatrix(rows)`` and echoed by ``str(Fraction)``.  Returns
    ``(2 or 3, the error message)`` for a rejected input and
    ``(0, (scale, ints, echoed rows))`` for an accepted one.
    """
    if isinstance(value, dict):
        error = validation_error_by_interpreter(value, "matrix.schema.json")
    else:
        error = validation_error_by_interpreter(value, "common.schema.json#/$defs/rationalMatrix", "matrix")
    if error is not None:
        return 2, error
    entries = value["matrix"] if isinstance(value, dict) else value
    rows = []
    for i, row in enumerate(entries):
        rows.append([])
        for j, x in enumerate(row):
            try:
                rows[-1].append(Fraction(x))
            except (ValueError, ZeroDivisionError):
                return 2, f"matrix[{i}][{j}]: invalid rational {_echo(x)}"
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            return 2, f"matrix[{i}]: expected {len(rows)} entries for a square matrix"
    try:
        m = NonnegMatrix(rows)
    except ValueError as exc:
        return 3, str(exc)
    return 0, (m.scale, m.ints, [[str(x) for x in row] for row in rows])
