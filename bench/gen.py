"""Seeded request generator for the benchmark workloads.

Request ``i`` of a workload is a pure function of ``(workload, seed, i)``:
its kind and size come from the workload's fixed schedule (``i`` modulo the
schedule length), and its entries from a ``random.Random`` seeded with
``seed`` and ``i``.  The same seed therefore yields byte-identical
documents, every seed has the same size mix, and a run that stops after a
different number of requests still sees the same mix.

Every request pins all of its options (``--format``, ``--width``,
``--bound``, ``--subset-cap``) so that a change to a CLI default cannot
change the workload.  The program only ever receives the generated
documents, as inline JSON arguments.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

WORKLOADS = ("matrix-spectral", "table-search", "cli-cold")

#: ``--subset-cap`` of uncapped requests; at least every class count generated.
FULL_CAP = 13
WIDTH = "1/1000000"
MARKED = ("a", "b", "c", "d")


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the outcome its input was built to produce.

    ``expect`` is ``"ok"`` for a valid document (a report, with exit 0,
    or exit 4 when ``--subset-cap`` bites) or ``"reject"`` for one that
    must exit 2 or 3 with no report and no traceback.  ``kind`` names the
    input path for the share table.
    """

    kind: str
    argv: tuple[str, ...]
    expect: str


def _doc(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _q(rng: random.Random, num: int = 4, den: int = 5) -> Fraction:
    return Fraction(rng.randint(1, num), rng.randint(1, den))


def _fmt(matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in matrix]


def _permute(rng: random.Random, m: list[list[Fraction]]) -> list[list[Fraction]]:
    perm = list(range(len(m)))
    rng.shuffle(perm)
    return [[m[perm[i]][perm[j]] for j in range(len(m))] for i in range(len(m))]


def _scale_rows_below(rng: random.Random, m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Scale so every row sums below 1, hence the leading eigenvalue is below 1."""
    top = max(sum(row) for row in m)
    q = rng.randint(2, 5)
    factor = Fraction(q, q * int(top) + q + 1)
    return [[x * factor for x in row] for row in m]


# ---------------------------------------------------------------------------
# matrices


def dense_above(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Dense matrix whose smallest row sum exceeds 1, so rho > 1."""
    m = [[_q(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(n)] for _ in range(n)]
    for row in m:
        if sum(row) <= 1:
            row[rng.randrange(n)] += Fraction(3, 2)
    return m


def scaled_below(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Irreducible matrix scaled so every row sums below 1, so rho < 1."""
    m = [[_q(rng) if rng.random() < 0.5 else Fraction(0) for _ in range(n)] for _ in range(n)]
    for i in range(n):  # a Hamiltonian cycle keeps it irreducible
        m[i][(i + 1) % n] += _q(rng)
    return _permute(rng, _scale_rows_below(rng, m))


def row_stochastic(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Rows summing to exactly 1, so rho = 1 exactly."""
    m = []
    for i in range(n):
        weights = [rng.randint(1, 6) if rng.random() < 0.5 else 0 for _ in range(n)]
        weights[(i + 1) % n] += rng.randint(1, 6)
        total = sum(weights)
        m.append([Fraction(w, total) for w in weights])
    return _permute(rng, m)


def _irreducible_block(rng: random.Random, size: int, regime: str) -> list[list[Fraction]]:
    if regime == "exact":
        return row_stochastic(rng, size)
    b = [[_q(rng) if rng.random() < 0.4 else Fraction(0) for _ in range(size)] for _ in range(size)]
    for i in range(size):
        b[i][(i + 1) % size] += _q(rng) if size > 1 else Fraction(0)
    if size == 1:
        b[0][0] = _q(rng)
    if regime == "below":
        return _scale_rows_below(rng, b)
    for row in b:  # above: every row sum exceeds 1
        if sum(row) <= 1:
            row[rng.randrange(size)] += Fraction(3, 2)
    return b


def reducible_blocks(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Several strongly connected blocks with edges from later to earlier blocks."""
    count = rng.randint(2, min(4, n // 2))
    cuts = sorted(rng.sample(range(2, n - 1), count - 1)) if count > 1 else []
    bounds = [0] + cuts + [n]
    m = [[Fraction(0)] * n for _ in range(n)]
    for b in range(count):
        lo, hi = bounds[b], bounds[b + 1]
        block = _irreducible_block(rng, hi - lo, rng.choice(("below", "below", "above", "exact")))
        for i in range(hi - lo):
            for j in range(hi - lo):
                m[lo + i][lo + j] = block[i][j]
        for i in range(lo, hi):  # feed edges into earlier blocks
            for j in range(lo):
                if rng.random() < 0.15:
                    m[i][j] = _q(rng, 2, 6)
    return _permute(rng, m)


def cyclic_imprimitive(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Irreducible support that only steps from one of h classes to the next."""
    h = next(d for d in (3, 2, 4, 5, 7) if n % d == 0)
    per = n // h
    cls = [[c * per + k for k in range(per)] for c in range(h)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(per):  # one cycle through every vertex, one class per step
        for c in range(h):
            nxt = cls[(c + 1) % h][k if c + 1 < h else (k + 1) % per]
            m[cls[c][k]][nxt] = _q(rng)
    for c in range(h):
        for i in cls[c]:
            for j in cls[(c + 1) % h]:
                if m[i][j] == 0 and rng.random() < 0.4:
                    m[i][j] = _q(rng)
    if rng.random() < 0.5:
        m = _scale_rows_below(rng, m)
    return _permute(rng, m)


MATRIX_KINDS = {
    "dense_above": dense_above,
    "scaled_below": scaled_below,
    "stochastic": row_stochastic,
    "reducible": reducible_blocks,
    "imprimitive": cyclic_imprimitive,
}

#: (kind, n) per position.  The cost tiers keep the order statistics the
#: benchmark reports inside groups of similar requests: seven cheap
#: (n <= 8); six middle (n = 10, 11, costs within about 15%) holding the
#: median; three at n = 12; two row-stochastic at n = 14, the kind whose
#: cost varies least, whose twelve samples in a six-cycle run hold the
#: tail sample (the 11th largest) near their middle; one n = 16 above them.
MATRIX_SCHEDULE = (
    ("dense_above", 6), ("dense_above", 10), ("scaled_below", 6), ("dense_above", 12),
    ("stochastic", 8), ("scaled_below", 10), ("imprimitive", 6), ("scaled_below", 12),
    ("reducible", 7), ("stochastic", 10), ("dense_above", 8), ("stochastic", 14),
    ("reducible", 11), ("imprimitive", 8), ("imprimitive", 12), ("reducible", 11),
    ("stochastic", 14), ("scaled_below", 10), ("stochastic", 16),
)


def _matrix_argv(rows, check_simple: bool = True, fmt: str = "json") -> tuple[str, ...]:
    flags = ("--check-simple",) if check_simple else ()
    doc = _doc({"schema": "thurston-obstruct/matrix/1", "matrix": _fmt(rows)})
    return ("matrix", *flags, "--format", fmt, "--width", WIDTH, doc)


def matrix_request(seed: int, index: int) -> Request:
    kind, n = MATRIX_SCHEDULE[index % len(MATRIX_SCHEDULE)]
    rows = MATRIX_KINDS[kind](_rng(seed, index), n)
    return Request(f"matrix:{kind}", _matrix_argv(rows), "ok")


# ---------------------------------------------------------------------------
# curve tables and canonical candidates


def random_table(
    rng: random.Random,
    n: int,
    prefix: str,
    untracked: int = 0,
    partitions: bool = False,
    degree: int | None = None,
) -> dict:
    """Table fields of ``n`` classes with random pullback rows.

    Degree-1 components create Levy cycles and obstructions; higher
    degrees and inessential targets keep many subsets below 1.  Exactly
    ``untracked`` classes, chosen at random, get an untracked last
    component, so the number of classes a search visits is fixed.  The
    map degree is drawn from 2, 3 and 4 unless ``degree`` fixes it.
    """
    if degree is None:
        degree = rng.choice((2, 3, 4))
    ids = [f"{prefix}{k}" for k in range(n)]
    classes = []
    for cid in ids:
        budget = degree
        pullback = []
        for _ in range(3):
            if not budget:
                break
            d = rng.choice([x for x in (1, 2, 2, 3, 3, 4) if x <= budget])
            budget -= d
            target = "inessential" if rng.random() < 0.15 else rng.choice(ids)
            pullback.append({"degree": d, "target": target})
        entry: dict = {"id": cid, "pullback": pullback}
        if partitions:
            side = sorted(rng.sample(MARKED, 2))
            entry["partition"] = [side, sorted(set(MARKED) - set(side))]
        classes.append(entry)
    for entry in rng.sample(classes, untracked):
        entry["pullback"][-1]["target"] = "untracked"
    fields: dict = {"map_degree": degree, "classes": classes}
    if partitions:
        fields["marked_points"] = list(MARKED)
    return fields


def _unimodular(rng: random.Random) -> tuple[tuple[int, int], tuple[int, int]]:
    a = rng.randint(-2, 2)
    return ((1, a), (0, 1)) if rng.random() < 0.5 else ((1, 0), (a, 1))


def _mul2(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def _conjugate(m, u):
    """u m u^-1 for a unimodular u (determinant 1), over the integers."""
    (p, q), (r, s) = u
    return _mul2(_mul2(u, m), ((s, -q), (-r, p)))


def action_2222(rng: random.Random, reject: bool) -> list[list[int]]:
    """A 2x2 integer action of determinant >= 2.

    ``reject`` gives two distinct integer eigenvalues (a degenerating
    curve, so the component fails); otherwise equal integer or
    non-integer eigenvalues (the component passes).
    """
    if reject:
        d1 = rng.randint(1, 4)
        d2 = rng.choice([x for x in range(2, 6) if x != d1])
        base = ((d1, rng.randint(-1, 1)), (0, d2))
    elif rng.random() < 0.4:
        d = rng.randint(2, 3)
        base = ((d, rng.randint(0, 1)), (0, d))
    else:
        while True:
            det, tr = rng.randint(2, 6), rng.randint(0, 4)
            disc = tr * tr - 4 * det
            if disc < 0 or isqrt(disc) ** 2 != disc:
                break
        base = ((0, -det), (1, tr))
    return _conjugate(base, _unimodular(rng))


def canonical_doc(rng: random.Random, inner: int, reject: bool, degree: int | None = None) -> dict:
    """Candidate: a Levy cycle of the outer table, one 2222 component with an inner table."""
    k = rng.randint(1, 3)
    cycle = [f"g{i}" for i in range(k)]
    classes = [
        {"id": cid, "pullback": [{"degree": 1, "target": cycle[(i + 1) % k]}]}
        for i, cid in enumerate(cycle)
    ]
    classes.append({"id": "h0", "pullback": [{"degree": 2, "target": "inessential"}]})
    decomposition = [
        {
            "marked_points": 4,
            "first_return": {
                "kind": "2222",
                "matrix": action_2222(rng, reject),
                "table": random_table(rng, inner, "i", partitions=True, degree=degree),
            },
        }
    ]
    if rng.random() < 0.5:
        decomposition.append({"marked_points": 3, "first_return": {"kind": "homeomorphism"}})
    return {
        "schema": "thurston-obstruct/canonical/1",
        "table": {"map_degree": 2, "classes": classes},
        "multicurve": cycle,
        "decomposition": decomposition,
    }


#: (command, classes, subset cap) per position; ``None`` is FULL_CAP.
#: Tables search every subset of their tracked classes (uncapped tables
#: have exactly one untracked class), canonical candidates every subset of
#: the inner table.  Tiers as for matrices: ten cheap; ten canonical
#: candidates with seven inner classes holding the median; four upper;
#: five candidates with nine inner classes (whose cost varies far less
#: than a table's), whose fifteen samples in a three-cycle run hold the
#: tail sample (the 11th largest) near their middle; one with ten above
#: them.  Two positions set --subset-cap below the class count.
TABLE_SCHEDULE = (
    ("table", 8, None), ("canonical", 7, None), ("canonical", 9, None), ("table", 9, None),
    ("canonical", 7, None), ("canonical", 6, None), ("table", 10, None), ("canonical", 7, None),
    ("table", 8, None), ("canonical", 9, 7), ("canonical", 7, None), ("canonical", 6, None),
    ("table", 11, None), ("canonical", 7, None), ("table", 9, None), ("canonical", 9, None),
    ("canonical", 6, None), ("canonical", 7, None), ("table", 12, 10), ("table", 8, None),
    ("canonical", 7, None), ("canonical", 9, None), ("canonical", 9, None), ("table", 9, None),
    ("canonical", 7, None), ("table", 13, None), ("canonical", 6, None), ("canonical", 7, None),
    ("canonical", 7, None), ("canonical", 10, None),
)


def table_request(seed: int, index: int) -> Request:
    """Request ``index`` of ``table-search``.

    The map degree of each table and inner table is fixed by its class
    count (2, 3 or 4 as the count is 0, 1 or 2 modulo 3): the degree sets
    much of a search's cost, so each tier of the schedule stays a group of
    similar requests, and every cycle has the same mix of degrees.
    """
    position = index % len(TABLE_SCHEDULE)
    command, n, cap = TABLE_SCHEDULE[position]
    degree = (2, 3, 4)[n % 3]
    rng = _rng(seed, index)
    capped = cap is not None
    cap_arg = str(cap if capped else FULL_CAP)
    if command == "table":
        untracked = 0 if capped else 1  # an untracked class shrinks the search
        fields = random_table(rng, n, "c", untracked, degree=degree)
        doc = {"schema": "thurston-obstruct/table/1", **fields}
        if rng.random() < 0.5:
            doc["multicurve"] = [c["id"] for c in rng.sample(doc["classes"], n // 2 + 1)]
        argv = ("table", "--format", "json", "--subset-cap", cap_arg, _doc(doc))
        return Request("table:capped" if capped else "table", argv, "ok")
    # alternate Accept and Reject actions over the canonical positions and cycles
    nth = sum(c == "canonical" for c, _, _ in TABLE_SCHEDULE[:position])
    reject = (nth + index // len(TABLE_SCHEDULE)) % 2 == 1
    doc = canonical_doc(rng, n, reject, degree)
    argv = ("canonical", "--format", "json", "--subset-cap", cap_arg, _doc(doc))
    kind = "canonical:capped" if capped else f"canonical:{'reject' if reject else 'accept'}"
    return Request(kind, argv, "ok")


# ---------------------------------------------------------------------------
# cold CLI requests: small valid documents plus schema-rejected forms


def postcritical(points: list[dict]) -> set[str]:
    """Labels on the forward orbits of the critical values: the points of weight above 1."""
    image = {p["id"]: p["image"] for p in points}
    found: set[str] = set()
    frontier = [p["image"] for p in points if p["local_degree"] >= 2]
    while frontier:
        label = frontier.pop()
        if label not in found:
            found.add(label)
            frontier.append(image[label])
    return found


def random_portrait(rng: random.Random, free: bool = False) -> dict:
    """A valid critical portrait: marked points closed under the map, critical values marked.

    With ``free`` some marked point lies off the postcritical set, so its
    ramification weight is 1; otherwise every point is postcritical.
    """
    while True:
        degree = rng.choice((2, 2, 3))
        k = rng.randint(2, 5)
        labels = [f"p{i}" for i in range(k)]
        images = [rng.choice(labels) for _ in labels]
        local = [1] * k
        budget = 2 * degree - 2
        for i in rng.sample(range(k), k):
            if budget and rng.random() < 0.6:
                d = rng.randint(2, min(degree, budget + 1))
                local[i] = d
                budget -= d - 1
        fiber: dict[str, int] = {}
        for img, d in zip(images, local):
            fiber[img] = fiber.get(img, 0) + d
        if max(fiber.values()) > degree:
            continue
        points = [
            {"id": lbl, "marked": True, "image": img, "local_degree": d}
            for lbl, img, d in zip(labels, images, local)
        ]
        if (len(postcritical(points)) < k) == free:
            return {"schema": "thurston-obstruct/portrait/1", "degree": degree, "points": points}


def _small_matrix(rng: random.Random) -> list[list[Fraction]]:
    n = rng.randint(2, 4)
    kind = rng.choice(("dense_above", "stochastic"))
    return MATRIX_KINDS[kind](rng, n)


def _valid_cold(rng: random.Random, slot: str, fmt: str) -> Request:
    if slot in ("orbifold", "orbifold-free"):
        portrait = random_portrait(rng, free=slot == "orbifold-free")
        return Request(f"cold:{slot}:{fmt}", ("orbifold", "--format", fmt, _doc(portrait)), "ok")
    if slot == "slopes":
        action = action_2222(rng, rng.random() < 0.5)
        bound = str(rng.randint(2, 8))
        argv = ("slopes", "--format", fmt, "--bound", bound, "--matrix", json.dumps(action))
        return Request(f"cold:slopes:{fmt}", argv, "ok")
    if slot == "matrix":
        rows = _small_matrix(rng)
        return Request(f"cold:matrix:{fmt}", _matrix_argv(rows, rng.random() < 0.5, fmt), "ok")
    if slot == "table":
        n = rng.randint(2, 4)
        doc = {"schema": "thurston-obstruct/table/1", **random_table(rng, n, "c")}
        argv = ("table", "--format", fmt, "--subset-cap", str(FULL_CAP), _doc(doc))
        return Request(f"cold:table:{fmt}", argv, "ok")
    doc = canonical_doc(rng, 2, rng.random() < 0.5)
    del doc["decomposition"][0]["first_return"]["table"]
    argv = ("canonical", "--format", fmt, "--subset-cap", str(FULL_CAP), _doc(doc))
    return Request(f"cold:canonical:{fmt}", argv, "ok")


def _matrix_with(rng: random.Random, entry) -> tuple[str, ...]:
    rows = _fmt(_small_matrix(rng))
    rows[rng.randrange(len(rows))][0] = entry
    doc = _doc({"schema": "thurston-obstruct/matrix/1", "matrix": rows})
    return ("matrix", "--format", "json", "--width", WIDTH, doc)


def _malformed(rng: random.Random, form: str) -> tuple[str, ...]:
    """Inputs the shipped schemas reject, or that violate a precondition."""
    if form in ("0.5", "1e3", " 1/2 ", "1_000"):
        return _matrix_with(rng, form)  # schema pattern rejects these strings
    if form == "5000_digits":  # spliced into the text: Python cannot format such an int
        *head, doc = _matrix_with(rng, "DIGITS")
        return (*head, doc.replace('"DIGITS"', "7" * 5000))
    if form == "deep_nesting":
        depth = 3000
        return ("matrix", "--format", "json", "--width", WIDTH, "[" * depth + "]" * depth)
    if form == "float":
        return _matrix_with(rng, 0.5)
    if form == "not_square":
        rows = _fmt(_small_matrix(rng))
        rows[0].append("1")
        doc = _doc({"schema": "thurston-obstruct/matrix/1", "matrix": rows})
        return ("matrix", "--format", "json", "--width", WIDTH, doc)
    if form == "negative":
        return _matrix_with(rng, "-1/2")
    if form == "det_below_2":
        return ("slopes", "--format", "json", "--bound", "3", "--matrix", "[[1,0],[0,1]]")
    if form == "unknown_target":
        doc = {"schema": "thurston-obstruct/table/1", **random_table(rng, 3, "c")}
        doc["classes"][0]["pullback"] = [{"degree": 1, "target": "nowhere"}]
        return ("table", "--format", "json", "--subset-cap", str(FULL_CAP), _doc(doc))
    if form == "wrong_schema":
        doc = random_portrait(rng)
        doc["schema"] = "thurston-obstruct/portrait/2"
        return ("orbifold", "--format", "json", _doc(doc))
    raise ValueError(f"unknown malformed form {form!r}")


MALFORMED_FORMS = (
    "0.5", "float", "1e3", "not_square", " 1/2 ", "negative",
    "1_000", "det_below_2", "5000_digits", "unknown_target", "deep_nesting", "wrong_schema",
)

#: (subcommand, format) per position: 12 valid documents, every subcommand
#: in both formats, and 4 malformed ones (``None``) rotating through
#: MALFORMED_FORMS.  Portraits have every point postcritical except at
#: ``orbifold-free``, which has a marked point of ramification weight 1.
#: Every cycle has the same structure, so the share of each path does not
#: depend on the seed.
COLD_SCHEDULE = (
    ("orbifold", "json"), ("slopes", "text"), ("matrix", "json"), None,
    ("table", "text"), ("canonical", "json"), ("matrix", "text"), None,
    ("slopes", "json"), ("orbifold", "text"), ("table", "json"), None,
    ("canonical", "text"), ("orbifold-free", "json"), ("slopes", "text"), None,
)


def cold_request(seed: int, index: int) -> Request:
    rng = _rng(seed, index)
    cycle, pos = divmod(index, len(COLD_SCHEDULE))
    if COLD_SCHEDULE[pos] is None:
        nth = cycle * COLD_SCHEDULE.count(None) + COLD_SCHEDULE[:pos].count(None)
        form = MALFORMED_FORMS[nth % len(MALFORMED_FORMS)]
        return Request(f"cold:reject:{form.strip()}", _malformed(rng, form), "reject")
    return _valid_cold(rng, *COLD_SCHEDULE[pos])


_WORKLOADS = {
    "matrix-spectral": (matrix_request, MATRIX_SCHEDULE),
    "table-search": (table_request, TABLE_SCHEDULE),
    "cli-cold": (cold_request, COLD_SCHEDULE),
}


def request(workload: str, seed: int, index: int) -> Request:
    return _WORKLOADS[workload][0](seed, index)


def requests(workload: str, seed: int, count: int) -> list[Request]:
    return [request(workload, seed, i) for i in range(count)]


def cycle_length(workload: str) -> int:
    """Requests per cycle of the workload's schedule; runs send whole cycles."""
    return len(_WORKLOADS[workload][1])
