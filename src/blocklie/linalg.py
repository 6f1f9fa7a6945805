"""Sparse exact-rational matrices with rank and kernel.

A matrix stores only its nonzero rows: a dict row -> {column -> nonzero
value}, so a zero row takes no space.  The constructors store
``fractions.Fraction`` values (converting any other value, such as an
int), except ``from_sparse_rows``, which holds the caller's row dicts,
int values allowed, so results computed from them may hold ints too.
``entry``, ``to_rows`` and ``entries`` return Fractions; ``entries``
is a (row, col) -> Fraction view built on each read.  Every result
below is an exact statement, not an approximation.  Matrices are
treated as immutable after construction; no operation mutates its
operands.

``Echelon`` is the one elimination kernel over Q: a growing span of
sparse rows, kept fully reduced on Python ints.  ``row_reduce``
eliminates through it when no lift is proven, and so do
``generation_closure`` and ``submodule_closure``, which only ask
whether a vector lies in a span.  Each row is scaled by the lcm of its
denominators and reduced fraction-free (Bareiss 1968), kept primitive
with a positive pivot entry.  Rationals appear only in the emitted
reduced row-echelon form, where each row is divided by its pivot
entry; that form is unique, so it equals the one rational Gauss-Jordan
elimination gives.

``row_reduce`` eliminates the rows sparsest first (a stable sort by
entry count), which limits fill-in (Markowitz 1957).  The order
changes no result: the reduced row-echelon form is unique, so its
rref, pivots and kernel are the same for every order,
and so is the rref mod p below.

Vectors are sparse, as in ``rationals``: dicts index -> nonzero value.
Row reduction returns the reduced row-echelon form together with the
rank and a basis of the right kernel.  The kernel basis follows the
standard free-variable construction: for each non-pivot column f the
basis vector is 1 at f and minus the rref entry of column f at the
pivot of each rref row that holds one, so e.g. rref [[1, 2]] yields
the kernel vector {0: -2, 1: 1}.

``row_reduce`` first computes the rref modulo the prime p = 2^30 - 35
and uses it only where it is a proof, so every result is still exact
and equal to a full rational elimination:

* rank mod p <= rank over Q.  A minor that is nonzero mod p is nonzero
  over Q, provided p divides no denominator (otherwise the modular pass
  gives up and the full rational elimination runs).
* Full column rank has the unique RREF [I; 0] (identity over zero rows)
  and an empty kernel, so that answer needs no rational arithmetic.
* Otherwise each entry of the rref mod p is lifted to the one fraction
  n/d with |n|, d <= sqrt(p/2) and that residue, if there is one
  (rational reconstruction, Wang 1981).  The lift is kept only when an
  exact check on ints shows that every row of the matrix annihilates
  every vector of the lifted free-variable kernel.  Those cols - rank_p
  independent kernel vectors give rank over Q <= rank_p, so the ranks
  agree, the lifted rows span the row space, and by uniqueness the
  lift is the rref over Q.
* Every other matrix, one whose rref has an entry above the bound
  for instance, is eliminated whole over Q, after the residues are
  released.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .rationals import ONE, ZERO, accumulate, check_keys, format_rational, parse_rational, read_int, read_int_key


class RationalMatrix:
    """A rows x cols matrix over Q, stored as a dict row -> {column -> nonzero value} of its nonzero rows.

    Values are Fractions or ints: rows given to ``from_sparse_rows``, and
    results computed from them, may hold ints.  Row dicts may be shared
    between matrices, so none is changed once its matrix is made.
    """

    __slots__ = ("rows", "cols", "_by_row")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], Fraction] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        self._by_row: dict[int, dict[int, Fraction | int]] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry ({r},{c}) out of bounds for {rows}x{cols}")
                if type(v) is not Fraction:
                    v = Fraction(v)
                if v:
                    self._by_row.setdefault(r, {})[c] = v

    @property
    def entries(self) -> dict[tuple[int, int], Fraction]:
        """Each nonzero entry by (row, col), in a new dict on each read."""
        return {
            (r, c): v if type(v) is Fraction else Fraction(v) for r, row in self._by_row.items() for c, v in row.items()
        }

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, rows: int, cols: int, by_row: dict[int, dict[int, Fraction | int]]) -> "RationalMatrix":
        """Wrap rows that are already valid: nonempty, in bounds, nonzero values."""
        m = object.__new__(cls)
        m.rows, m.cols, m._by_row = rows, cols, by_row
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._make(n, n, {i: {i: ONE} for i in range(n)})

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[Fraction | int]]) -> "RationalMatrix":
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged row data")
        return cls.from_sparse_rows([{c: Fraction(v) for c, v in enumerate(row) if v} for row in data], cols)

    @classmethod
    def from_sparse_rows(cls, rows: Sequence[dict[int, Fraction | int]], cols: int) -> "RationalMatrix":
        """The len(rows) x cols matrix whose row r has the entries rows[r] (column -> value).

        The matrix holds the given nonempty dicts, not copies, so the
        caller must not change them; a row holding a zero value is held
        as a copy without it.  Raises ValueError for a column outside
        0..cols-1.
        """
        if cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        held = {}
        for r, row in enumerate(rows):
            if row and (min(row) < 0 or max(row) >= cols):
                c = next(c for c in row if not 0 <= c < cols)
                raise ValueError(f"entry ({r},{c}) out of bounds for {len(rows)}x{cols}")
            if not all(row.values()):
                row = {c: v for c, v in row.items() if v}
            if row:
                held[r] = row
        return cls._make(len(rows), cols, held)

    # -- access ------------------------------------------------------------

    def entry(self, r: int, c: int) -> Fraction:
        v = self._by_row.get(r, {}).get(c, ZERO)
        return v if type(v) is Fraction else Fraction(v)

    def to_rows(self) -> list[list[Fraction]]:
        return [[self.entry(r, c) for c in range(self.cols)] for r in range(self.rows)]

    def sparse_rows(self) -> list[dict[int, Fraction | int]]:
        """Row r as a dict column -> nonzero value, for every r: the held dicts, not to be changed."""
        return [self._by_row.get(r, {}) for r in range(self.rows)]

    def column(self, c: int) -> dict[int, Fraction | int]:
        """Column c as a sparse vector row -> nonzero value."""
        return {r: row[c] for r, row in self._by_row.items() if c in row}

    def is_zero(self) -> bool:
        return not self._by_row

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        by_row = {r: dict(row) for r, row in self._by_row.items()}
        for r, row in other._by_row.items():
            if not accumulate(by_row.setdefault(r, {}), row.items()):
                del by_row[r]
        return RationalMatrix._make(self.rows, self.cols, by_row)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> "RationalMatrix":
        return self.scale(Fraction(-1))

    def scale(self, factor: Fraction | int) -> "RationalMatrix":
        factor = Fraction(factor)
        if factor == 0:
            return RationalMatrix(self.rows, self.cols)
        return RationalMatrix._make(
            self.rows, self.cols, {r: {c: v * factor for c, v in row.items()} for r, row in self._by_row.items()}
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = other._by_row
        by_row = {}
        for r, row in self._by_row.items():
            acc: dict[int, Fraction | int] = {}
            for k, v in row.items():
                if k in right:
                    accumulate(acc, right[k].items(), v)
            if acc:
                by_row[r] = acc
        return RationalMatrix._make(self.rows, other.cols, by_row)

    def apply(self, vector: dict[int, Fraction | int]) -> dict[int, Fraction | int]:
        """The sparse vector m @ vector; an index of ``vector`` outside 0..cols-1 raises ValueError."""
        if vector and (min(vector) < 0 or max(vector) >= self.cols):
            raise ValueError(f"vector index outside 0..{self.cols - 1}")
        out = {}
        for r, row in self._by_row.items():
            if value := sum(v * vector[c] for c, v in row.items() if c in vector):
                out[r] = value
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._by_row) == (other.rows, other.cols, other._by_row)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={sum(map(len, self._by_row.values()))})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": {f"{r},{c}": format_rational(v) for (r, c), v in sorted(self.entries.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "RationalMatrix":
        try:
            check_keys(data, ("rows", "cols", "entries"))
            rows, cols = read_int(data["rows"], "'rows'"), read_int(data["cols"], "'cols'")
            entries = {}
            for key, val in data.get("entries", {}).items():
                r, c = (read_int_key(p, f"entry {key!r} index") for p in key.split(","))
                entries[(r, c)] = parse_rational(val)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed matrix JSON: {exc}") from exc
        return cls(rows, cols, entries)


class RowReduction(NamedTuple):
    """Result of exact Gauss-Jordan elimination."""

    rref: RationalMatrix
    rank: int
    pivots: list[int]
    kernel: list[dict[int, Fraction]]


class Echelon(dict):
    """A growing span of sparse rows over Q, kept in reduced row-echelon form.

    Rows are dicts column -> value with Fraction or int values.  The span
    is stored fraction-free on Python ints (see the module docstring), as
    a dict pivot -> basis row: each basis row is primitive, positive at
    its pivot (its first column) and zero in every other pivot column,
    and ``len`` is the dimension.  An insertion reduces the row against
    the span, combining b/g * row - a/g * prow with g = gcd(a, b), then
    eliminates the new pivot from the earlier rows.  The span is kept
    fully reduced, not only forward-reduced, because most rows the
    callers insert are dependent, and against a fully reduced span a
    row reduces in one step per pivot it holds.
    """

    def reduce(self, row: dict[int, Fraction | int]) -> dict[int, int]:
        """What is left of ``row`` after elimination by the basis rows, on ints.

        The remainder is scaled by a positive factor to integers, and is
        empty exactly when ``row`` lies in the span.  Zero values in
        ``row`` are ignored.
        """
        den = lcm(*[v.denominator for v in row.values()])
        out = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        # each basis row is zero in the other pivot columns, so the order
        # of the steps does not matter
        for pivot in [c for c in out if c in self]:
            prow = self[pivot]
            a, b = out[pivot], prow[pivot]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                out = {c: b * v for c, v in out.items()}
            accumulate(out, prow.items(), -a)
        return out

    def insert(self, row: dict[int, Fraction | int]) -> bool:
        """Add ``row`` to the span; False, changing nothing, when it already lies in it."""
        row = self.reduce(row)
        if not row:
            return False
        pivot = min(row)
        g = gcd(*row.values())
        if row[pivot] < 0:
            g = -g
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        # back-eliminate the new pivot from earlier rows
        b = row[pivot]
        for p, prow in self.items():
            a = prow.get(pivot)
            if a:
                g = gcd(a, b)
                a, scale = a // g, b // g
                new = {c: scale * v for c, v in prow.items()} if scale != 1 else prow
                accumulate(new, row.items(), -a)
                g = gcd(*new.values())
                self[p] = {c: v // g for c, v in new.items()} if g != 1 else new
        self[pivot] = row
        return True

    def rref(self) -> list[tuple[int, dict[int, Fraction]]]:
        """The reduced row-echelon form over Q as (pivot, row) pairs, by pivot."""
        return [
            (pivot, {c: Fraction(v, row[pivot]) for c, v in row.items()})
            for pivot, row in sorted(self.items())
        ]


def _eliminate(rows: Iterable[dict[int, Fraction]]) -> list[tuple[int, dict[int, Fraction]]]:
    """Reduce sparse rows to a fully reduced echelon list of (pivot, row)."""
    span = Echelon()
    for row in rows:
        span.insert(row)
    return span.rref()


# the largest prime below 2**30: every residue is a single CPython digit
_PRIME = 1073741789
# Wang's bound: n/d with |n|, d <= sqrt(p/2) is the only such fraction with its residue
_LIFT_BOUND = isqrt(_PRIME // 2)


def _rref_mod_p(rows: list[dict[int, Fraction]], cols: int) -> Optional[dict[int, dict[int, int]]]:
    """The reduced row-echelon form of the rows modulo p, as pivot -> row of residues.

    The sibling of ``Echelon`` over GF(p), stopping once the rank
    reaches ``cols``.  It keeps its own loop, the hot path of the
    full-rank certificate.  Each row is 1 at its pivot, its first
    column, and zero in every other pivot column.  Returns None when p
    divides a denominator, since the residues would then say nothing
    about the rational matrix.
    """
    p = _PRIME
    inverses: dict[int, int] = {1: 1}
    reduced: dict[int, dict[int, int]] = {}
    for frow in rows:
        row: dict[int, int] = {}
        for c, v in frow.items():
            den = v.denominator
            inv = inverses.get(den)
            if inv is None:
                if den % p == 0:
                    return None
                inv = inverses[den] = pow(den, -1, p)
            r = v.numerator * inv % p
            if r:
                row[c] = r
        for pivot in [c for c in row if c in reduced]:
            coeff = row[pivot]
            for c, v in reduced[pivot].items():
                s = (row.get(c, 0) - coeff * v) % p
                if s:
                    row[c] = s
                else:
                    del row[c]
        if not row:
            continue
        pivot = min(row)
        inv = pow(row[pivot], -1, p)
        row = {c: v * inv % p for c, v in row.items()}
        for prow in reduced.values():
            coeff = prow.get(pivot)
            if coeff:
                for c, v in row.items():
                    s = (prow.get(c, 0) - coeff * v) % p
                    if s:
                        prow[c] = s
                    else:
                        del prow[c]
        reduced[pivot] = row
        if len(reduced) == cols:
            break
    return reduced


def _rational_lift(u: int) -> Optional[Fraction]:
    """Wang's rational reconstruction: the n/d = u mod p with |n|, d <= _LIFT_BOUND, or None."""
    r0, r1, t0, t1 = _PRIME, u, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1) if abs(t1) <= _LIFT_BOUND else None


def _lifted_rref(rows: list[dict[int, Fraction]], cols: int) -> Optional[list[tuple[int, dict[int, Fraction]]]]:
    """The rref over Q lifted from the rref mod p, or None when the lift is not proven.

    Every entry of the rref mod p is lifted by rational reconstruction,
    and the lift is returned only when every row annihilates every
    vector of its free-variable kernel, checked exactly on ints (see
    the module docstring).  Full column rank needs no lift and no check.
    """
    reduced = _rref_mod_p(rows, cols)
    if reduced is None:
        return None
    lifted = []
    for pivot, row in sorted(reduced.items()):
        row = {c: _rational_lift(v) for c, v in row.items()}
        if None in row.values():
            return None
        lifted.append((pivot, row))
    del reduced
    # the kernel by columns, on ints: column c of the kernel vector of free
    # column f, scaled by the lcm of the denominators in column f
    dens = {f: 1 for f in range(cols)}
    for pivot, row in lifted:
        del dens[pivot]
    if not dens:
        return lifted
    for _, row in lifted:
        for c, v in row.items():
            if c in dens:
                dens[c] = lcm(dens[c], v.denominator)
    weights: dict[int, list[tuple[int, int]]] = {f: [(f, d)] for f, d in dens.items()}
    for pivot, row in lifted:
        weights[pivot] = [(f, -v.numerator * (dens[f] // v.denominator)) for f, v in row.items() if f != pivot]
    for row in rows:
        den = lcm(*[v.denominator for v in row.values()])
        products: dict[int, int] = {}
        for c, v in row.items():
            a = v.numerator * (den // v.denominator)
            for f, k in weights[c]:
                products[f] = products.get(f, 0) + a * k
        if any(products.values()):
            return None
    return lifted


def _reduction(reduced: list[tuple[int, dict[int, Fraction]]], rows: int, cols: int) -> RowReduction:
    """Rref, pivots and free-variable kernel basis of a reduced row-echelon list of (pivot, row)."""
    pivots = [p for p, _ in reduced]
    rref = RationalMatrix._make(rows, cols, {r: row for r, (_, row) in enumerate(reduced)})
    kernel = {f: {f: ONE} for f in range(cols)}
    for pivot in pivots:
        del kernel[pivot]
    # every other column a reduced row holds is free
    for pivot, row in reduced:
        for free, coeff in row.items():
            if free != pivot:
                kernel[free][pivot] = -coeff
    return RowReduction(rref=rref, rank=len(pivots), pivots=pivots, kernel=list(kernel.values()))


def row_reduce(m: RationalMatrix) -> RowReduction:
    """Reduced row-echelon form with rank and an exact right-kernel basis.

    rank + len(kernel) == cols, and m @ v == 0 holds exactly for every
    kernel basis vector v.  The rref is lifted from the rref mod p where
    that lift is proven, and otherwise eliminated over Q (see the module
    docstring); the result is identical to eliminating every row over Q.
    """
    rows = sorted(m._by_row.values(), key=len)
    reduced = _lifted_rref(rows, m.cols)
    # the residues are released before the fallback runs
    return _reduction(_eliminate(rows) if reduced is None else reduced, m.rows, m.cols)


def char_poly(m: RationalMatrix) -> list[Fraction]:
    """Coefficients of det(tI - m), ascending in t, via Faddeev-LeVerrier."""
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = Fraction(1)
    aux = RationalMatrix.identity(n)
    for k in range(1, n + 1):
        aux = m @ aux
        trace = sum((aux.entry(i, i) for i in range(n)), ZERO)
        ck = -trace / k
        coeffs[n - k] = ck
        aux = aux + RationalMatrix.identity(n).scale(ck)
    return coeffs


def eval_poly_matrix(coeffs: Sequence[Fraction], m: RationalMatrix) -> RationalMatrix:
    """Evaluate a univariate polynomial (ascending coefficients) at a square matrix.

    Coefficients may be ints or Fractions.  Horner's rule: each step
    multiplies the accumulator by m and adds the next coefficient on the
    diagonal of that fresh product in place.
    """
    if m.rows != m.cols:
        raise ValueError("polynomial evaluation needs a square matrix")
    acc = RationalMatrix.zero(m.rows, m.cols)
    for c in reversed(list(coeffs)):
        acc = acc @ m
        if c:
            for i in range(m.rows):
                if not accumulate(acc._by_row.setdefault(i, {}), ((i, c),)):
                    del acc._by_row[i]
    return acc
