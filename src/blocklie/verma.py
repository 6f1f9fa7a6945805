"""Truncated highest-weight modules over the level-band quotients Q:0:n.

The quotient algebra splits by degree into a negative part, a
commutative degree-zero part (levels 0..n plus C) and a positive part.
A weight functional assigns rational values to the degree-zero
generators and to C; the associated highest-weight module is spanned by
normal-ordered products of negative generators applied to the cyclic
vector.

A monomial is a tuple of factors (alpha, level) with alpha >= 1, each
standing for the degree -alpha generator at that level, kept in
canonical nonincreasing (alpha, level) order.  Its depth is the sum of
the alphas; the depth-d weight space is finite dimensional with
dimension equal to the number of partitions of d into parts carrying
one of n+1 colors.

Straightening an out-of-order product terminates because every bracket
correction strictly shortens the word.  Degree -alpha generators lower
the grading index by alpha, so acting by a degree-a element shifts
depth by exactly -a.

Straightening coefficients are ints, and so are the scaled images
``VermaAction`` works on (see its docstring); ``singular_vectors``
builds its system from those images, which leaves the kernel unchanged,
and checks its kernel on them too.  ``VermaAction`` caches only what its
recursion reads again, the images of degree >= 0 generators, in one
table per generator keyed by monomial, and keeps one tuple per distinct
monomial.  A negative generator prepends its factor uncached, and a
product whose new first factor is already in order skips
``normal_order``.  ``verma_basis`` and ``singular_vectors`` answer every
depth up to their bound in one pass, so one call serves a whole job:
one action and one list of bases.  ``verma_basis`` builds one tuple per
factor per call.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Mapping, Sequence

from . import algebra, linalg, windows
from .algebra import BasisKey, bracket_terms
from .rationals import accumulate, check_keys, format_rational, parse_rational, read_list

Monomial = tuple[tuple[int, int], ...]


class WeightFunctional(algebra.Frozen):
    """Values on the degree-zero generators (index = level) and on C."""

    __slots__ = ("values", "c")

    def __init__(self, values: tuple[Fraction, ...], c: Fraction):
        super().__init__(values, c)

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, level: int) -> Fraction:
        return self.values[level]

    def to_json(self) -> dict:
        return {"lambda": [format_rational(v) for v in self.values], "c": format_rational(self.c)}

    @classmethod
    def from_json(cls, data: dict) -> "WeightFunctional":
        try:
            check_keys(data, ("lambda", "c"))
            values = tuple(parse_rational(v) for v in read_list(data["lambda"], "'lambda'"))
            c = parse_rational(data.get("c", "0"))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed weight functional JSON: {exc}") from exc
        if not values:
            raise ValueError("weight functional needs at least the level-0 value")
        return cls(values, c)


def verma_basis(n: int, depth: int) -> list[list[Monomial]]:
    """The sorted canonical monomials of each depth 0..depth over Q:0:n, one list per depth.

    One pass over the depths: the depth-d basis puts each leading factor
    (alpha, level) in front of every monomial of the depth-(d - alpha)
    basis whose first factor does not exceed it.  Factors are taken in
    increasing order and each tail list is sorted, so every list comes
    out sorted.  Within one call every factor (alpha, level) is one
    tuple object.
    """
    if n < 0 or depth < 0:
        raise ValueError("need n >= 0 and depth >= 0")
    factors = [(alpha, level) for alpha in range(1, depth + 1) for level in range(n + 1)]
    bases: list[list[Monomial]] = [[()]]
    for d in range(1, depth + 1):
        basis = []
        for factor in factors[: d * (n + 1)]:
            for tail in bases[d - factor[0]]:
                if tail and tail[0] > factor:
                    break
                basis.append((factor,) + tail)
        bases.append(basis)
    return bases


def partition_dimensions(n: int, max_depth: int) -> list[int]:
    """Coefficients of prod_m (1 - q^m)^-(n+1) up to q^max_depth.

    This is the generating-function count of depth-d spaces: partitions
    with parts in n+1 colors.  Computed independently of the monomial
    enumeration so the two can cross-check each other.
    """
    coeffs = [1] + [0] * max_depth
    for _ in range(n + 1):
        for m in range(1, max_depth + 1):
            # multiply by 1/(1 - q^m)
            for d in range(m, max_depth + 1):
                coeffs[d] += coeffs[d - m]
    return coeffs


def monomial_repr(word: Monomial) -> str:
    if not word:
        return "v"
    return "*".join(f"L[{-alpha},{level}]" for alpha, level in word) + "*v"


def normal_order(word: Sequence[tuple[int, int]], n: int) -> dict[Monomial, int]:
    """Rewrite a product of negative generators into canonical monomials.

    Adjacent out-of-order factors are swapped; the bracket correction,
    read from ``bracket_terms`` over Q:0:n, replaces the two factors by
    one of level sum (dropped above the band), so the rewriting
    terminates.  The result is independent of the straightening
    strategy because it equals the same element of the module.  The
    structure constants of the negative part are ints, and so is every
    coefficient of the result.
    """
    for alpha, level in word:
        if alpha < 1 or not (0 <= level <= n):
            raise ValueError(f"factor ({alpha},{level}) is not a negative generator of Q:0:{n}")
    variant = algebra.quotient(0, n)
    pending: dict[Monomial, int] = {tuple(word): 1}
    done: dict[Monomial, int] = {}
    while pending:
        w, coeff = pending.popitem()
        spot = next((t for t in range(len(w) - 1) if w[t] < w[t + 1]), None)
        if spot is None:
            accumulate(done, ((w, coeff),))
            continue
        swapped = w[:spot] + (w[spot + 1], w[spot]) + w[spot + 2 :]
        accumulate(pending, ((swapped, coeff),))
        (a1, l1), (a2, l2) = w[spot], w[spot + 1]
        # two negative degrees never sum to zero, so there is no C term
        terms, _ = bracket_terms(variant, BasisKey(-a1, l1), BasisKey(-a2, l2))
        for key, cbr in terms.items():
            corrected = w[:spot] + ((-key.alpha, key.level),) + w[spot + 2 :]
            accumulate(pending, ((corrected, coeff),), cbr)
    return done


# the zero image, shared by every action and read-only
NO_IMAGE: Mapping[Monomial, int] = MappingProxyType({})


def _prepend(factor: tuple[int, int], word: Monomial, coeff: int, out: dict[Monomial, int], n: int) -> dict[Monomial, int]:
    """Add ``coeff`` times the straightened product factor * word into ``out``; return ``out``.

    A canonical ``word`` whose first factor does not exceed ``factor``
    takes it in front as it is, without ``normal_order``.
    """
    if not word or factor >= word[0]:
        return accumulate(out, (((factor,) + word, coeff),))
    return accumulate(out, normal_order((factor,) + word, n).items(), coeff)


class VermaAction:
    """Action of the quotient algebra on a truncated highest-weight module.

    Every coefficient of an image is an integer combination of 1, the
    values of the weight functional and c, so ``scale``, the lcm of
    their denominators, times an image has int coefficients.
    ``act_generator`` returns those scaled images; ``act`` and
    ``verma_window`` divide by ``scale``.

    The cache holds one table per degree >= 0 generator, (alpha, level)
    -> {word: image}, each zero image as the one read-only ``NO_IMAGE``.
    Every monomial a table key or a cached image holds is interned: one
    tuple object per distinct monomial of the action.
    """

    def __init__(self, lam: WeightFunctional, n: int):
        if lam.n != n:
            raise ValueError(f"weight table has {lam.n + 1} levels, expected {n + 1}")
        self.lam = lam
        self.n = n
        self.variant = algebra.quotient(0, n)
        self.scale = lcm(*[v.denominator for v in lam.values], lam.c.denominator)
        # lam and c times scale, as ints
        self._values = [v.numerator * (self.scale // v.denominator) for v in lam.values]
        self._c = lam.c.numerator * (self.scale // lam.c.denominator)
        self._cache: dict[tuple[int, int], dict[Monomial, Mapping[Monomial, int]]] = {}
        self._monomials: dict[Monomial, Monomial] = {}

    def act_generator(self, alpha: int, level: int, word: Monomial) -> Mapping[Monomial, int]:
        """``scale`` times L_{alpha,level} applied to a canonical monomial applied to the cyclic vector.

        A level outside 0..n raises ValueError.
        """
        table = self._cache.get((alpha, level))
        if table is not None:
            cached = table.get(word)
            if cached is not None:
                return cached
        elif not 0 <= level <= self.n:
            raise ValueError(f"generator L_{{{alpha},{level}}} has a level outside the band 0..{self.n} of Q:0:{self.n}")
        elif alpha < 0:
            return _prepend((-alpha, level), word, self.scale, {}, self.n)
        else:
            table = self._cache[(alpha, level)] = {}
        intern = self._monomials.setdefault
        word = intern(word, word)
        out: dict[Monomial, int] = {}
        if not word:
            # the positive part annihilates the cyclic vector, and L_{0,i} scales it by lam_i
            if alpha == 0 and self._values[level]:
                out = {word: self._values[level]}
        else:
            head, rest = word[0], word[1:]
            # move the generator past the leading factor
            for w, c in self.act_generator(alpha, level, rest).items():
                _prepend(head, w, c, out, self.n)
            fa, fl = head
            terms, central_coeff = bracket_terms(self.variant, BasisKey(alpha, level), BasisKey(-fa, fl))
            for bkey, bc in terms.items():
                accumulate(out, self.act_generator(bkey.alpha, bkey.level, rest).items(), bc)
            if central_coeff:
                accumulate(out, ((rest, central_coeff * self._c),))
            out = {intern(w, w): c for w, c in out.items()}
        image = table[word] = out or NO_IMAGE
        return image

    def act(self, generator: BasisKey | str, vector: dict[Monomial, Fraction | int]) -> dict[Monomial, Fraction]:
        out: dict[Monomial, Fraction] = {}
        for word, coeff in vector.items():
            if generator == "C":
                image = {word: self._c}
            else:
                g = BasisKey(*generator)
                image = self.act_generator(g.alpha, g.level, word)
            accumulate(out, image.items(), coeff)
        return {w: Fraction(v, self.scale) for w, v in out.items()}


def positive_generators(n: int) -> list[BasisKey]:
    """Generating set of the positive part: degree-1 at every level, plus degree 2 level 0.

    Brackets of two degree-1 generators never produce the level-0
    degree-2 one (the structure constant vanishes), which is why it is
    included explicitly; validate_positive_generators confirms the set
    on a window.
    """
    return [BasisKey(1, i) for i in range(n + 1)] + [BasisKey(2, 0)]


def validate_positive_generators(n: int, degree_bound: int) -> bool:
    """Closure of the generating set inside the positive-degree window."""
    window = algebra.KeyWindow(1, degree_bound, 0, n)
    reached = algebra.generation_closure(positive_generators(n), algebra.quotient(0, n), window)
    return reached == set(window.keys(algebra.quotient(0, n)))


def _singular_system(action: VermaAction, bases: list[list[Monomial]], depth: int) -> linalg.RationalMatrix:
    """The matrix of the positive generating set on the depth-d basis, times ``action.scale``.

    ``bases`` is ``verma_basis`` through at least ``depth``.  One block of
    rows per generator, one row dict per target monomial of
    ``bases[depth - alpha]``, holding the int images as they are; scaling
    every row by one factor leaves the kernel as it is.
    """
    rows: list[dict[int, int]] = []
    for g in positive_generators(action.n):
        block: dict[Monomial, dict[int, int]] = {w: {} for w in bases[depth - g.alpha]} if g.alpha <= depth else {}
        for col, word in enumerate(bases[depth]):
            for w, c in action.act_generator(g.alpha, g.level, word).items():
                block[w][col] = c
        rows += block.values()
    return linalg.RationalMatrix.from_sparse_rows(rows, len(bases[depth]))


def singular_vectors(lam: WeightFunctional, n: int, depth: int) -> list[list[dict[Monomial, Fraction]]]:
    """Bases of the vectors annihilated by the positive part, one list per depth 0..depth.

    Entry 0 is the cyclic vector alone.  One ``VermaAction`` of lam on
    Q:0:n and one ``verma_basis`` call serve every depth, so each depth
    reuses the images straightened before it.  At each depth d >= 1 the
    joint kernel of the positive generating set is computed, then each
    kernel vector is checked against every positive-degree generator
    whose image depth is still nonnegative; a vector that fails raises
    RuntimeError.  The check runs on ints: each kernel vector scaled by
    the lcm of its denominators, against the scaled images.
    """
    action = VermaAction(lam, n)
    bases = verma_basis(n, depth)
    found = [[{(): Fraction(1)}]]
    for d in range(1, depth + 1):
        vectors = []
        for vec in linalg.row_reduce(_singular_system(action, bases, d)).kernel:
            v = {bases[d][i]: c for i, c in vec.items()}
            common = lcm(*[c.denominator for c in v.values()])
            scaled = {w: c.numerator * (common // c.denominator) for w, c in v.items()}
            for alpha in range(1, d + 1):
                for level in range(n + 1):
                    if action.act(BasisKey(alpha, level), scaled):
                        raise RuntimeError(f"depth-{d} kernel vector not annihilated by L_{{{alpha},{level}}}")
            vectors.append(v)
        found.append(vectors)
    return found


def quasifinite_report(n: int, depth_cap: int) -> dict:
    """Depth-space dimensions against the colored-partition generating function."""
    enumerated = [len(basis) for basis in verma_basis(n, depth_cap)]
    oracle = partition_dimensions(n, depth_cap)
    return {
        "n": n,
        "depths": list(range(depth_cap + 1)),
        "dimensions": enumerated,
        "oracle": oracle,
        "match": enumerated == oracle,
    }


def verma_window(lam: WeightFunctional, n: int, depth_cap: int) -> windows.WindowedModule:
    """Materialize the truncated module as a windowed module on [-depth_cap, 2].

    Index -d holds the depth-d space; indices 1 and 2 are visibly empty,
    which is what window classification keys on.  The generators are
    L_{a,i} for |a| <= depth_cap.  The weight offset is the level-0
    value of the functional.
    """
    lo, hi = -depth_cap, 2
    action = VermaAction(lam, n)
    depth_bases = verma_basis(n, depth_cap)
    bases = {k: (depth_bases[-k] if k <= 0 else []) for k in range(lo, hi + 1)}
    dims = {k: len(bases[k]) for k in bases}
    positions = {k: {w: i for i, w in enumerate(bases[k])} for k in bases}
    generators = [
        BasisKey(a, i) for a in range(-depth_cap, depth_cap + 1) for i in range(n + 1)
    ]

    def entries(g: BasisKey, k: int) -> dict[tuple[int, int], Fraction]:
        target = positions[k + g.alpha]
        return {
            (target[w], col): Fraction(c, action.scale)
            for col, word in enumerate(bases[k])
            for w, c in action.act_generator(g.alpha, g.level, word).items()
        }

    return windows.WindowedModule(algebra.quotient(0, n), lam[0], lo, hi, dims, generators, entries, lam.c)
