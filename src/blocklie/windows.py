"""Graded module windows with exact action matrices built on first use.

A WindowedModule is a finite slice of a Z-graded module: one weight
space per integer index k in [lo, hi], with the weight of index k equal
to offset + k, and an exact rational matrix for each (generator, source
index) pair whose target index stays inside the window.  Absent action
entries mean the target leaves the window; relations are only ever
asserted where every intermediate index stays inside (interior
checking, defined once by ``interior``), so windows approximate
infinite modules without false negatives.  Every window is given a
callback that gives each action matrix or its entries;
``WindowedModule.act`` is the only reader of the callback and the only
writer of the window's store: it builds each matrix the first time it
is asked for and keeps it, or only a marker when it is zero, so a check
stores only the nonzero matrices it reads and computes each action
once.

The verdicts on windows live in ``modules``, which a job that only
builds windows, such as ``lemmas``, never executes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import algebra
from .algebra import AlgebraVariant, BasisKey, bracket_terms, parse_variant
from .linalg import RationalMatrix
from .rationals import ZERO, check_keys, format_rational, parse_rational, read_int, read_int_key, read_list

# adjoint_window: generators have degrees -2..2
ADJOINT_DEGREE = 2

# what a window stores for a zero action: no matrix, only this marker
_ZERO = "zero"


def interior(lo: int, hi: int, *shifts: int) -> range:
    """The indices k of [lo, hi], ascending, with k + s inside [lo, hi] for every shift s.

    This is the one definition of interior checking: a relation touching
    the indices k + s is asserted exactly at these k.  With no shift it
    is the whole window; shifts wider than the window give an empty range.
    """
    return range(lo - min((0, *shifts)), hi - max((0, *shifts)) + 1)


_MODULE_KEYS = {"variant", "offset", "range", "central", "dims", "generators", "actions", "col_margins"}


class WindowedModule:
    """The window whose generator g maps V_k to V_{k+g.alpha} by the matrix with entries(g, k).

    Nothing is built here: ``act(g, k)`` builds the dims[k + g.alpha] x
    dims[k] matrix for a generator g at an index k of
    ``interior(lo, hi, g.alpha)`` the first time it is asked for.
    ``entries`` gives that matrix as a ``RationalMatrix`` of that shape,
    as its (row, col) -> value map (zeros allowed) or as None for the
    zero matrix; a zero it computes is stored as a marker, with no matrix
    behind it, and a None is not stored.  The window is read only
    through ``act``, so it never changes after construction.  Raises
    ValueError for dims or col_margins keys that do not match [lo, hi], a
    negative dimension, a margin list of the wrong length or a generator
    listed twice.
    """

    def __init__(
        self,
        variant: AlgebraVariant,
        offset: Fraction,
        lo: int,
        hi: int,
        dims: dict[int, int],
        generators: Sequence[BasisKey],
        entries: Callable[[BasisKey, int], Optional[dict[tuple[int, int], Fraction] | RationalMatrix]],
        central_scalar: Fraction = ZERO,
        col_margins: dict[int, list[int]] | None = None,
    ):
        if lo > hi:
            raise ValueError("empty window range")
        for name, keyed in (("dims", dims), ("col_margins", col_margins or {})):
            outside = [k for k in keyed if not lo <= k <= hi]
            if outside:
                raise ValueError(f"'{name}' key {min(outside)} is outside the range [{lo}, {hi}]")
        if len(dims) < hi - lo + 1:
            raise ValueError(f"range index {next(k for k in range(lo, hi + 1) if k not in dims)} has no 'dims' entry")
        self.variant = variant
        self.offset = Fraction(offset)
        self.lo = lo
        self.hi = hi
        self.dims = {k: int(dims[k]) for k in range(lo, hi + 1)}
        self.generators = [BasisKey(*g) for g in generators]
        self._generator_set = set(self.generators)
        self._actions: dict[tuple[BasisKey, int], RationalMatrix | str] = {}
        self._entries = entries
        self.central_scalar = Fraction(central_scalar)
        self.col_margins = col_margins
        if len(self._generator_set) < len(self.generators):
            raise ValueError(f"generator {next(g for g, n in Counter(self.generators).items() if n > 1)} is listed twice")
        for k, d in self.dims.items():
            if d < 0:
                raise ValueError(f"weight space {k} has negative dimension {d}")
        if col_margins is not None:
            for k in self.indices():
                margins = col_margins.get(k)
                if margins is None or len(margins) != self.dims[k]:
                    raise ValueError(f"column margins at index {k} do not match dimension {self.dims[k]}")

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def in_range(self, k: int) -> bool:
        return self.lo <= k <= self.hi

    def weight(self, k: int) -> Fraction:
        return self.offset + k

    def act(self, generator: BasisKey, k: int) -> Optional[RationalMatrix]:
        """The matrix V_k -> V_{k+alpha}, or None when the target leaves the window.

        Built from ``entries`` on first use and kept, a zero one as a
        marker that is read as a new zero matrix, so ``entries`` runs once
        per action; a ``RationalMatrix`` that ``entries`` gives is kept as
        it is, and a None, a zero known without work, is not kept.  Raises
        KeyError for a generator outside the window's.
        """
        generator = BasisKey(*generator)
        if not self.in_range(k) or not self.in_range(k + generator.alpha):
            return None
        key = (generator, k)
        m = self._actions.get(key)
        if m is None:
            if generator not in self._generator_set:
                raise KeyError(key)
            m = self._entries(generator, k)
            if m is None:
                return RationalMatrix(self.dims[k + generator.alpha], self.dims[k])
            if not isinstance(m, RationalMatrix):
                m = RationalMatrix(self.dims[k + generator.alpha], self.dims[k], m)
            self._actions[key] = _ZERO if m.is_zero() else m
        elif m is _ZERO:
            m = RationalMatrix(self.dims[k + generator.alpha], self.dims[k])
        return m

    @property
    def actions(self) -> dict[tuple[BasisKey, int], RationalMatrix]:
        """Every action matrix by (generator, source index), zeros included, in a new dict on each read."""
        return {(g, k): self.act(g, k) for g in self.generators for k in interior(self.lo, self.hi, g.alpha)}

    def has_generator(self, generator: BasisKey) -> bool:
        return BasisKey(*generator) in self._generator_set

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __repr__(self) -> str:
        return f"WindowedModule({self.variant}, range=[{self.lo},{self.hi}], dim={self.total_dim()})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        stored = self.actions  # keys (BasisKey(alpha, level), source) sort by alpha, level, source
        actions = [
            {"alpha": g.alpha, "level": g.level, "source": k, "matrix": stored[(g, k)].to_json()} for g, k in sorted(stored)
        ]
        data = {
            "variant": str(self.variant),
            "offset": format_rational(self.offset),
            "range": [self.lo, self.hi],
            "central": format_rational(self.central_scalar),
            "dims": {str(k): self.dims[k] for k in self.indices()},
            "generators": [{"alpha": g.alpha, "level": g.level} for g in sorted(self.generators)],
            "actions": actions,
        }
        if self.col_margins is not None:
            data["col_margins"] = {str(k): v for k, v in sorted(self.col_margins.items())}
        return data

    @classmethod
    def from_json(cls, data: dict) -> "WindowedModule":
        """The window a ``to_json`` document describes; ValueError unless each
        interior action is stored once, with its shape, and no other is."""
        try:
            check_keys(data, _MODULE_KEYS)
            variant = parse_variant(data["variant"])
            offset = parse_rational(data["offset"])
            lo, hi = (read_int(v, "'range' entry") for v in read_list(data["range"], "'range'"))
            central = parse_rational(data.get("central", "0"))
            dims = {read_int_key(k, "'dims' key"): read_int(v, "'dims' value") for k, v in data["dims"].items()}
            generators = [BasisKey.from_json(g) for g in read_list(data["generators"], "'generators'")]
            stored = {}
            for item in read_list(data.get("actions", []), "'actions'"):
                key = (BasisKey.from_json(item, "source", "matrix"), read_int(item["source"], "'source'"))
                if key in stored:
                    raise ValueError(f"action of {key[0]} at index {key[1]} is stored twice")
                stored[key] = RationalMatrix.from_json(item["matrix"])
            margins = data.get("col_margins")
            col_margins = None if margins is None else {
                read_int_key(k, "'col_margins' key"): [
                    read_int(x, "'col_margins' entry") for x in read_list(v, "'col_margins' value")
                ]
                for k, v in margins.items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed module JSON: {exc}") from exc
        mod = cls(variant, offset, lo, hi, dims, generators, lambda g, k: stored[(g, k)], central, col_margins)
        for (g, k), m in stored.items():
            t = k + g.alpha
            if not mod.has_generator(g) or not (mod.in_range(k) and mod.in_range(t)):
                raise ValueError(f"action stored for {g} at index {k}, not a generator acting inside the window")
            if (m.rows, m.cols) != (mod.dims[t], mod.dims[k]):
                raise ValueError(f"action of {g} at index {k} is {m.rows}x{m.cols}, expected {mod.dims[t]}x{mod.dims[k]}")
        for g in mod.generators:
            for k in interior(lo, hi, g.alpha):
                if (g, k) not in stored:
                    raise ValueError(f"no action stored for {g} at index {k}")
        return mod


def adjoint_window(m: int, n: int, lo: int, hi: int) -> WindowedModule:
    """The adjoint action on the level-band quotient, windowed by degree.

    The weight-k space has basis {L_{k,i} : m <= i <= n}, plus the
    central element at degree 0 when m = 0.  The generators are L_{g,j}
    for |g| <= ADJOINT_DEGREE and m <= j <= n.  Level->=1 generators act
    nontrivially here, in contrast with the intermediate series.
    """
    variant = algebra.quotient(m, n)
    labels: dict[int, list] = {}
    for k in range(lo, hi + 1):
        lab: list = [("g", i) for i in range(m, n + 1)]
        if k == 0 and m == 0:
            lab.append(("c",))
        labels[k] = lab
    dims = {k: len(labels[k]) for k in labels}
    position = {k: {lab: i for i, lab in enumerate(labels[k])} for k in labels}
    generators = [
        BasisKey(g, j) for g in range(-ADJOINT_DEGREE, ADJOINT_DEGREE + 1) for j in range(m, n + 1)
    ]

    def entries(g: BasisKey, k: int) -> dict[tuple[int, int], Fraction]:
        t = k + g.alpha
        out: dict[tuple[int, int], Fraction] = {}
        for col, lab in enumerate(labels[k]):
            if lab == ("c",):
                continue  # C is central: ad(x) C = 0
            terms, central_coeff = bracket_terms(variant, g, BasisKey(k, lab[1]))
            for key, coeff in terms.items():
                out[(position[t][("g", key.level)], col)] = coeff
            if central_coeff:
                out[(position[t][("c",)], col)] = central_coeff
        return out

    return WindowedModule(variant, ZERO, lo, hi, dims, generators, entries)
