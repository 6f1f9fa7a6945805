"""Graded Lie algebra kernel: basis keys, variants, exact brackets.

Variants and their bases (C is the central element where present):

* ``Vir``      L_a,            a in Z
* ``B``        L_{a,i},        a in Z, i >= 0
* ``Bbar``     L_{a,i},        a in Z, i >= -1
* ``W1inf``    x^a D^i,        a in Z, i >= 0
* ``Winf``     x^a D^i,        a in Z, i >= 1
* ``Q:m:n``    L_{a,i},        a in Z, m <= i <= n   (level-band quotient of B)

Brackets:

* Vir:    [L_a, L_b] = (b-a) L_{a+b} + (a^3-a)/12 delta_{a+b,0} C
* B, Q:   [L_{a,i}, L_{b,j}] = ((i+1)b - (j+1)a) L_{a+b,i+j}
          + delta_{a+b,0} delta_{i+j,0} (a^3-a)/6 C;
          a quotient additionally discards levels above its band
* Bbar:   same leading term, central part a delta_{a+b,0} delta_{i+j,-2} C
* W:      [x^a D^i, x^b D^j] = x^{a+b} ((D+b)^i D^j - D^i (D+a)^j)
          + delta_{a+b,0} (-1)^i i! j! binom(a+i, i+j+1) C,
          expanded by the binomial theorem in the commuting symbol D

``bracket_terms`` is the only place these structure constants live and
``_bilinear`` the one bilinear extension of them; every other bracket in
the package but the independent Laurent model reads one of the two.

The quotient fixes the base algebra B; its level band [m, n] is closed
under the projected bracket because the discarded levels span an ideal.
The central element is kept only in quotients with m = 0 (a bracket can
produce C only at level 0).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import linalg
from .rationals import ZERO, accumulate, check_keys, format_rational, parse_rational, read_int, read_int_key, read_list


class BasisKey(NamedTuple):
    """A graded basis generator: degree alpha at the given level.

    For W variants the level is the power of D.  The central element is
    not a BasisKey; elements carry it as a separate coefficient.
    """

    alpha: int
    level: int

    @classmethod
    def from_json(cls, data: dict, *fields: str) -> "BasisKey":
        """Read ``alpha`` and ``level``; ``fields`` names the other keys the caller reads from the same object."""
        check_keys(data, ("alpha", "level", *fields))
        return cls(read_int(data["alpha"], "'alpha'"), read_int(data["level"], "'level'"))


class Frozen:
    """Base of the immutable value classes; their fields are the subclass's ``__slots__``.

    The subclass constructor validates, then passes the field values in
    slot order to ``Frozen.__init__``.  Instances are equal only to
    instances of the same class with equal fields, and hash as the field
    tuple.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class AlgebraVariant(Frozen):
    """One algebra of the family: its kind, and for a quotient the level band [m, n]."""

    __slots__ = ("kind", "m", "n")

    def __init__(self, kind: str, m: int = 0, n: int = 0):
        if kind not in {"virasoro", "block", "blockbar", "w1inf", "winf", "quotient"}:
            raise ValueError(f"unknown algebra kind {kind!r}")
        if kind == "quotient" and not (0 <= m <= n):
            raise ValueError(f"quotient band requires 0 <= m <= n, got [{m}, {n}]")
        super().__init__(kind, m, n)

    def __str__(self) -> str:
        return {
            "virasoro": "Vir",
            "block": "B",
            "blockbar": "Bbar",
            "w1inf": "W1inf",
            "winf": "Winf",
            "quotient": f"Q:{self.m}:{self.n}",
        }[self.kind]


VIRASORO = AlgebraVariant("virasoro")
BLOCK_B = AlgebraVariant("block")
BLOCK_BBAR = AlgebraVariant("blockbar")
W_1INF = AlgebraVariant("w1inf")
W_INF = AlgebraVariant("winf")


@functools.cache  # one frozen value per band, so the Verma straightening builds none per call
def quotient(m: int, n: int) -> AlgebraVariant:
    """The quotient of the level-m part of B by levels above n."""
    return AlgebraVariant("quotient", m, n)


def parse_variant(text: str) -> AlgebraVariant:
    table = {"Vir": VIRASORO, "B": BLOCK_B, "Bbar": BLOCK_BBAR, "W1inf": W_1INF, "Winf": W_INF}
    if text in table:
        return table[text]
    if text.startswith("Q:"):
        try:
            _, m, n = text.split(":")
            return quotient(read_int_key(m, "quotient level"), read_int_key(n, "quotient level"))
        except ValueError as exc:
            raise ValueError(f"malformed quotient variant {text!r}") from exc
    raise ValueError(f"unknown algebra variant {text!r}")


def level_range(variant: AlgebraVariant, level_cap: int) -> range:
    """Valid levels up to level_cap for window sweeps."""
    lo = {"virasoro": 0, "block": 0, "blockbar": -1, "w1inf": 0, "winf": 1, "quotient": variant.m}[variant.kind]
    hi = level_cap
    if variant.kind == "virasoro":
        hi = 0
    elif variant.kind == "quotient":
        hi = min(level_cap, variant.n)
    return range(lo, hi + 1)


def key_valid(variant: AlgebraVariant, key: BasisKey) -> bool:
    return key.level in level_range(variant, key.level)


def _w_cocycle(a: int, i: int, j: int) -> int:
    """Central pairing of x^a D^i with x^-a D^j in the W algebras.

    The universal central extension of the differential-operator
    algebra pairs z^a f(D) with z^-a g(D) through the window sum
    f(-1)g(a-1) + ... + f(-a)g(0); on the degree-one level this reduces
    to -(a^3-a)/6, the usual Virasoro-type term.  The power-sum form is
    the one that satisfies the cocycle identity in this basis (the
    closed binomial form seen elsewhere belongs to a binomial-basis
    normalization and fails Jacobi here; the sweep in
    verify_algebra_axioms is the witness).
    """
    if a == 0:
        return 0
    if a < 0:
        return -_w_cocycle(-a, j, i)
    return sum((-m) ** i * (a - m) ** j for m in range(1, a + 1))


def bracket_terms(variant: AlgebraVariant, x: BasisKey, y: BasisKey) -> tuple[dict[BasisKey, int], int | Fraction]:
    """Structure constants: the bracket of two basis generators.

    The only place the structure constants live (see the module
    docstring).  Returns the generator terms and the coefficient of C.
    Keys falling outside a quotient's level band are discarded (quotient
    projection).  Every coefficient is an int except the Virasoro
    central term (a^3-a)/12, an exact Fraction; (a^3-a)/6 is integral
    because (a-1)a(a+1) is divisible by 6.  The degrees and levels may
    be any ring elements (``identities`` passes polynomials); a central
    term is then reached only when a + b == 0 holds.
    """
    a, i = x
    b, j = y
    kind = variant.kind
    terms: dict[BasisKey, int] = {}
    central = 0
    if kind in ("w1inf", "winf"):  # expand (D+b)^i D^j - D^i (D+a)^j
        for r in range(i + 1):
            coeff = math.comb(i, r) * b ** (i - r)
            if coeff:
                key = BasisKey(a + b, r + j)
                terms[key] = terms.get(key, 0) + coeff
        for r in range(j + 1):
            coeff = math.comb(j, r) * a ** (j - r)
            if coeff:
                key = BasisKey(a + b, i + r)
                terms[key] = terms.get(key, 0) - coeff
        terms = {k: v for k, v in terms.items() if v}
        if a + b == 0:
            central = _w_cocycle(a, i, j)
        return terms, central
    # Block's constants; Vir is the level-0 case, where they read b - a
    c = (i + 1) * b - (j + 1) * a
    if c and (kind != "quotient" or i + j <= variant.n):
        terms[BasisKey(a + b, i + j)] = c
    if a + b == 0:
        if kind == "virasoro":
            central = Fraction(a**3 - a, 12)
        elif kind == "blockbar":
            central = a if i + j == -2 else 0
        elif i + j == 0:
            central = (a**3 - a) // 6
    return terms, central


class AlgebraElement:
    """A finite rational combination of basis generators plus a C multiple."""

    __slots__ = ("variant", "terms", "central")

    def __init__(
        self,
        variant: AlgebraVariant,
        terms: dict[BasisKey, Fraction] | None = None,
        central: Fraction | int = 0,
    ):
        self.variant = variant
        self.terms: dict[BasisKey, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                key = BasisKey(*key)
                if not key_valid(variant, key):
                    raise ValueError(f"key {key} is not valid for variant {variant}")
                coeff = Fraction(coeff)
                if coeff != 0:
                    self.terms[key] = coeff
        self.central = Fraction(central)
        if self.central and variant.kind == "quotient" and variant.m:  # C only when the band has level 0
            raise ValueError(f"variant {variant} has no central element")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.variant != other.variant:
            raise ValueError("cannot add elements of different variants")
        out = AlgebraElement(self.variant)
        out.terms = accumulate(dict(self.terms), other.terms.items())
        out.central = self.central + other.central
        return out

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def scale(self, factor: Fraction | int) -> "AlgebraElement":
        factor = Fraction(factor)
        out = AlgebraElement(self.variant)
        if factor:
            out.terms = {k: v * factor for k, v in self.terms.items()}
            out.central = self.central * factor
        return out

    def is_zero(self) -> bool:
        return not self.terms and self.central == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.variant == other.variant
            and self.terms == other.terms
            and self.central == other.central
        )

    def __repr__(self) -> str:
        parts = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            if self.variant.kind in ("w1inf", "winf"):
                label = f"x^{key.alpha}*D^{key.level}"
            elif self.variant.kind == "virasoro":
                label = f"L_{{{key.alpha}}}"
            else:
                label = f"L_{{{key.alpha},{key.level}}}"
            if coeff == 1:
                parts.append(label)
            elif coeff == -1:
                parts.append(f"-{label}")
            else:
                parts.append(f"{format_rational(coeff)}*{label}")
        if self.central:
            if self.central == 1:
                parts.append("C")
            elif self.central == -1:
                parts.append("-C")
            else:
                parts.append(f"{format_rational(self.central)}*C")
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        return {
            "variant": str(self.variant),
            "terms": [
                {"alpha": k.alpha, "level": k.level, "coeff": format_rational(v)}
                for k, v in sorted(self.terms.items())
            ],
            "central": format_rational(self.central),
        }

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraElement":
        try:
            check_keys(data, ("variant", "terms", "central"))
            variant = parse_variant(data["variant"])
            terms = read_list(data.get("terms", []), "'terms'")
            terms = {BasisKey.from_json(t, "coeff"): parse_rational(t["coeff"]) for t in terms}
            central = parse_rational(data.get("central", "0"))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed element JSON: {exc}") from exc
        return cls(variant, terms, central)


def gen(variant: AlgebraVariant, alpha: int, level: int = 0, coeff: Fraction | int = 1) -> AlgebraElement:
    return AlgebraElement(variant, {BasisKey(alpha, level): Fraction(coeff)})


def central(variant: AlgebraVariant, coeff: Fraction | int = 1) -> AlgebraElement:
    return AlgebraElement(variant, central=coeff)


def _bilinear(fn, variant: AlgebraVariant, xterms, yterms) -> tuple[dict, int | Fraction]:
    """Bilinear extension of the structure constants ``fn`` to sparse combinations.

    ``xterms`` and ``yterms`` are (key, coefficient) pairs, such as
    ``dict.items()``; ``yterms`` is iterated once per x term.  Returns
    the generator terms of [x, y] as a new dict, with the C coefficient.
    Coefficients keep the type the arithmetic gives them: ints stay ints.
    C brackets to zero, so only the generator parts of x and y are read.
    """
    terms = {}
    central_total = 0
    for kx, cx in xterms:
        for ky, cy in yterms:
            factor = cx * cy
            gen_terms, c = fn(variant, kx, ky)
            accumulate(terms, gen_terms.items(), factor)
            if c:
                central_total += factor * c
    return terms, central_total


def _element(variant: AlgebraVariant, terms: dict, central_coeff) -> AlgebraElement:
    """Wrap bracket output as an element, with every coefficient a Fraction."""
    out = AlgebraElement(variant)
    out.terms = {k: Fraction(v) for k, v in terms.items()}
    out.central = Fraction(central_coeff)
    return out


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the structure constants; C brackets to zero."""
    if x.variant != y.variant:
        raise ValueError("cannot bracket elements of different variants")
    return _element(x.variant, *_bilinear(bracket_terms, x.variant, x.terms.items(), y.terms.items()))


# ---------------------------------------------------------------------------
# Laurent-polynomial realization of B
# ---------------------------------------------------------------------------

class LaurentOp:
    """An operator x^alpha f(t) with f in t*Q[t], plus an optional C multiple.

    The dictionary maps t-powers (all >= 1) to coefficients.  Under the
    correspondence L_{alpha,i} = x^alpha t^{i+1} these operators realize
    the algebra B.
    """

    __slots__ = ("alpha", "coeffs", "central")

    def __init__(self, alpha: int, coeffs: dict[int, Fraction] | None = None, central: Fraction | int = 0):
        self.alpha = alpha
        self.coeffs: dict[int, Fraction] = {}
        if coeffs:
            for p, c in coeffs.items():
                if p < 1:
                    raise ValueError("Laurent realization requires f(t) in t*Q[t]")
                c = Fraction(c)
                if c:
                    self.coeffs[p] = c
        self.central = Fraction(central)

    @classmethod
    def monomial(cls, alpha: int, tpower: int) -> "LaurentOp":
        return cls(alpha, {tpower: Fraction(1)})

    def to_element(self, variant: AlgebraVariant = BLOCK_B) -> AlgebraElement:
        terms = {BasisKey(self.alpha, p - 1): c for p, c in self.coeffs.items()}
        return AlgebraElement(variant, terms, self.central)

    def __repr__(self) -> str:
        f = " + ".join(f"{format_rational(c)}*t^{p}" for p, c in sorted(self.coeffs.items()))
        body = f"x^{self.alpha}*({f or '0'})"
        if self.central:
            body += f" + {format_rational(self.central)}*C"
        return body


def laurent_bracket(a: LaurentOp, b: LaurentOp) -> LaurentOp:
    """[x^a f, x^b g] = x^{a+b} (b f' g - a f g') + delta_{a+b,0} (a^3-a)/6 Res_t t^-3 f g C.

    Res_t picks the coefficient of t^-1, so the residue term reads off
    the t^2 coefficient of f*g.
    """
    coeffs: dict[int, Fraction] = {}
    for p, cf in a.coeffs.items():
        # b*f'(t)g(t) - a*f(t)g'(t), both landing on t^(p+q-1)
        accumulate(coeffs, ((p + q - 1, cg * (b.alpha * p - a.alpha * q)) for q, cg in b.coeffs.items()), cf)
    central = ZERO
    if a.alpha + b.alpha == 0:
        residue = ZERO
        for p, cf in a.coeffs.items():
            cg = b.coeffs.get(2 - p)
            if cg:
                residue += cf * cg
        central = Fraction(a.alpha**3 - a.alpha, 6) * residue
    return LaurentOp(a.alpha + b.alpha, coeffs, central)


# ---------------------------------------------------------------------------
# Window sweeps
# ---------------------------------------------------------------------------

def window_keys(variant: AlgebraVariant, degree_bound: int, level_cap: int) -> list[BasisKey]:
    return [
        BasisKey(a, i)
        for a in range(-degree_bound, degree_bound + 1)
        for i in level_range(variant, level_cap)
    ]


def verify_algebra_axioms(
    variant: AlgebraVariant,
    degree_bound: int,
    level_cap: int = 0,
) -> list[dict]:
    """Exhaustive antisymmetry and Jacobi sweep over a basis window.

    Every intermediate key is representable (quotients absorb overflow
    levels exactly, and the other variants are closed), so each check is
    an exact identity.  C brackets to zero by construction, so it needs
    no check.  Returns a list of violation records, antisymmetry pairs
    (x <= y) before Jacobi triples (x <= y <= z), each in window order;
    empty means the window passed; an empty window raises ValueError.

    Keys are integer codes: the window keys are 0..n-1, each further key
    gets the next free code when a bracket first produces it, and the
    central element is the pseudo-code -1.  Row u of one bracket table
    holds [keys[u], w] for every column w: the window codes and the
    codes produced by a bracket of two window keys.  An entry is a tuple
    of (code, coefficient) pairs with zeros dropped, and each row ends
    with the empty entry [keys[u], C] = 0, which index -1 reads.  Every
    (u, w) is bracketed through ``bracket_terms`` exactly once.  A Jacobi
    term [x, [y, z]] reads [y, z] from row y, window column z, and the
    outer brackets from row x; codes are decoded to keys only for a
    violation's residual.
    """
    keys = window_keys(variant, degree_bound, level_cap)
    if not keys:
        raise ValueError(f"empty axiom window for {variant} at degree {degree_bound}, level {level_cap}")
    n = len(keys)
    decode = list(keys)
    code = {k: u for u, k in enumerate(keys)}

    def encode(x: BasisKey, w: BasisKey) -> tuple:
        terms, c = bracket_terms(variant, x, w)
        entry = []
        for key, v in terms.items():
            if v:
                u = code.get(key)
                if u is None:
                    u = code[key] = len(decode)
                    decode.append(key)
                entry.append((u, v))
        if c:
            entry.append((-1, c))
        return tuple(entry)

    rows = [[encode(x, y) for y in keys] for x in keys]
    images = decode[n:]  # the keys that brackets of window pairs produce
    for x, row in zip(keys, rows):
        row += [encode(x, w) for w in images]
        row.append(())

    antisymmetry: list[dict] = []
    jacobi: list[dict] = []

    def record(found: list, check: str, where: dict, acc: dict) -> None:
        terms = {decode[u]: v for u, v in acc.items() if v and u >= 0}
        found.append({"check": check, **where, "residual": repr(_element(variant, terms, acc.get(-1, 0)))})

    for ix in range(n):
        row_x = rows[ix]
        for iy in range(ix, n):
            row_y = rows[iy]
            xy = row_x[iy]
            acc = dict(xy)
            for u, v in row_y[ix]:
                acc[u] = acc.get(u, 0) + v
            if any(acc.values()):
                record(antisymmetry, "antisymmetry", {"pair": [list(keys[ix]), list(keys[iy])]}, acc)
            for iz in range(iy, n):
                row_z = rows[iz]
                acc = {}
                get = acc.get
                for w, cw in row_y[iz]:  # [x, [y, z]]
                    for u, v in row_x[w]:
                        acc[u] = get(u, 0) + cw * v
                for w, cw in row_z[ix]:  # [y, [z, x]]
                    for u, v in row_y[w]:
                        acc[u] = get(u, 0) + cw * v
                for w, cw in xy:  # [z, [x, y]]
                    for u, v in row_z[w]:
                        acc[u] = get(u, 0) + cw * v
                if any(acc.values()):
                    record(jacobi, "jacobi", {"triple": [list(keys[ix]), list(keys[iy]), list(keys[iz])]}, acc)
    return antisymmetry + jacobi


def vir_consistency(degree_bound: int) -> dict:
    """Match the level-0 part of B against the Virasoro relations.

    Sends L_{a,0} to L_a and C to c0 * C; the sweep determines the unique
    rational c0 from pairs with nonzero central terms and confirms the
    homomorphism on all pairs with |a|, |b| <= degree_bound.  The same
    rescaling is checked for the band [0, 0] quotient of B.
    """
    if degree_bound < 2:
        raise ValueError("need degree_bound >= 2 to see a central term")
    c0 = None
    ok = quotient_ok = True
    q00 = quotient(0, 0)
    for a in range(-degree_bound, degree_bound + 1):
        for b in range(-degree_bound, degree_bound + 1):
            x, y = BasisKey(a, 0), BasisKey(b, 0)
            (lhs, lhs_c), (rhs, rhs_c), (qlhs, qlhs_c) = (bracket_terms(v, x, y) for v in (BLOCK_B, VIRASORO, q00))
            if lhs_c:
                ratio = Fraction(rhs_c) / lhs_c
                if c0 is None:
                    c0 = ratio
                ok = ok and ratio == c0
            ok = ok and lhs == rhs and (lhs_c != 0 or rhs_c == 0)
            quotient_ok = quotient_ok and qlhs == rhs
            quotient_ok = quotient_ok and (qlhs_c * c0 == rhs_c if c0 is not None else qlhs_c == 0 or rhs_c == 0)
    return {
        "homomorphism": ok and c0 is not None,
        "c0": format_rational(c0) if c0 is not None else None,
        "pairs": (2 * degree_bound + 1) ** 2,
        "quotient_matches": quotient_ok,
    }


def associated_graded_check(degree_bound: int, level_cap: int) -> list[dict]:
    """Top filtration layer of the Winf bracket versus the B constants.

    For each pair (a,i), (b,j) in the window the bracket of x^a D^{i+1}
    and x^b D^{j+1} is computed in Winf; the coefficient of D^{i+j+1}
    must equal the B structure constant of L_{a,i} and L_{b,j} and no
    higher power of D may survive.
    """
    violations = []
    for a in range(-degree_bound, degree_bound + 1):
        for i in range(level_cap + 1):
            for b in range(-degree_bound, degree_bound + 1):
                for j in range(level_cap + 1):
                    result, _ = bracket_terms(W_INF, BasisKey(a, i + 1), BasisKey(b, j + 1))
                    top = i + j + 1
                    expected = bracket_terms(BLOCK_B, BasisKey(a, i), BasisKey(b, j))[0].get(BasisKey(a + b, i + j), 0)
                    seen = 0
                    overflow = False
                    for key, coeff in result.items():
                        if key.level == top:
                            seen = coeff
                        elif key.level > top:
                            overflow = True
                    if seen != expected or overflow:
                        violations.append(
                            {
                                "pair": [[a, i], [b, j]],
                                "expected": format_rational(expected),
                                "got": format_rational(seen),
                                "overflow": overflow,
                            }
                        )
    return violations


class KeyWindow(NamedTuple):
    """A finite key window for closure computations."""

    degree_lo: int
    degree_hi: int
    level_lo: int
    level_hi: int

    def keys(self, variant: AlgebraVariant) -> list[BasisKey]:
        return [
            BasisKey(a, i)
            for a in range(self.degree_lo, self.degree_hi + 1)
            for i in range(self.level_lo, self.level_hi + 1)
            if key_valid(variant, BasisKey(a, i))
        ]


def generation_closure(
    seeds: Sequence[BasisKey],
    variant: AlgebraVariant,
    window: KeyWindow,
) -> set[BasisKey]:
    """Keys of the window reached by repeated bracketing with window basis elements.

    The span starts from the seed generators and grows by bracketing
    current span vectors with every basis element of the window; results
    are projected back onto the window coordinates.  Iteration stops when
    the spanned subspace stabilizes.  A key counts as reached when its
    unit vector lies in the final span.
    """
    keys = window.keys(variant)
    index = {k: i for i, k in enumerate(keys)}  # column len(keys) holds the C component

    def to_vec(terms: dict, central_coeff) -> dict[int, Fraction]:
        vec = {index[k]: v for k, v in terms.items() if k in index}
        if central_coeff:
            vec[len(keys)] = central_coeff
        return vec

    span = linalg.Echelon()
    frontier: list[dict[int, Fraction]] = []
    for seed in seeds:
        vec = to_vec(gen(variant, seed.alpha, seed.level).terms, 0)
        if span.insert(vec):
            frontier.append(vec)

    units = [((k, 1),) for k in keys]
    while frontier:
        new_frontier = []
        for vec in frontier:
            # C brackets to zero, so only the generator coordinates are read
            yterms = [(keys[c], v) for c, v in vec.items() if c < len(keys)]
            for unit in units:
                pvec = to_vec(*_bilinear(bracket_terms, variant, unit, yterms))
                if pvec and span.insert(pvec):
                    new_frontier.append(pvec)
        frontier = new_frontier

    return {key for key, col in index.items() if not span.reduce({col: 1})}
