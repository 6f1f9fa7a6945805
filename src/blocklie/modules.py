"""Module windows built from the intermediate series, and the verdicts on windows.

The window type, ``WindowedModule``, and the one definition of interior
checking, ``interior``, live in ``windows``.  This module builds
windows (intermediate-series members, trivial extensions, tensor
products and direct sums) and decides things about them: the module
axioms, submodule closures, irreducibility, intertwiners, extensions,
core spanning and the window classification.

The intermediate-series families over the Virasoro algebra are the
basic suppliers of windows (C acts by zero on all of them):

* ``Aab``  L_i x_k = (a + k + b i) x_{i+k}
* ``Aa``   L_i x_k = (i + k) x_{i+k} for k != 0,  L_i x_0 = i (i + a) x_i
* ``Ba``   L_i x_k = k x_{i+k} for k != -i,       L_i x_{-i} = -i (i + a) x_0

Modules built from factor windows (tensor products) carry per-column
edge distances; ``check_module_axioms`` then asserts equality only on
columns far enough from the factor boundaries for every touched index
to be exact, and ``direct_sum`` and ``extension_space`` refuse them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import algebra
from .algebra import VIRASORO, BLOCK_B, BasisKey, bracket_terms
from .linalg import Echelon, RationalMatrix, row_reduce
from .rationals import ZERO, accumulate, format_rational
from .windows import WindowedModule, interior

# extension_space: degrees of the in-band unknowns, and of the level-0
# actions they are bracketed against
EXTENSION_BAND = range(-2, 4)
EXTENSION_DEGREES = (-3, -2, -1, 1, 2, 3)


class IntermediateSpec(algebra.Frozen):
    """Parameters of one intermediate-series family member."""

    __slots__ = ("family", "a", "b")

    def __init__(self, family: str, a: Fraction, b: Fraction | None = None):
        if family not in ("Aab", "Aa", "Ba"):
            raise ValueError(f"unknown intermediate-series family {family!r}")
        if family == "Aab" and b is None:
            raise ValueError("family Aab needs the parameter b")
        super().__init__(family, a, b)

    def weight_offset(self) -> Fraction:
        # L_0 acts as a+k on Aab and as k on the exceptional families
        return Fraction(self.a) if self.family == "Aab" else ZERO


def act_intermediate(spec: IntermediateSpec, generator: BasisKey | str, k: int) -> tuple[Fraction, int]:
    """Action coefficient of one generator on the basis vector x_k.

    Generators of level >= 1 and the central element act by zero; the
    exceptional rows of the Aa and Ba families are applied exactly as
    defined, with no smoothing.
    """
    if generator == "C":
        return ZERO, k
    generator = BasisKey(*generator)
    if generator.level != 0:
        return ZERO, k + generator.alpha
    i = generator.alpha
    target = k + i
    a = Fraction(spec.a)
    if spec.family == "Aab":
        return a + k + Fraction(spec.b) * i, target
    if spec.family == "Aa":
        if k == 0:
            return Fraction(i) * (i + a), target
        return Fraction(i + k), target
    # Ba
    if k == -i:
        return Fraction(-i) * (i + a), 0
    return Fraction(k), target


def build_window(spec: IntermediateSpec, lo: int, hi: int) -> WindowedModule:
    """Materialize an intermediate-series member on [lo, hi] as 1x1 matrices.

    The generators are L_i for |i| <= hi - lo, every degree that acts
    somewhere inside the window.
    """
    dims = {k: 1 for k in range(lo, hi + 1)}
    generators = [BasisKey(i, 0) for i in range(lo - hi, hi - lo + 1)]
    return WindowedModule(
        VIRASORO, spec.weight_offset(), lo, hi, dims, generators,
        lambda g, k: {(0, 0): act_intermediate(spec, g, k)[0]},
    )


def check_module_axioms(
    mod: WindowedModule,
    max_degree: int,
    extra_keys: Sequence[BasisKey] = (),
) -> list[dict]:
    """Exact check of rho([x,y]) = rho(x) rho(y) - rho(y) rho(x) on the interior.

    The pairs are all unordered pairs of level-0 generators with
    |degree| <= max_degree together with extra_keys.  A pair is checked
    at every source index where all composite targets stay inside the
    window; for modules carrying column margins, equality is asserted
    only on columns whose edge distance covers the total degree moved.
    Returns one record per failing (pair, index).  Raises ValueError
    when no pair x != y is compared at any index: a pair (x, x) always
    commutes, so such a check could not fail.
    """
    keys = [g for g in mod.generators if g.level == 0 and abs(g.alpha) <= max_degree]
    keys += [BasisKey(*k) for k in extra_keys]
    gen_set = set(mod.generators)
    violations: list[dict] = []
    compared = 0
    for x, y in ((x, y) for i, x in enumerate(keys) for y in keys[i:]):
        if x not in gen_set or y not in gen_set:
            raise ValueError(f"pair ({x}, {y}) uses a generator without stored actions")
        terms, central_coeff = bracket_terms(mod.variant, x, y)
        if any(z not in gen_set for z in terms):
            continue  # bracket leaves the declared generator set
        margin_needed = abs(x.alpha) + abs(y.alpha)
        window = interior(mod.lo, mod.hi, x.alpha, y.alpha, x.alpha + y.alpha)
        if x != y:
            compared += len(window)
        for k in window:
            xy = mod.act(x, k + y.alpha) @ mod.act(y, k)
            yx = mod.act(y, k + x.alpha) @ mod.act(x, k)
            diff = xy - yx
            for z, coeff in terms.items():
                diff = diff - mod.act(z, k).scale(coeff)
            if central_coeff and mod.central_scalar:
                diff = diff - RationalMatrix.identity(mod.dims[k]).scale(central_coeff * mod.central_scalar)
            margins = None if mod.col_margins is None else mod.col_margins[k]
            if any(margins is None or margins[c] >= margin_needed for row in diff.sparse_rows() for c in row):
                violations.append({"pair": [list(x), list(y)], "index": k})
    if not compared:
        raise ValueError(
            f"module check up to degree {max_degree} compares no two distinct generators "
            f"at any index of [{mod.lo}, {mod.hi}], so it could not fail"
        )
    return violations


def extend_trivially(vir_mod: WindowedModule, level_cap: int = 2) -> WindowedModule:
    """Promote a Virasoro window to a window over B with zero level->=1 actions.

    Level-0 matrices are the Virasoro window's own objects, not copies;
    levels 1 .. 2*level_cap act by zero, so that every bracket produced
    by pairs up to level_cap stays inside the generator set.  The central scalar is halved: the
    level-0 part of B carries twice the Virasoro cocycle.  A negative
    level_cap raises ValueError.
    """
    if vir_mod.variant != VIRASORO:
        raise ValueError("extend_trivially expects a Virasoro-variant window")
    if level_cap < 0:
        raise ValueError(f"level cap must be >= 0, got {level_cap}")
    degrees = sorted({g.alpha for g in vir_mod.generators if g.level == 0})
    generators = [BasisKey(a, level) for level in range(2 * level_cap + 1) for a in degrees]
    return WindowedModule(
        BLOCK_B, vir_mod.offset, vir_mod.lo, vir_mod.hi, vir_mod.dims, generators,
        lambda g, k: None if g.level else vir_mod.act(g, k),
        vir_mod.central_scalar / 2, vir_mod.col_margins,
    )


def unknown_columns(shapes: dict) -> dict[tuple, int]:
    """The column of each unknown entry (block, r, c) of a linear system over matrix unknowns.

    ``shapes`` maps each block to its (rows, cols); the blocks take
    consecutive columns in the map's order, each in row-major order.
    """
    cells = ((block, r, c) for block, (rows, cols) in shapes.items() for r in range(rows) for c in range(cols))
    return {cell: column for column, cell in enumerate(cells)}


def decode_unknowns(shapes: dict, index: dict[tuple, int], vec: dict[int, Fraction]) -> dict:
    """The matrix of each block that the sparse solution vector ``vec`` assigns, laid out by ``unknown_columns``."""
    return {
        block: RationalMatrix(rows, cols, {(r, c): vec.get(index[(block, r, c)], ZERO) for r in range(rows) for c in range(cols)})
        for block, (rows, cols) in shapes.items()
    }


class ExtensionReport(NamedTuple):
    """Solution space of compatible level->=1 actions on a Virasoro window."""

    dimension: int
    inconclusive: bool
    equations: int
    unknowns: int
    linear_kernel: int = 0
    quadratic_decided: bool = True


def extension_space(vir_mod: WindowedModule, level_cap: int) -> ExtensionReport:
    """Solve for all level->=1 actions compatible with a given Virasoro window.

    Unknowns are the matrices of the level-i degree-a generators
    (1 <= i <= level_cap, a in EXTENSION_BAND) on every weight space.
    Bracketing against the known level-0 actions of the degrees
    b in EXTENSION_DEGREES yields the linear relations

        rho(L_b) U^{(a,i)} - U^{(a,i)} rho(L_b) = c U^{(a+b,i)},

    with c the coefficient of L_{a+b,i} in [L_{b,0}, L_{a,i}] in B,
    imposed wherever every touched index stays in range.  The linear
    kernel is then cut down by the exact quadratic constraints coming
    from brackets of two unknowns,

        [U^{(a,i)}, U^{(b,j)}] = c U^{(a+b,i+j)},

    with c the coefficient of L_{a+b,i+j} in [L_{a,i}, L_{b,j}] in B
    (both read from ``bracket_terms``) and with levels above level_cap
    acting as zero (the level-band quotient reading).  Restricted to
    the kernel the constraints are polynomials of degree two in the
    kernel coordinates s, summed from the unknown entries' linear forms
    in s straight into rows over the monomials s_m s_l and s_m.  When
    this monomial linearization forces every coordinate monomial to
    vanish the solution set is exactly the zero action, when every
    constraint vanishes identically the whole kernel survives, and
    anything in between is reported undecided and inconclusive, with the
    linear kernel dimension as ``dimension``.

    A zero-dimensional answer here certifies that the whole level->=1
    part acts by zero: those generators span an ideal generated by the
    in-band ones under level-0 brackets.  A window with column margins
    (a tensor product) raises ValueError: the equations need every
    column exact.
    """
    if vir_mod.variant != VIRASORO:
        raise ValueError("extension_space expects a Virasoro-variant window")
    if vir_mod.col_margins is not None:
        raise ValueError("extension_space expects an exact (unmasked) window")
    lo, hi = vir_mod.lo, vir_mod.hi
    dims = vir_mod.dims

    # the unknown U^{(a,level)} at source k is the block (level, a, k)
    shapes = {
        (level, a, k): (dims[k + a], dims[k])
        for level in range(1, level_cap + 1)
        for a in EXTENSION_BAND
        for k in interior(lo, hi, a)
    }
    index = unknown_columns(shapes)
    n_unknowns = len(index)

    rows: list[dict[int, Fraction]] = []
    for level in range(1, level_cap + 1):
        for a in EXTENSION_BAND:
            for b in EXTENSION_DEGREES:
                if a + b not in EXTENSION_BAND:
                    continue
                coeff = Fraction(bracket_terms(BLOCK_B, BasisKey(b, 0), BasisKey(a, level))[0].get(BasisKey(a + b, level), 0))
                for k in interior(lo, hi, a, b, a + b):
                    rho_src = vir_mod.act(BasisKey(b, 0), k)
                    rho_tgt = vir_mod.act(BasisKey(b, 0), k + a)
                    for u in range(dims[k + a + b]):
                        for v in range(dims[k]):
                            left = [(index[((level, a, k), r, v)], rho_tgt.entry(u, r)) for r in range(dims[k + a])]
                            right = [(index[((level, a, k + b), u, s)], rho_src.entry(s, v)) for s in range(dims[k + b])]
                            right.append((index[((level, a + b, k), u, v)], coeff))
                            cell = accumulate(accumulate({}, left), right, -1)
                            if cell:
                                rows.append(cell)

    n_equations = len(rows)
    if not rows or n_unknowns == 0:
        return ExtensionReport(
            dimension=n_unknowns,
            inconclusive=True,
            equations=n_equations,
            unknowns=n_unknowns,
            linear_kernel=n_unknowns,
            quadratic_decided=False,
        )

    kernel = row_reduce(RationalMatrix.from_sparse_rows(rows, n_unknowns)).kernel
    del rows  # not held through the quadratic stage
    kdim = len(kernel)
    if kdim == 0:
        return ExtensionReport(0, False, n_equations, n_unknowns, linear_kernel=0)

    # Each entry (u, v) of [U^{(a,i)}, U^{(b,j)}] - c U^{(a+b,i+j)} is one
    # row over the monomials z_{ml} = s_m s_l (m <= l) and s_m, where the
    # unknown in column col is the form sum_m s_m kernel[m][col].  If the
    # stacked linear system on those monomials has only the zero
    # solution, so does the quadratic system.
    mono_index: dict[tuple, int] = {}
    for m in range(kdim):
        for l in range(m, kdim):
            mono_index[("z", m, l)] = len(mono_index)
    for m in range(kdim):
        mono_index[("s", m)] = len(mono_index)
    z = [[mono_index[("z", min(m, l), max(m, l))] for l in range(kdim)] for m in range(kdim)]
    forms: list[list[tuple[int, Fraction]]] = [[] for _ in range(n_unknowns)]
    for m, vec in enumerate(kernel):
        for column, x in vec.items():
            forms[column].append((m, x))

    def form(block: tuple, u: int, v: int) -> list[tuple[int, Fraction]]:
        return forms[index[(block, u, v)]]

    def products(first: list, second: list):
        # the product of two linear forms, by monomial column
        return ((z[m][l], x * y) for m, x in first for l, y in second)

    quad_rows: list[dict[int, Fraction]] = []
    keys = [(a, i) for i in range(1, level_cap + 1) for a in EXTENSION_BAND]
    for ai in range(len(keys)):
        for bi in range(ai + 1, len(keys)):
            (a, i), (b, j) = keys[ai], keys[bi]
            coeff = Fraction(bracket_terms(BLOCK_B, BasisKey(a, i), BasisKey(b, j))[0].get(BasisKey(a + b, i + j), 0))
            linear = coeff and i + j <= level_cap
            if linear and a + b not in EXTENSION_BAND:
                continue  # bracket lands outside the modeled band
            for k in interior(lo, hi, a, b, a + b):
                for u in range(dims[k + a + b]):
                    for v in range(dims[k]):
                        cell: dict[int, Fraction] = {}
                        for r in range(dims[k + b]):
                            accumulate(cell, products(form((i, a, k + b), u, r), form((j, b, k), r, v)))
                        for r in range(dims[k + a]):
                            accumulate(cell, products(form((j, b, k + a), u, r), form((i, a, k), r, v)), -1)
                        if linear:
                            accumulate(cell, ((mono_index[("s", m)], x) for m, x in form((i + j, a + b, k), u, v)), -coeff)
                        if cell:
                            quad_rows.append(cell)

    if not quad_rows:
        return ExtensionReport(kdim, False, n_equations, n_unknowns, linear_kernel=kdim)
    qreduction = row_reduce(RationalMatrix.from_sparse_rows(quad_rows, len(mono_index)))
    # any solution s embeds as the monomial vector (s (x) s, s); coordinate m
    # dies whenever the monomial kernel forces either s_m or its square z_mm
    # to zero, so the variety is {0} once every coordinate is dead
    def forced_zero(position: int) -> bool:
        return all(position not in vec for vec in qreduction.kernel)

    all_dead = all(
        forced_zero(mono_index[("s", m)]) or forced_zero(mono_index[("z", m, m)])
        for m in range(kdim)
    )
    if all_dead:
        return ExtensionReport(0, False, n_equations, n_unknowns, linear_kernel=kdim)
    # monomials not fully pinned: undecided in general, so kdim is only the linear bound
    return ExtensionReport(kdim, True, n_equations, n_unknowns, linear_kernel=kdim, quadratic_decided=False)


def submodule_closure(mod: WindowedModule, seeds: dict[int, list[dict[int, Fraction | int]]]) -> dict[int, int]:
    """Dimensions of the subspace generated from seed vectors under the window's actions.

    Each seed is a sparse vector (coordinate -> Fraction or int) in the
    weight space of its index; an index outside the window, or a
    coordinate outside its weight space, raises ValueError.  Applies
    generators breadth first until the spans stabilize or all are full;
    growth is monotone.  A target whose span is already the whole
    weight space contains every image, so it is skipped.
    """
    spans = {k: Echelon() for k in mod.indices()}
    frontier: list[tuple[int, dict[int, Fraction | int]]] = []
    for k, vectors in seeds.items():
        if not mod.in_range(k):
            raise ValueError(f"seed index {k} outside window")
        for vec in vectors:
            if vec and (min(vec) < 0 or max(vec) >= mod.dims[k]):
                raise ValueError(f"seed coordinate outside the {mod.dims[k]}-dimensional weight space {k}")
            if spans[k].insert(vec):
                frontier.append((k, vec))

    unfilled = mod.total_dim() - len(frontier)
    for k, vec in frontier:  # the frontier grows while it is read
        for g in mod.generators:
            if not unfilled:
                break
            t = k + g.alpha
            if not mod.in_range(t) or len(spans[t]) == mod.dims[t]:
                continue
            image = mod.act(g, k).apply(vec)
            if image and spans[t].insert(image):
                frontier.append((t, image))
                unfilled -= 1
    return {k: len(spans[k]) for k in mod.indices()}


def irreducible_verdict(spec: IntermediateSpec, lo: int, hi: int) -> dict:
    """Brute-force single-seed closures versus the arithmetic criterion.

    The family criterion: irreducible iff a is not an integer, or a is
    an integer and b is neither 0 nor 1.  The brute-force verdict holds
    when the closure from every single basis vector fills the window.
    A window decides when it has at least 3 indices and, where the
    criterion says reducible, holds -a; any other window raises
    ValueError naming the smallest range that holds it and decides.

    Why that is all: L_i x_k = (a + k + b*i) x_{k+i}.  For a fixed
    target t the coefficient a + b*t + (1 - b)*k vanishes for at most
    one source k, unless b = 1 and t = -a; for a fixed source it
    vanishes for at most one target, unless b = 0 and k = -a.  So where
    the criterion says irreducible, the zero coefficients form a partial
    matching, and a complete digraph on w >= 3 vertices minus a partial
    matching is strongly connected: if u -> v is missing, then for any x
    outside {u, v} both u -> x and x -> v are present, since v's one
    missing in-edge comes from u.  Where it says reducible, x_{-a} is a
    fixed point (b = 0) or unreachable (b = 1), which the window shows
    exactly when it holds -a.
    """
    if spec.family != "Aab":
        raise ValueError("irreducible_verdict applies to the Aab family")
    a = Fraction(spec.a)
    b = Fraction(spec.b)
    criterion = a.denominator != 1 or b not in (0, 1)
    held = () if criterion else (int(-a),)  # the index a deciding window must hold
    wide_lo, wide_hi = min((lo, *held)), max((hi, *held))
    wide_hi = max(wide_hi, wide_lo + 2)
    if (wide_lo, wide_hi) != (lo, hi):
        raise ValueError(
            f"range {lo}:{hi} cannot decide irreducibility at a={a}, b={b}, which needs at least 3 indices"
            + "".join(f", index {k} among them" for k in held)
            + f"; the smallest range holding {lo}:{hi} that decides is {wide_lo}:{wide_hi}"
        )
    mod = build_window(spec, lo, hi)
    full = {k: 1 for k in mod.indices()}
    bruteforce = True
    for k0 in mod.indices():
        closure = submodule_closure(mod, {k0: [{0: 1}]})
        if closure != full:
            bruteforce = False
            break
    return {"bruteforce": bruteforce, "criterion": criterion, "agree": bruteforce == criterion}


def find_intertwiner(ma: WindowedModule, mb: WindowedModule) -> Optional[dict[int, RationalMatrix]]:
    """A degree-preserving invertible map phi with phi . rho_A = rho_B . phi, if one exists.

    Solves the homogeneous linear system phi_{k+i} rho_A(L_i)_k =
    rho_B(L_i)_k phi_k over all shared level-0 generators and window
    indices, then searches the kernel for a member whose per-index
    blocks are all invertible.
    """
    if (ma.lo, ma.hi) != (mb.lo, mb.hi) or ma.offset != mb.offset:
        raise ValueError("intertwiner search needs equal ranges and weight offsets")
    shared = sorted(g for g in set(ma.generators) & set(mb.generators) if g.level == 0)
    shapes = {k: (mb.dims[k], ma.dims[k]) for k in ma.indices()}
    index = unknown_columns(shapes)
    if not index:
        return None

    rows: list[dict[int, Fraction]] = []
    for g in shared:
        for k in interior(ma.lo, ma.hi, g.alpha):
            t = k + g.alpha
            ra = ma.act(g, k)
            rb = mb.act(g, k)
            for u in range(mb.dims[t]):
                for v in range(ma.dims[k]):
                    cell = accumulate({}, [(index[(t, u, r)], ra.entry(r, v)) for r in range(ma.dims[t])])
                    accumulate(cell, [(index[(k, s, v)], rb.entry(u, s)) for s in range(mb.dims[k])], -1)
                    if cell:
                        rows.append(cell)

    kernel = row_reduce(RationalMatrix.from_sparse_rows(rows, len(index))).kernel
    if not kernel:
        return None

    def invertible(blocks: dict[int, RationalMatrix]) -> bool:
        for k in ma.indices():
            m = blocks[k]
            if m.rows != m.cols:
                return False
            if m.rows and row_reduce(m).rank != m.rows:
                return False
        return True

    candidates = list(kernel)
    for weight_power in (0, 1, 2, 3):
        combo: dict[int, Fraction] = {}
        for j, vec in enumerate(kernel, start=1):
            accumulate(combo, vec.items(), j**weight_power)
        candidates.append(combo)
    for vec in candidates:
        blocks = decode_unknowns(shapes, index, vec)
        if invertible(blocks):
            return blocks
    return None


def tensor(ma: WindowedModule, mb: WindowedModule) -> WindowedModule:
    """Leibniz-rule tensor product of two windows.

    The weight-k space is the direct sum of A_p (x) B_q over p+q = k with
    p, q inside the factor ranges.  Action targets whose factor index
    leaves its window are dropped, so each basis column carries its
    distance to the nearest factor edge; checks use those margins to
    stay on exact columns.
    """
    if ma.variant != mb.variant:
        raise ValueError("tensor factors must share an algebra variant")
    lo, hi = ma.lo + mb.lo, ma.hi + mb.hi
    pairs: dict[int, list[tuple[int, int, int, int]]] = {}
    position: dict[tuple[int, int, int, int], int] = {}
    margins: dict[int, list[int]] = {}
    dims: dict[int, int] = {}
    for k in range(lo, hi + 1):
        plist = []
        for p in ma.indices():
            q = k - p
            if not mb.in_range(q):
                continue
            for ia in range(ma.dims[p]):
                for ib in range(mb.dims[q]):
                    plist.append((p, ia, q, ib))
        pairs[k] = plist
        dims[k] = len(plist)
        for i, pair in enumerate(plist):
            position[pair] = i
        margins[k] = [
            min(p - ma.lo, ma.hi - p, q - mb.lo, mb.hi - q) for (p, _, q, _) in plist
        ]

    def entries(g: BasisKey, k: int) -> dict[tuple[int, int], Fraction]:
        d = g.alpha
        out: dict[tuple[int, int], Fraction] = {}
        for col, (p, ia, q, ib) in enumerate(pairs[k]):
            if ma.in_range(p + d):
                image = ma.act(g, p).column(ia).items()
                accumulate(out, (((position[(p + d, r, q, ib)], col), v) for r, v in image))
            if mb.in_range(q + d):
                image = mb.act(g, q).column(ib).items()
                accumulate(out, (((position[(p, ia, q + d, r)], col), v) for r, v in image))
        return out

    shared = sorted(set(ma.generators) & set(mb.generators))
    return WindowedModule(
        ma.variant, ma.offset + mb.offset, lo, hi, dims, shared, entries, ma.central_scalar + mb.central_scalar, margins
    )


def direct_sum(ma: WindowedModule, mb: WindowedModule) -> WindowedModule:
    """Block-diagonal sum of two windows on the same range (exact everywhere)."""
    if ma.variant != mb.variant or (ma.lo, ma.hi) != (mb.lo, mb.hi) or ma.offset != mb.offset:
        raise ValueError("direct sum needs matching variant, range and offset")
    if ma.central_scalar != mb.central_scalar:
        raise ValueError("direct sum needs matching central scalars")
    if ma.col_margins is not None or mb.col_margins is not None:
        raise ValueError("direct sum expects exact (unmasked) windows")

    def entries(g: BasisKey, k: int) -> RationalMatrix:
        a, b = ma.act(g, k), mb.act(g, k)
        shifted = [{c + a.cols: v for c, v in row.items()} for row in b.sparse_rows()]
        return RationalMatrix.from_sparse_rows(a.sparse_rows() + shifted, a.cols + b.cols)

    dims = {k: ma.dims[k] + mb.dims[k] for k in ma.indices()}
    shared = sorted(set(ma.generators) & set(mb.generators))
    return WindowedModule(ma.variant, ma.offset, ma.lo, ma.hi, dims, shared, entries, ma.central_scalar)


def classify_window(mod: WindowedModule) -> dict:
    """Window-scale trichotomy verdict.

    Tries an exact intermediate-series fit first (all dimensions 1,
    vanishing level->=1 actions, level-0 coefficients interpolating
    a + k + b*i).  Otherwise looks for a highest-weight shape (visibly
    empty spaces above a generating top space), then the dual
    lowest-weight shape.  A window that is both reports highest-weight.
    When the fitted a is an integer the canonical shifted form (0, b)
    is attached alongside the exact fit.
    """
    dims = mod.dims
    nonzero = [k for k in mod.indices() if dims[k] > 0]
    if not nonzero:
        return {"verdict": "unknown", "reason": "empty window"}

    if all(dims[k] == 1 for k in mod.indices()):
        acting = [(g, k) for g in mod.generators for k in interior(mod.lo, mod.hi, g.alpha)]
        if all(mod.act(g, k).is_zero() for g, k in acting if g.level >= 1):
            samples = [(g.alpha, k, mod.act(g, k).entry(0, 0)) for g, k in acting if g.level == 0]
            pair = None
            for i1, k1, c1 in samples:
                if i1 != 0:
                    for i2, k2, c2 in samples:
                        if i2 != i1:
                            pair = ((i1, k1, c1), (i2, k2, c2))
                            break
                if pair:
                    break
            if pair:
                (i1, k1, c1), (i2, k2, c2) = pair
                b = ((c1 - k1) - (c2 - k2)) / (i1 - i2)
                a = c1 - k1 - b * i1
                if all(c == a + k + b * i for i, k, c in samples):
                    verdict = {
                        "verdict": "intermediate-series",
                        "a": format_rational(a),
                        "b": format_rational(b),
                    }
                    if a.denominator == 1:
                        verdict["canonical"] = ["0", format_rational(b)]
                    return verdict

    def generates(k: int) -> bool:
        # does the whole weight space V_k generate the window?
        return submodule_closure(mod, {k: [{i: 1} for i in range(dims[k])]}) == dims

    k_top, k_bot = max(nonzero), min(nonzero)
    if k_top < mod.hi and generates(k_top):
        return {"verdict": "highest-weight", "top": k_top}
    if k_bot > mod.lo and generates(k_bot):
        return {"verdict": "lowest-weight", "bottom": k_bot}
    return {"verdict": "unknown"}


def core_spanning_check(mod: WindowedModule) -> bool:
    """Is every window vector a combination of the core band and single actions on it?

    The core band is the slice of indices -2..2.  For each index k
    outside the band the span of the images L_{k-i} V_i, i in [-2, 2],
    must fill the whole weight space V_k.
    """
    if mod.lo > -8 or mod.hi < 8:
        raise ValueError("core spanning check needs the window to contain [-8, 8]")
    for k in mod.indices():
        if -2 <= k <= 2 or mod.dims[k] == 0:
            continue
        # the images side by side: row r of V_k across the columns of every source
        rows: list[dict[int, Fraction]] = [{} for _ in range(mod.dims[k])]
        cols = 0
        for i in range(-2, 3):
            g = BasisKey(k - i, 0)
            mat = mod.act(g, i) if mod.has_generator(g) else None
            if mat is not None:
                for row, image in zip(rows, mat.sparse_rows()):
                    row.update((cols + c, v) for c, v in image.items())
                cols += mat.cols
        if not cols or row_reduce(RationalMatrix.from_sparse_rows(rows, cols)).rank != mod.dims[k]:
            return False
    return True
