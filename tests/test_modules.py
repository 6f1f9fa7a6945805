"""Windowed modules: construction, axioms, closures, verdicts, extensions."""

import inspect
import random
import tracemalloc
from fractions import Fraction

import pytest

from blocklie import modules
from blocklie.algebra import VIRASORO, BasisKey
from blocklie.linalg import Echelon, RationalMatrix, row_reduce
from blocklie.modules import (
    EXTENSION_DEGREES,
    ExtensionReport,
    IntermediateSpec,
    act_intermediate,
    build_window,
    check_module_axioms,
    classify_window,
    core_spanning_check,
    direct_sum,
    extend_trivially,
    extension_space,
    find_intertwiner,
    irreducible_verdict,
    submodule_closure,
    tensor,
)
from blocklie.verma import WeightFunctional, verma_window
from blocklie.windows import WindowedModule, adjoint_window, interior

F = Fraction


def seed_basis(mod, k):
    return {k: [{j: F(1)} for j in range(mod.dims[k])]}


def with_actions(window, changed):
    """``window`` with the matrix ``changed[(g, k)]`` as the action of g at k, and ``window.act`` elsewhere."""
    return WindowedModule(
        window.variant, window.offset, window.lo, window.hi, window.dims, window.generators,
        lambda g, k: changed[(g, k)] if (g, k) in changed else window.act(g, k),
        window.central_scalar, window.col_margins,
    )


def test_act_intermediate_rows():
    assert act_intermediate(IntermediateSpec("Aab", F(1, 2), F(2)), BasisKey(2, 0), 3) == (F(15, 2), 5)
    assert act_intermediate(IntermediateSpec("Aa", F(1, 3)), BasisKey(3, 0), 0) == (F(10), 3)
    assert act_intermediate(IntermediateSpec("Ba", F(1, 3)), BasisKey(3, 0), -3) == (F(-10), 0)
    # level >= 1 generators and C act by zero on every family
    for family in ("Aab", "Aa", "Ba"):
        spec = IntermediateSpec(family, F(1, 3), F(1) if family == "Aab" else None)
        assert act_intermediate(spec, BasisKey(1, 1), 4)[0] == 0
        assert act_intermediate(spec, "C", 4)[0] == 0


def test_build_window_entries():
    flat = build_window(IntermediateSpec("Aab", F(0), F(0)), -3, 3)
    assert flat.act(BasisKey(1, 0), 0).is_zero()
    shifted = build_window(IntermediateSpec("Aab", F(1, 2), F(0)), -3, 3)
    assert shifted.act(BasisKey(0, 0), 2).entry(0, 0) == F(5, 2)
    exceptional = build_window(IntermediateSpec("Ba", F(0)), -3, 3)
    assert exceptional.act(BasisKey(1, 0), -1).entry(0, 0) == F(-1)


def test_module_axioms_families():
    for spec in (
        IntermediateSpec("Aab", F(1, 2), F(2)),
        IntermediateSpec("Aa", F(-3, 2)),
        IntermediateSpec("Ba", F(1, 2)),
    ):
        window = build_window(spec, -10, 10)
        assert check_module_axioms(window, 3) == []


def test_module_axioms_detect_corruption():
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -6, 6)
    bad = with_actions(window, {(BasisKey(1, 0), 0): RationalMatrix.from_rows([[F(77)]])})
    violations = check_module_axioms(bad, 2)
    assert violations
    assert any(v["index"] in range(-3, 3) for v in violations)


def test_module_axioms_reject_a_check_that_cannot_fail():
    # below degree 1 only (L_0, L_0) is compared, and it commutes on every window
    window = with_actions(
        build_window(IntermediateSpec("Aab", F(1, 2), F(1)), -8, 8), {(BasisKey(1, 0), 0): RationalMatrix.from_rows([[F(77)]])}
    )
    for degree in (-1, 0):
        with pytest.raises(ValueError, match="compares no two distinct generators"):
            check_module_axioms(window, degree)
    assert check_module_axioms(window, 1)
    # on a one-index window no pair of distinct generators acts anywhere
    point = build_window(IntermediateSpec("Aab", F(1, 2), F(1)), 3, 3)
    with pytest.raises(ValueError, match=r"\[3, 3\]"):
        check_module_axioms(point, 4)
    # a pair of distinct generators counts even at degree 0
    assert check_module_axioms(extend_trivially(point, 1), 0, [BasisKey(0, 1)]) == []


def test_extend_trivially_passes_block_pairs():
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -10, 10)
    extended = extend_trivially(window, 2)
    extra = [BasisKey(1, 1), BasisKey(1, 2)]
    assert check_module_axioms(extended, 3, extra_keys=extra) == []
    # reducible members still extend to modules
    flat = extend_trivially(build_window(IntermediateSpec("Aab", F(0), F(0)), -10, 10), 2)
    assert check_module_axioms(flat, 3, extra_keys=extra) == []


def test_extension_failure_propagates():
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -6, 6)
    bad = with_actions(window, {(BasisKey(2, 0), 1): RationalMatrix.from_rows([[F(123)]])})
    assert check_module_axioms(bad, 2)
    assert check_module_axioms(extend_trivially(bad, 1), 2)


def test_extend_trivially_shares_the_virasoro_matrices():
    spec = IntermediateSpec("Aab", F(1, 2), F(1))
    vir = build_window(spec, -8, 8)
    extended = extend_trivially(vir, 2)
    # the level-0 matrices were copied, one per window, before
    source = build_window(spec, -8, 8)
    copied = WindowedModule(
        extended.variant, vir.offset, vir.lo, vir.hi, dict(vir.dims), extended.generators,
        lambda g, k: None if g.level else source.act(g, k).entries, vir.central_scalar / 2,
    )
    assert classify_window(extended) == classify_window(copied)
    assert len(vir._actions) == len(extended._actions) == 289
    for (g, k), m in extended._actions.items():
        assert g.level == 0 and m is vir.act(g, k)
    assert extended.to_json() == copied.to_json()
    g = BasisKey(3, 0)
    assert extend_trivially(vir, 1).act(g, -2) is vir.act(g, -2)


def test_submodule_closure_flat_family():
    # in the a=0, b=0 member the vector x_0 spans a trivial submodule,
    # while any other seed reaches the whole window (entering x_0 is allowed)
    window = build_window(IntermediateSpec("Aab", F(0), F(0)), -8, 8)
    stuck = submodule_closure(window, seed_basis(window, 0))
    assert sum(stuck.values()) == 1 and stuck[0] == 1
    full = submodule_closure(window, seed_basis(window, 1))
    assert full == {k: 1 for k in window.indices()}


def test_submodule_closure_shifted_weight_family():
    # for a=0, b=1 nothing ever enters x_0, so x_1 generates everything else
    window = build_window(IntermediateSpec("Aab", F(0), F(1)), -8, 8)
    closure = submodule_closure(window, seed_basis(window, 1))
    assert closure[0] == 0
    assert sum(closure.values()) == 16


def test_submodule_closure_irreducible():
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -8, 8)
    for k0 in (-8, 0, 5):
        assert submodule_closure(window, seed_basis(window, k0)) == {k: 1 for k in window.indices()}


def test_submodule_closure_refuses_a_seed_coordinate_outside_its_weight_space():
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -3, 3)
    for vec in ({1: F(1)}, {-1: F(1)}, {0: F(1), 1: F(0)}):
        with pytest.raises(ValueError, match="seed coordinate outside the 1-dimensional weight space 0"):
            submodule_closure(window, {0: [vec]})


def test_classify_a_wide_weight_space_in_linear_memory():
    # one 1,000-dimensional space and no generator: its unit vectors seed the closure,
    # where a dense identity held 1,000,000 entries
    doc = {"variant": "Vir", "offset": "0", "range": [0, 1], "dims": {"0": 1000, "1": 0}, "generators": [], "actions": []}
    mod = WindowedModule.from_json(doc)
    tracemalloc.start()
    try:
        verdict = classify_window(mod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == {"verdict": "highest-weight", "top": 0}
    assert peak < 5 << 20


def test_irreducible_verdicts():
    assert irreducible_verdict(IntermediateSpec("Aab", F(1, 2), F(1)), -8, 8) == {
        "bruteforce": True,
        "criterion": True,
        "agree": True,
    }
    assert irreducible_verdict(IntermediateSpec("Aab", F(0), F(1)), -8, 8)["criterion"] is False
    assert irreducible_verdict(IntermediateSpec("Aab", F(0), F(2)), -8, 8)["bruteforce"] is True
    with pytest.raises(ValueError):
        irreducible_verdict(IntermediateSpec("Aa", F(0)), -4, 4)


# every Aab window of 2-7 indices starting in -5..2, over a grid of integral and non-integral a and of b
_GRID_A = [F(1, 2), F(0), F(1), F(-3), F(2, 3), F(2)]
_GRID_B = [F(0), F(1), F(2), F(1, 2), F(-1), F(3, 2)]
_GRID_WINDOWS = [(lo, lo + width - 1) for lo in range(-5, 3) for width in range(2, 8)]


def _grid_faults(verdict):
    """The grid windows where ``verdict`` disagrees with itself, or refuses or decides against the rule.

    A window decides when it has at least 3 indices and, for an integral
    a with b in {0, 1}, holds -a.
    """
    for a in _GRID_A:
        for b in _GRID_B:
            for lo, hi in _GRID_WINDOWS:
                decides = hi - lo >= 2 and (a.denominator != 1 or b not in (0, 1) or lo <= -a <= hi)
                try:
                    agree = verdict(IntermediateSpec("Aab", a, b), lo, hi)["agree"]
                except ValueError:
                    agree = None
                if agree is not (True if decides else None):
                    yield a, b, lo, hi, agree


def test_irreducible_decides_every_wide_enough_window_and_refuses_the_rest():
    # 217 of these 1,728 windows disagreed before narrow ones were refused, as a failed check
    assert list(_grid_faults(irreducible_verdict)) == []


def test_a_mutated_irreducible_criterion_fails_the_grid():
    # the criterion with b in {0, 2} for b in {0, 1}, in a copy of irreducible_verdict
    source = inspect.getsource(modules.irreducible_verdict)
    assert source.count("b not in (0, 1)") == 1
    namespace = dict(vars(modules))
    exec(source.replace("b not in (0, 1)", "b not in (0, 2)"), namespace)
    assert next(_grid_faults(namespace["irreducible_verdict"]), None) is not None


@pytest.mark.parametrize(
    "a, b, lo, hi, message",
    [
        (F(0), F(2), -2, -1, "the smallest range holding -2:-1 that decides is -2:0"),
        (F(0), F(0), 1, 5, "index 0 among them; the smallest range holding 1:5 that decides is 0:5"),
        (F(2), F(1), 0, 4, "index -2 among them; the smallest range holding 0:4 that decides is -2:4"),
        (F(1, 2), F(1), 3, 3, "the smallest range holding 3:3 that decides is 3:5"),
    ],
    ids=["two-indices", "misses-minus-a-below", "misses-minus-a-above", "one-index"],
)
def test_a_window_that_cannot_decide_names_the_least_one_that_does(a, b, lo, hi, message):
    with pytest.raises(ValueError) as refusal:
        irreducible_verdict(IntermediateSpec("Aab", a, b), lo, hi)
    assert str(refusal.value).endswith(message)
    wide_lo, wide_hi = map(int, message.rsplit(" ", 1)[1].split(":"))
    assert irreducible_verdict(IntermediateSpec("Aab", a, b), wide_lo, wide_hi)["agree"] is True


def test_intertwiner_existence():
    found = find_intertwiner(
        build_window(IntermediateSpec("Aab", F(1, 2), F(1)), -8, 8),
        build_window(IntermediateSpec("Aab", F(1, 2), F(0)), -8, 8),
    )
    assert found is not None
    # phi_k proportional to 1/(1/2 + k)
    ratios = {found[k].entry(0, 0) * (F(1, 2) + k) for k in range(-8, 9)}
    assert len(ratios) == 1

    assert (
        find_intertwiner(
            build_window(IntermediateSpec("Aab", F(0), F(1)), -8, 8),
            build_window(IntermediateSpec("Aab", F(0), F(0)), -8, 8),
        )
        is None
    )


def test_intertwiner_swaps_direct_sum_blocks():
    first = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -4, 4)
    second = build_window(IntermediateSpec("Aab", F(1, 2), F(0)), -4, 4)
    source, target = direct_sum(first, second), direct_sum(second, first)
    found = find_intertwiner(source, target)
    assert found is not None
    for k in source.indices():
        assert (found[k].rows, found[k].cols) == (2, 2)
        assert row_reduce(found[k]).rank == 2
    for g in source.generators:
        for k in interior(source.lo, source.hi, g.alpha):
            assert found[k + g.alpha] @ source.act(g, k) == target.act(g, k) @ found[k]


def test_intertwiner_self_is_invertible():
    for spec in (IntermediateSpec("Aab", F(1, 2), F(2)), IntermediateSpec("Aab", F(0), F(0))):
        window = build_window(spec, -6, 6)
        found = find_intertwiner(window, window)
        assert found is not None
        for k in window.indices():
            assert not found[k].is_zero()


def test_tensor_dimensions_and_axioms():
    narrow = build_window(IntermediateSpec("Aab", F(0), F(0)), -3, 3)
    wide = build_window(IntermediateSpec("Aab", F(0), F(1)), -8, 8)
    product = tensor(narrow, wide)
    assert all(product.dims[k] == 7 for k in range(-5, 6))
    assert product.dims[-11] == 1
    assert check_module_axioms(product, 2) == []


def test_tensor_zero_width():
    narrow = build_window(IntermediateSpec("Aab", F(0), F(0)), 0, 0)
    wide = build_window(IntermediateSpec("Aab", F(0), F(1)), -4, 4)
    product = tensor(narrow, wide)
    assert all(product.dims[k] <= 1 for k in product.indices())
    zero = WindowedModule(VIRASORO, F(0), 0, 0, {0: 0}, narrow.generators, lambda g, k: RationalMatrix.zero(0, 0))
    collapsed = tensor(zero, wide)
    assert all(d == 0 for d in collapsed.dims.values())


def test_adjoint_window_shape_and_axioms():
    window = adjoint_window(0, 1, -4, 4)
    assert [window.dims[k] for k in range(-4, 5)] == [2, 2, 2, 2, 3, 2, 2, 2, 2]
    move = window.act(BasisKey(1, 1), 1)
    assert move.entry(1, 0) == 1 and move.entry(0, 0) == 0  # lands on the level-1 line
    assert check_module_axioms(window, 2) == []
    assert check_module_axioms(adjoint_window(0, 2, -4, 4), 2) == []
    # Q:1:2 has no level-0 generator, so its pairs come from the extra keys
    band = adjoint_window(1, 2, -3, 3)
    assert check_module_axioms(band, 2, band.generators) == []


def test_classification_verdicts():
    extended = extend_trivially(build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -8, 8), 2)
    assert classify_window(extended) == {"verdict": "intermediate-series", "a": "1/2", "b": "2"}

    lam = WeightFunctional((F(3, 7), F(2, 5)), F(0))
    assert classify_window(verma_window(lam, 1, 4))["verdict"] == "highest-weight"

    narrow = build_window(IntermediateSpec("Aab", F(0), F(0)), 0, 1)
    wide = build_window(IntermediateSpec("Aab", F(0), F(1)), -8, 8)
    assert classify_window(tensor(narrow, wide))["verdict"] == "unknown"


def test_classification_recovers_parameters():
    for a in (F(0), F(1), F(1, 2), F(-3, 2)):
        for b in (F(0), F(1, 2), F(1), F(2)):
            if a.denominator == 1 and b in (F(0), F(1)):
                continue  # reducible members sit outside the trichotomy fit
            extended = extend_trivially(build_window(IntermediateSpec("Aab", a, b), -6, 6), 1)
            verdict = classify_window(extended)
            assert verdict["verdict"] == "intermediate-series"
            assert verdict["a"] == str(a) and verdict["b"] == str(b)
            if a.denominator == 1:
                assert verdict["canonical"] == ["0", str(b)]


def test_classification_lowest_weight():
    lam = WeightFunctional((F(3, 7), F(2, 5)), F(0))
    hw = verma_window(lam, 1, 4)
    # twist by the degree-reversing automorphism L_{a,i} -> -L_{-a,i}
    flipped_dims = {-k: hw.dims[k] for k in hw.indices()}
    actions = {}
    for (g, k), m in hw.actions.items():
        actions[(BasisKey(-g.alpha, g.level), -k)] = m.scale(-1)
    generators = [BasisKey(-g.alpha, g.level) for g in hw.generators]
    lw = WindowedModule(
        hw.variant, -hw.offset, -hw.hi, -hw.lo, flipped_dims, generators, lambda g, k: actions[(g, k)], -hw.central_scalar
    )
    assert classify_window(lw)["verdict"] == "lowest-weight"


def test_core_spanning():
    assert core_spanning_check(build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -8, 8))
    assert core_spanning_check(build_window(IntermediateSpec("Aab", F(0), F(0)), -8, 8))
    window = build_window(IntermediateSpec("Aab", F(0), F(1)), -8, 8)
    broken = with_actions(window, {(BasisKey(5 - i, 0), i): RationalMatrix.zero(1, 1) for i in range(-2, 3)})
    assert core_spanning_check(broken) is False


def test_core_spanning_needs_wide_window():
    with pytest.raises(ValueError):
        core_spanning_check(build_window(IntermediateSpec("Aab", F(0), F(0)), -4, 4))


def test_extension_space_zero_for_irreducible():
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -12, 12)
    report = extension_space(window, 2)
    assert report.dimension == 0
    assert not report.inconclusive
    assert report.quadratic_decided


def test_extension_space_quadratic_filter():
    # for slope 0 the linear relations alone leave one equivariant family;
    # the commutation constraints kill it
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(0)), -12, 12)
    report = extension_space(window, 2)
    assert report.linear_kernel == 1
    assert report.dimension == 0
    assert report.quadratic_decided


def test_extension_space_rank_two_window():
    first = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -12, 12)
    second = build_window(IntermediateSpec("Aab", F(1, 2), F(1, 2)), -12, 12)
    report = extension_space(direct_sum(first, second), 2)
    assert report.dimension == 0 and report.quadratic_decided


def test_extension_space_marks_an_undecided_quadratic_stage_inconclusive():
    # the quadratic rows are X^2 = 0 for X = [[s0, s1], [s2, s3]]: a 2-dimensional cone, not the 4 reported
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(1)), -6, 6)
    report = extension_space(direct_sum(window, window), 1)
    assert (report.linear_kernel, report.quadratic_decided) == (4, False)
    assert report.inconclusive
    assert report.dimension == 4


def test_intermediate_spec_and_extension_report_values():
    spec = IntermediateSpec("Aab", F(1, 2), F(2))
    assert spec == IntermediateSpec("Aab", F(1, 2), F(2)) != IntermediateSpec("Aab", F(1, 2), F(1))
    assert IntermediateSpec("Aa", F(1)) == IntermediateSpec("Aa", F(1), None)
    assert {spec: 1}[IntermediateSpec("Aab", F(1, 2), F(2))] == 1
    assert repr(spec) == "IntermediateSpec(family='Aab', a=Fraction(1, 2), b=Fraction(2, 1))"
    for name in ("family", "a", "b"):
        with pytest.raises(AttributeError):
            setattr(spec, name, F(0))
        with pytest.raises(AttributeError):
            delattr(spec, name)
    with pytest.raises(ValueError, match="unknown intermediate-series family 'Ab'"):
        IntermediateSpec("Ab", F(0))
    with pytest.raises(ValueError, match="family Aab needs the parameter b"):
        IntermediateSpec("Aab", F(0))

    report = ExtensionReport(3, False, 10, 7)
    assert report == ExtensionReport(3, False, 10, 7, linear_kernel=0, quadratic_decided=True)
    assert report != ExtensionReport(3, True, 10, 7)
    assert repr(report) == (
        "ExtensionReport(dimension=3, inconclusive=False, equations=10, unknowns=7, linear_kernel=0, quadratic_decided=True)"
    )


def test_extension_space_refuses_column_margins():
    # a margin window's equations never finished; the refusal comes before any is built
    product = tensor(
        build_window(IntermediateSpec("Aab", F(0), F(0)), -1, 1),
        build_window(IntermediateSpec("Aab", F(1, 2), F(1)), -1, 1),
    )
    assert product.col_margins is not None
    with pytest.raises(ValueError, match="exact"):
        extension_space(product, 1)


def test_every_window_constructor_stores_exactly_the_interior_actions():
    spec = IntermediateSpec("Aab", F(1, 2), F(2))
    window = build_window(spec, -3, 3)
    built = [
        window,
        extend_trivially(window, 1),
        tensor(build_window(spec, -1, 1), window),
        direct_sum(window, build_window(IntermediateSpec("Aab", F(1, 2), F(0)), -3, 3)),
        adjoint_window(0, 1, -3, 3),
        verma_window(WeightFunctional((F(3, 7), F(2, 5)), F(1, 3)), 1, 3),
    ]
    for mod in built:
        expected = {(g, k) for g in mod.generators for k in interior(mod.lo, mod.hi, g.alpha)}
        assert set(mod.actions) == expected


def _window_constructors():
    spec = IntermediateSpec("Aab", F(1, 2), F(2))
    return {
        "build_window": lambda: build_window(spec, -3, 3),
        "extend_trivially": lambda: extend_trivially(build_window(spec, -3, 3), 1),
        "tensor": lambda: tensor(build_window(spec, -1, 1), build_window(spec, -3, 3)),
        "direct_sum": lambda: direct_sum(build_window(spec, -3, 3), build_window(IntermediateSpec("Aab", F(1, 2), F(0)), -3, 3)),
        "adjoint_window": lambda: adjoint_window(0, 1, -3, 3),
        "verma_window": lambda: verma_window(WeightFunctional((F(3, 7), F(2, 5)), F(1, 3)), 1, 3),
    }


@pytest.mark.parametrize("name", list(_window_constructors()))
def test_lazy_windows_equal_eager_construction(name):
    make = _window_constructors()[name]
    lazy = make()
    assert lazy._actions == {}
    # read part of the window first, in a shuffled order, so built and unbuilt matrices mix
    keys = [(g, k) for g in lazy.generators for k in interior(lazy.lo, lazy.hi, g.alpha)]
    random.Random(7).shuffle(keys)
    for g, k in keys[: len(keys) // 2]:
        lazy.act(g, k)
    # against a window read whole, in generator order
    whole = make()
    in_order = {(g, k): whole.act(g, k) for g in whole.generators for k in interior(whole.lo, whole.hi, g.alpha)}
    assert lazy.actions == whole.actions == in_order
    assert all(lazy.act(g, k) == whole.act(g, k) for g, k in keys)
    assert lazy.to_json() == whole.to_json()


@pytest.mark.parametrize(
    "dims, generators, margins, message",
    [
        ({k: 1 for k in range(-2, 4)}, [BasisKey(1, 0)], None, r"'dims' key 3 is outside the range \[-2, 2\]"),
        ({k: 1 for k in range(-1, 3)}, [BasisKey(1, 0)], None, "range index -2 has no 'dims' entry"),
        ({k: 1 for k in range(-2, 3)}, [BasisKey(1, 0), BasisKey(0, 0), BasisKey(1, 0)], None, r"generator BasisKey\(alpha=1, level=0\) is listed twice"),
        ({k: 1 for k in range(-2, 3)}, [BasisKey(1, 0)], {k: [0] for k in range(-2, 4)}, r"'col_margins' key 3 is outside"),
    ],
)
def test_window_constructor_refuses_inconsistent_shapes(dims, generators, margins, message):
    with pytest.raises(ValueError, match=message):
        WindowedModule(VIRASORO, F(0), -2, 2, dims, generators, lambda g, k: None, col_margins=margins)


def test_writing_into_actions_changes_nothing():
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -4, 4)
    key = (BasisKey(1, 0), 0)
    data = window.to_json()
    read = window.actions
    read[key] = RationalMatrix.from_rows([[F(77)]])
    del read[(BasisKey(2, 0), 0)]
    assert window.act(*key).entry(0, 0) == F(5, 2)
    assert window.actions is not read and window.actions[key].entry(0, 0) == F(5, 2)
    assert window.to_json() == data


def test_build_window_stores_no_zero_matrix():
    # a + k + b i vanishes at 17 of the 289 level-0 actions of Aab 0, 1 on -8:8
    spec = IntermediateSpec("Aab", F(0), F(1))
    vir = build_window(spec, -8, 8)
    classify_window(extend_trivially(vir, 2))
    # each vanishing one is kept as a marker, with no matrix behind it
    matrices = [m for m in vir._actions.values() if isinstance(m, RationalMatrix)]
    assert len(vir._actions) == 289 and len(matrices) == 289 - 17
    assert not any(m.is_zero() for m in matrices)
    # the document still lists every action, as when each zero was stored
    storing = WindowedModule(
        VIRASORO, vir.offset, -8, 8, vir.dims, vir.generators, lambda g, k: {(0, 0): act_intermediate(spec, g, k)[0]}
    )
    assert build_window(spec, -8, 8).to_json() == storing.to_json()


def test_a_window_stores_no_zero_matrix_whatever_its_callback_gives():
    def stored(window):
        """The stored matrices, the zero ones among them, and the zero markers."""
        matrices = [m for m in window._actions.values() if isinstance(m, RationalMatrix)]
        return len(matrices), sum(m.is_zero() for m in matrices), len(window._actions) - len(matrices)

    # the base window computes 17 zero 1x1 matrices, which extend_trivially passes on
    vir = build_window(IntermediateSpec("Aab", F(0), F(1)), -8, 8)
    extended = extend_trivially(vir, 2)
    classify_window(extended)
    assert stored(extended) == (272, 0, 17)
    extended.to_json()  # reads all 1,445 actions, 1,173 of them zero
    assert stored(extended) == (272, 0, 17)
    assert len(vir.actions) == 289
    assert stored(vir) == (272, 0, 17)
    # a computed zero is kept as a marker, so the callback runs once; a None is known without work
    for zero, markers, calls in ((None, 0, 2), ({(0, 0): F(0)}, 1, 1), (RationalMatrix.zero(1, 1), 1, 1)):
        made = []
        window = WindowedModule(
            VIRASORO, F(0), 0, 1, {0: 1, 1: 1}, [BasisKey(1, 0)], lambda g, k: made.append(1) or zero
        )
        first, again = window.act(BasisKey(1, 0), 0), window.act(BasisKey(1, 0), 0)
        assert (again.rows, again.cols, first.is_zero(), again.is_zero()) == (1, 1, True, True)
        assert stored(window) == (0, 0, markers)
        assert len(made) == calls


def test_act_builds_on_first_use_and_stores_no_zero_action():
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -3, 3)
    extended = extend_trivially(window, 1)
    first = extended.act(BasisKey(2, 0), -1)
    assert extended.act(BasisKey(2, 0), -1) is first
    zero = extended.act(BasisKey(2, 1), -1)
    assert (zero.rows, zero.cols, zero.is_zero()) == (1, 1, True)
    # the level-1 action is zero by construction, so nothing is kept for it
    assert set(extended._actions) == {(BasisKey(2, 0), -1)}
    assert set(window._actions) == {(BasisKey(2, 0), -1)}
    assert extended.act(BasisKey(3, 0), 1) is None  # the target leaves the window
    with pytest.raises(KeyError):
        extended.act(BasisKey(2, 3), -1)  # level 3 is above 2 * level_cap
    with pytest.raises(KeyError):
        WindowedModule.from_json(window.to_json()).act(BasisKey(1, 1), 0)  # a loaded Virasoro window has no level 1


def test_extension_space_builds_only_the_bracketed_degrees():
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -20, 20)
    extension_space(window, 2)
    expected = {(BasisKey(b, 0), k) for b in EXTENSION_DEGREES for k in interior(-20, 20, b)}
    assert set(window._actions) == expected
    assert len(expected) == 234  # of the 1,681 matrices the window could hold


def _drop(data, index):
    del data["actions"][index]


def _reshape(data, index):
    data["actions"][index]["matrix"] = {"rows": 1, "cols": 2, "entries": {}}


@pytest.mark.parametrize("corrupt, message", [(_drop, "no action stored for"), (_reshape, "is 1x2, expected 1x1")])
def test_from_json_checks_every_action_when_it_loads(corrupt, message):
    data = extend_trivially(build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -3, 3), 1).to_json()
    assert WindowedModule.from_json(data).to_json() == data
    for index in (0, len(data["actions"]) // 2, -1):
        broken = extend_trivially(build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -3, 3), 1).to_json()
        corrupt(broken, index)
        with pytest.raises(ValueError, match=message):
            WindowedModule.from_json(broken)


def test_extend_trivially_refuses_a_negative_level_cap():
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -3, 3)
    with pytest.raises(ValueError, match="level cap must be >= 0, got -1"):
        extend_trivially(window, -1)
    assert extend_trivially(window, 0).generators == [g for g in window.generators]


def _closure_without_stop(mod, seeds):
    """The closure as it ran before it stopped at full spans: every frontier vector meets every generator."""
    spans = {k: Echelon() for k in mod.indices()}
    frontier = [(k, vec) for k, vectors in seeds.items() for vec in vectors if spans[k].insert(vec)]
    while frontier:
        new_frontier = []
        for k, vec in frontier:
            for g in mod.generators:
                t = k + g.alpha
                if not mod.in_range(t) or len(spans[t]) == mod.dims[t]:
                    continue
                image = mod.act(g, k).apply(vec)
                if image and spans[t].insert(image):
                    new_frontier.append((t, image))
        frontier = new_frontier
    return {k: len(spans[k]) for k in mod.indices()}


def _counting_in_range(mod):
    calls = []
    in_range = mod.in_range
    mod.in_range = lambda k: calls.append(k) or in_range(k)
    return calls


@pytest.mark.parametrize(
    "make, seed_index, fills",
    [
        (lambda: build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -6, 6), 2, True),
        (lambda: build_window(IntermediateSpec("Aab", F(0), F(0)), -6, 6), 0, False),  # x_0 spans a submodule
        (lambda: build_window(IntermediateSpec("Aab", F(0), F(1)), -6, 6), 0, True),
        (lambda: build_window(IntermediateSpec("Aab", F(0), F(1)), -6, 6), 3, False),  # x_0 is never reached
        (lambda: verma_window(WeightFunctional((F(3, 7), F(2, 5)), F(1, 3)), 1, 4), 0, True),
        (lambda: adjoint_window(0, 1, -4, 4), 1, True),
        (lambda: adjoint_window(1, 2, -4, 4), 1, False),  # brackets only raise the level
    ],
)
def test_closure_stops_once_every_span_is_full(make, seed_index, fills):
    seeds = seed_basis(make(), seed_index)
    old = make()
    old_calls = _counting_in_range(old)
    want = _closure_without_stop(old, seeds)
    assert (want == old.dims) is fills
    mod = make()
    calls = _counting_in_range(mod)
    assert submodule_closure(mod, seeds) == want
    # a closure that fills stops early; one that does not runs exactly as before, after checking the seed index
    assert len(calls) < len(old_calls) if fills else calls == [*seeds, *old_calls]


def test_extension_space_inconclusive_on_tiny_window():
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), 0, 0)
    assert extension_space(window, 1).inconclusive


def test_extension_space_pins_the_x_squared_zero_case(monkeypatch):
    # on A + A the quadratic constraints are, up to scale, the entries of X^2 = 0 for X = [[s0, s1], [s2, s3]]:
    # the nilpotent cone, of dimension 2, so the stage is undecided and the linear kernel is reported
    window = build_window(IntermediateSpec("Aab", F(1, 2), F(1)), -6, 6)
    sizes = []

    def recording(m):
        reduction = row_reduce(m)
        sizes.append((m.rows, m.cols, len(m.entries), reduction.rank))
        return reduction

    monkeypatch.setattr(modules, "row_reduce", recording)
    report = extension_space(direct_sum(window, window), 1)
    assert tuple(report) == (4, True, 944, 276, 4, False)
    assert sizes[1:] == [(588, 14, 1176, 4)]


def test_direct_sum_requires_matching_shape():
    first = build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -4, 4)
    second = build_window(IntermediateSpec("Aab", F(0), F(2)), -4, 4)
    with pytest.raises(ValueError):
        direct_sum(first, second)


def test_weight_reading():
    # L_0 acts on V_k as offset + k on every built module
    rng = random.Random(41)
    for spec in (IntermediateSpec("Aab", F(1, 2), F(2)), IntermediateSpec("Aa", F(1, 3))):
        window = build_window(spec, -6, 6)
        for _ in range(10):
            k = rng.randint(-6, 6)
            assert window.act(BasisKey(0, 0), k).entry(0, 0) == window.weight(k)


def test_module_json_roundtrip():
    window = extend_trivially(build_window(IntermediateSpec("Aab", F(1, 2), F(2)), -3, 3), 1)
    data = window.to_json()
    again = WindowedModule.from_json(data)
    assert again.to_json() == data
    assert classify_window(again)["verdict"] == "intermediate-series"
