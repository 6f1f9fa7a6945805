"""Layer tracing of one blocklie CLI job, installed from outside the package.

``install`` wraps the public functions named in ``TARGETS`` in every
``blocklie`` module namespace that binds them (``modules`` and ``verma``
import ``bracket_terms`` and ``row_reduce`` by name, so patching the
defining module alone would miss their calls) and every class attribute
that holds them (``MultiPoly.__rmul__`` is ``__mul__``).

A span target records one span per call: name, start, end, parent span
and job id, plus sizes read from its arguments and result.  A counter
target, for functions called up to millions of times, only adds to a
call count and a time.  Everything stays in memory until the job ends.
A span's self time is its duration minus the time its child spans and
outermost counter calls cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter
from typing import Callable, NamedTuple


def _row_reduce_sizes(args, kwargs, result) -> dict:
    m = args[0] if args else kwargs["m"]
    return {"rows": m.rows, "cols": m.cols, "nnz": len(m.entries), "rank": result.rank, "kernel_dim": len(result.kernel)}


def _extension_sizes(args, kwargs, result) -> dict:
    return {"equations": result.equations, "unknowns": result.unknowns, "linear_kernel": result.linear_kernel}


def _axiom_sizes(args, kwargs, result) -> dict:
    from blocklie import algebra

    bound = inspect.signature(algebra.verify_algebra_axioms).bind(*args, **kwargs)
    bound.apply_defaults()
    n = len(algebra.window_keys(bound.arguments["variant"], bound.arguments["degree_bound"], bound.arguments["level_cap"]))
    return {"triples": n * (n + 1) * (n + 2) // 6}


def _report_sizes(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode())}


class Target(NamedTuple):
    name: str  # <module>.<function>, the metric prefix
    attr: str  # attribute path inside blocklie.<module>
    span: bool  # False: counter only
    sizer: Callable | None = None

    @property
    def module(self) -> str:
        return "blocklie." + self.name.split(".")[0]


TARGETS = (
    Target("algebra.bracket_terms", "bracket_terms", False),
    Target("algebra.bracket", "bracket", False),
    Target("algebra.verify_algebra_axioms", "verify_algebra_axioms", True, _axiom_sizes),
    Target("algebra.vir_consistency", "vir_consistency", True),
    Target("algebra.generation_closure", "generation_closure", True),
    Target("linalg.row_reduce", "row_reduce", True, _row_reduce_sizes),
    Target("linalg.matmul", "RationalMatrix.__matmul__", False),
    Target("linalg.apply", "RationalMatrix.apply", False),
    Target("linalg.char_poly", "char_poly", True),
    Target("linalg.eval_poly_matrix", "eval_poly_matrix", True),
    Target("multipoly.mul", "MultiPoly.__mul__", False),
    Target("multipoly.add", "MultiPoly.__add__", False),
    Target("multipoly.evaluate", "MultiPoly.evaluate", False),
    Target("modules.build_window", "build_window", True),
    Target("modules.check_module_axioms", "check_module_axioms", True),
    Target("modules.extension_space", "extension_space", True, _extension_sizes),
    Target("modules.submodule_closure", "submodule_closure", True),
    Target("modules.irreducible_verdict", "irreducible_verdict", True),
    Target("modules.find_intertwiner", "find_intertwiner", True),
    Target("modules.core_spanning_check", "core_spanning_check", True),
    Target("modules.classify_window", "classify_window", True),
    Target("verma.singular_vectors", "singular_vectors", True),
    Target("verma.normal_order", "normal_order", False),
    Target("verma.act_generator", "VermaAction.act_generator", False),
    Target("verma.verma_basis", "verma_basis", False),
    Target("verma.validate_positive_generators", "validate_positive_generators", True),
    Target("identities.shift_system", "shift_system", True),
    Target("identities.nested_bracket_identity", "nested_bracket_identity", True),
    Target("identities.shift_system_leading_coefficient", "shift_system_leading_coefficient", True),
    Target("identities.edge_product_diagonals", "edge_product_diagonals", True),
    Target("identities.derivation_rule_check", "derivation_rule_check", True),
    Target("identities.nilpotency_chain_check", "nilpotency_chain_check", True),
    Target("identities.run_standard_suite", "run_standard_suite", True),
    Target("reporting.dumps_report", "dumps_report", True, _report_sizes),
    Target("cli.main", "main", True),
)


def _owner(target: Target):
    module = sys.modules[target.module]
    owner_name, _, attr = target.attr.rpartition(".")
    return (getattr(module, owner_name) if owner_name else module), attr


def originals() -> dict[str, Callable]:
    """The unwrapped function behind each target, by target name."""
    import blocklie.cli  # noqa: F401  (loads every module)

    found = {}
    for target in TARGETS:
        owner, attr = _owner(target)
        found[target.name] = vars(owner)[attr]
    return found


class Tracer:
    """Spans and counters of one job."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._counter_depth = [0]  # counter calls in progress, any target
        self._counters: dict[str, list] = {}  # name -> [calls, outermost seconds, depth]

    def span(self, name: str, fn: Callable, sizer: Callable | None = None) -> Callable:
        spans, stack, depth = self.spans, self._open, self._counter_depth
        counter = self._counters.setdefault(name, [0, 0.0, 0])
        job = self.job

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = {
                "name": name,
                "job": job,
                "id": len(spans),
                "parent": None if parent is None else parent["id"],
                "nested": counter[2] > 0,  # inside a span of the same name
                "base": depth[0],
                "child": 0.0,
            }
            spans.append(rec)
            stack.append(rec)
            counter[0] += 1
            counter[2] += 1
            rec["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = end = perf_counter()
                stack.pop()
                counter[2] -= 1
                # a span opened inside a counter call is covered by that call
                if parent is not None and parent["base"] == rec["base"]:
                    parent["child"] += end - rec["start"]
            if sizer is not None:
                rec["sizes"] = sizer(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        stack, depth = self._open, self._counter_depth
        counter = self._counters.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            top = stack[-1] if stack else None
            covers_top = top is not None and top["base"] == depth[0]
            outermost = counter[2] == 0
            counter[2] += 1
            depth[0] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                counter[2] -= 1
                depth[0] -= 1
                if outermost:
                    counter[1] += elapsed
                if covers_top:
                    top["child"] += elapsed

        return wrapper

    def stats(self) -> dict[str, dict[str, float]]:
        """Per target: calls, seconds (outermost calls), self seconds and summed sizes."""
        out = {name: {"calls": c[0], "s": c[1]} for name, c in self._counters.items()}
        for rec in self.spans:
            st = out[rec["name"]]
            duration = rec["end"] - rec["start"]
            if not rec["nested"]:
                st["s"] += duration
            st["self_s"] = st.get("self_s", 0.0) + duration - rec["child"]
            for key, value in rec.get("sizes", {}).items():
                st[key] = st.get(key, 0) + value
        return out


def install(tracer: Tracer) -> None:
    """Replace every binding of each target inside the blocklie package."""
    found = originals()
    package = [m for n, m in sys.modules.items() if n == "blocklie" or n.startswith("blocklie.")]
    for target in TARGETS:
        original = found[target.name]
        if target.span:
            wrapper = tracer.span(target.name, original, target.sizer)
        else:
            wrapper = tracer.counter(target.name, original)
        owner, _ = _owner(target)
        namespaces = [owner] if isinstance(owner, type) else package
        for space in namespaces:
            for key, value in list(vars(space).items()):
                if value is original:
                    setattr(space, key, wrapper)
