"""Seeded job lists for the four benchmark workloads.

A job is one ``blocklie`` CLI invocation.  The seed only picks rational
parameter values; every size (degrees, depths, ranges, grid shapes) is
fixed, so a seed never changes how much work a job does.  The child
process receives nothing but the generated argv.

Each job carries the exit code it must return and an ``expect`` tag
naming the property ``check.invariant_errors`` asserts for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("sweep", "generic", "degenerate", "lemmas")
DEFAULT_SEED = 0

# denominators of the seeded non-integer rationals; one pool keeps the
# height of every generated value, and so the cost of exact arithmetic
# on it, in the same narrow band for every seed
_DENOMINATORS = (2, 3, 5, 7)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    exit_code: int = 0
    expect: str | None = None


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def non_integer(rng: random.Random) -> Fraction:
    """A nonzero rational p/q with q in the pool and q not dividing p."""
    q = rng.choice(_DENOMINATORS)
    p = rng.choice([p for p in range(1, 4 * q) if p % q])
    return Fraction(rng.choice((-1, 1)) * p, q)


def integer(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3))


def _distinct(rng: random.Random, make, count: int) -> list[Fraction]:
    values: list[Fraction] = []
    while len(values) < count:
        v = make(rng)
        if v not in values:
            values.append(v)
    return values


def _csv(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _module(a, b, lo_hi: str, action: str, to_b: str | None = None) -> tuple[str, ...]:
    argv = ["module", "--family", "Aab", "--a", a, "--b", b]
    if to_b is not None:
        argv += ["--to-b", to_b]
    return tuple(argv + ["--range", lo_hi, action, "--format", "json"])


def _verma(n: int, depth: int, lam, c: Fraction) -> tuple[str, ...]:
    return ("verma", "--n", str(n), "--depth", str(depth), "--lam", _csv(lam), "--c", _fmt(c), "singular", "--format", "json")


def sweep(seed: int) -> list[Job]:
    # sizes only: the seed has nothing to choose here
    sizes = (("B", 5, 3), ("Bbar", 5, 3), ("W1inf", 4, 3), ("Q:0:3", 5, 3))
    return [
        Job(f"axioms-{variant}", ("axioms", "--variant", variant, "--degree", str(d), "--level", str(l), "--format", "json"), expect="axioms")
        for variant, d, l in sizes
    ]


def generic(seed: int) -> list[Job]:
    rng = random.Random(f"generic:{seed}")
    lam2 = [non_integer(rng) for _ in range(3)]
    lam1 = [non_integer(rng) for _ in range(2)]
    c2, c1 = non_integer(rng), non_integer(rng)
    a_ext, b_ext = non_integer(rng), non_integer(rng)
    grid_a = _distinct(rng, non_integer, 3)
    grid_b = _distinct(rng, non_integer, 2)
    a_mod, b_mod = non_integer(rng), non_integer(rng)
    return [
        Job("verma-n2-d6", _verma(2, 6, lam2, c2)),
        Job("verma-n1-d8", _verma(1, 8, lam1, c1)),
        Job("extension", _module(_fmt(a_ext), _fmt(b_ext), "-20:20", "extension"), expect="extension-zero"),
        Job("irreducible", _module(_csv(grid_a), _csv(grid_b), "-12:12", "irreducible"), expect="irreducible"),
        Job("check", _module(_fmt(a_mod), _fmt(b_mod), "-8:8", "check")),
        Job("spanning", _module(_fmt(a_mod), _fmt(b_mod), "-8:8", "spanning")),
    ]


def degenerate(seed: int) -> list[Job]:
    rng = random.Random(f"degenerate:{seed}")
    # lambda_n = 0 makes L_{-1,n}^i v singular at every depth i
    lam2 = [non_integer(rng), non_integer(rng), Fraction(0)]
    lam1 = [non_integer(rng), Fraction(0)]
    c2, c1 = non_integer(rng), non_integer(rng)
    a_ext = integer(rng)
    a_found, a_absent = non_integer(rng), integer(rng)
    grid_a = _distinct(rng, integer, 3)
    a_cls, b_cls = integer(rng), Fraction(rng.randint(0, 1))
    return [
        Job("verma-n2-d6", _verma(2, 6, lam2, c2), expect="singular-every-depth"),
        Job("verma-n1-d10", _verma(1, 10, lam1, c1), expect="singular-every-depth"),
        Job("extension", _module(_fmt(a_ext), "0,1", "-20:20", "extension")),
        Job("intertwiner-found", _module(_fmt(a_found), "1", "-12:12", "intertwiner", to_b="0"), expect="intertwiner-found"),
        Job("intertwiner-absent", _module(_fmt(a_absent), "1", "-12:12", "intertwiner", to_b="0"), expect="intertwiner-absent"),
        Job("irreducible", _module(_csv(grid_a), "0,1", "-12:12", "irreducible"), expect="irreducible"),
        Job("classify", _module(_fmt(a_cls), _fmt(b_cls), "-8:8", "classify")),
    ]


def lemmas(seed: int) -> list[Job]:
    return [
        Job("lemmas", ("lemmas", "--format", "json")),
        # exits 1 by design: the recorded shift-system-leading-coefficient discrepancy
        Job("lemmas-strict", ("lemmas", "--strict", "--format", "json"), exit_code=1),
    ]


def make(workload: str, seed: int) -> list[Job]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {', '.join(WORKLOADS)}")
    return {"sweep": sweep, "generic": generic, "degenerate": degenerate, "lemmas": lemmas}[workload](seed)
