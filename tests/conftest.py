import itertools

import numpy as np
import pytest

import drlcsp as d
from drlcsp import algebra
from drlcsp.rng import SplitMix64


def clone(problem):
    """A copy of a problem, or raw problem, with tables of its own."""
    store = problem.constraints
    if isinstance(store, dict):
        tables = {scope: d.Constraint(scope, list(c.values)) for scope, c in store.items()}
        return d.Problem(problem.algebra, problem.domain_sizes, tables)
    tables = [d.Constraint(c.scope, list(c.values)) for c in store]
    return d.RawProblem(problem.algebra, problem.domain_sizes, tables)


def within_counter_bound(counters, n: int, e: int) -> bool:
    """Whether a run kept the sweep's bounds: at most n visits and n*e projections.

    The sweep visits each variable once and projects each stored scope
    at most once per visited variable.
    """
    return counters.main_loop_iterations <= n and counters.project_calls <= n * e


def scalar_gen_random_problem(alg, n: int, dom: int, e: int, max_arity: int, seed: int):
    """`gen_random_problem` with one scalar `below` draw per table value.

    The reference its block draws must reproduce byte for byte: the n
    unary tables over the non-bottom elements, then each drawn scope
    followed by its table, all from one SplitMix64 stream in that order.
    Takes only valid parameters; the size caps are not checked.
    """
    rng = SplitMix64(seed)
    non_bottom = [v for v in range(alg.size) if v != alg.bottom]
    constraints = [
        d.Constraint((i,), [non_bottom[rng.below(len(non_bottom))] for _ in range(dom)])
        for i in range(n)
    ]
    pool = [
        scope
        for arity in range(2, max_arity + 1)
        for scope in itertools.combinations(range(n), arity)
    ]
    for _ in range(e - n):
        scope = pool.pop(rng.below(len(pool)))
        constraints.append(
            d.Constraint(scope, [rng.below(alg.size) for _ in range(dom ** len(scope))])
        )
    return d.normalize(d.RawProblem(alg, (dom,) * n, constraints))


def law_holds_at(a, profile: str, axiom: str, triple) -> bool:
    """One law of a `check_axioms` profile evaluated at a single (x, y, z)."""
    x, y, z = triple
    return bool(dict(algebra.PROFILES[profile])[axiom](a, x, y, z))


def semiring_payload(join, otimes, top: int, bottom: int, name: str) -> dict:
    """A semiring as an algebra payload: the order read off its join
    (x <= y iff x v y = y) and otimes its product; no other table."""
    join = np.asarray(join)
    return {
        "name": name, "size": len(join), "top": int(top), "bottom": int(bottom),
        "leq": (join == np.arange(len(join))).astype(int).tolist(),
        "otimes": np.asarray(otimes).tolist(),
    }


@pytest.fixture(scope="session")
def boolean_alg():
    return d.boolean()


@pytest.fixture(scope="session")
def godel3():
    return d.godel_chain(3)


@pytest.fixture(scope="session")
def luk3():
    return d.lukasiewicz_chain(3)


@pytest.fixture(scope="session")
def w4():
    return d.weighted(4)


@pytest.fixture(scope="session")
def w10():
    return d.weighted(10)


@pytest.fixture(scope="session")
def bb_square(boolean_alg):
    """Four-element product of the two-element algebra: ids 0=(b,b), 1=(b,t), 2=(t,b), 3=(t,t)."""
    return d.direct_product(boolean_alg, boolean_alg)


@pytest.fixture()
def weighted_example(w10):
    """Two variables over weighted(10): unary costs (0,1) on var 0, binary costs 2/5/0/3."""
    raw = d.RawProblem(w10, (2, 2), [
        d.Constraint((0,), [0, 1]),
        d.Constraint((0, 1), [2, 5, 0, 3]),
    ])
    problem = d.normalize(raw)
    assert problem is not None
    return problem


@pytest.fixture()
def crisscross(bb_square):
    """2x2 instance whose binary table is the antichain pattern 2/1/1/2.

    Every row and column joins to top without containing it, so the join
    strategy is a no-op while any maximal choice rewrites entries.
    """
    raw = d.RawProblem(bb_square, (2, 2), [
        d.Constraint((0, 1), [2, 1, 1, 2]),
    ])
    problem = d.normalize(raw)
    assert problem is not None
    return problem
