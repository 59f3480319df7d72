"""Every layer prices its work before it starts and checks the price against
the one budget, errors.BUDGET, through errors.require."""

import ast
import pathlib
import re

import numpy as np
import pytest
from conftest import enumerate_walk_counts

from toruswalk import (
    CapExceededError,
    best_fourier_lower_bound,
    builtin_generators,
    cohort_sum_S,
    dirichlet_search,
    discrepancy,
    discrepancy_exact,
    discrepancy_grid,
    errors,
    estimate_bad_constant,
    etk_upper_bound,
    exact_walk_distribution,
    fourier,
    simulate_walk,
    walk,
)
from toruswalk.walk import WeightedPointSet

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "toruswalk"
WALK_G = builtin_generators("sqrt_primes", 2, 1)
SQ = builtin_generators("sqrt_primes", 2, 2)
ATOM = WeightedPointSet(d=2, atoms=(((0.5, 0.5), 1.0),), provenance="exact")

# (layer, call, predicted cost, result of the call, the inner work, fallback)
LAYERS = [
    # 9 rows of n = 2 coordinates at PER_CALL = 64 each
    ("walk", lambda: dict(exact_walk_distribution(WALK_G, 2).counts), 64 * 2 * 9,
     enumerate_walk_counts(2, 2), (walk, "_rows"), "simulate_walk"),
    # excess faces {0.5} per axis: 1 pair x 2 columns in 1 block; deficit
    # faces {0, 0.5, 1}: 3 pairs x 4 columns in 2 blocks (one per left face
    # with a right face); each block costs 10 * PER_CALL = 640
    ("exact", lambda: discrepancy_exact(ATOM).value, 1 * 2 + 3 * 4 + 640 * (1 + 2), 1.0,
     (discrepancy, "_blocks"), "discrepancy_grid"),
    # grid faces {0, 3, 4, 5, 6, 8} / 8 per axis: 15 pairs x 7 columns in
    # 5 blocks of 640
    ("grid", lambda: discrepancy_grid(ATOM, 8), 15 * 7 + 640 * 5, 1 - 1 / 64,
     (discrepancy, "_blocks"), "coarser --resolution"),
    # 8 trials: an 8 x 4 draw matrix and a sort of 8 rows of n = 2 by
    # 8.bit_length() = 4 comparisons each
    ("mc", lambda: simulate_walk(WALK_G, 3, 8, 1).total_weight(), 8 * 4 + 8 * 2 * 4, 1.0,
     (np.random, "Philox"), "fewer --trials"),
    # the frequency passes: 5 * 5 frequencies of n = 2 phases at PER_CALL = 64
    ("etk", lambda: etk_upper_bound(SQ, 50, 2), 25 * 2 * 64, 1.637357453459063,
     (fourier, "_half_box"), "smaller M"),
    ("cohort", lambda: cohort_sum_S(SQ, 50, 2), 25 * 2 * 64, (0.11097183499056888, True),
     (fourier, "_half_box"), "smaller --k or --ca"),
    ("best bound", lambda: best_fourier_lower_bound(SQ, 50, 2), 25 * 2 * 64,
     (0.003092715250783808, (-1, 2)), (fourier, "_half_box"), "smaller hmax"),
    # the array passes: 9 * 9 vectors of n * d = 4 products, and a float
    # power for each of the 5 sup norms at PER_CALL = 64
    ("search", lambda: estimate_bad_constant(SQ, 4).c_est, 81 * 4 + 5 * 64, 0.11086928925878325,
     (fourier, "_half_box"), "smaller --hmax"),
    # bound floor(3^(2/2)) = 3: the box of 7 * 7 vectors of 4 products; at
    # this budget the inner boxes of radius 1 and 2 are left out
    ("dirichlet", lambda: dirichlet_search(SQ, 3.0), 49 * 4, (1, 1),
     (fourier, "_half_box"), "smaller --q"),
]


@pytest.mark.parametrize(
    "call,cost,result,inner,fallback", [case[1:] for case in LAYERS], ids=[c[0] for c in LAYERS]
)
def test_each_layer_refuses_past_the_budget_before_any_work(
    monkeypatch, call, cost, result, inner, fallback
):
    monkeypatch.setattr(errors, "BUDGET", cost)
    assert call() == result

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(errors, "BUDGET", cost - 1)
    monkeypatch.setattr(*inner, no_work)
    with pytest.raises(CapExceededError, match=re.escape(fallback)) as refused:
        call()
    priced = f"would cost {cost:.3g} element operations (budget {cost - 1:.3g})"
    assert priced in str(refused.value)


def _modules():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5, f"no package modules under {SRC}"
    for path in paths:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_budget_constructs_cap_errors():
    for name, tree in _modules():
        if name == "errors.py":
            continue
        for node in ast.walk(tree):
            target = node.func if isinstance(node, ast.Call) else getattr(node, "exc", None)
            named = getattr(target, "id", None) or getattr(target, "attr", None)
            assert named != "CapExceededError", f"{name}:{node.lineno} raises outside require"


def test_no_module_defines_its_own_cap():
    for name, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                for ident in names:
                    assert not re.search(r"_CAPS?$", ident), f"{name} defines {ident}"
