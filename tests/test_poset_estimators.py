import math
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cascade.loo_core import loo_estimate
from cascade.poset_estimators import (
    Antichain,
    ProductOrder,
    ReversedNaturals,
    TreeAncestor,
    convex_closure_size,
    convex_sandwiched_count,
    estimate_convex_size,
    estimate_upset_size,
    poset_convex_mse_bound,
    upset_closure_size,
    upset_dominated_count,
    upset_mse_bound,
)

# ------------------------------------------------------- order oracles

paths = st.lists(st.integers(0, 2), min_size=0, max_size=4).map(tuple)
pairs2 = st.tuples(st.integers(1, 6), st.integers(1, 6))


@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9))
def test_reversed_chain_is_a_partial_order(a, b, c):
    leq = ReversedNaturals().leq
    assert leq(a, a)
    if leq(a, b) and leq(b, a):
        assert a == b
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


@given(pairs2, pairs2, pairs2)
def test_product_order_laws(a, b, c):
    leq = ProductOrder(2).leq
    assert leq(a, a)
    if leq(a, b) and leq(b, a):
        assert a == b
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


@given(paths, paths, paths)
def test_tree_order_laws(a, b, c):
    leq = TreeAncestor().leq
    assert leq(a, a)
    if leq(a, b) and leq(b, a):
        assert a == b
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


def test_product_order_validates_width():
    with pytest.raises(ValueError, match="coordinates"):
        upset_dominated_count([(1, 2), (1,)], ProductOrder(2))


# ------------------------------------------------- dominated counting

def test_antichain_duplicates_dominate():
    assert upset_dominated_count(["a", "b", "a", "c"], Antichain()) == 2


def test_chain_unique_max_leaves_one_out():
    assert upset_dominated_count([3, 7, 2], ReversedNaturals()) == 2


def test_all_equal_sample_fully_dominated():
    assert upset_dominated_count([5, 5, 5], ReversedNaturals()) == 3


# --------------------------------------------------------- closures

def test_chain_closure_is_initial_segment():
    assert upset_closure_size([3, 7, 2], ReversedNaturals()) == 7


def test_antichain_closure_is_distinct_count():
    assert upset_closure_size(["a", "b", "a", "c"], Antichain()) == 3


def test_tree_closure_counts_all_ancestors():
    # Two depth-2 leaves under different depth-1 children: the two
    # leaves, their parents, and the root.
    assert upset_closure_size([(0, 0), (1, 0)], TreeAncestor()) == 5


def test_grid_closure_matches_brute_union():
    sample = [(2, 3), (3, 1)]
    brute = {
        (x, y)
        for a, b in sample
        for x in range(1, a + 1)
        for y in range(1, b + 1)
    }
    assert upset_closure_size(sample, ProductOrder(2)) == len(brute) == 7


@given(st.lists(pairs2, min_size=1, max_size=8))
@settings(max_examples=120)
def test_grid_closure_brute_equivalence(sample):
    brute = {
        (x, y)
        for a, b in sample
        for x in range(1, a + 1)
        for y in range(1, b + 1)
    }
    assert upset_closure_size(sample, ProductOrder(2)) == len(brute)


def test_grid_closure_needs_no_coordinate_sized_array():
    tracemalloc.start()
    try:
        size = upset_closure_size([(1, 10**9), (2, 3)], ProductOrder(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 10**9 + 3
    assert peak < 1 << 20
    # Past int64: the sum stays exact.
    assert upset_closure_size([(2**40, 2**40), (1, 2**62)], ProductOrder(2)) == (
        2**80 + 2**62 - 2**40
    )


def test_closure_needs_enumeration_support():
    with pytest.raises(TypeError, match="closure enumeration"):
        upset_closure_size([1, 2], lambda a, b: a == b)


# --------------------------------------------------------- estimates

def test_tank_style_estimate():
    assert estimate_upset_size([3, 7, 2], ReversedNaturals()) == pytest.approx(10.5)


def test_repeat_pair_estimate():
    # Size-5 sample with exactly one repeated label: n(n-1)/2 pattern.
    assert estimate_upset_size([1, 2, 3, 4, 3], Antichain()) == pytest.approx(10.0)


def test_antichain_estimate_example():
    assert estimate_upset_size(["a", "b", "a", "c"], Antichain()) == pytest.approx(6.0)


def test_no_dominated_points_rejected():
    with pytest.raises(ValueError, match="no dominated points"):
        estimate_upset_size(["a", "b", "c"], Antichain())


def test_exact_reductions_exhaustive():
    # Over every sample with n <= 6 and values in {1..5} the generic
    # machinery must collapse to the closed-form estimators exactly.
    chain, anti = ReversedNaturals(), Antichain()
    for n in range(2, 7):
        for sample in product(range(1, 6), repeat=n):
            mx = max(sample)
            expected_chain = (n / (n - 1)) * mx if sample.count(mx) == 1 else float(mx)
            assert estimate_upset_size(list(sample), chain) == pytest.approx(
                expected_chain, rel=1e-12
            )
            counts = Counter(sample)
            collided = sum(c for c in counts.values() if c > 1)
            if collided:
                expected_anti = n * len(counts) / collided
                assert estimate_upset_size(list(sample), anti) == pytest.approx(
                    expected_anti, rel=1e-12
                )


# ------------------------------------------------ order-convex variant

def test_chain_middle_point_sandwiched():
    assert convex_sandwiched_count([1, 2, 3], ReversedNaturals()) == 1


def test_all_equal_convex_count():
    assert convex_sandwiched_count([5, 5, 5], ReversedNaturals()) == 3


def test_distinct_antichain_has_no_sandwich():
    assert convex_sandwiched_count(["a", "b", "c"], Antichain()) == 0


def test_chain_convex_estimate_example():
    sample = [2, 5, 5]
    assert convex_sandwiched_count(sample, ReversedNaturals()) == 2
    assert convex_closure_size(sample, ReversedNaturals()) == 4
    assert estimate_convex_size(sample, ReversedNaturals()) == pytest.approx(6.0)


def test_single_point_convex_estimate_undefined():
    with pytest.raises(ValueError, match="no sandwiched points"):
        estimate_convex_size([4], ReversedNaturals())


def test_forest_closure_pulls_in_two_nodes():
    # A forest of two trees; sampling one root, three scattered
    # descendants, and a node of the second tree forces exactly two
    # non-sampled connectors into the order-convex closure.
    a, b, c = (0,), (0, 0), (0, 1)
    d, g, h = (0, 0, 0), (0, 1, 0), (0, 0, 0, 0)
    j = (1, 0)
    sample = [a, b, g, h, j]
    closure = convex_closure_size(sample, TreeAncestor())
    assert closure == 7  # sample plus c and d
    assert convex_sandwiched_count(sample, TreeAncestor()) == 1
    assert estimate_convex_size(sample, TreeAncestor()) == pytest.approx(35.0)


# ------------------------------------------------------------ bounds

def test_upset_bound_value_and_cap():
    assert upset_mse_bound(7) == pytest.approx((8 / math.e + 0.5) / 7)
    for n in range(3, 300):
        assert upset_mse_bound(n) < 3.5 / n
    assert upset_mse_bound(3) < 7 / 6
    for bad_n in (2, float("nan"), 5.5, True):
        with pytest.raises(ValueError, match="requires n"):
            upset_mse_bound(bad_n)


def test_convex_bound_value_and_cap():
    assert poset_convex_mse_bound(7) < 1.0
    assert poset_convex_mse_bound(100) == pytest.approx((16 / math.e + 0.5) / 100, rel=1e-12)
    for n in range(3, 300):
        assert poset_convex_mse_bound(n) < 7 / n
    for bad_n in (2, float("nan"), 5.5, True):
        with pytest.raises(ValueError, match="requires n"):
            poset_convex_mse_bound(bad_n)


def test_proof_kernel_maximization():
    # The kernel z^(n-2) (1-z) peaks at z = (n-2)/(n-1); the grid max
    # stays below 1/(e (n-2)), the classic bound at that exponent.
    # Note the peak VALUE exceeds 1/(e (n-1)), so only evaluating the
    # kernel with the exponent raised to n-1 lands below that constant;
    # both true statements are checked here.
    zs = np.linspace(0.0, 1.0, 4001)
    for n in range(4, 51):
        assert (zs ** (n - 2) * (1 - zs)).max() <= 1 / (math.e * (n - 2)) + 1e-12
    for n in range(3, 51):
        z_peak = 1 - 1 / (n - 1)
        assert z_peak ** (n - 1) * (1 - z_peak) <= 1 / (math.e * (n - 1))
        assert (zs ** (n - 2) * (1 - zs)).max() >= 1 / (math.e * (n - 1))


# ------------------------------------------------- framework identity

@given(st.lists(st.integers(1, 5), min_size=1, max_size=6))
def test_dominated_count_matches_generic_loo(sample):
    oracle = ReversedNaturals()

    def member(x, rest):
        return any(oracle.leq(y, x) for y in rest)

    n = len(sample)
    assert upset_dominated_count(sample, oracle) == round(
        loo_estimate(member, sample).value * n
    )


@given(st.lists(st.integers(1, 5), min_size=1, max_size=6))
def test_sandwiched_count_matches_generic_loo(sample):
    oracle = ReversedNaturals()

    def member(x, rest):
        below = any(oracle.leq(y, x) for y in rest)
        above = any(oracle.leq(x, y) for y in rest)
        return below and above

    n = len(sample)
    assert convex_sandwiched_count(sample, oracle) == round(
        loo_estimate(member, sample).value * n
    )


@given(st.lists(st.integers(1, 9), min_size=1, max_size=10), st.randoms(use_true_random=False))
def test_counts_permutation_invariant(sample, rnd):
    shuffled = list(sample)
    rnd.shuffle(shuffled)
    oracle = ReversedNaturals()
    assert upset_dominated_count(sample, oracle) == upset_dominated_count(shuffled, oracle)
    assert convex_sandwiched_count(sample, oracle) == convex_sandwiched_count(shuffled, oracle)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=10))
def test_antichain_label_renaming_invariant(sample):
    renamed = [f"label-{x}" for x in sample]
    assert upset_dominated_count(sample, Antichain()) == upset_dominated_count(
        renamed, Antichain()
    )
    assert upset_closure_size(sample, Antichain()) == upset_closure_size(
        renamed, Antichain()
    )


# ------------------------------------- vectorized counts vs the leq scan

def _tree_ground(sample):
    return {x[:k] for x in sample for k in range(len(x) + 1)}


def _grid_ground(sample):
    return set(product(*(range(1, max(col) + 1) for col in zip(*sample))))


# (order, element strategy, finite ground set containing both closures,
# three distinct elements)
ORDERS = {
    "chain": (ReversedNaturals(), st.integers(1, 6), lambda s: range(1, max(s) + 1), (2, 5, 7)),
    "antichain": (Antichain(), st.integers(1, 6), set, ("a", "b", "c")),
    "product2": (ProductOrder(2), pairs2, _grid_ground, ((1, 2), (2, 2), (3, 1))),
    "product3": (
        ProductOrder(3),
        st.tuples(*[st.integers(1, 3)] * 3),
        _grid_ground,
        ((1, 1, 1), (2, 1, 3), (1, 2, 1)),
    ),
    "tree": (TreeAncestor(), paths, _tree_ground, ((), (0,), (0, 1))),
}


def _scan_closure(sample, leq, ground, convex):
    return sum(
        1
        for z in ground
        if any(leq(s, z) for s in sample) and (not convex or any(leq(z, s) for s in sample))
    )


def _check_against_scan(order, ground_of, sample):
    # Each point's witnesses, against leq over the other points.
    below, above = order.witnesses(sample)
    others = [sample[:i] + sample[i + 1 :] for i in range(len(sample))]
    assert below.tolist() == [any(order.leq(y, x) for y in o) for x, o in zip(sample, others)]
    assert above.tolist() == [any(order.leq(x, y) for y in o) for x, o in zip(sample, others)]
    # order.leq passed bare has no witnesses method, so it takes the pair scan.
    ground = ground_of(sample)
    assert upset_dominated_count(sample, order) == upset_dominated_count(sample, order.leq)
    assert convex_sandwiched_count(sample, order) == convex_sandwiched_count(sample, order.leq)
    assert upset_closure_size(sample, order) == _scan_closure(sample, order.leq, ground, False)
    assert convex_closure_size(sample, order) == _scan_closure(sample, order.leq, ground, True)


@pytest.mark.parametrize("kind", ORDERS)
@given(data=st.data())
@settings(max_examples=150)
def test_fast_counts_and_closures_match_leq_scan(kind, data):
    order, element, ground_of, _ = ORDERS[kind]
    sample = data.draw(st.lists(element, min_size=1, max_size=8))
    _check_against_scan(order, ground_of, sample)


@pytest.mark.parametrize("kind", ORDERS)
def test_fast_counts_on_small_and_tied_samples(kind):
    # n = 1, n = 2, all-equal samples and duplicates, for each order.
    order, _, ground_of, (a, b, c) = ORDERS[kind]
    for sample in ([a], [b], [a, a], [a, b], [b, a], [a, a, a], [a, b, a], [c, b, a, b, c]):
        _check_against_scan(order, ground_of, sample)
    assert convex_sandwiched_count([a], order) == 0
    assert upset_dominated_count([a], order) == 0


def test_chain_counts_on_numpy_samples():
    sample = np.array([4, 9, 9, 1, 4])
    assert upset_dominated_count(sample, ReversedNaturals()) == 5
    assert convex_sandwiched_count(sample, ReversedNaturals()) == 4
    assert upset_closure_size(sample, ReversedNaturals()) == 9
    assert convex_closure_size(sample, ReversedNaturals()) == 9


@pytest.mark.parametrize(
    "order, sample",
    [
        (ReversedNaturals(), [0, 3, 3]),
        (ReversedNaturals(), [-3, 2]),
        (ProductOrder(2), [(0, 1), (-2, 5), (-2, 5)]),
        (ProductOrder(2), [(1, 1), (3, 0)]),
        (ProductOrder(3), [(1, 1, 1), (2, -1, 2)]),
    ],
)
@pytest.mark.parametrize(
    "fn",
    [upset_dominated_count, upset_closure_size, convex_sandwiched_count, convex_closure_size],
)
def test_non_positive_elements_rejected(order, sample, fn):
    with pytest.raises(ValueError, match="positive integers"):
        fn(sample, order)


@pytest.mark.parametrize(
    "order, sample",
    [
        (ReversedNaturals(), [10**23, 3]),
        (ReversedNaturals(), np.array([2**63 + 5, 3], dtype=np.uint64)),
        (ProductOrder(2), np.array([(1, 2**63 + 5), (2, 3)], dtype=np.uint64)),
    ],
)
def test_integers_of_2_63_or_more_rejected(order, sample):
    # A uint64 array would turn the product closure's sum to float.
    for fn in (upset_dominated_count, upset_closure_size, convex_closure_size):
        with pytest.raises(ValueError, match=r"positive integers below 2\*\*63"):
            fn(sample, order)


def test_non_integer_chain_elements_rejected():
    with pytest.raises(ValueError, match="positive integers"):
        upset_closure_size([1.5, 2.0], ReversedNaturals())
