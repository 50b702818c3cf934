import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from bandapprox.domset import (
    DEFAULT_MAX_TRIES,
    CertificationError,
    RootSet,
    SamplingParams,
    is_dominating,
    k_size,
    kprime_size,
    sample_certified,
)
from bandapprox.graph import bfs_from_set, gen_dense_random
from helpers import (
    complete_graph,
    empty_graph,
    er_graph,
    floyd_warshall_from_set,
    path_graph,
    sample_rootset,
    star_graph,
)


def mp_size(numerator, delta):
    """50-digit evaluation of ceil(log(numerator)/log(1/(1-delta)))."""
    with mpmath.workdps(50):
        value = mpmath.log(numerator) / mpmath.log(1 / (1 - mpmath.mpf(delta)))
        nearest = mpmath.nint(value)
        if abs(value - nearest) < mpmath.mpf("1e-30"):
            return int(nearest)
        return int(mpmath.ceil(value))


class TestSizes:
    def test_k_round_case(self):
        # log2(2048) / log2(2) lands exactly on 11
        assert k_size(1024, SamplingParams(delta=0.5)) == 11

    def test_k_tiny(self):
        assert k_size(2, SamplingParams(delta=0.99)) == 1

    def test_k_large_high_precision(self):
        params = SamplingParams(delta=0.3)
        assert k_size(10**6, params) == 41
        assert k_size(10**6, params) == mp_size(mpmath.mpf(10**6) / mpmath.mpf("0.5"), "0.3")

    def test_kprime_round_case(self):
        assert kprime_size(1024, SamplingParams(delta=0.5)) == 5

    def test_kprime_reduces_when_k_is_one(self):
        # delta large enough that a single draw dominates in expectation
        params = SamplingParams(delta=0.8)
        assert k_size(2, params) == 1
        expected = math.ceil(math.log(2) / math.log(1 / 0.2) - 1e-9)
        assert kprime_size(2, params) == expected

    @pytest.mark.parametrize("n", [10, 100, 10**4, 10**8])
    @pytest.mark.parametrize("delta", [0.2, 0.5, 0.77])
    def test_against_high_precision(self, n, delta):
        params = SamplingParams(delta=delta)
        k = k_size(n, params)
        assert k == mp_size(mpmath.mpf(n) / mpmath.mpf("0.5"), str(delta))
        assert kprime_size(n, params) == mp_size(mpmath.mpf(k) * 2, str(delta))

    def test_monotone_in_delta(self):
        deltas = [0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
        for n in (16, 1000, 10**6):
            ks = [k_size(n, SamplingParams(delta=d)) for d in deltas]
            kps = [kprime_size(n, SamplingParams(delta=d)) for d in deltas]
            assert ks == sorted(ks, reverse=True)
            assert kps == sorted(kps, reverse=True)

    def test_monotone_in_n(self):
        ns = [2, 10, 100, 10**4, 10**7]
        ks = [k_size(n, SamplingParams(delta=0.4)) for n in ns]
        kps = [kprime_size(n, SamplingParams(delta=0.4)) for n in ns]
        assert ks == sorted(ks)
        assert kps == sorted(kps)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            k_size(100, SamplingParams(delta=0.0))
        with pytest.raises(ValueError):
            k_size(100, SamplingParams(delta=1.0))
        with pytest.raises(ValueError):
            k_size(1, SamplingParams(delta=0.5))
        with pytest.raises(ValueError):
            k_size(100, SamplingParams())  # delta unset

    def test_delta_as_function_of_n(self):
        # densities shrinking like (log log n)^2 / log n still give sizes
        # within a small multiple of log log n (constant fitted offline)
        def shrinking(n):
            return (math.log(math.log(n))) ** 2 / math.log(n)

        for e in range(4, 16):
            n = 10**e
            kp = kprime_size(n, SamplingParams(delta=shrinking(n)))
            assert kp <= 4.0 * math.log(math.log(n))


class TestSampling:
    def test_full_set(self):
        g = er_graph(9, 0.3, 1)
        rs = sample_rootset(g, 9, seed=0)
        assert rs.roots == tuple(range(9))

    def test_single_root_on_complete(self):
        g = complete_graph(6)
        rs = sample_rootset(g, 1, seed=3, hop_radius=1)
        assert len(rs.roots) == 1
        assert is_dominating(g, rs)

    def test_deterministic_per_seed(self):
        g = er_graph(30, 0.4, 0)
        assert sample_rootset(g, 5, seed=9).roots == sample_rootset(g, 5, seed=9).roots

    def test_size_validation(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            sample_rootset(g, 0, seed=0)
        with pytest.raises(ValueError):
            sample_rootset(g, 5, seed=0)

    def test_rootset_validation(self):
        with pytest.raises(ValueError):
            RootSet(roots=(), hop_radius=2)
        with pytest.raises(ValueError):
            RootSet(roots=(0,), hop_radius=3)

    @pytest.mark.parametrize("roots", [(2, 2), (3, 1), (0, 4, 4, 5), (-1, 2)])
    def test_rootset_rejects_duplicate_unsorted_or_negative_roots(self, roots):
        # a duplicated root used to toggle its own bit back into the
        # non-root mask of root_windows, so (2, 2) on a 6-path put root 2
        # into the non-root class (0, 1, 2, 3, 4)
        with pytest.raises(ValueError, match="strictly ascending"):
            RootSet(roots=roots, hop_radius=2)


class TestDomination:
    def test_whole_vertex_set_dominates(self):
        g = er_graph(8, 0.2, 5)
        assert is_dominating(g, RootSet(roots=tuple(range(8)), hop_radius=1))

    def test_path_endpoint_radius_two(self):
        g = path_graph(5)
        assert not is_dominating(g, RootSet(roots=(0,), hop_radius=2))

    def test_star_center_radius_one(self):
        g = star_graph(4)
        assert is_dominating(g, RootSet(roots=(0,), hop_radius=1))

    def test_radius_one_implies_radius_two(self):
        g = gen_dense_random(40, 0.3, 6)
        for seed in range(30):
            rs1 = sample_rootset(g, 5, seed, hop_radius=1)
            if is_dominating(g, rs1):
                assert is_dominating(g, RootSet(rs1.roots, hop_radius=2))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 24), st.floats(0.0, 0.4), st.integers(0, 10**6),
           st.sampled_from([1, 2]), st.data())
    def test_agrees_with_distances(self, n, p, seed, hop_radius, data):
        g = er_graph(n, p, seed)  # sparse draws leave it disconnected
        size = data.draw(st.integers(1, n))
        rs = sample_rootset(g, size, data.draw(st.integers(0, 10**6)), hop_radius=hop_radius)
        dist = floyd_warshall_from_set(g, rs.roots)
        expected = all(d is not None and d <= hop_radius for d in dist)
        assert is_dominating(g, rs) == expected

    def test_neighbor_cover_of_dominating_set_is_two_dominating(self):
        # if R 1-dominates and every r in R has a neighbor in R', then R'
        # 2-dominates
        g = gen_dense_random(30, 0.3, 13)
        assert bfs_from_set(g, range(g.n)) == (0,) * g.n
        # greedy 1-dominating set
        uncovered = set(range(g.n))
        r_set = []
        while uncovered:
            v = max(uncovered, key=lambda u: len(set(g.adj[u]) & uncovered))
            r_set.append(v)
            uncovered -= set(g.adj[v]) | {v}
        assert is_dominating(g, RootSet(tuple(sorted(r_set)), hop_radius=1))
        rprime = tuple(sorted({g.adj[r][0] for r in r_set}))
        assert is_dominating(g, RootSet(rprime, hop_radius=2))


class TestCertification:
    def test_complete_graph_first_try(self):
        g = complete_graph(7)
        rs = sample_certified(g, 1, seed=0)
        assert rs.certified and rs.attempts == 1

    def test_impossible_graph_exhausts(self):
        g = empty_graph(6)
        with pytest.raises(CertificationError) as exc:
            sample_certified(g, 2, seed=0, hop_radius=2)
        assert exc.value.attempts == DEFAULT_MAX_TRIES

    def test_dense_instance_succeeds_and_rate_is_healthy(self):
        from bandapprox.domset import kprime_size

        g = gen_dense_random(60, 0.4, 21)
        params = SamplingParams(delta=0.4)
        size = kprime_size(60, params)
        rs = sample_certified(g, size, seed=5)
        assert rs.certified and len(rs.roots) == size
        hits = sum(
            is_dominating(g, sample_rootset(g, size, seed)) for seed in range(200)
        )
        assert hits / 200 >= 0.15  # lower bound is (1-ALPHA)^2 - slack

    def test_certified_sequence_deterministic(self):
        g = gen_dense_random(40, 0.4, 2)
        a = sample_certified(g, 4, seed=8)
        b = sample_certified(g, 4, seed=8)
        assert a == b

    def test_derived_size_certifies_on_dense_instance(self):
        g = gen_dense_random(40, 0.5, 3)
        size = kprime_size(40, SamplingParams(delta=0.5))
        rs = sample_certified(g, size, seed=11)
        assert rs.certified and rs.hop_radius == 2
