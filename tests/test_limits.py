import itertools
import math
import tracemalloc

import pytest

from comblevy.levy import LevyIntensity, PairComponent, SetSingletonComponent, simulate_levy
from comblevy.limits import (
    MC_CHUNK,
    DensityVector,
    _injection_block,
    density_l1,
    density_to_csv,
    density_vector,
    falling_factorial,
    hom_density_exact,
    hom_density_mc,
    limit_path,
    limit_path_to_csv,
    set_frequency,
)
from comblevy.orbits import iter_space
from comblevy.rng import make_rng
from comblevy.structures import (
    Signature,
    Structure,
    empty_structure,
    parse,
    relabel,
    restrict,
    serialize,
)

from helpers import levy_path, naive_hom_density, random_permutation, random_structure

SIG1 = Signature((1,))
SIG2 = Signature((2,))
SIG3 = Signature((3,))


def S(sig, n, *relations):
    return Structure.from_tuples(sig, n, list(relations))


class TestExactDensity:
    def test_singleton_pattern(self):
        A = S(SIG1, 1, {1})
        M = S(SIG1, 4, {1, 2})
        assert hom_density_exact(A, M) == 0.5

    def test_empty_in_empty(self):
        A = empty_structure(SIG2, 2)
        M = empty_structure(SIG2, 5)
        assert hom_density_exact(A, M) == 1.0

    def test_mutual_edge(self):
        A = S(SIG2, 2, {(1, 2), (2, 1)})
        M = S(SIG2, 3, {(1, 2), (2, 1)})
        assert hom_density_exact(A, M) == pytest.approx(1 / 3)

    def test_against_naive_oracle(self):
        rng = make_rng(700)
        for sig in (SIG1, SIG2):
            for _ in range(12):
                n = int(rng.integers(1, 7))
                m_level = int(rng.integers(0, min(n, 3) + 1))
                M = random_structure(rng, sig, n)
                A = random_structure(rng, sig, m_level)
                assert hom_density_exact(A, M) == pytest.approx(
                    naive_hom_density(A, M), abs=1e-15
                )

    def test_injection_cap(self):
        # 60 * 59 * 58 * 57 injections of [4] into [60], past the cap of 10^7
        A = empty_structure(SIG1, 4)
        M = empty_structure(SIG1, 60)
        with pytest.raises(ValueError, match="exceeds cap 10000000"):
            hom_density_exact(A, M)

    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            hom_density_exact(empty_structure(SIG1, 1), empty_structure(SIG2, 3))


class TestDensityVector:
    def test_two_element_set_level_one(self):
        vec = density_vector(S(SIG1, 4, {1, 2}), 1)
        assert vec.value(S(SIG1, 1, {1})) == 0.5
        assert vec.value(empty_structure(SIG1, 1)) == 0.5

    def test_empty_structure_full_level(self):
        M = empty_structure(SIG1, 3)
        vec = density_vector(M, 3)
        assert vec.value(M) == 1.0

    def test_matches_exact_per_pattern(self):
        rng = make_rng(701)
        for sig, n in [(SIG2, 4), (SIG3, 3)]:
            M = random_structure(rng, sig, n)
            vec = density_vector(M, 2)
            assert abs(math.fsum(vec.values.values()) - 1.0) <= 1e-12
            for A in iter_space(sig, 2):
                assert vec.value(A) == pytest.approx(hom_density_exact(A, M), abs=1e-15)

    @pytest.mark.parametrize("sig", ["()", "(0)", "(0,2)", "(1,2)", "(2)", "(0,1,2)"])
    def test_matches_naive_oracle(self, sig):
        # the naive oracle shares no code with the pull-back kernel; its
        # densities of the vector's support sum to one, so every pattern
        # outside the support has density zero too
        sig = Signature.parse(sig)
        rng = make_rng(712)
        for n in range(6):
            M = random_structure(rng, sig, n)
            for level in range(min(n, 3) + 1):
                vec = density_vector(M, level)
                support = {A: naive_hom_density(A, M) for A, v in vec.values.items() if v}
                assert {A: vec.values[A] for A in support} == support
                assert math.fsum(support.values()) == pytest.approx(1.0, abs=1e-12)

    def test_injection_blocks_in_permutation_order(self):
        for n in range(6):
            for level in range(n + 1):
                perms = list(itertools.permutations(range(n), level))
                for step in (1, 4, len(perms)):
                    rows = [
                        tuple(row)
                        for lo in range(0, len(perms), step)
                        for row in _injection_block(n, level, lo, min(lo + step, len(perms))).tolist()
                    ]
                    assert rows == perms

    def test_normalization(self):
        rng = make_rng(702)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            M = random_structure(rng, SIG1, n)
            level = int(rng.integers(0, min(n, 3) + 1))
            vec = density_vector(M, level)
            assert abs(math.fsum(vec.values.values()) - 1.0) <= 1e-12
            assert all(v >= 0 for v in vec.values.values())

    def test_marginal_consistency(self):
        # summing level-m' densities over patterns that restrict to a fixed
        # level-m pattern recovers the level-m density
        rng = make_rng(703)
        for sig in (SIG1, SIG2):
            for _ in range(6):
                n = int(rng.integers(3, 7))
                M = random_structure(rng, sig, n)
                m_lo, m_hi = 1, int(rng.integers(2, min(n, 3) + 1))
                vec_lo = density_vector(M, m_lo)
                vec_hi = density_vector(M, m_hi)
                for A, target in vec_lo.values.items():
                    total = math.fsum(
                        v
                        for Ap, v in vec_hi.values.items()
                        if restrict(Ap, m_lo) == A
                    )
                    assert abs(total - target) <= 1e-12

    def test_relabel_invariance(self):
        rng = make_rng(704)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            M = random_structure(rng, SIG2, n)
            sigma = random_permutation(rng, n)
            v1 = density_vector(M, 2)
            v2 = density_vector(relabel(M, sigma), 2)
            assert v1.values == v2.values

    def test_memory_bounded_by_chunk(self):
        # a chunk holds MC_CHUNK // 4 injections at level 2 of a graph, and
        # its arrays a few int64 entries per pattern cell; enumerating all
        # 999,000 injections at once would take 32 MB for their cells alone
        n = 1000
        arcs = [(i, i + 1) for i in range(1, n)] + [(i + 1, i) for i in range(1, 100, 2)]
        M = S(SIG2, n, arcs)
        tracemalloc.start()
        try:
            vec = density_vector(M, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        total = n * (n - 1)
        # 50 mutual pairs, 949 one-way arcs in each direction
        counts = {
            S(SIG2, 2, {(1, 2), (2, 1)}): 100,
            S(SIG2, 2, {(1, 2)}): 949,
            S(SIG2, 2, {(2, 1)}): 949,
            S(SIG2, 2, set()): total - 1998,
        }
        assert {A: v for A, v in vec.values.items() if v} == {
            A: c / total for A, c in counts.items()
        }
        assert peak <= 8 * 8 * MC_CHUNK


class TestMonteCarloDensity:
    def test_impossible_pattern(self):
        A = S(SIG1, 2, {1, 2})
        M = empty_structure(SIG1, 5)
        est, stderr = hom_density_mc(A, M, 2000, make_rng(705))
        assert est == 0.0 and stderr == 0.0

    def test_within_four_stderr(self):
        rng = make_rng(706)
        gen = make_rng(707)
        for _ in range(10):
            n = int(gen.integers(2, 7))
            m_level = int(gen.integers(1, min(n, 3) + 1))
            M = random_structure(gen, SIG2, n)
            A = random_structure(gen, SIG2, m_level)
            exact = hom_density_exact(A, M)
            est, stderr = hom_density_mc(A, M, 10_000, rng)
            assert abs(est - exact) <= 4 * stderr + 1e-9

    def test_unbiasedness(self):
        A = S(SIG2, 2, {(1, 2), (2, 1)})
        M = S(SIG2, 3, {(1, 2), (2, 1)})
        exact = hom_density_exact(A, M)
        runs, samples = 30, 2000
        estimates = [
            hom_density_mc(A, M, samples, make_rng(708, stream=r))[0]
            for r in range(runs)
        ]
        mean = sum(estimates) / runs
        combined_sigma = math.sqrt(exact * (1 - exact) / (runs * samples))
        assert abs(mean - exact) <= 4 * combined_sigma


    # Estimates of the implementation that compared each drawn injection
    # with the pattern cell by cell, one chunk of 100,000 draws at a time;
    # (pattern, structure, samples, seed) -> (estimate, standard error).
    PINNED = [
        ("L=(2)|n=2|R1={(1,2);(2,1)}", "L=(2)|n=6|R1={(1,2);(2,1);(2,3);(3,2);(4,4);(5,6)}",
         5000, 720, (0.1356, 0.004841748444518778)),
        ("L=(1,2)|n=2|R1={(1)}|R2={(1,2)}", "L=(1,2)|n=4|R1={(1);(3)}|R2={(1,2);(2,2);(3,4);(4,1)}",
         250_000, 721, (0.084412, 0.0005560094037190378)),
        ("L=(0,2)|n=0|R1={()}|R2={}", "L=(0,2)|n=3|R1={()}|R2={(1,2)}", 100, 722, (1.0, 0.0)),
        ("L=(3)|n=2|R1={(1,1,2)}", "L=(3)|n=4|R1={(1,1,2);(1,2,3);(2,2,1);(3,3,4)}",
         7000, 723, (0.08328571428571428, 0.003302579167032783)),
    ]

    @pytest.mark.parametrize("a, m, samples, seed, expected", PINNED)
    def test_pinned_estimates(self, a, m, samples, seed, expected):
        assert hom_density_mc(parse(a), parse(m), samples, make_rng(seed)) == expected

    def test_memory_bounded_by_chunk(self):
        # a chunk holds at most MC_CHUNK uniforms and as many argsorted
        # labels; drawing all 3000 rows of 1000 uniforms at once would take
        # 24 MB for the uniforms alone
        A = S(SIG2, 2, {(1, 2)})
        M = S(SIG2, 1000, {(1, 2), (2, 1), (3, 4)})
        tracemalloc.start()
        try:
            est, _ = hom_density_mc(A, M, 3000, make_rng(713))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est < 0.01
        assert peak <= 4 * 8 * MC_CHUNK


class TestSetFrequency:
    def test_extremes(self):
        assert set_frequency(empty_structure(SIG1, 4)) == 0.0
        assert set_frequency(S(SIG1, 3, {1, 2, 3})) == 1.0

    def test_half(self):
        assert set_frequency(S(SIG1, 4, {1, 3})) == 0.5

    def test_wrong_signature(self):
        with pytest.raises(ValueError):
            set_frequency(empty_structure(SIG2, 3))

    def test_equals_level_one_density(self):
        rng = make_rng(709)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            M = random_structure(rng, SIG1, n)
            vec = density_vector(M, 1)
            assert set_frequency(M) == vec.value(S(SIG1, 1, {1}))


class TestLimitPath:
    def test_constant_trajectory(self):
        traj = levy_path(2.0, ((0.0, empty_structure(SIG1, 4)),))
        vectors = limit_path(traj, 1, [0.0, 1.0, 2.0])
        assert all(v.values == vectors[0].values for v in vectors)

    def test_grid_zero_gives_empty_density(self):
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        traj = simulate_levy(I, 5, 1.0, make_rng(710))
        vec = limit_path(traj, 1, [0.0])[0]
        assert vec.value(empty_structure(SIG1, 1)) == 1.0

    def test_grid_bounds(self):
        traj = levy_path(1.0, ((0.0, empty_structure(SIG1, 3)),))
        with pytest.raises(ValueError):
            limit_path(traj, 1, [1.5])

    def test_unsorted_grid_matches_state_lookups(self):
        # one replay serves a grid out of time order, with repeated times,
        # times before the first jump, event times themselves and the
        # horizon, on a set path and on a graph path
        for sig, component, n, seed in (
            (SIG1, SetSingletonComponent(rate=1.0), 6, 712),
            (SIG2, PairComponent(rate=1.0), 5, 713),
        ):
            traj = simulate_levy(LevyIntensity(sig, (component,)), n, 4.0, make_rng(seed))
            times = [t for t, _ in traj.events]
            assert len(times) > 5
            grid = [times[3], 0.0, times[1] / 2, 4.0, times[3], (times[2] + times[3]) / 2,
                    times[1] / 3, 4.0, times[1], 2.5, times[3]]
            for level in (1, 2):
                expected = [density_vector(traj.state_at(t), level) for t in grid]
                assert limit_path(traj, level, grid) == expected

    def test_singleton_intensity_tracks_closed_form(self):
        # elements flip independently, so the level-1 density of the
        # present-pattern at time t concentrates at (1 - exp(-2t)) / 2
        from comblevy.levy import marginal_flip_probability

        n = 1000
        I = LevyIntensity(SIG1, (SetSingletonComponent(rate=1.0),))
        traj = simulate_levy(I, n, 2.0, make_rng(711))
        grid = [0.25, 1.0, 2.0]
        vectors = limit_path(traj, 1, grid)
        pattern = S(SIG1, 1, {1})
        for t, vec in zip(grid, vectors):
            p = marginal_flip_probability(1.0, t)
            band = 3 * math.sqrt(p * (1 - p) / n)
            assert abs(vec.value(pattern) - p) <= band


class TestHelpers:
    def test_falling_factorial(self):
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(3, 3) == 6

    def test_density_l1(self):
        a = DensityVector(1, {S(SIG1, 1, {1}): 0.3, empty_structure(SIG1, 1): 0.7})
        b = DensityVector(1, {S(SIG1, 1, {1}): 0.5, empty_structure(SIG1, 1): 0.5})
        assert density_l1(a, b) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            density_l1(a, DensityVector(2, {}))

    def test_csv_exports(self):
        vec = density_vector(S(SIG1, 4, {1, 2}), 1)
        text = density_to_csv(vec)
        assert text.splitlines()[0] == "pattern,density"
        assert len(text.splitlines()) == 3
        path_text = limit_path_to_csv([0.0, 0.5], [vec, vec])
        assert path_text.splitlines()[0] == "time,pattern,density"
        assert len(path_text.splitlines()) == 5
