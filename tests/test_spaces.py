import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_nested_chain

from kerneltri import (
    MeasureSpace,
    SpaceError,
    StandardSet,
    build_space,
    nested_chain,
)
from kerneltri.spaces import level_mask_indices, level_pair_table, mask_indices, standard_pair_masks


class TestBuildSpace:
    def test_uniform_grid(self):
        space = build_space(4)
        assert space.midpoints == (0.125, 0.375, 0.625, 0.875)
        assert space.cell_weights == (0.25, 0.25, 0.25, 0.25)
        assert space.size == 4

    def test_purely_atomic(self):
        space = build_space(0, [2, 3])
        assert space.num_cells == 0
        assert space.atom_ids == (2, 3)
        np.testing.assert_allclose(space.weights, [1.0, 1.0])

    def test_hybrid_masses(self):
        space = build_space(2, [2])
        assert space.size == 3
        assert sum(space.cell_weights) == pytest.approx(1.0)
        assert space.weights[2] == 1.0

    def test_duplicate_atom_id(self):
        with pytest.raises(SpaceError):
            build_space(2, [5, 5])

    def test_empty_space(self):
        with pytest.raises(SpaceError):
            build_space(0, [])

    def test_weights_sum_to_one(self):
        for n in (1, 3, 7, 64):
            assert sum(build_space(n).cell_weights) == pytest.approx(1.0)

    def test_weights_are_computed_once_and_read_only(self):
        space = build_space(3, [2, 5])
        for sp in (space, space.restrict([0, 2, 4]), space.restrict([3])):
            w = sp.weights
            assert sp.weights is w
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0] = 2.0
            expected = np.array(list(sp.cell_weights) + [1.0] * sp.num_atoms)
            np.testing.assert_array_equal(w, expected)
            assert w.dtype == expected.dtype


class TestMeasureSpace:
    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_weights_must_be_finite_and_positive(self, weight):
        with pytest.raises(SpaceError, match="cell weights must be finite and positive"):
            MeasureSpace((0.25, 0.75), (0.5, weight), ())

    @pytest.mark.parametrize(
        "mids", [(np.inf,), (-np.inf,), (np.nan,), (np.nan, 0.5), (0.5, np.nan)]
    )
    def test_midpoints_must_be_finite(self, mids):
        with pytest.raises(SpaceError, match="cell midpoints must be finite"):
            MeasureSpace(mids, (1.0,) * len(mids), ())


class TestStandardSet:
    def test_boolean_operations(self):
        space = build_space(0, [2, 3, 4])
        a = StandardSet.from_indices(space, [0, 1])
        b = StandardSet.from_indices(space, [1, 2])
        assert a.complement().indices() == (2,)
        assert not a.issubset(b)
        assert StandardSet.from_indices(space, [1]).issubset(a)

    def test_empty_and_full(self):
        space = build_space(3)
        assert StandardSet(space, 0).size == 0
        assert StandardSet.full(space).size == 3

    def test_out_of_range(self):
        space = build_space(2)
        with pytest.raises(SpaceError):
            StandardSet.from_indices(space, [5])
        for mask in (-1, 1 << 2):
            with pytest.raises(SpaceError):
                StandardSet(space, mask)

    def test_space_mismatch(self):
        a = StandardSet.full(build_space(2))
        b = StandardSet.full(build_space(3))
        with pytest.raises(SpaceError):
            a.issubset(b)


class TestStandardPairMasks:
    def test_single_point_gives_three_pairs(self):
        assert list(standard_pair_masks(1)) == [(0, 0), (0, 1), (1, 1)]

    def test_two_points_give_nine_pairs(self):
        # brute-force count: all (E, F) with E subset of F
        pairs = list(standard_pair_masks(2))
        assert len(pairs) == 9
        brute = sum(
            1
            for f in range(4)
            for e in range(4)
            if e & f == e
        )
        assert brute == 9

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_count_and_uniqueness(self, p):
        seen = set()
        for e, f in standard_pair_masks(p):
            assert e & ~f == 0
            assert (e, f) not in seen
            seen.add((e, f))
        assert len(seen) == 3**p

    def test_twelve_point_count(self):
        count = sum(1 for _ in standard_pair_masks(12))
        assert count == 531441 == 3**12

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 5])
    def test_order_is_lexicographic_in_point_states(self, p):
        expected = []
        for states in itertools.product((0, 1, 2), repeat=p):
            f = sum(1 << i for i, s in enumerate(states) if s >= 1)
            e = sum(1 << i for i, s in enumerate(states) if s == 2)
            expected.append((e, f))
        assert list(standard_pair_masks(p)) == expected

    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_level_table_lists_the_pairs_over_the_last_points(self, p):
        # the first 3^m pairs over p points are those over points p-m..p-1
        pairs = list(standard_pair_masks(p))
        for m in range(p + 1):
            e, f = level_pair_table(m)
            got = [
                (level_mask_indices(a, p), level_mask_indices(b, p))
                for a, b in zip(e.tolist(), f.tolist())
            ]
            assert got == [(mask_indices(a, p), mask_indices(b, p)) for a, b in pairs[: 3**m]]
            assert all(min(i for i in fi) >= p - m for _, fi in got if fi)


class TestNestedChain:
    def test_full_resolution(self):
        space = build_space(4)
        chain = nested_chain(space, 4)
        assert [s.size for s in chain] == [0, 1, 2, 3, 4]

    def test_coarse_steps(self):
        space = build_space(4)
        assert [s.size for s in nested_chain(space, 2)] == [0, 2, 4]

    def test_atoms_never_included(self):
        space = build_space(2, [2])
        chain = nested_chain(space, 2)
        for s in chain:
            assert not s.mask >> 2 & 1
        assert chain[-1].indices() == (0, 1)

    def test_strictly_increasing(self):
        space = build_space(3)
        chain = nested_chain(space, 12)  # finer than the grid
        for a, b in zip(chain, chain[1:]):
            assert a.issubset(b) and a.mask != b.mask

    def test_requires_cells(self):
        with pytest.raises(SpaceError):
            nested_chain(build_space(0, [2]), 2)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=60, deadline=None)
    def test_matches_step_loop(self, cells, steps):
        space = build_space(cells, [2])
        assert nested_chain(space, steps) == reference_nested_chain(space, steps)

    @given(st.data(), st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=60, deadline=None)
    def test_matches_step_loop_on_step_midpoints(self, data, steps):
        # midpoints equal to some s / steps are met exactly, and those
        # outside [0, 1] lie before the first step or past the last one
        ticks = st.integers(min_value=-1 - steps // 10, max_value=1 + steps + steps // 5)
        mids = tuple(sorted(t / steps for t in data.draw(st.lists(ticks, min_size=1, max_size=40, unique=True))))
        space = MeasureSpace(mids, (1.0,) * len(mids), ())
        assert nested_chain(space, steps) == reference_nested_chain(space, steps)
