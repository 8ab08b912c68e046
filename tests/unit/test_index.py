"""Unit tests for the MAST index (Alg. 3) and count providers."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    HierarchicalMultiAgentSampler,
    LinearCountProvider,
    MASTConfig,
    MASTIndex,
    STCountProvider,
)
from repro.query import ObjectFilter, SpatialPredicate
from repro.utils.timing import STAGE_INDEX, CostLedger


@pytest.fixture(scope="module")
def sampling(kitti_sequence, detector):
    sampler = HierarchicalMultiAgentSampler(MASTConfig(seed=2))
    return sampler.sample(kitti_sequence, detector)


@pytest.fixture(scope="module")
def index(sampling):
    return MASTIndex.build(sampling, MASTConfig(seed=2))


CAR_NEAR = ObjectFilter(label="Car", spatial=SpatialPredicate("<=", 20.0))


class TestBuild:
    def test_covers_all_frames(self, index, sampling):
        assert index.n_frames == sampling.n_frames

    def test_charges_index_stage(self, sampling):
        from repro.utils.timing import CostLedger

        ledger = CostLedger()
        MASTIndex.build(sampling, MASTConfig(), ledger=ledger)
        assert ledger.total(STAGE_INDEX) > 0

    def test_indexed_objects_nonzero(self, index):
        assert index.n_indexed_objects > 0


class TestCountSeries:
    def test_shape(self, index):
        counts = index.count_series(CAR_NEAR)
        assert counts.shape == (index.n_frames,)
        assert np.all(counts >= 0)

    def test_sampled_frames_are_exact(self, index, sampling):
        """On sampled frames the index stores the raw model output."""
        counts = index.count_series(CAR_NEAR)
        for frame_id in sampling.sampled_ids[:20]:
            expected = CAR_NEAR.count(sampling.detections[int(frame_id)])
            assert counts[int(frame_id)] == expected

    def test_memoized(self, index):
        a = index.count_series(CAR_NEAR)
        b = index.count_series(CAR_NEAR)
        assert a is b

    def test_different_filters_differ(self, index):
        near = index.count_series(CAR_NEAR)
        far = index.count_series(
            ObjectFilter(label="Car", spatial=SpatialPredicate(">=", 20.0))
        )
        assert not np.array_equal(near, far)

    def test_confidence_threshold_reduces_counts(self, index):
        low = index.count_series(ObjectFilter(label="Car", confidence=0.1))
        high = index.count_series(ObjectFilter(label="Car", confidence=0.9))
        assert high.sum() <= low.sum()


class TestObjectsAt:
    def test_sampled_frame_returns_detections(self, index, sampling):
        frame_id = int(sampling.sampled_ids[3])
        objects = index.objects_at(frame_id)
        assert np.allclose(
            objects.centers, sampling.detections[frame_id].centers
        )

    def test_unsampled_frame_returns_prediction(self, index, sampling):
        gaps = sampling.gaps()
        start, end = gaps[0]
        mid = (start + end) // 2
        objects = index.objects_at(mid)
        # Prediction matches the flat-column counts for that frame.
        counts = index.count_series(ObjectFilter(label=None, confidence=0.0))
        assert len(objects) == counts[mid]

    def test_out_of_range(self, index):
        with pytest.raises(IndexError):
            index.objects_at(index.n_frames)


class TestSTCountProvider:
    def test_delegates_to_index(self, index):
        provider = STCountProvider(index)
        assert provider.n_frames == index.n_frames
        assert np.array_equal(
            provider.count_series(CAR_NEAR), index.count_series(CAR_NEAR)
        )

    def test_declares_query_cost(self, index):
        assert STCountProvider(index).simulated_query_cost_per_frame > 0


class TestLinearCountProvider:
    def test_exact_on_sampled_frames(self, sampling):
        provider = LinearCountProvider(sampling)
        counts = provider.count_series(CAR_NEAR)
        for frame_id in sampling.sampled_ids[:20]:
            expected = CAR_NEAR.count(sampling.detections[int(frame_id)])
            assert counts[int(frame_id)] == pytest.approx(expected)

    def test_interpolates_between_samples(self, sampling):
        provider = LinearCountProvider(sampling)
        counts = provider.count_series(CAR_NEAR)
        ids = sampling.sampled_ids
        for start, end in sampling.gaps()[:10]:
            lo, hi = counts[start], counts[end]
            interior = counts[start + 1 : end]
            assert np.all(interior >= min(lo, hi) - 1e-9)
            assert np.all(interior <= max(lo, hi) + 1e-9)

    def test_quantized_view_floors(self, sampling):
        provider = LinearCountProvider(sampling)
        floored = provider.quantized().count_series(CAR_NEAR)
        continuous = provider.count_series(CAR_NEAR)
        assert np.allclose(floored, np.floor(continuous))

    def test_views_share_cache(self, sampling):
        provider = LinearCountProvider(sampling)
        provider.count_series(CAR_NEAR)
        view = provider.quantized()
        assert CAR_NEAR in view._cache

    def test_linear_cheaper_than_st(self, sampling, index):
        linear = LinearCountProvider(sampling)
        st = STCountProvider(index)
        assert (
            linear.simulated_query_cost_per_frame
            < st.simulated_query_cost_per_frame
        )


FILTER_SET = [
    CAR_NEAR,
    ObjectFilter(label="Car", spatial=SpatialPredicate(">=", 20.0)),
    ObjectFilter(label="Pedestrian"),
    ObjectFilter(confidence=0.7),
    ObjectFilter(),
]


class TestBatchedSeriesAPI:
    """count_series_many / count_series_tail / cached_filters contracts."""

    @pytest.mark.parametrize("provider_kind", ["index", "st", "linear"])
    def test_many_matches_one_by_one(self, sampling, provider_kind):
        if provider_kind == "linear":
            provider = LinearCountProvider(sampling)
        else:
            built = MASTIndex.build(sampling, MASTConfig(seed=2))
            provider = built if provider_kind == "index" else STCountProvider(built)
        batched = provider.count_series_many(FILTER_SET)
        for object_filter in FILTER_SET:
            assert np.array_equal(
                batched[object_filter], provider.count_series(object_filter)
            )

    def test_many_populates_cache(self, sampling):
        provider = LinearCountProvider(sampling)
        provider.count_series_many(FILTER_SET)
        assert set(provider.cached_filters()) == set(FILTER_SET)

    def test_tail_equals_series_slice(self, index, sampling):
        for provider in (index, LinearCountProvider(sampling)):
            series = provider.count_series(CAR_NEAR)
            for start in (0, 1, index.n_frames // 2, index.n_frames - 1):
                tail = provider.count_series_tail(CAR_NEAR, start)
                assert np.array_equal(tail, series[start:]), (
                    f"{type(provider).__name__} tail mismatch at start={start}"
                )

    def test_cached_filters_public_api(self, sampling):
        index = MASTIndex.build(sampling, MASTConfig(seed=2))
        assert list(index.cached_filters()) == []
        index.count_series(CAR_NEAR)
        assert list(index.cached_filters()) == [CAR_NEAR]
        index.clear_count_cache()
        assert list(index.cached_filters()) == []

    def test_quantized_view_shares_batched_cache(self, sampling):
        provider = LinearCountProvider(sampling)
        view = provider.quantized()
        provider.count_series_many(FILTER_SET)
        assert set(view.cached_filters()) == set(FILTER_SET)
        assert np.array_equal(
            view.count_series(CAR_NEAR),
            np.floor(provider.count_series(CAR_NEAR)),
        )

    def test_prime_validates_shape(self, sampling):
        provider = LinearCountProvider(sampling)
        with pytest.raises(ValueError, match="sampled"):
            provider.prime(CAR_NEAR, np.zeros(3))

    def test_prime_equals_recompute(self, sampling):
        cold = LinearCountProvider(sampling)
        primed = LinearCountProvider(sampling)
        counts = cold.cached_sampled_counts()
        assert counts == {}
        cold.count_series(CAR_NEAR)
        carried = cold.cached_sampled_counts()[CAR_NEAR]
        primed.prime(CAR_NEAR, carried)
        assert np.array_equal(
            primed.count_series(CAR_NEAR), cold.count_series(CAR_NEAR)
        )


# ----------------------------------------------------------------------
# Incremental build: the extend path hands the prior index over, and
# gaps whose inputs are the very same objects keep their estimates.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def extend_chain(detector):
    """A pipeline fit on 120 frames and extended three times by 40."""
    from repro.core import MASTPipeline
    from repro.simulation import semantickitti_like

    full = semantickitti_like(0, n_frames=240, with_points=False)
    config = MASTConfig(seed=4)
    pipe = MASTPipeline(config).fit(full.head(120, name=full.name), detector)
    steps = [(pipe.sampling_result, pipe.index)]
    for start in (120, 160, 200):
        pipe.extend(list(full[start : start + 40]))
        steps.append((pipe.sampling_result, pipe.index))
    return config, steps


def _interior_gaps(result):
    ids = [int(i) for i in result.sampled_ids]
    return [(start, end) for start, end in zip(ids[:-1], ids[1:]) if end - start > 1]


def _count_analyze_pair(monkeypatch):
    from repro.core import index as index_module

    calls = []
    original = index_module.analyze_pair

    def counting(objects_start, objects_end, *args, **kwargs):
        calls.append((objects_start, objects_end))
        return original(objects_start, objects_end, *args, **kwargs)

    monkeypatch.setattr(index_module, "analyze_pair", counting)
    return calls


def _same_inputs(estimate, result, start, end):
    return (
        estimate.objects_start is result.detections[start]
        and estimate.objects_end is result.detections[end]
    )


class TestIncrementalBuild:
    def test_extended_index_equals_scratch_build(self, extend_chain):
        config, steps = extend_chain
        for result, incremental in steps[1:]:
            scratch = MASTIndex.build(result, config, ledger=CostLedger())
            for column in ("_frame_index", "_labels", "_positions", "_scores"):
                got, want = getattr(incremental, column), getattr(scratch, column)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), column
            assert incremental._estimates.keys() == scratch._estimates.keys()
            for gap, want in scratch._estimates.items():
                got = incremental._estimates[gap]
                assert got.matched_pairs == want.matched_pairs
                assert got.velocities.tobytes() == want.velocities.tobytes()

    def test_extend_reuses_estimates_of_unchanged_gaps(self, extend_chain):
        _, steps = extend_chain
        reused_total = 0
        for (_, before), (result, after) in zip(steps, steps[1:]):
            for gap, estimate in after._estimates.items():
                prior = before._estimates.get(gap)
                if prior is not None and _same_inputs(prior, result, *gap):
                    assert estimate is prior
                    reused_total += 1
                else:
                    assert estimate is not prior
        assert reused_total > 0

    def test_analyze_pair_runs_only_for_changed_gaps(self, extend_chain, monkeypatch):
        config, steps = extend_chain
        (_, previous), (result, _) = steps[-2], steps[-1]
        gaps = _interior_gaps(result)
        fresh = [
            gap
            for gap in gaps
            if gap not in previous._estimates
            or not _same_inputs(previous._estimates[gap], result, *gap)
        ]
        assert 0 < len(fresh) < len(gaps)
        calls = _count_analyze_pair(monkeypatch)
        MASTIndex.build(result, config, ledger=CostLedger(), previous=previous)
        assert len(calls) == len(fresh)

    def test_swapped_detection_object_is_recomputed(self, extend_chain, monkeypatch):
        config, steps = extend_chain
        result, previous = steps[-1]
        gaps = _interior_gaps(result)
        start, end = gaps[len(gaps) // 2]
        swapped = dict(result.detections)
        objects = swapped[end]
        # An equal copy under a new identity: the build cannot know it is
        # unchanged, so the gaps on both sides of ``end`` are redone.
        swapped[end] = objects.filter(np.ones(len(objects), dtype=bool))
        changed = dataclasses.replace(result, detections=swapped)
        calls = _count_analyze_pair(monkeypatch)
        rebuilt = MASTIndex.build(changed, config, ledger=CostLedger(), previous=previous)
        touching = [gap for gap in gaps if end in gap]
        assert len(calls) == len(touching)
        for gap in gaps:
            if end in gap:
                assert rebuilt._estimates[gap] is not previous._estimates[gap]
            else:
                assert rebuilt._estimates[gap] is previous._estimates[gap]
        assert rebuilt._estimates[(start, end)].objects_end is swapped[end]

    def test_other_matching_gate_recomputes_every_gap(self, extend_chain, monkeypatch):
        config, steps = extend_chain
        result, previous = steps[-1]
        calls = _count_analyze_pair(monkeypatch)
        gated = config.with_overrides(match_max_distance=5.0)
        MASTIndex.build(result, gated, ledger=CostLedger(), previous=previous)
        assert len(calls) == len(_interior_gaps(result))
