"""Tests for role placement (PS/worker assignment to nodes)."""

import pytest

from repro.cluster import PlacementError, place


def machines_used(placement):
    """Distinct nodes a placement consumes."""
    return len(set(placement.ps_nodes) | set(placement.worker_nodes))


class TestDedicatedPlacement:
    def test_servers_then_workers(self):
        placement = place(num_nodes=8, num_ps=2, num_workers=4, colocate=False)
        assert placement.ps_nodes == (0, 1)
        assert placement.worker_nodes == (2, 3, 4, 5)
        assert not placement.colocated
        assert machines_used(placement) == 6

    def test_exact_fit(self):
        placement = place(num_nodes=6, num_ps=2, num_workers=4, colocate=False)
        assert machines_used(placement) == 6

    def test_overflow_raises(self):
        with pytest.raises(PlacementError):
            place(num_nodes=5, num_ps=2, num_workers=4, colocate=False)


class TestColocatedPlacement:
    def test_ps_round_robin_over_worker_nodes(self):
        placement = place(num_nodes=4, num_ps=3, num_workers=4, colocate=True)
        assert placement.worker_nodes == (0, 1, 2, 3)
        assert placement.ps_nodes == (0, 1, 2)
        assert machines_used(placement) == 4

    def test_more_ps_than_workers(self):
        placement = place(num_nodes=6, num_ps=6, num_workers=3, colocate=True)
        assert machines_used(placement) == 6
        assert len(placement.ps_nodes) == 6

    def test_needs_max_of_counts(self):
        with pytest.raises(PlacementError):
            place(num_nodes=3, num_ps=4, num_workers=2, colocate=True)


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(PlacementError):
            place(num_nodes=4, num_ps=1, num_workers=0, colocate=False)

    def test_negative_ps_rejected(self):
        with pytest.raises(PlacementError):
            place(num_nodes=4, num_ps=-1, num_workers=2, colocate=False)


class TestFeasible:
    """Which role counts fit a cluster: ``place`` succeeds or raises."""

    def test_matches_place_success(self):
        place(8, 2, 4, False)
        place(4, 3, 4, True)

    def test_matches_place_failure(self):
        for args in ((5, 2, 4, False), (3, 4, 2, True), (4, 1, 0, False)):
            with pytest.raises(PlacementError):
                place(*args)

    def test_allreduce_style_zero_ps(self):
        placement = place(4, 0, 4, False)
        assert placement.ps_nodes == ()
        assert placement.worker_nodes == (0, 1, 2, 3)
