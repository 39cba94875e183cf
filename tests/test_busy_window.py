"""Tests for busy-window bounds and horizon iteration."""

from fractions import Fraction as F

import pytest

from repro.core.busy_window import busy_window_bound, last_positive_time
from repro.curves.service import tdma_service
from repro.drt.model import DRTTask
from repro.errors import UnboundedBusyWindowError
from repro.minplus.builders import affine, from_points, rate_latency, zero


class TestLastPositiveTime:
    def test_never_positive(self):
        assert last_positive_time(affine(-1, F(-1, 2))) is None

    def test_positive_then_negative(self):
        c = from_points([(0, 3), (6, -3)], -1)
        assert last_positive_time(c) == 3

    def test_positive_tail_raises(self):
        with pytest.raises(UnboundedBusyWindowError):
            last_positive_time(affine(1, 1))

    def test_constant_positive_tail_raises(self):
        with pytest.raises(UnboundedBusyWindowError):
            last_positive_time(affine(1, 0))

    def test_ends_exactly_at_zero_crossing_in_tail(self):
        c = affine(4, -2)
        assert last_positive_time(c) == 2

    def test_jump_back_above(self):
        # positive, crosses, jumps positive again, then decays
        c = from_points([(0, 1), (1, -1), (2, -1)], 0).maximum(
            from_points([(0, -5), (3, -5), (4, 2), (6, -2)], -1)
        )
        assert last_positive_time(c) == 5

    def test_zero_curve(self):
        assert last_positive_time(zero()) is None


class TestBusyWindowBound:
    def test_demo_value(self, demo_task):
        bw = busy_window_bound(demo_task, rate_latency(F(1, 2), 4))
        assert bw.length == 14

    def test_rbf_reusable(self, demo_task):
        bw = busy_window_bound(demo_task, rate_latency(F(1, 2), 4))
        assert bw.rbf.at(0) == 3

    def test_overload_raises(self, demo_task):
        # utilization 1/5 >= rate 1/5
        with pytest.raises(UnboundedBusyWindowError):
            busy_window_bound(demo_task, rate_latency(F(1, 5), 0))

    def test_fast_service_gives_tiny_window(self, loop_task):
        bw = busy_window_bound(loop_task, rate_latency(100, 0))
        assert bw.length == F(1, 50)  # just the burst draining at speed 100

    def test_tdma_converges(self, demo_task):
        bw = busy_window_bound(demo_task, tdma_service(1, 2, 5, 30))
        assert bw.length == 14

    def test_acyclic_finite_work(self, chain_task):
        bw = busy_window_bound(chain_task, rate_latency(F(1, 4), 2))
        assert bw.length > 0

    def test_acyclic_zero_rate_service_raises(self, chain_task):
        with pytest.raises(UnboundedBusyWindowError):
            busy_window_bound(chain_task, zero())

    def test_explicit_initial_horizon(self, demo_task):
        bw = busy_window_bound(demo_task, rate_latency(F(1, 2), 4), initial_horizon=1)
        assert bw.length == 14
        assert bw.iterations >= 2  # had to double at least once

    def test_busy_window_is_sound(self, demo_task):
        """rbf stays at or below beta from L onwards (on samples)."""
        beta = rate_latency(F(1, 2), 4)
        bw = busy_window_bound(demo_task, beta)
        for k in range(0, 80):
            t = bw.length + F(k, 2)
            assert bw.rbf.at(t) <= beta.at(t) or t == bw.length

