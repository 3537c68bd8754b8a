"""Tests for the machine model, cost ledger and distributed vector space."""

import math

import numpy as np
import pytest

from repro.runtime import CAB, HOPPER, ZERO_COMM, CostLedger, DistVectorSpace, Map, MachineModel
from repro.runtime.trace import SPMV_PHASES


class TestMachineModel:
    def test_presets_sane(self):
        for m in (CAB, HOPPER):
            assert m.alpha > 0 and m.beta > 0 and m.gamma_flop > 0

    def test_negative_param_rejected(self):
        with pytest.raises(ValueError):
            MachineModel("bad", alpha=-1, beta=0, gamma_flop=0, gamma_mem=0)

    def test_message_time(self):
        assert np.isclose(CAB.message_time(100), CAB.alpha + 100 * CAB.beta)

    def test_allreduce_log_p(self):
        assert CAB.allreduce_time(1) == 0.0
        # two ranks still exchange one message: one hop, never free
        assert CAB.allreduce_time(2) == pytest.approx(CAB.alpha + CAB.beta)
        assert CAB.allreduce_time(2, 5) == pytest.approx(CAB.alpha + 5 * CAB.beta)
        assert np.isclose(CAB.allreduce_time(8), 3 * (CAB.alpha + CAB.beta))
        assert CAB.allreduce_time(9) > CAB.allreduce_time(8)

    def test_zero_comm(self):
        assert ZERO_COMM.message_time(1000) == 0.0


class TestCostLedger:
    def test_accumulates(self):
        led = CostLedger()
        led.add("expand", 1.0)
        led.add("expand", 0.5)
        led.add("fold", 2.0)
        assert led.get("expand") == 1.5
        assert led.total() == 3.5

    def test_spmv_total_only_counts_spmv_phases(self):
        led = CostLedger()
        for ph in SPMV_PHASES:
            led.add(ph, 1.0)
        led.add("vector-ops", 10.0)
        assert led.spmv_total() == 4.0
        assert led.total() == 14.0

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="negative"):
            CostLedger().add("x", -1.0)

    def test_add_accumulates(self):
        a = CostLedger()
        a.add("x", 1.0)
        a.add("x", 2.0)
        assert a.get("x") == 3.0


class TestFiniteValidation:
    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma_flop", "gamma_mem"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_machine_rejects_nonfinite(self, field, bad):
        kwargs = dict(name="bad", alpha=1e-6, beta=1e-9,
                      gamma_flop=1e-10, gamma_mem=1e-10)
        kwargs[field] = bad
        with pytest.raises(ValueError, match="finite"):
            MachineModel(**kwargs)

    def test_machine_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            MachineModel(name="bad", alpha=-1e-6, beta=1e-9,
                         gamma_flop=1e-10, gamma_mem=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_ledger_rejects_nonfinite_seconds(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            CostLedger().add("expand", bad)

    def test_ledger_rejects_negative_seconds(self):
        with pytest.raises(ValueError, match="negative"):
            CostLedger().add("expand", -1.0)


class TestDistVectorSpace:
    def _space(self, n=100, p=4, seed=0):
        owner = np.random.default_rng(seed).integers(0, p, n)
        led = CostLedger()
        return DistVectorSpace(Map(owner, p), CAB, led), led

    def test_numerics(self, rng):
        space, _ = self._space()
        x, y = rng.standard_normal(100), rng.standard_normal(100)
        assert np.isclose(space.dot(x, y), x @ y)
        assert np.isclose(space.norm(x), np.linalg.norm(x))
        assert np.allclose(space.axpy(2.0, x, y), 2 * x + y)
        assert np.allclose(space.scale(3.0, x), 3 * x)
        B = rng.standard_normal((100, 5))
        assert np.allclose(space.multi_dot(B, x), B.T @ x)
        c = rng.standard_normal(5)
        assert np.allclose(space.multi_axpy(B, c, x), x - B @ c)
        S = rng.standard_normal((5, 3))
        assert np.allclose(space.gemm(B, S), B @ S)

    def test_dot_charges_stream_plus_allreduce(self, rng):
        space, led = self._space()
        x = rng.standard_normal(100)
        space.dot(x, x)
        max_local = space.map.counts().max()
        expected = CAB.gamma_mem * 2 * max_local + CAB.allreduce_time(4)
        assert np.isclose(led.get("vector-ops"), expected)

    def test_cost_scales_with_vector_imbalance(self, rng):
        """The Table-5 mechanism: imbalanced maps slow dense ops down."""
        n, p = 1000, 4
        balanced = Map(np.arange(n) % p, p)
        skewed_owner = np.zeros(n, dtype=np.int64)
        skewed_owner[: n // 10] = np.arange(n // 10) % (p - 1) + 1
        skewed = Map(skewed_owner, p)  # rank 0 owns 90%
        costs = []
        x = rng.standard_normal(n)
        for vmap in (balanced, skewed):
            led = CostLedger()
            DistVectorSpace(vmap, ZERO_COMM, led).axpy(1.0, x, x)
            costs.append(led.total())
        assert costs[1] > 3 * costs[0]

    def test_default_ledger_created(self):
        space = DistVectorSpace(Map(np.zeros(10, dtype=np.int64), 1), CAB)
        space.norm(np.ones(10))
        assert space.ledger.total() > 0
