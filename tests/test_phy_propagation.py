"""Unit tests for propagation models."""

import math

import numpy as np
import pytest

from repro.phy.propagation import LogNormalShadowing, TwoRayGround
from repro.sim.rng import RandomStreams
from repro.sim.units import SPEED_OF_LIGHT

TX_POWER_NS2 = 0.28183815
RX_THRESH_NS2 = 3.652e-10
CS_THRESH_NS2 = 1.559e-11

ORIGIN = np.zeros(2)


def at(model, d, p=TX_POWER_NS2):
    return model.rx_power(p, ORIGIN, np.array([d, 0.0]))


class TestTwoRayGround:
    def test_ns2_250m_transmission_range(self):
        m = TwoRayGround()
        assert m.range_for(TX_POWER_NS2, RX_THRESH_NS2) == pytest.approx(
            250.0, rel=1e-3
        )

    def test_ns2_550m_carrier_sense_range(self):
        m = TwoRayGround()
        assert m.range_for(TX_POWER_NS2, CS_THRESH_NS2) == pytest.approx(
            550.0, rel=1e-3
        )

    def test_fourth_power_beyond_crossover(self):
        m = TwoRayGround()
        d0 = m.crossover_m * 2
        assert at(m, d0) / at(m, 2 * d0) == pytest.approx(16.0)

    def test_friis_below_crossover(self):
        m = TwoRayGround()
        wavelength = SPEED_OF_LIGHT / 2.4e9
        for d in (m.crossover_m / 4, m.crossover_m / 2, 0.99 * m.crossover_m):
            friis = TX_POWER_NS2 * wavelength**2 / (4.0 * math.pi * d) ** 2
            assert at(m, d) == pytest.approx(friis, rel=1e-12)

    def test_inverse_square_below_crossover(self):
        m = TwoRayGround()
        d = m.crossover_m / 4
        assert at(m, d) / at(m, 2 * d) == pytest.approx(4.0)

    def test_monotone_decreasing(self):
        m = TwoRayGround()
        powers = [at(m, d) for d in [10, 50, 100, 500, 1000]]
        assert all(a > b for a, b in zip(powers, powers[1:]))

    def test_distance_clamp_no_singularity(self):
        assert np.isfinite(at(TwoRayGround(), 0.0))

    def test_vectorised_matches_scalar(self):
        m = TwoRayGround()
        rx = np.array([[100.0, 0.0], [0.0, 250.0], [300.0, 400.0]])
        many = m.rx_power_many(1.0, ORIGIN, rx)
        for i, row in enumerate(rx):
            assert many[i] == m.rx_power(1.0, ORIGIN, row)

    def test_continuous_enough_at_crossover(self):
        m = TwoRayGround()
        lo = at(m, m.crossover_m * 0.999)
        hi = at(m, m.crossover_m * 1.001)
        assert lo / hi == pytest.approx(1.0, rel=0.05)

    def test_invalid_height_rejected(self):
        with pytest.raises(ValueError):
            TwoRayGround(antenna_height_m=0.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TwoRayGround(frequency_hz=0.0)
        with pytest.raises(ValueError):
            TwoRayGround(tx_gain=0.0)


class TestLogNormalShadowing:
    def _model(self, sigma=6.0, seed=1):
        return LogNormalShadowing(TwoRayGround(), sigma, RandomStreams(seed))

    def test_zero_sigma_equals_base(self):
        m = self._model(sigma=0.0)
        base = TwoRayGround()
        m.set_transmitter(0)
        rx = np.array([[300.0, 0.0]])
        got = m.rx_power_many(1.0, ORIGIN, rx, rx_ids=np.array([1]))
        assert got[0] == pytest.approx(base.rx_power(1.0, ORIGIN, rx[0]))

    def test_per_link_offsets_stable(self):
        m = self._model()
        m.set_transmitter(0)
        rx = np.array([[300.0, 0.0]])
        a = m.rx_power_many(1.0, ORIGIN, rx, rx_ids=np.array([1]))[0]
        b = m.rx_power_many(1.0, ORIGIN, rx, rx_ids=np.array([1]))[0]
        assert a == b

    def test_symmetric_links(self):
        m = self._model()
        rx = np.array([[300.0, 0.0]])
        m.set_transmitter(0)
        fwd = m.rx_power_many(1.0, ORIGIN, rx, rx_ids=np.array([5]))[0]
        m.set_transmitter(5)
        rev = m.rx_power_many(1.0, np.array([300.0, 0.0]),
                              np.array([[0.0, 0.0]]), rx_ids=np.array([0]))[0]
        assert fwd == pytest.approx(rev)

    def test_links_differ_from_each_other(self):
        m = self._model()
        m.set_transmitter(0)
        rx = np.array([[300.0, 0.0], [300.0, 0.0]])
        got = m.rx_power_many(1.0, ORIGIN, rx, rx_ids=np.array([1, 2]))
        assert got[0] != got[1]

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            self._model(sigma=-1.0)


class TestRangeFor:
    def test_zero_when_threshold_unreachable(self):
        m = TwoRayGround()
        # demand more power than transmitted even at minimum distance
        assert m.range_for(1e-3, 1e3) == 0.0

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            TwoRayGround().range_for(1.0, 0.0)
