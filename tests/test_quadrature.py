import numpy as np
import pytest

from jurylab.quadrature import integrate


class TestIntegrate:
    def test_smooth_converges(self):
        value, converged = integrate(lambda x: 3.0 * x**2, 0.0, 2.0)
        assert converged is True
        assert value == pytest.approx(8.0, abs=1e-13)

    def test_empty_interval(self):
        assert integrate(np.sin, 1.0, 1.0) == (0.0, True)

    def test_depth_limit_reported(self):
        # a jump at an irrational point never lands on a panel edge
        value, converged = integrate(
            lambda x: np.where(x < 1.0 / np.sqrt(2.0), 0.0, 1.0), 0.0, 1.0
        )
        assert converged is False
        assert value == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=0.05)
