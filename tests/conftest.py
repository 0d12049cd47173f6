import pytest

from threestage import fidelity


@pytest.fixture
def skew_state_average(monkeypatch):
    """``skew(amount)`` adds ``amount`` to the oracle's state-average column where it is made.

    A campaign and ``state_average`` both take that column from
    ``fidelity._fidelity_table``, after its clamp.
    """
    def skew(amount):
        table = fidelity._fidelity_table

        def skewed(form, xis, xi_points=None):
            values = table(form, xis, xi_points)
            if xi_points is not None:
                values[:, -1] += amount
            return values

        monkeypatch.setattr(fidelity, "_fidelity_table", skewed)

    return skew
