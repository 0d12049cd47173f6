"""A verify campaign and a sweep against the public per-kind path they were optimised from.

``verify_formulas`` and ``sweep`` share one evaluation: every kind's rows
sit in one closed-form table and one oracle table. The closed form runs
each kind's rule once on its checked grid, unchecked again; the oracle
joins the kinds' Pauli transfer matrices into one stack, averages it once,
and takes one product per block of encoding angles and one for the state
average. Each table
takes one clamp. The reference below is the public path, one kind at a
time: ``closed_form_fidelity``, ``closed_form_average_fidelity``, and
``RotationAveragedOracle`` on ``channels.from_kind`` of the stacked
parameters, with ``fidelity_at`` and ``state_average``. Every array and
number must equal it bit for bit, signed zeros included, so values are
compared by ``tobytes()``.
"""

import functools
import itertools

import numpy as np
import pytest

from threestage import channels, cli, fidelity, harness
from threestage.channels import NoiseKind
from threestage.fidelity import (
    QuadratureSpec,
    RotationAveragedOracle,
    closed_form_average_fidelity,
    closed_form_fidelity,
)
from threestage.harness import SweepMode, SweepSpec

KINDS = fidelity.CLOSED_FORM_KINDS
FAST_QUAD = QuadratureSpec(rotation_points=16, xi_points=64)
EDGE_GRIDS = {
    NoiseKind.AMPLITUDE_DAMPING: [0.0, 1.0],
    NoiseKind.PHASE_DAMPING: [0.0, 1.0],
    NoiseKind.COLLECTIVE_DEPHASING: [0.0, np.pi / 6, np.pi, 2 * np.pi],
    NoiseKind.COLLECTIVE_ROTATION: [0.0, np.pi / 6, np.pi, 2 * np.pi],
}
# More angles than one block holds, so that several blocks share their weights.
LONG_XIS = np.linspace(0.0, 2 * np.pi, 1500)


def reference_columns(kind, params, xis, quad):
    """(closed xi columns, closed averages, oracle xi columns, oracle averages), one kind at a time."""
    params = np.asarray(params, dtype=float)
    xis = np.asarray(xis, dtype=float)
    oracle = RotationAveragedOracle(channels.from_kind(kind, params), quad)
    return (closed_form_fidelity(kind, params[:, None], xis[None, :]),
            closed_form_average_fidelity(kind, params),
            oracle.fidelity_at(xis), oracle.state_average())


def as_bytes(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def assert_report_is_the_reference(report, quad):
    params, xis = np.array(report.param_grid), np.array(report.xi_grid)
    closed, closed_average, oracle, oracle_average = reference_columns(report.kind, params, xis, quad)
    assert report.closed_form.tobytes() == closed.tobytes()
    assert report.oracle.tobytes() == oracle.tobytes()
    deviation = np.abs(closed - oracle)
    i, j = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
    assert as_bytes(report.max_abs_deviation) == as_bytes(deviation[i, j])
    assert as_bytes(report.worst_point) == as_bytes([params[i], xis[j]])
    average = np.max(np.abs(closed_average - oracle_average))
    assert as_bytes(report.average_deviation) == as_bytes(average)


class TestVerifyCampaign:
    def test_default_campaign(self):
        reports = harness.verify_formulas(KINDS)
        assert [report.kind for report in reports] == list(KINDS)
        for report in reports:
            assert_report_is_the_reference(report, QuadratureSpec())

    @pytest.mark.parametrize("quad", [QuadratureSpec(), FAST_QUAD], ids=["default", "fast"])
    def test_xi_grid_over_several_blocks(self, quad):
        assert len(LONG_XIS) > fidelity.XI_BLOCK
        grids = {kind: np.linspace(*kind.natural_range, 2) for kind in KINDS}
        for report in harness.verify_formulas(KINDS, param_grids=grids, xi_grid=LONG_XIS, quad=quad):
            assert_report_is_the_reference(report, quad)

    @pytest.mark.parametrize("xis", [None, LONG_XIS], ids=["default_xis", "long_xis"])
    def test_edge_parameters(self, xis):
        for report in harness.verify_formulas(KINDS, param_grids=EDGE_GRIDS, xi_grid=xis, quad=FAST_QUAD):
            assert_report_is_the_reference(report, FAST_QUAD)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
    def test_one_kind_alone_is_its_part_of_the_campaign(self, kind):
        [alone] = harness.verify_formulas([kind], quad=FAST_QUAD)
        campaign = harness.verify_formulas(KINDS, quad=FAST_QUAD)[KINDS.index(kind)]
        assert alone.closed_form.tobytes() == campaign.closed_form.tobytes()
        assert alone.oracle.tobytes() == campaign.oracle.tobytes()
        assert_report_is_the_reference(alone, FAST_QUAD)


class TestSweepColumns:
    @pytest.mark.parametrize("mode", list(SweepMode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("xis, average", [
        (np.linspace(-1.0, 7.0, 9), True),
        (np.linspace(-1.0, 7.0, 9), False),
        (LONG_XIS, True),
        ((), True),
    ], ids=["avg", "no_avg", "long_xis", "avg_only"])
    def test_columns_are_the_reference(self, kind, mode, xis, average):
        params = np.concatenate([EDGE_GRIDS[kind], np.linspace(*kind.natural_range, 7)[1:-1]])
        params = np.unique(params)
        spec = SweepSpec(kind, tuple(params), tuple(xis), average, mode, FAST_QUAD)
        table, _ = harness.sweep(spec)
        closed, closed_average, oracle, oracle_average = reference_columns(kind, params, xis, FAST_QUAD)
        if average:
            closed = np.column_stack([closed, closed_average])
            oracle = np.column_stack([oracle, oracle_average])
        if mode is SweepMode.ORACLE:
            assert table.closed_form is None and table.deviation is None
        else:
            assert table.closed_form.tobytes() == closed.tobytes()
        if mode is SweepMode.CLOSED_FORM:
            assert table.oracle is None and table.deviation is None
        else:
            assert table.oracle.tobytes() == oracle.tobytes()
        if mode is SweepMode.BOTH:
            assert table.deviation.tobytes() == np.abs(closed - oracle).tobytes()


# Every non-empty subset of the kinds, so that each kind's rows start at
# every offset the stacked tables can give them.
SUBSETS = [subset for size in range(1, len(KINDS) + 1) for subset in itertools.combinations(KINDS, size)]
XI_GRIDS = {"default_xis": None, "long_xis": LONG_XIS}


@functools.cache
def solo_report(kind, xis):
    """``kind``'s campaign alone on the named xi grid, itself checked against the reference."""
    [report] = harness.verify_formulas([kind], xi_grid=XI_GRIDS[xis])
    assert_report_is_the_reference(report, QuadratureSpec())
    return report


class TestStackedRows:
    @pytest.mark.parametrize("xis", XI_GRIDS)
    @pytest.mark.parametrize("subset", SUBSETS, ids=lambda subset: "-".join(kind.value for kind in subset))
    def test_each_kind_reads_its_own_rows(self, subset, xis):
        reports = harness.verify_formulas(subset, xi_grid=XI_GRIDS[xis])
        assert [report.kind for report in reports] == list(subset)
        for report in reports:
            solo = solo_report(report.kind, xis)
            assert (report.param_grid, report.xi_grid) == (solo.param_grid, solo.xi_grid)
            assert report.closed_form.tobytes() == solo.closed_form.tobytes()
            assert report.oracle.tobytes() == solo.oracle.tobytes()
            assert report.max_abs_deviation == solo.max_abs_deviation
            assert report.worst_point == solo.worst_point
            assert report.average_deviation == solo.average_deviation
            assert_report_is_the_reference(report, QuadratureSpec())

    def test_a_one_parameter_kind_is_a_row_of_a_longer_stack(self):
        # numpy hands a one-row product to another BLAS kernel than a stack's,
        # so such a kind's values equal a longer stack's row, not a lone
        # oracle's, which may differ from them in the last bit.
        grids = {kind: [kind.natural_range[1] / 3] for kind in KINDS}
        for report in harness.verify_formulas(KINDS, param_grids=grids, quad=FAST_QUAD):
            params, xis = [report.param_grid[0], report.kind.natural_range[1]], np.array(report.xi_grid)
            oracle = RotationAveragedOracle(channels.from_kind(report.kind, params), FAST_QUAD)
            assert report.oracle.tobytes() == oracle.fidelity_at(xis)[:1].tobytes()
            closed, _, _, _ = reference_columns(report.kind, params[:1], xis, FAST_QUAD)
            assert report.closed_form.tobytes() == closed.tobytes()
            lone = RotationAveragedOracle(channels.from_kind(report.kind, params[0]), FAST_QUAD)
            np.testing.assert_allclose(report.oracle[0], lone.fidelity_at(xis), rtol=0, atol=1e-15)


class Counter:
    """Counts the calls to a wrapped function, by its arguments when asked."""

    def __init__(self, function, key=None, calls=None):
        self.function, self.key = function, key
        self.calls = [] if calls is None else calls

    def __call__(self, *args, **kwargs):
        self.calls.append(None if self.key is None else self.key(*args, **kwargs))
        return self.function(*args, **kwargs)


@pytest.fixture
def counters(monkeypatch):
    """Counters on the weights, tables, clamps, closed-form rules, parameter checks and oracle steps."""
    counted = {
        "weights": Counter(fidelity._xi_weight, key=len),
        "tables": Counter(fidelity._fidelity_table,
                          key=lambda form, xis, xi_points=None: (len(form), len(xis), xi_points)),
        "clamps": Counter(fidelity._assert_and_clamp, key=np.shape),
        "coefficients": Counter(fidelity._coefficients, key=lambda kind, param: kind),
        "checks": Counter(channels.check_parameter, key=lambda kind, values: kind),
        "transfers": Counter(fidelity._transfer,
                             key=lambda operators: np.broadcast_shapes(*(np.shape(op)[:-2] for op in operators))),
        "averagings": Counter(fidelity._averaged_forms, key=lambda transfer, n: (len(transfer), n)),
        "oracles": Counter(RotationAveragedOracle.__init__, key=lambda self, channel, quad=None: channel.kind),
        "state_averages": Counter(RotationAveragedOracle.state_average),
    }
    for module, attribute, name in ((fidelity, "_xi_weight", "weights"), (fidelity, "_fidelity_table", "tables"),
                                    (fidelity, "_assert_and_clamp", "clamps"),
                                    (fidelity, "_coefficients", "coefficients"),
                                    (channels, "check_parameter", "checks"), (fidelity, "_transfer", "transfers"),
                                    (fidelity, "_averaged_forms", "averagings")):
        monkeypatch.setattr(module, attribute, counted[name])
    rules = []  # one list for every kind's rule, in call order
    for kind, rule in fidelity._CLOSED_FORMS.items():
        counter = Counter(rule, key=lambda params, kind=kind: kind, calls=rules)
        monkeypatch.setitem(fidelity._CLOSED_FORMS, kind, counter)
    counter_init, counter_average = counted["oracles"], counted["state_averages"]
    monkeypatch.setattr(RotationAveragedOracle, "__init__",
                        lambda self, *args, **kwargs: counter_init(self, *args, **kwargs))
    monkeypatch.setattr(RotationAveragedOracle, "state_average", lambda self: counter_average(self))
    return {"rules": rules, **{name: counter.calls for name, counter in counted.items()}}


def campaign_counts(sizes: list, xis: int, weights: list, checks=(), kinds=KINDS) -> dict:
    """The counters of a ``FAST_QUAD`` campaign of ``kinds`` of ``sizes`` parameters, both tables and the average column.

    Each kind's channel stack takes one transfer, and the joined stack one
    averaging; no ``RotationAveragedOracle`` is built.
    """
    members = sum(sizes)
    return {
        "rules": list(kinds), "weights": weights, "tables": [(members, xis, FAST_QUAD.xi_points)],
        "clamps": [(members, xis + 1)] * 2, "coefficients": [], "checks": list(checks),
        "transfers": [(size,) for size in sizes], "averagings": [(members, FAST_QUAD.rotation_points)],
        "oracles": [], "state_averages": [],
    }


class TestSharedWork:
    def test_default_campaign_builds_one_weight_for_every_kind(self, counters):
        harness.verify_formulas(KINDS, quad=FAST_QUAD)
        assert counters == campaign_counts([21, 21, 33, 33], 33, [33])

    def test_one_weight_per_xi_block_not_per_kind(self, counters):
        grids = {kind: np.linspace(*kind.natural_range, 2) for kind in KINDS}
        harness.verify_formulas(KINDS, param_grids=grids, xi_grid=LONG_XIS, quad=FAST_QUAD)
        block = fidelity.XI_BLOCK
        weights = [block] * (len(LONG_XIS) // block) + [len(LONG_XIS) % block]
        # each given grid is checked once, where it enters
        assert counters == campaign_counts([2] * len(KINDS), len(LONG_XIS), weights, checks=KINDS)

    def test_a_sweep_is_a_campaign_of_one(self, counters):
        kind = NoiseKind.PHASE_DAMPING
        harness.sweep(SweepSpec(kind, (0.1, 0.5), (0.0, 1.0, 2.0), True, SweepMode.BOTH, FAST_QUAD))
        assert counters == campaign_counts([2], 3, [3], checks=[kind], kinds=[kind])

    def test_closed_form_sweep_builds_no_oracle(self, counters):
        kind = NoiseKind.COLLECTIVE_DEPHASING
        harness.sweep(SweepSpec(kind, (0.1, 0.5), (0.0, 1.0), True, SweepMode.CLOSED_FORM, FAST_QUAD))
        assert counters == {"rules": [kind], "weights": [], "tables": [], "clamps": [(2, 3)],
                            "coefficients": [], "checks": [kind], "transfers": [], "averagings": [],
                            "oracles": [], "state_averages": []}

    def test_parameters_are_checked_once_where_they_enter(self, counters):
        # The default grids are the package's own, so a default verify checks none.
        assert cli.main(["verify"]) == 0
        assert counters["checks"] == []
        assert counters["tables"] == [(21 + 21 + 33 + 33, 33, QuadratureSpec().xi_points)]
        assert cli.main(["sweep", "--noise", "ad", "--grid", "0:1:5", "--xi-grid", "0,1", "--out", "-"]) == 0
        assert counters["checks"] == [NoiseKind.AMPLITUDE_DAMPING]
        assert counters["tables"] == [(21 + 21 + 33 + 33, 33, QuadratureSpec().xi_points)]
