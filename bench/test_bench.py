"""Tests of the benchmark itself: seeded inputs, span arithmetic, tracing, catalogue.

    python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
from workloads import KINDS, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    make = WORKLOADS[name]
    first = json.dumps(make(7, tmp_path).inputs())
    assert json.dumps(make(7, tmp_path).inputs()) == first
    others = {json.dumps(make(seed, tmp_path).inputs()) for seed in range(8)}
    assert len(others) > 1


def test_work_per_pass_does_not_depend_on_the_seed(tmp_path):
    for seed in (0, 1, 2):
        message = WORKLOADS["message"](seed, tmp_path)
        assert sum(len(m["bits"]) for m in message.fixed) == 10**4
        assert sorted(m["kind"] for m in message.resample) == sorted(KINDS)
        rounds = WORKLOADS["run"](seed, tmp_path).rounds
        assert len(rounds) == 2000
        assert {kind: sum(r[0] == kind for r in rounds) for kind in KINDS + ("none",)} == dict.fromkeys(
            KINDS + ("none",), 400)
        sweep = WORKLOADS["sweep"](seed, tmp_path)
        assert [s[0] for s in sweep.sweeps] == list(KINDS)


def test_self_time_subtracts_the_interval_children_cover():
    tree = [
        [0, 0.0, 10.0, -1],  # root
        [0, 1.0, 4.0, 0],    # child
        [0, 2.0, 3.0, 1],    # grandchild
        [0, 5.0, 9.0, 0],    # child
        [0, 20.0, 30.0, -1],  # second root, overlapping children
        [0, 21.0, 25.0, 4],
        [0, 23.0, 27.0, 4],
        [0, 29.0, 31.0, 4],  # sticks out of its parent: clipped at 30
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0, 3.0, 4.0, 4.0, 2.0])


def test_instrument_records_one_round_and_restores_the_originals():
    import threestage
    from threestage import cli, fidelity, harness, protocol

    main, run_protocol = cli.main, protocol.run_protocol
    init = harness.RotationAveragedOracle.__init__
    recorder = spans.Recorder()
    with spans.instrument(recorder):
        assert cli.main is not main and threestage.run_protocol is protocol.run_protocol
        argv = ["run", "--noise", "ad", "--param", "0.3", "--xi", "0.2",
                "--alice-angle", "1", "--bob-angle", "2"]
        assert cli.main(argv) == 0
        fidelity.rotation_averaged_fidelity(
            threestage.amplitude_damping(0.5), 0.1, fidelity.QuadratureSpec(8, 8))
    stats = recorder.stats()
    assert cli.main is main and protocol.run_protocol is run_protocol
    assert threestage.run_protocol is run_protocol
    assert harness.RotationAveragedOracle.__init__ is init
    assert stats["cli.main.calls"] == 1 and stats["cli.main.failed"] == 0
    assert stats["protocol.run_protocol.calls"] == 1
    assert stats["channels.apply_channel.calls"] == 3
    assert stats["algebra.conjugate_by.calls"] == 4
    assert stats["fidelity.oracle_build.calls"] == 1
    assert stats["fidelity.oracle_build.grid_points"] == 64
    roots = [s for s in recorder.spans if s[3] == -1]
    assert sum(spans.self_times(recorder.spans)) == pytest.approx(sum(s[2] - s[1] for s in roots))
    assert all(own >= 0.0 for own in spans.self_times(recorder.spans))


def test_benchmark_json_matches_what_the_runs_report():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == spans.per_layer_metrics()


def test_host_speed_scales_a_time_by_the_samples_around_it():
    from hostspeed import HostSpeed

    speed = HostSpeed()
    speed.at, speed.slowdown = [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 2.0, 4.0, 1.0]
    assert speed.adjust(0.5, 1.2, 1.7) == pytest.approx(0.25)  # samples at 1 and 2
    assert speed.adjust(0.5, 10.0, 10.5) == pytest.approx(0.5)  # only the nearest, at 4
    assert speed.adjust(1.0, 0.9, 3.2) == pytest.approx(0.5)  # median of 2, 2, 4


def test_host_speed_samples_inside_a_long_operation():
    import time

    from hostspeed import INTERVAL_S, LONGEST_S, HostSpeed

    speed = HostSpeed()
    with speed.inside():
        deadline = time.perf_counter() + LONGEST_S + 3 * INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    with speed.inside():
        pass
    assert 2 <= len(speed.at) <= 5
    assert speed.kernel_s > 0.0
