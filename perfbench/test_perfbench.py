"""The benchmark's production call site works whether or not the API still
accepts the ``svec``/``coalesce`` switches, so retiring them from
``run_byzantine_agreement`` needs no edit to the benchmark.  Also pins the
bypassed-layer check and the host-speed scaling of ``run.py``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro import run_byzantine_agreement  # noqa: E402
from run import REFERENCE_KERNEL_S, bypassed_calls, slowdowns  # noqa: E402
from workloads import AGGREGATION_SWITCHES, VoteSweep, production_switches  # noqa: E402

#: What the real API accepts today (all switches now, none once retired).
REAL = production_switches(run_byzantine_agreement)


def _forward(inputs, config, **kwargs):
    return run_byzantine_agreement(inputs, config, **kwargs)


def api_with_switches(
    inputs, config, coin="svss", adversary=None, scheduler=None,
    trace_level=None, monitor=None, svec=False, coalesce=False,
):
    api_with_switches.seen = {"svec": svec, "coalesce": coalesce}
    switches = {key: value for key, value in api_with_switches.seen.items() if key in REAL}
    return _forward(
        inputs, config, coin=coin, adversary=adversary, scheduler=scheduler,
        trace_level=trace_level, monitor=monitor, **switches,
    )


def api_without_switches(
    inputs, config, coin="svss", adversary=None, scheduler=None,
    trace_level=None, monitor=None,
):
    return _forward(
        inputs, config, coin=coin, adversary=adversary, scheduler=scheduler,
        trace_level=trace_level, monitor=monitor,
    )


def _decide(api):
    workload = VoteSweep(api=api)
    return workload, workload.decide(workload.spec(seed=7, index=0))


def test_switches_are_passed_while_the_api_accepts_them():
    workload, outcome = _decide(api_with_switches)
    assert workload.switches == {"svec": True, "coalesce": True}
    assert api_with_switches.seen == {"svec": True, "coalesce": True}
    assert outcome.ok, outcome.reason


def test_call_site_works_once_the_switches_are_retired():
    workload, outcome = _decide(api_without_switches)
    assert workload.switches == {}
    assert outcome.ok, outcome.reason


def test_real_api_call_site():
    assert set(REAL) <= set(AGGREGATION_SWITCHES)
    workload, outcome = _decide(run_byzantine_agreement)
    assert workload.switches == REAL
    assert outcome.ok and outcome.rounds >= 1 and outcome.msgs > 0, outcome


def test_a_call_to_a_bypassed_layer_is_reported():
    assert bypassed_calls("vote_sweep", {"broadcast": 40, "sim": 90, "dmm": 0}) == {}
    assert bypassed_calls("vote_sweep", {"broadcast": 40, "dmm": 3}) == {"dmm": 3}
    assert bypassed_calls("net_votes", {"codec": 12, "algebra": 1}) == {"algebra": 1}


def test_each_interval_is_scaled_by_its_bracketing_probes():
    ref = REFERENCE_KERNEL_S
    assert slowdowns([ref, 3 * ref, ref]) == [2.0, 2.0]
    assert slowdowns([ref]) == []
