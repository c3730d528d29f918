import numpy as np
import pytest

from lyapnet import scenarios, sim
from lyapnet.model import ActionRecord, NetworkSpec, StateSpec


@pytest.fixture
def five():
    return scenarios.by_name("five-queue-chain")


@pytest.fixture
def two():
    return scenarios.by_name("two-queue")


@pytest.fixture
def contq():
    return scenarios.by_name("single-queue-continuous")


@pytest.fixture
def discq():
    return scenarios.by_name("single-queue-discrete")


LONG_TRACE_SLOTS = 9000  # more rows than one block of sim.write_trace_csv


@pytest.fixture(scope="session")
def long_qla_report():
    """A 9000-slot single-queue-continuous qla run with its trace (empty W columns)."""
    return sim.run(sim.RunConfig(scenario=scenarios.by_name("single-queue-continuous"), V=50.0,
                                 slots=LONG_TRACE_SLOTS, seed=4, record_trace=True))


@pytest.fixture(scope="session")
def long_fqla_report():
    """A 9000-slot five-queue-chain fqla-ideal run with its trace."""
    return sim.run(sim.RunConfig(scenario=scenarios.by_name("five-queue-chain"), V=50.0,
                                 algorithm="fqla-ideal", slots=LONG_TRACE_SLOTS, seed=4,
                                 record_trace=True))


@pytest.fixture
def tiny_spec():
    """Two queues, two states, hand-checkable numbers."""
    return NetworkSpec(
        name="tiny",
        r=2,
        delta_max=2.0,
        states=[
            StateSpec(0.25, [
                ActionRecord(0.0, [0.0, 0.0], [0.0, 0.0]),
                ActionRecord(1.0, [2.0, 0.0], [0.0, 1.0]),
            ]),
            StateSpec(0.75, [
                ActionRecord(0.5, [1.0, 1.0], [1.0, 0.0]),
                ActionRecord(2.0, [0.0, 0.0], [2.0, 2.0]),
            ]),
        ],
    )


@pytest.fixture
def zero_traffic_spec():
    """One queue that never sees an arrival; every action is free."""
    return NetworkSpec(
        name="silent",
        r=1,
        delta_max=1.0,
        states=[StateSpec(1.0, [ActionRecord(0.0, [0.0], [1.0]),
                                ActionRecord(0.0, [0.0], [0.0])])],
    )
