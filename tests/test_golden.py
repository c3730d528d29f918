"""Golden reports: every built-in x algorithm reproduces recorded bytes.

Each case hashes, for seeds 0-2, the report CSV row plus the trace CSV
of a short run with SHA-256.  The digests were recorded before the
per-slot loops were merged into one kernel; a change to any decision,
backlog, drop or statistic shows up as a digest mismatch.
"""

import hashlib

import numpy as np
import pytest

from lyapnet import scenarios, sim

V = 20.0
SLOTS = 2000
SHORT = dict(general_T=200, general_K=3, bisect_T1=50)

GOLDEN = {
    ("five-queue-chain", "qla"):
        "f20a8e0800a02def6828d67d6fbe429fb7cdd726ea752af3b3d1e1f3e3e7d7d8",
    ("five-queue-chain", "fqla-ideal"):
        "617661e2368f3044fcc87eaad912730e20845540ec371802c46aa50a8dd67f06",
    ("five-queue-chain", "fqla-general"):
        "a5439f96324b759be25ef80ee19653b373388b2d92772f847b49c39c85882c0b",
    ("five-queue-chain", "fqla-bisect"):
        "77ef567f0fc68306938e434b172cae7149cd9581f4ebaf907be9269f075d7f92",
    ("two-queue", "qla"):
        "6c3c7043528fa8e32ed99033cac34931795e829d066b4a0e60b0837baa265a44",
    ("two-queue", "fqla-ideal"):
        "8e20a65fbe4998f1d2cb22a150805a6fc5c17a1be0d0161186f2cb662275f0c0",
    ("two-queue", "fqla-general"):
        "e58665b8d13d1aa79d0b1de2b066c5be73a5ba7727519dc47768e062b5bf8d7d",
    ("two-queue", "fqla-bisect"):
        "f52e4807d9ac31f9bd27a4ac1259481fbda0f4e2d6c53ab33ec516e68883c5fe",
    ("single-queue-continuous", "qla"):
        "3789b7fb2042809a6dfc60b8ef6afb31ace14e3062dfc226e56c0e91273ed4cb",
    ("single-queue-continuous", "fqla-ideal"):
        "c6757d70609dc7bc38f7c3cb4962a379fa5f4f4b1d5c073b9fce1b7e746e7e7f",
    ("single-queue-continuous", "fqla-general"):
        "edf507937a7c7904b0942d32054dd3f8bd62b51fa4ab70963c856867a4b6fb97",
    ("single-queue-continuous", "fqla-bisect"):
        "90bf3e1fcc3eac29378e9317faaaeb7c110df4ea9c44ecbf9c5fb5ba240f3589",
    ("single-queue-discrete", "qla"):
        "38fdb18aeb3dce2ce7fb4b63a3e9868996169e530aec45bdb2b6cebb2a1f70c8",
    ("single-queue-discrete", "fqla-ideal"):
        "4435a6f92267f9fcc9b087a50540e0792a1c7640f926746e673e141f7de6d79d",
    ("single-queue-discrete", "fqla-general"):
        "637964669a8598e5ab2f1e60036b4b9e416717f849722ac434f5b7dbe5ecd6bd",
    ("single-queue-discrete", "fqla-bisect"):
        "663d4b043b69f5aeb53c6f74025e3efe19a456881f1adc14e10959b5b75f6f07",
}
GOLDEN_INITIAL_BACKLOG = "e5e145abcee80d9a7c1babb071229fddb3c73c8acc99c6577d082bbd3a4d2450"


def digest(configs, tmp_path):
    h = hashlib.sha256()
    path = tmp_path / "trace.csv"
    for cfg in configs:
        rep = sim.run(cfg)
        h.update((",".join(sim.report_csv_row(rep)) + "\n").encode())
        sim.write_trace_csv(rep, str(path))
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name,algorithm", list(GOLDEN))
def test_golden_reports(name, algorithm, tmp_path):
    handle = scenarios.by_name(name)
    configs = [sim.RunConfig(scenario=handle, V=V, algorithm=algorithm, slots=SLOTS, seed=seed,
                             record_trace=True, **SHORT)
               for seed in range(3)]
    assert digest(configs, tmp_path) == GOLDEN[name, algorithm]


def test_golden_initial_backlog(tmp_path):
    cfg = sim.RunConfig(scenario=scenarios.by_name("five-queue-chain"), V=V, slots=SLOTS,
                        seed=1, record_trace=True,
                        initial_backlog=np.array([150.0, 90.0, 40.0, 12.5, 0.0]))
    assert digest([cfg], tmp_path) == GOLDEN_INITIAL_BACKLOG
