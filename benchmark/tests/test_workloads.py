import json

import pytest

import workloads
from dmimo.experiments import load_experiment

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_bytes(name):
    a = workloads.experiment_bytes(workloads.generate(name, 7))
    b = workloads.experiment_bytes(workloads.generate(name, 7))
    assert a == b
    assert workloads.sha256(a) == workloads.sha256(b)


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_different_draws(name):
    a = workloads.generate(name, 7)
    b = workloads.generate(name, 8)
    assert a["errors"] != b["errors"]
    assert a["seed"] != b["seed"]
    if name != "mc_reference":      # the reference geometry is fixed
        assert a["scenario"]["tau_s"] != b["scenario"]["tau_s"]
        assert a["scenario"]["doppler_hz"] != b["scenario"]["doppler_hz"]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [0, 1, 2, 99, 12345])
def test_draws_stay_in_valid_domain(name, seed):
    doc = workloads.generate(name, seed)
    sc, err = doc["scenario"], doc["errors"]
    for row_tau, row_dt in zip(sc["tau_s"], err["dt_s"]):
        for tau, dt in zip(row_tau, row_dt):
            assert 0.0 <= tau < sc["pri_s"]
            assert tau + dt >= 0.0
    if name != "mc_reference":      # reference Dopplers are 200 / 190 Hz
        # distinct Dopplers per receiver keep the HD steering full rank
        for n in range(sc["n_rx"]):
            col = sorted(sc["doppler_hz"][m][n] for m in range(sc["m_tx"]))
            assert min(b - a for a, b in zip(col, col[1:])) > 25.0


@pytest.mark.parametrize("name", NAMES)
def test_generated_file_parses(name, tmp_path):
    doc = workloads.generate(name, 3)
    path = tmp_path / "exp.json"
    path.write_bytes(workloads.experiment_bytes(doc))
    spec = load_experiment(path)
    assert spec.scenario.m_tx == doc["scenario"]["m_tx"]
    assert spec.scenario.n_rx == doc["scenario"]["n_rx"]
    assert len(spec.sweep_values) == doc["sweep"]["points"]
    assert json.loads(path.read_text()) == doc


def test_workload_shapes():
    mc = workloads.generate("mc_reference", 0)
    assert mc["trials"] % workloads.BLOCK_TRIALS == 0
    assert mc["colocated_benchmark"] is True
    assert mc["scenario"]["waveform_set"] == "single_band"
    array = workloads.generate("analytic_array", 0)["scenario"]
    assert (array["m_tx"], array["n_rx"], array["k_pulses"]) == (8, 8, 64)
    assert array["target"]["model"] == "fixed"
    wide = workloads.generate("analytic_wideband", 0)
    tbp = wide["scenario"]["bandwidth_hz"] * wide["scenario"]["pulse_s"]
    assert round(tbp) == 5000
    beta = wide["scenario"]["bandwidth_hz"]
    assert all(abs(dt) <= 0.5 / beta for row in wide["errors"]["dt_s"]
               for dt in row)


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        workloads.generate("nope", 1)
