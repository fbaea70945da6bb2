"""Command line interface, driven through main() with captured output."""

import json

import pytest

from vouchnet import cli
from vouchnet.cli import main
from vouchnet.scenario import AppSpec, Scenario, WorkloadSpec


@pytest.fixture()
def scenario_file(tmp_path):
    sc = Scenario(seed=9, epochs=2, node_count=6, topology="complete",
                  apps=[AppSpec(name="maps", payload_bytes=32)],
                  workload=WorkloadSpec(requests_per_epoch=2))
    sc.formation.max_degree = 12
    path = tmp_path / "scenario.json"
    sc.to_file(path)
    return path


def test_verify_bandwidth_prints_reference_costs(capsys):
    assert main(["verify-bandwidth", "--peers", "10", "--width", "224"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "reply_bits 2240" in out
    assert "mac_bits 2240" in out
    assert "verify_bits 4480" in out
    assert "total_bits 8960" in out


def test_verify_bandwidth_scales_with_width(capsys):
    assert main(["verify-bandwidth", "--peers", "10", "--width", "256"]) == 0
    out = capsys.readouterr().out
    assert "total_bits 10240" in out


def test_verify_bandwidth_refuses_negative_peers(capsys):
    assert main(["verify-bandwidth", "--peers", "-3", "--width", "224"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "--peers" in captured.err
    assert "total_bits" not in captured.out


def test_verify_bandwidth_refuses_unsupported_width(capsys):
    assert main(["verify-bandwidth", "--peers", "10", "--width", "100"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "--width" in captured.err
    assert "total_bits" not in captured.out


def test_run_writes_artifacts(tmp_path, scenario_file, capsys):
    out_dir = tmp_path / "artifacts"
    assert main(["run", str(scenario_file), "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "retrievals 4" in printed
    assert "log_digest " in printed
    for name in ("metrics.jsonl", "epochs.csv", "overhead.csv",
                 "summary.json", "events.jsonl"):
        assert (out_dir / name).exists(), name
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["retrievals"] == 4
    events = [json.loads(ln) for ln in
              (out_dir / "events.jsonl").read_text().splitlines()]
    assert events[0]["kind"] == "epoch"


def test_run_seed_override_changes_digest(scenario_file, capsys):
    main(["run", str(scenario_file)])
    first = capsys.readouterr().out
    main(["run", str(scenario_file), "--seed", "123"])
    second = capsys.readouterr().out
    digest = lambda text: [ln for ln in text.splitlines()
                           if ln.startswith("log_digest")][0]
    assert digest(first) != digest(second)


def test_run_rejects_missing_file(capsys):
    assert main(["run", "/nonexistent/scenario.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_rejects_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"node_count": -3, "mystery_knob": 1}')
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "mystery_knob" in err


def test_sweep_emits_csv(tmp_path, scenario_file, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"protocol.quorum": [0.5, 0.7]}))
    out_csv = tmp_path / "rows.csv"
    assert main(["sweep", str(scenario_file), "--grid", str(grid),
                 "--out", str(out_csv)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("protocol.quorum,runs,")
    assert len(printed) == 3
    assert out_csv.read_text().splitlines() == printed


def test_sweep_rejects_bad_grid(tmp_path, scenario_file, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"protocol.quorum": []}))
    assert main(["sweep", str(scenario_file), "--grid", str(grid)]) == 1
    assert "error:" in capsys.readouterr().err
    grid.write_text(json.dumps([1, 2, 3]))
    assert main(["sweep", str(scenario_file), "--grid", str(grid)]) == 1
    capsys.readouterr()


def test_report_round_trip(tmp_path, scenario_file, capsys):
    out_dir = tmp_path / "artifacts"
    main(["run", str(scenario_file), "--out", str(out_dir)])
    run_lines = set(capsys.readouterr().out.splitlines())
    assert main(["report", str(out_dir)]) == 0
    report_lines = set(capsys.readouterr().out.splitlines())
    assert report_lines == run_lines


def test_report_needs_summary(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert "summary.json" in capsys.readouterr().err


def test_sweep_reports_malformed_grid_json(tmp_path, scenario_file, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('{"protocol.quorum": [0.5,')
    assert main(["sweep", str(scenario_file), "--grid", str(grid)]) == 1
    assert "error:" in capsys.readouterr().err


def test_report_reports_malformed_summary_json(tmp_path, capsys):
    (tmp_path / "summary.json").write_text('{"retrievals": ')
    assert main(["report", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_artifacts_never_contain_key_material(tmp_path, scenario_file):
    # every serialized artifact is scanned for every live pairwise key
    out_dir = tmp_path / "artifacts"
    assert main(["run", str(scenario_file), "--out", str(out_dir)]) == 0

    from vouchnet import Simulation
    sim = Simulation(Scenario.from_file(scenario_file))
    sim.run()
    secrets = [store[n].material.hex()
               for store in sim.graph.keystores.values()
               for n in store]
    assert secrets, "scenario formed no keyed links; test is vacuous"

    for path in sorted(out_dir.iterdir()):
        blob = path.read_text(encoding="utf-8").lower()
        for secret in secrets:
            assert secret not in blob, f"key material leaked into {path.name}"


@pytest.mark.parametrize("summary", ["[1, 2]", '"abc"'])
def test_report_refuses_summary_that_is_not_an_object(tmp_path, capsys, summary):
    (tmp_path / "summary.json").write_text(summary)
    assert main(["report", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_reports_out_path_that_is_a_file(tmp_path, scenario_file, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", str(scenario_file), "--out", str(taken)]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_reports_scenario_path_that_is_a_directory(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_refuses_bad_out_path_before_simulating(tmp_path, scenario_file, capsys,
                                                    monkeypatch):
    calls = []

    def recorder(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    real_run = cli.run
    monkeypatch.setattr(cli, "run", recorder)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", str(scenario_file), "--out", str(taken / "artifacts")]) == 1
    assert "error:" in capsys.readouterr().err
    assert calls == []


def test_sweep_refuses_bad_out_path_before_sweeping(tmp_path, scenario_file, capsys,
                                                    monkeypatch):
    calls = []

    def recorder(*args, **kwargs):
        calls.append(args)
        return real_sweep(*args, **kwargs)

    real_sweep = cli.sweep
    monkeypatch.setattr(cli, "sweep", recorder)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"protocol.quorum": [0.5]}))
    assert main(["sweep", str(scenario_file), "--grid", str(grid),
                 "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("reps, grid", [
    (0, {"protocol.quorum": [0.5]}),
    (1, {"compromise.fraction": [0.1, 1.5]}),
])
def test_refused_sweep_leaves_existing_out_file(tmp_path, scenario_file, capsys, reps, grid):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    out_csv = tmp_path / "results.csv"
    out_csv.write_text("earlier,results\n1,2\n3,4\n")
    assert main(["sweep", str(scenario_file), "--grid", str(grid_path),
                 "--reps", str(reps), "--out", str(out_csv)]) == 1
    assert "error:" in capsys.readouterr().err
    assert out_csv.read_text() == "earlier,results\n1,2\n3,4\n"


def test_sweep_replaces_a_longer_out_file(tmp_path, scenario_file, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"protocol.quorum": [0.5]}))
    out_csv = tmp_path / "results.csv"
    out_csv.write_text("x" * 10_000 + "\n")
    assert main(["sweep", str(scenario_file), "--grid", str(grid),
                 "--out", str(out_csv)]) == 0
    assert out_csv.read_text().splitlines() == capsys.readouterr().out.splitlines()
