import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from eonrsa import (
    Instance,
    ProvisioningPlan,
    Request,
    SolveReport,
    builtin_topology,
    generate_inoc_style,
    load_instance,
    save_instance,
    solve,
)
from eonrsa.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_UNCERTIFIED,
    EXIT_USAGE,
    _build_parser,
    _load_or_generate,
    main,
    report_row,
    rows_to_csv,
    rows_to_markdown,
)


@pytest.fixture
def toy_instance_file(tmp_path, triangle):
    inst = Instance(
        topology=triangle,
        spectrum_slots=6,
        requests=(Request(0, "a", "b", 2), Request(1, "b", "c", 2)),
        name="toy",
    )
    path = tmp_path / "toy.json"
    path.write_bytes(save_instance(inst))
    return path


def test_generate_writes_instance(tmp_path):
    code = main(
        [
            "generate",
            "--topology",
            "spain21",
            "--load-tbps",
            "50",
            "--seed",
            "1",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    out = tmp_path / "spain21_50.json"
    assert out.exists()
    inst = load_instance(out.read_bytes())
    assert inst.total_demand_slots >= 2000  # 50 Tbps at 25 Gbps per slot


def test_generate_gives_fractional_loads_their_own_files(tmp_path):
    for load in ("1.5", "2.5"):
        source = ["--topology", "spain21", "--load-tbps", load]
        assert main(["generate", *source, "--out-dir", str(tmp_path)]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spain21_1.5.json", "spain21_2.5.json"]


def test_spectrum_override_gives_one_instance_from_a_file_or_a_topology(tmp_path):
    expected = generate_inoc_style(builtin_topology("spain21"), 2000.0, seed=3, spectrum_slots=16)
    source = ["--topology", "spain21", "--load-tbps", "2", "--seed", "3"]
    assert main(["generate", *source, "--out-dir", str(tmp_path / "full")]) == EXIT_OK
    (full,) = (tmp_path / "full").iterdir()
    assert load_instance(full.read_bytes()).spectrum_slots == 400  # the generator's default
    assert main(["generate", *source, "--spectrum", "16", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert load_instance((tmp_path / "spain21_2.json").read_bytes()) == expected
    for argv in (["--instance", str(full)], source):
        args = _build_parser().parse_args(["solve", *argv, "--spectrum", "16"])
        assert _load_or_generate(args) == expected


def test_solve_writes_all_outputs(tmp_path, toy_instance_file, capsys):
    code = main(
        [
            "solve",
            "--instance",
            str(toy_instance_file),
            "--gap",
            "0",
            "--out-dir",
            str(tmp_path),
            "--format",
            "csv",
        ]
    )
    assert code == EXIT_OK
    for name in ("report.csv", "report.md", "plan.json", "run.json"):
        assert (tmp_path / name).exists(), name
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert plan["throughput_slots"] == 4
    assert {r["request_id"] for r in plan["requests"]} == {0, 1}
    for entry in plan["requests"]:
        assert entry["start_slot"] >= 1 and entry["width"] >= 1 and entry["path_nodes"]
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["certified"] is True
    assert run["epsilon_tab"] == 0.0
    out = capsys.readouterr().out
    assert "toy" in out and "yes" in out


def test_run_json_reports_the_upper_bound(tmp_path, toy_instance_file):
    argv = ["solve", "--instance", str(toy_instance_file), "--out-dir", str(tmp_path)]
    assert main(argv + ["--format", "json"]) == EXIT_OK
    run = json.loads((tmp_path / "run.json").read_text())
    # both requests fit the spectrum, so their demand sum bounds every plan
    assert run["z_ub_slots"] == 4.0
    assert run["z_ilp_slots"] <= run["z_lp_star_slots"] <= run["z_ub_slots"]


def test_run_json_holds_every_report_field_but_the_prune_checks(
    tmp_path, toy_instance_file, monkeypatch
):
    import eonrsa.cli as cli

    solved = []

    def recording(*args):
        solved.append(solve(*args))
        return solved[-1]

    monkeypatch.setattr(cli, "solve", recording)
    argv = ["solve", "--instance", str(toy_instance_file), "--out-dir", str(tmp_path)]
    assert main(argv + ["--format", "json"]) == EXIT_OK
    run = json.loads((tmp_path / "run.json").read_text())
    report = solved[0][0]
    names = [f.name for f in dataclasses.fields(SolveReport)]
    assert names[0] == "instance_name" and names[-1] == "prune_checks"
    expected = {
        "instance": report.instance_name,
        **{name: getattr(report, name) for name in names[1:-1]},
        "lp_value_trace": report.lp_value_trace,
        "z_lp_star_tbps": report.z_lp_star_tbps,
        "z_ilp_tbps": report.z_ilp_tbps,
    }
    # the same keys in the same order, with the report's values
    assert list(run) == list(expected) and run == expected


def test_solve_require_certified_passes_on_certified(tmp_path, toy_instance_file):
    code = main(
        [
            "solve",
            "--instance",
            str(toy_instance_file),
            "--gap",
            "0",
            "--require-certified",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == EXIT_OK


def test_solve_require_certified_exits_2_when_uncertified(
    tmp_path, toy_instance_file, monkeypatch
):
    import eonrsa.cli as cli
    import eonrsa.solver as solver_mod

    real_solve = solver_mod.solve

    def uncertified(*args, **kwargs):
        report, plan = real_solve(*args, **kwargs)
        report.certified = False
        return report, plan

    monkeypatch.setattr(cli, "solve", uncertified)
    code = main(
        [
            "solve",
            "--instance",
            str(toy_instance_file),
            "--require-certified",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == EXIT_UNCERTIFIED


def test_solve_deterministic_rows_match(tmp_path, capsys):
    args = [
        "solve",
        "--topology",
        "spain21",
        "--load-tbps",
        "0.5",
        "--seed",
        "7",
        "--spectrum",
        "40",
        "--gap",
        "0",
        "--format",
        "csv",
    ]
    assert main(args + ["--out-dir", str(tmp_path / "r1")]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args + ["--out-dir", str(tmp_path / "r2")]) == EXIT_OK
    second = capsys.readouterr().out
    timing_columns = {"lp_sec", "ilp_sec", "total_sec"}
    strip = lambda text: [
        {k: v for k, v in row.items() if k not in timing_columns}
        for row in csv.DictReader(text.splitlines())
    ]
    assert strip(first) == strip(second)  # identical modulo timing columns
    assert "certified" in strip(first)[0]


def test_verify_prints_bound_sandwich(toy_instance_file, capsys):
    code = main(["verify", "--instance", str(toy_instance_file)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "z_ilp=" in out and "z_oracle=" in out and "z_lp_star=" in out


def test_verify_rejects_large_instances(tmp_path, capsys):
    code = main(
        [
            "generate",
            "--topology",
            "spain21",
            "--load-tbps",
            "1",
            "--seed",
            "2",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    code = main(["verify", "--instance", str(tmp_path / "spain21_1.json")])
    assert code == EXIT_FAILURE


def test_guardband_cap_refused_with_clear_error(tmp_path, capsys, two_node):
    reqs = tuple(Request(i, "a", "b", 1) for i in range(13))
    inst = Instance(topology=two_node, spectrum_slots=8, requests=reqs, name="toomany")
    path = tmp_path / "toomany.json"
    path.write_bytes(save_instance(inst))
    code = main(
        ["solve", "--instance", str(path), "--guardband", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_FAILURE
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["bundled", "highs"])
def test_guardband_grants_both_same_pair_requests(tmp_path, two_node, backend):
    # windows of 2 and 3 slots do not both fit in 4, but one fused 4-slot
    # window carries both requests
    inst = Instance(
        topology=two_node,
        spectrum_slots=4,
        requests=(Request(0, "a", "b", 2), Request(1, "a", "b", 3)),
        name="pair",
    )
    path = tmp_path / "pair.json"
    path.write_bytes(save_instance(inst))
    for flags, granted in (["--guardband"], 5.0), ([], 3.0):
        out = tmp_path / ("with" if flags else "without")
        argv = ["solve", "--instance", str(path), "--gap", "0", "--backend", backend]
        assert main(argv + flags + ["--require-certified", "--out-dir", str(out)]) == EXIT_OK
        run = json.loads((out / "run.json").read_text())
        assert run["z_ilp_slots"] == granted and run["certified"] is True


def test_cross_process_determinism(tmp_path):
    import eonrsa

    args = [
        sys.executable,
        "-m",
        "eonrsa.cli",
        "solve",
        "--topology",
        "spain21",
        "--load-tbps",
        "0.3",
        "--seed",
        "9",
        "--spectrum",
        "30",
        "--gap",
        "0",
    ]
    # the directory that holds the imported package: src/ in a checkout,
    # site-packages in an install
    package_root = str(Path(eonrsa.__file__).resolve().parents[1])
    timing_columns = {"lp_sec", "ilp_sec", "total_sec"}
    outputs = []
    for run, hash_seed in (("p1", "0"), ("p2", "12345")):
        out_dir = tmp_path / run
        env = {"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root}
        proc = subprocess.run(
            args + ["--out-dir", str(out_dir)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        report_rows = [
            {k: v for k, v in row.items() if k not in timing_columns}
            for row in csv.DictReader((out_dir / "report.csv").read_text().splitlines())
        ]
        run_json = json.loads((out_dir / "run.json").read_text())
        outputs.append(
            (
                (out_dir / "plan.json").read_text(),
                report_rows,
                run_json["lp_value_trace"],
                run_json["columns_generated"],
            )
        )
    assert outputs[0] == outputs[1]


def test_malformed_instance_exits_1_without_a_traceback(tmp_path):
    import eonrsa

    path = tmp_path / "bad.json"
    path.write_text('{"spectrum_slots": 4, "topology_id": "atlantis", "requests": []}')
    package_root = str(Path(eonrsa.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "eonrsa.cli", "solve", "--instance", str(path)],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode == EXIT_FAILURE
    assert proc.stderr.startswith("error: ") and "topology_id" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--no-such-flag"])
    assert err.value.code == EXIT_USAGE


@pytest.mark.parametrize("command", ["generate", "solve", "verify"])
def test_missing_instance_source_is_usage_error_with_reason(command, tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = [command, "--topology", "spain21"]
    with pytest.raises(SystemExit) as err:
        main(argv + (["--out-dir", str(out_dir)] if command != "verify" else []))
    assert err.value.code == EXIT_USAGE
    err_lines = capsys.readouterr().err.strip().splitlines()
    # generate has no --instance option, so its message does not name one
    sources = "--topology and --load-tbps"
    if command != "generate":
        sources = "--instance, or " + sources
    assert err_lines == [f"{command} requires {sources}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["generate", "solve", "verify"])
@pytest.mark.parametrize("spectrum", ["0", "-3"])
def test_non_positive_spectrum_is_usage_error_with_reason(
    command, spectrum, tmp_path, toy_instance_file, capsys
):
    source = {
        "generate": ["--topology", "spain21", "--load-tbps", "0.5", "--out-dir", str(tmp_path)],
        "solve": ["--instance", str(toy_instance_file), "--out-dir", str(tmp_path)],
        "verify": ["--instance", str(toy_instance_file)],
    }[command]
    with pytest.raises(SystemExit) as err:
        main([command, *source, "--spectrum", spectrum])
    assert err.value.code == EXIT_USAGE
    err_text = capsys.readouterr().err
    assert "--spectrum" in err_text and "positive" in err_text
    assert sorted(path.name for path in tmp_path.iterdir()) == ["toy.json"]


def test_non_integer_spectrum_names_the_int_type(toy_instance_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--instance", str(toy_instance_file), "--spectrum", "abc"])
    assert err.value.code == EXIT_USAGE
    assert "argument --spectrum: invalid int value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "solve"])
@pytest.mark.parametrize("load", ["nan", "0", "-1"])
def test_load_not_positive_and_finite_is_usage_error_with_reason(command, load, tmp_path, capsys):
    argv = [command, "--topology", "spain21", "--load-tbps", load, "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    err_text = capsys.readouterr().err
    assert "--load-tbps" in err_text and "positive" in err_text
    assert not any(tmp_path.iterdir())


def test_generate_refuses_instance(tmp_path, toy_instance_file, capsys):
    out_dir = tmp_path / "out"
    argv = ["generate", "--instance", str(toy_instance_file), "--topology", "spain21"]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--load-tbps", "0.5", "--out-dir", str(out_dir)])
    assert err.value.code == EXIT_USAGE
    assert "unrecognized arguments: --instance" in capsys.readouterr().err
    assert not out_dir.exists()


def test_solve_tolerance_flag_is_gone(tmp_path, toy_instance_file):
    argv = ["solve", "--instance", str(toy_instance_file), "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--tolerance", "1e-6"])
    assert err.value.code == EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == EXIT_USAGE


def _report(**fields) -> SolveReport:
    base = dict(
        instance_name="golden",
        spectrum_slots=40,
        num_requests=12,
        offered_load_gbps=250.0,
        slot_rate_gbps=25.0,
        z_lp_star_slots=10.0,
        z_ilp_slots=9.0,
        z_ub_slots=12.0,
        epsilon_lp=0.1,
        epsilon_tab=0.0025,
        gos_percent=2.25,
        certified=True,
        timed_out=False,
        outer_iterations=3,
        columns_generated=7,
        final_ilp_gap=0.0,
        timings={"lp_phase": 0.35, "ilp_phase": 0.45, "total": 0.75},
        prune_checks=[(9.5, 9.5), (10.0, 10.0)],
    )
    return SolveReport(**{**base, **fields})


CSV_HEADER = (
    "instance,spectrum_slots,num_requests,offered_load_tbps,z_lp_star_tbps,z_ub_tbps,"
    "z_ilp_tbps,epsilon_pct,gos_pct,lp_sec,ilp_sec,total_sec,certified\r\n"
)
MD_HEAD = (
    "| Instance | \\|S\\| | \\|D\\| | Load (Tbps) | z_LP* (Tbps) | z_UB (Tbps) | z_ILP (Tbps) "
    "| eps (%) | GoS (%) | LP (s) | ILP (s) | Total (s) | Certified |\n"
    "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n"
)

# Halfway cells: 0.25 Tbps, 0.25 %, 2.25 %, 0.35 s, 0.45 s, 0.75 s, 1.35 Tbps,
# 1.25 Tbps, 16.25 %, 79.625 %, 2.25 s, 2.675 s. The expected bytes are copied
# from CLI output, not derived from `COLUMNS`, so any change to them shows here.
GOLDEN = {
    "certified": (
        _report(),
        CSV_HEADER + "golden,40,12,0.2,0.2,0.3,0.2,0.2,2.2,0.3,0.5,0.8,yes\r\n",
        MD_HEAD + "| golden | 40 | 12 | 0.2 | 0.2 | 0.3 | 0.2 | 0.2 | 2.2 | 0.3 | 0.5 | 0.8 | yes |\n",
    ),
    "uncertified": (
        _report(
            instance_name="",
            spectrum_slots=400,
            num_requests=3,
            offered_load_gbps=1350.0,
            slot_rate_gbps=12.5,
            z_lp_star_slots=100.0,
            z_ilp_slots=86.0,
            z_ub_slots=120.0,
            epsilon_tab=0.1625,
            gos_percent=79.625,
            certified=False,
            timings={"lp_phase": 2.25, "ilp_phase": 0.05, "total": 2.675},
        ),
        CSV_HEADER + "instance,400,3,1.4,1.2,1.5,1.1,16.2,79.6,2.2,0.1,2.7,no\r\n",
        MD_HEAD + "| instance | 400 | 3 | 1.4 | 1.2 | 1.5 | 1.1 | 16.2 | 79.6 | 2.2 | 0.1 | 2.7 | no |\n",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_files_are_golden(case, tmp_path, toy_instance_file, monkeypatch, capsys):
    import eonrsa.cli as cli

    report, csv_text, md_text = GOLDEN[case]
    plan = ProvisioningPlan(assignments={}, throughput_slots=0, slot_rate_gbps=25.0)
    monkeypatch.setattr(cli, "solve", lambda instance, config, requests: (report, plan))
    argv = ["solve", "--instance", str(toy_instance_file), "--out-dir", str(tmp_path)]
    echoed = {}
    for fmt in ("csv", "md", "json"):
        assert main(argv + ["--format", fmt]) == EXIT_OK
        echoed[fmt] = capsys.readouterr().out
    assert (tmp_path / "report.csv").read_bytes() == csv_text.encode()
    assert (tmp_path / "report.md").read_bytes() == md_text.encode()
    assert echoed == {
        "csv": csv_text,
        "md": md_text,
        "json": (tmp_path / "run.json").read_text(),
    }


def test_run_json_is_golden(tmp_path, toy_instance_file, monkeypatch):
    # copied from CLI output: the LP trace, the second values of the prune checks, is
    # written after the timings
    import eonrsa.cli as cli

    plan = ProvisioningPlan(assignments={}, throughput_slots=0, slot_rate_gbps=25.0)
    monkeypatch.setattr(cli, "solve", lambda instance, config, requests: (_report(), plan))
    argv = ["solve", "--instance", str(toy_instance_file), "--out-dir", str(tmp_path)]
    assert main(argv + ["--format", "json"]) == EXIT_OK
    assert (tmp_path / "run.json").read_text() == RUN_JSON


RUN_JSON = """{
  "instance": "golden",
  "spectrum_slots": 40,
  "num_requests": 12,
  "offered_load_gbps": 250.0,
  "slot_rate_gbps": 25.0,
  "z_lp_star_slots": 10.0,
  "z_ilp_slots": 9.0,
  "z_ub_slots": 12.0,
  "epsilon_lp": 0.1,
  "epsilon_tab": 0.0025,
  "gos_percent": 2.25,
  "certified": true,
  "timed_out": false,
  "outer_iterations": 3,
  "columns_generated": 7,
  "final_ilp_gap": 0.0,
  "timings": {
    "lp_phase": 0.35,
    "ilp_phase": 0.45,
    "total": 0.75
  },
  "lp_value_trace": [
    9.5,
    10.0
  ],
  "z_lp_star_tbps": 0.25,
  "z_ilp_tbps": 0.225
}
"""


def test_result_table_headers_show_the_upper_bound_after_z_lp():
    assert rows_to_csv([]) == CSV_HEADER
    assert rows_to_markdown([]) == MD_HEAD
    header = MD_HEAD.splitlines()[0].split(" | ")
    assert header[header.index("z_LP* (Tbps)") + 1] == "z_UB (Tbps)"
    # z_ub_slots in Tbps, as the other bounds: 14 slots of 25 Gbps are 0.35 Tbps
    cells = dict(zip(CSV_HEADER.strip().split(","), report_row(_report(z_ub_slots=14.0))))
    assert cells["z_ub_tbps"] == f"{14.0 * 25.0 / 1000.0:.1f}" == "0.3"


def test_markdown_preserves_input_order():
    rows = [
        report_row(_report(instance_name="a", certified=True)),
        report_row(_report(instance_name="b", certified=False)),
    ]
    md = rows_to_markdown(rows)
    lines = md.strip().splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert lines[2].startswith("| a |") and lines[3].startswith("| b |")


OUT_OF_RANGE = [
    *[(command, "--gap", gap) for command in ("solve", "verify") for gap in ("nan", "1.5", "-0.1")],
    *[("solve", "--time-limit", limit) for limit in ("nan", "-1", "inf")],
]


@pytest.mark.parametrize("command, flag, value", OUT_OF_RANGE)
def test_out_of_range_gap_or_time_limit_is_usage_error_with_reason(
    command, flag, value, tmp_path, toy_instance_file, capsys
):
    argv = [command, "--instance", str(toy_instance_file), flag, value]
    if command == "solve":
        argv += ["--out-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    reason = "[0, 1)" if flag == "--gap" else "finite and non-negative"
    err_text = capsys.readouterr().err
    assert f"argument {flag}: must be" in err_text and reason in err_text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--gap", "1.5"), ("--spectrum", "0"), ("--loads", "nan")])
def test_run_benchmark_out_of_range_value_is_usage_error_with_reason(flag, value):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmark.py"
    argv = [sys.executable, str(script), "--suite", "backbone", flag, value]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2  # argparse's usage error
    assert "Traceback" not in proc.stderr
    assert f"argument {flag}: must be" in proc.stderr
    assert proc.stdout == ""


def test_run_benchmark_help_keeps_the_lines_of_its_description():
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmark.py"
    argv = [sys.executable, str(script), "--help"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert "  conference  - one request per sampled node pair, demands 1..8 slots," in lines
    assert "  backbone    - load spread over all node pairs, demands {4,8,16} slots with" in lines
    assert "  python scripts/run_benchmark.py --suite conference --backend highs" in lines
    assert "  python scripts/run_benchmark.py --suite backbone --loads 5 10 --spectrum 100" in lines
