import csv
import json
from pathlib import Path

import pytest

from cachediff.cli import main
from cachediff.tensor_io import read_tns


def write_small_config(tmp_path: Path, **extra) -> Path:
    data = {
        "unet": {
            "latent_channels": 2, "base_channels": [4, 5, 6, 7],
            "height": 8, "width": 8, "frames": 2,
            "audio_tokens": 3, "audio_dim": 4, "head_dim": 4, "time_dim": 8,
        },
        "schedule": {"T": 60, "steps": 6, "block_size": 3, "t_thresh_fraction": 0.5},
        "run": {"total_frames": 2, "out_dir": str(tmp_path / "default_out")},
    }
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_run_writes_report_latent_and_flops(tmp_path, capsys):
    cfg = write_small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["strategy"]["variant"] == "baseline"
    assert len(report["plan"]["sampled"]) == 6
    final = read_tns(out / "final.tns")
    assert final.shape == (2, 2, 8, 8)
    header, rows = read_rows(out / "flops.csv")
    assert header == ["timestep", "kind", "flops"]
    assert len(rows) == 6
    assert all(kind == "key" for _, kind, _ in rows)
    assert [int(t) for t, _, _ in rows] == report["plan"]["sampled"]
    line = capsys.readouterr().out.strip()
    assert line.startswith("run ok:")
    assert report["final_checksum"] in line


def test_run_repeats_byte_identical(tmp_path):
    cfg = write_small_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "final.tns").read_bytes() == (out2 / "final.tns").read_bytes()


def test_run_uses_config_out_dir_when_not_overridden(tmp_path):
    cfg = write_small_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "default_out" / "final.tns").exists()


def test_single_step_blocks_match_baseline_via_cli(tmp_path):
    cfg = write_small_config(tmp_path)
    base_out, lcp_out = tmp_path / "base", tmp_path / "lcp"
    main(["run", "--config", str(cfg), "--out", str(base_out)])
    main(["run", "--config", str(cfg), "--out", str(lcp_out),
          "--strategy", "lcp", "--plan", "N=1"])
    base = json.loads((base_out / "report.json").read_text())
    lcp = json.loads((lcp_out / "report.json").read_text())
    assert lcp["final_checksum"] == base["final_checksum"]


def test_full_mask_restriction_matches_unrestricted_via_cli(tmp_path):
    cfg = write_small_config(tmp_path)
    lcp_out, dfa_out = tmp_path / "lcp", tmp_path / "dfa"
    main(["run", "--config", str(cfg), "--out", str(lcp_out),
          "--strategy", "lcp", "--mask", "frac:1.0"])
    main(["run", "--config", str(cfg), "--out", str(dfa_out),
          "--strategy", "lcp_dfa", "--mask", "frac:1.0"])
    lcp = json.loads((lcp_out / "report.json").read_text())
    dfa = json.loads((dfa_out / "report.json").read_text())
    assert dfa["final_checksum"] == lcp["final_checksum"]
    assert dfa["totals"]["flops"] == lcp["totals"]["flops"]


def test_run_flags_reach_the_report(tmp_path):
    cfg = write_small_config(tmp_path)
    out = tmp_path / "out"
    code = main([
        "run", "--config", str(cfg), "--out", str(out),
        "--strategy", "lcp", "--estimation", "off", "--workers", "2",
        "--noise-seed", "7", "--weights-seed", "3", "--frames", "3",
        "--plan", "N=2,S=5,frac=0.8", "--mask", "rect:0,0,4,4",
    ])
    assert code == 0
    rc = json.loads((out / "report.json").read_text())["config"]
    assert rc["strategy"] == {
        "variant": "lcp", "estimation": False, "workers": 2,
        "dispatch_overhead_ns": 200_000,
    }
    assert rc["seeds"] == {"weights": 3, "noise": 7}
    assert rc["run"]["total_frames"] == 3
    assert rc["schedule"]["block_size"] == 2
    assert rc["schedule"]["steps"] == 5
    assert rc["schedule"]["t_thresh_fraction"] == 0.8
    assert rc["mask"] == "rect:0,0,4,4"
    assert read_tns(out / "final.tns").shape[1] == 3


def test_diagnose_writes_all_series(tmp_path, capsys):
    cfg = write_small_config(tmp_path)
    out = tmp_path / "diag"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_rows(out / "l2_series.csv")
    assert header == ["step", "distance"]
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
    for name in ("latent_l2_series.csv", "noise_l2_series.csv"):
        _, series = read_rows(out / name)
        assert len(series) == 5
        assert all(float(r[1]) >= 0 for r in series)
    header, rows = read_rows(out / "cosine_matrix.csv")
    assert header == ["i", "j", "cosine"]
    assert len(rows) == 36
    diag = {(int(i), int(j)): float(c) for i, j, c in rows}
    for i in range(6):
        assert abs(diag[(i, i)] - 1.0) <= 1e-6
        for j in range(6):
            assert abs(diag[(i, j)] - diag[(j, i)]) <= 1e-6
    header, rows = read_rows(out / "bg_l2_series.csv")
    assert header == ["site", "step", "distance"]
    assert {r[0] for r in rows} == {"reference", "audio", "temporal"}
    assert len(rows) == 15
    header, rows = read_rows(out / "fg_mass.csv")
    assert header == ["group", "mass"]
    assert {r[0] for r in rows} == {"fg_noisy", "bg_noisy", "fg_ref", "bg_ref"}
    assert abs(sum(float(r[1]) for r in rows) - 1.0) <= 1e-6
    assert capsys.readouterr().out.startswith("diagnose ok:")


def test_ablate_writes_table_and_json(tmp_path, capsys):
    cfg = write_small_config(tmp_path)
    out = tmp_path / "ab"
    assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_rows(out / "ablation.csv")
    assert header[:3] == ["label", "variant", "estimation"]
    assert [r[0] for r in rows] == ["baseline", "lcp_noest", "lcp", "lcp_dfa", "lcp_dfa_rm"]
    data = json.loads((out / "ablation.json").read_text())
    assert [row["label"] for row in data] == [r[0] for r in rows]
    assert data[0]["speedup"] == 1.0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 5
    assert all(line.startswith("ablate ") for line in printed)


def test_compare_prints_single_json_line(tmp_path, capsys):
    cfg = write_small_config(tmp_path)
    base_out, accel_out = tmp_path / "base", tmp_path / "accel"
    main(["run", "--config", str(cfg), "--out", str(base_out)])
    main(["run", "--config", str(cfg), "--out", str(accel_out), "--strategy", "lcp"])
    capsys.readouterr()
    dest = tmp_path / "cmp.json"
    code = main(["compare", str(base_out / "report.json"),
                 str(accel_out / "report.json"), "--out", str(dest)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    got = json.loads(lines[0])
    assert got["flops_ratio"] > 1.0
    assert got["same_final"] is False
    assert json.loads(dest.read_text()) == got


def test_compare_same_report_is_neutral(tmp_path, capsys):
    cfg = write_small_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert main(["compare", str(out / "report.json"), str(out / "report.json")]) == 0
    got = json.loads(capsys.readouterr().out.strip())
    assert got["speedup"] == 1.0
    assert got["same_final"] is True


@pytest.mark.parametrize("case", ["no_flops", "string_wall", "no_checksums", "config_list"])
def test_compare_rejects_malformed_reports_in_one_line(tmp_path, capsys, case):
    report = {"totals": {"modeled_wall_ns": 300, "flops": 30}, "final_checksum": "sha256:a"}
    first, second = json.loads(json.dumps(report)), json.loads(json.dumps(report))
    if case == "no_flops":
        del first["totals"]["flops"]
    elif case == "string_wall":
        second["totals"]["modeled_wall_ns"] = "300"
    elif case == "config_list":
        second["config"] = []
    else:
        del first["final_checksum"], second["final_checksum"]
    paths = []
    for name, doc in (("first", first), ("second", second)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    assert main(["compare", str(paths[0]), str(paths[1])]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: config:") and err.count("\n") == 1


def test_config_errors_exit_one(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: config:")
    cfg = write_small_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--set", "schedule.speed=9"]) == 1
    assert capsys.readouterr().err.startswith("error: config:")
    assert main(["run", "--config", str(cfg), "--plan", "Q=3"]) == 1
    assert capsys.readouterr().err.startswith("error: config:")
    assert main(["compare", str(missing), str(missing)]) == 1
    assert capsys.readouterr().err.startswith("error: config:")


# (section, field, value) a config file gives a field of another type
WRONG_TYPES = {
    "steps_string": ("schedule", "steps", "6"),
    "block_size_float": ("schedule", "block_size", 1.5),
    "total_frames_float": ("run", "total_frames", 2.0),
    "frames_float": ("unet", "frames", 2.0),
    "workers_float": ("strategy", "workers", 2.5),
    "noise_seed_float": ("seeds", "noise", 1.5),
    "estimation_string": ("strategy", "estimation", "off"),
    "base_channels_bool": ("unet", "base_channels", [4, 5, True, 7]),
    "removal_set_ints": ("unet", "removal_set", [1]),
}


@pytest.mark.parametrize("case", ["root_list"] + list(WRONG_TYPES))
def test_config_file_values_of_the_wrong_type_exit_one_in_one_line(tmp_path, capsys, case):
    cfg = write_small_config(tmp_path)
    data = json.loads(cfg.read_text())
    if case == "root_list":
        data = [data]
    else:
        section, name, value = WRONG_TYPES[case]
        data.setdefault(section, {})[name] = value
    cfg.write_text(json.dumps(data))
    out_dir = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--strategy", "lcp", "--out", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and not out_dir.exists()
    assert err.startswith("error: config:") and err.count("\n") == 1
    if case != "root_list":
        assert f"{WRONG_TYPES[case][0]}.{WRONG_TYPES[case][1]}" in err


def test_invariant_errors_exit_two(tmp_path, capsys):
    cfg = write_small_config(tmp_path)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--set", "schedule.beta_start=1e-20"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: invariant:")


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    assert "usage" in capsys.readouterr().err.lower()
