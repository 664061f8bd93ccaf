import dataclasses
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moe_prune import cli, evaluation
from moe_prune import prune as prune_module
from moe_prune.cli import main
from moe_prune.moe_sim import PlantedSpec, load_cache, load_layer, save_cache, save_layer
from moe_prune.prune import load_plan, prune_enum
from moe_prune.tensor_store import read_archive, write_archive

from conftest import make_random_cache, make_random_layer


def run(args):
    return main(args)


def write_config(tmp_path, **overrides):
    config = {
        "model": {
            "n_domains": 3,
            "specialists_per_domain": 2,
            "n_generalists": 2,
            "duplicate_noise": 0.05,
            "domain_separation": 20.0,
            "seed": 77,
            "hidden_dim": 16,
            "ff_dim": 32,
            "top_k": 2,
        },
        "calibration": {"tokens_per_domain": 24, "seed": 1},
        "heldout": {"tokens_per_domain": 24, "seed": 2},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config[key].update(value)
        else:
            config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture
def pipeline(tmp_path):
    """Config + generated model/calibration/heldout archives."""
    config = write_config(tmp_path)
    model = str(tmp_path / "model")
    calib = str(tmp_path / "calib")
    heldout = str(tmp_path / "heldout")
    assert run(["gen-model", "--config", config, "--out", model]) == 0
    assert run(["gen-calib", "--config", config, "--model", model, "--out", calib]) == 0
    assert run([
        "gen-calib", "--config", config, "--model", model,
        "--role", "heldout", "--out", heldout,
    ]) == 0
    return config, model, calib, heldout


def test_gen_model_default_has_8_experts(tmp_path, capsys):
    out = str(tmp_path / "model")
    assert run(["gen-model", "--out", out]) == 0
    layer = load_layer(out)
    assert layer.n_experts == 8
    printed = capsys.readouterr().out
    assert "config hash:" in printed
    assert "router: [8, 16] f32" in printed
    assert (tmp_path / "model.provenance.json").exists()


def test_provenance_per_output_in_one_directory(tmp_path):
    runs = tmp_path / "runs"
    model, calib = str(runs / "model"), str(runs / "calib")
    assert run(["gen-model", "--seed", "5", "--out", model]) == 0
    assert run(["gen-calib", "--model", model, "--seed", "77", "--out", calib]) == 0
    hashes = set()
    for prefix, command, seeds in ((model, "gen-model", (5, 2024)),
                                   (calib, "gen-calib", (1234, 77))):
        doc = json.loads(Path(prefix + ".provenance.json").read_text())
        assert doc["command"] == command
        assert (doc["config"]["model"]["seed"], doc["config"]["calibration"]["seed"]) == seeds
        assert doc["config_hash"] == cli.config_hash(doc["config"])
        assert read_archive(prefix)[0].metadata["config_hash"] == doc["config_hash"]
        hashes.add(doc["config_hash"])
    assert len(hashes) == 2
    assert not (runs / "provenance.json").exists()


def test_gen_model_hash_stable(tmp_path, capsys):
    config = write_config(tmp_path)
    run(["gen-model", "--config", config, "--out", str(tmp_path / "a")])
    first = capsys.readouterr().out.splitlines()[0]
    run(["gen-model", "--config", config, "--out", str(tmp_path / "b")])
    second = capsys.readouterr().out.splitlines()[0]
    assert first == second
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_equal_seeds_rejected_before_writing(tmp_path, capsys):
    config = write_config(tmp_path, calibration={"seed": 5}, heldout={"seed": 5})
    out = str(tmp_path / "sub" / "model")
    assert run(["gen-model", "--config", config, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "calibration.seed" in err
    assert not os.path.exists(out + ".json")
    assert not os.path.exists(out + ".bin")


@pytest.mark.parametrize(
    "doc, named", [([1, 2], "root"), ({"model": 3}, "'model'"), ({"heldout": []}, "'heldout'")]
)
def test_non_object_config_rejected_before_writing(tmp_path, capsys, doc, named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = str(tmp_path / "model")
    assert run(["gen-model", "--config", str(config), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(config) in err and named in err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_config_value_of_wrong_type_rejected_from_command_line(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"seed": "x"}}))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "moe_prune.cli", "gen-model", "--config", str(config),
         "--out", str(tmp_path / "model")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: config {config}: model.seed must be int, got str\n"
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"model": {"top_k": 2.0}}, "model.top_k must be int, got float"),
        ({"calibration": {"seed": True}}, "calibration.seed must be int, got bool"),
        ({"model": {"domain_separation": "20"}}, "model.domain_separation must be float, got str"),
        ({"model": {"sed": 5}}, "unknown key 'model.sed'"),
        ({"methods": []}, "unknown key 'methods'"),
    ],
)
def test_config_value_types_checked(tmp_path, capsys, doc, named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert run(["gen-model", "--config", str(config), "--out", str(tmp_path / "model")]) == 1
    assert named in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize(
    "raw", [b'{"model": {"seed": 5},}', b'{"model": {"seed": 5}', b'{"model": "\xff"}']
)
def test_malformed_config_named_before_writing(tmp_path, capsys, raw):
    config = tmp_path / "config.json"
    config.write_bytes(raw)
    assert run(["gen-model", "--config", str(config), "--out", str(tmp_path / "model")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {config}: not valid JSON: ")
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_config_int_accepted_for_float(tmp_path):
    path = write_config(tmp_path, model={"domain_separation": 20, "duplicate_noise": 0})
    assert cli.load_config(path)["model"]["domain_separation"] == 20


def test_default_config_holds_only_what_the_commands_read():
    assert set(cli.DEFAULT_CONFIG) == {"model", "calibration", "heldout"}
    spec_fields = {field.name for field in dataclasses.fields(PlantedSpec)}
    assert set(cli.DEFAULT_CONFIG["model"]) == spec_fields | {"hidden_dim", "ff_dim", "top_k"}
    for role in ("calibration", "heldout"):
        assert set(cli.DEFAULT_CONFIG[role]) == {"tokens_per_domain", "seed"}


def test_seed_flags_match_equivalent_config(tmp_path):
    # each flag run and its config run share one effective config, so even
    # the manifests (which carry its hash) are byte-identical
    config = write_config(tmp_path)
    run(["gen-model", "--config", config, "--seed", "5", "--out", str(tmp_path / "flag")])
    config = write_config(tmp_path, model={"seed": 5})
    run(["gen-model", "--config", config, "--out", str(tmp_path / "conf")])
    run(["gen-calib", "--config", config, "--model", str(tmp_path / "conf"),
         "--seed", "7", "--tokens-per-domain", "10", "--out", str(tmp_path / "flag_calib")])
    config = write_config(tmp_path, model={"seed": 5},
                          calibration={"seed": 7, "tokens_per_domain": 10})
    run(["gen-calib", "--config", config, "--model", str(tmp_path / "conf"),
         "--out", str(tmp_path / "conf_calib")])
    for name in ("", "_calib"):
        for ext in (".bin", ".json"):
            flag, conf = (tmp_path / f"{side}{name}{ext}" for side in ("flag", "conf"))
            assert flag.read_bytes() == conf.read_bytes()
    assert load_cache(str(tmp_path / "flag_calib")).n_tokens == 3 * 10


def test_heldout_seed_flag_equal_to_calibration_seed_rejected(pipeline, tmp_path, capsys):
    config, model, calib, heldout = pipeline
    before = sorted(os.listdir(tmp_path))
    code = run(["gen-calib", "--config", config, "--model", model, "--role", "heldout",
                "--seed", "1", "--out", str(tmp_path / "sub" / "heldout")])
    assert code == 1
    assert "calibration.seed must differ from heldout.seed" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_prune_mop_provenance_split(pipeline, tmp_path, capsys):
    config, model, calib, heldout = pipeline
    plan_path = str(tmp_path / "plan_mop")
    code = run([
        "prune", "--model", model, "--cache", calib,
        "--method", "mop", "--r", "4", "--m", "2",
        "--kmeans-seed", "3", "--out", plan_path,
    ])
    assert code == 0
    plan = load_plan(plan_path)
    assert plan.provenance.count("general") == 2
    assert plan.provenance.count("diversity") == 2
    printed = capsys.readouterr().out
    assert "general:" in printed and "diversity:" in printed


def test_prune_m_defaults_to_half_of_r(pipeline, tmp_path):
    config, model, calib, heldout = pipeline
    plan_path = str(tmp_path / "default_m" / "plan")
    assert run(["prune", "--model", model, "--cache", calib,
                "--method", "mop", "--r", "4", "--out", plan_path]) == 0
    assert load_plan(plan_path).params["m"] == 2
    provenance = json.loads((tmp_path / "default_m" / "plan.provenance.json").read_text())
    assert provenance["config"]["m"] is None


def test_prune_enum_auto_exhaustive_diagnostics(pipeline, tmp_path, capsys):
    config, model, calib, heldout = pipeline
    plan_path = str(tmp_path / "plan_enum")
    code = run([
        "prune", "--model", model, "--cache", calib,
        "--method", "enum", "--r", "6", "--out", plan_path,
    ])
    assert code == 0
    plan = load_plan(plan_path)
    assert plan.method == "enum_exhaustive"
    assert len(plan.diagnostics["losses"]) == 28  # C(8, 6)
    assert "subsets examined: 28" in capsys.readouterr().out


def test_prune_writes_plan_with_nan_losses(tmp_path):
    # every subset that keeps expert 5 overflows its logits and scores NaN;
    # the plan keeps those losses, and its archive stores them as they are
    rng = np.random.default_rng(3)
    layer = make_random_layer(rng, n=6, hidden=8, ff=16, top_k=2)
    cache = make_random_cache(rng, layer)
    layer.router[5] = 3e38
    model, calib, plan_path = (str(tmp_path / name) for name in ("model", "calib", "plan"))
    save_layer(layer, model)
    save_cache(cache, calib)
    with np.errstate(over="ignore", invalid="ignore"):
        want = prune_enum(cache, layer, 3, mode="exhaustive")
        assert run(["prune", "--model", model, "--cache", calib, "--method", "enum_exhaustive",
                    "--r", "3", "--out", plan_path]) == 0
    got = load_plan(plan_path)
    assert got.kept == want.kept == [0, 1, 4]
    assert np.isnan(want.diagnostics["losses"]).sum() == 10
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key in ("subsets", "losses"):
        assert got.diagnostics[key].tobytes() == want.diagnostics[key].tobytes(), key
    assert got.diagnostics["best_loss"] == want.diagnostics["best_loss"]


def test_invalid_method_usage_error(pipeline, tmp_path, capsys):
    config, model, calib, heldout = pipeline
    with pytest.raises(SystemExit) as excinfo:
        run([
            "prune", "--model", model, "--cache", calib,
            "--method", "bogus", "--r", "4", "--out", str(tmp_path / "x"),
        ])
    assert excinfo.value.code == 2


def test_eval_full_set_plan_zero_losses(pipeline, tmp_path, capsys):
    config, model, calib, heldout = pipeline
    plan_path = str(tmp_path / "plan_all")
    run(["prune", "--model", model, "--cache", calib,
         "--method", "random", "--r", "8", "--seed", "0", "--out", plan_path])
    out_dir = str(tmp_path / "eval_all")
    assert run(["eval", "--model", model, "--plan", plan_path,
                "--heldout", heldout, "--out", out_dir]) == 0
    report = (tmp_path / "eval_all" / "report.csv").read_text().splitlines()
    header = report[0].split(",")
    values = report[1].split(",")
    assert values[header.index("overall_loss")] == "0.000000"
    assert values[header.index("worst_domain_loss")] == "0.000000"
    assert (tmp_path / "eval_all" / "heatmap_domain2.csv").exists()
    assert (tmp_path / "eval_all" / "provenance.json").exists()


def test_report_aggregates_rows(pipeline, tmp_path, capsys):
    config, model, calib, heldout = pipeline
    for method, r in (("mop", 4), ("gvp", 4), ("enum_greedy", 4)):
        plan_path = str(tmp_path / f"plan_{method}")
        run(["prune", "--model", model, "--cache", calib,
             "--method", method, "--r", str(r), "--m", "1", "--out", plan_path])
        run(["eval", "--model", model, "--plan", plan_path,
             "--heldout", heldout, "--out", str(tmp_path / f"eval_{method}")])
    capsys.readouterr()
    table_path = str(tmp_path / "summary.csv")
    assert run(["report", "--dir", str(tmp_path), "--out", table_path]) == 0
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 3 runs
    assert lines[0].startswith("run,method")
    printed = capsys.readouterr().out
    assert "eval_mop" in printed


def test_report_empty_dir_fails(tmp_path, capsys):
    os.makedirs(tmp_path / "nothing")
    assert run(["report", "--dir", str(tmp_path / "nothing")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no report.csv files under {tmp_path / 'nothing'}\n"


def test_report_mismatched_headers_fail_without_output(tmp_path, capsys):
    tables = {"a": "method,d0,d1\nmop,1,2\n", "b": "method,d0,d1,d2\ngvp,1,2,3\n"}
    for name, text in tables.items():
        os.makedirs(tmp_path / "evals" / name)
        (tmp_path / "evals" / name / "report.csv").write_text(text)
    out = tmp_path / "summary.csv"
    assert run(["report", "--dir", str(tmp_path / "evals"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert os.path.join("evals", "a", "report.csv") in captured.err
    assert os.path.join("evals", "b", "report.csv") in captured.err
    assert not out.exists()


@pytest.mark.parametrize("others", [{}, {"b": "method,d0\ngvp,1\n"}], ids=["only", "mixed"])
def test_report_without_data_row_fails_without_output(tmp_path, capsys, others):
    for name, text in {"a": "method,d0\n", **others}.items():
        os.makedirs(tmp_path / "evals" / name)
        (tmp_path / "evals" / name / "report.csv").write_text(text)
    out = tmp_path / "summary.csv"
    assert run(["report", "--dir", str(tmp_path / "evals"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'evals' / 'a' / 'report.csv'} has no data row\n"
    assert not out.exists()


@pytest.mark.parametrize("method, seeds, message", [
    ("random", ["--seed", "-3", "--kmeans-seed", "5"], "seed must be >= 0, got -3"),
    ("mop", ["--seed", "5", "--kmeans-seed", "-3"], "kmeans_seed must be >= 0, got -3"),
], ids=["random", "mop"])
def test_negative_seed_named(pipeline, tmp_path, capsys, method, seeds, message):
    # numpy's own error, "expected non-negative integer", names no flag
    config, model, calib, heldout = pipeline
    capsys.readouterr()
    plan = tmp_path / "plan"
    assert run(["prune", "--model", model, "--cache", calib, "--method", method,
                "--r", "4", *seeds, "--out", str(plan)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "plan.json").exists()


def test_prune_failure_removes_partial_outputs(pipeline, tmp_path, capsys):
    config, model, calib, heldout = pipeline
    plan_path = str(tmp_path / "bad_plan")
    code = run([
        "prune", "--model", model, "--cache", calib,
        "--method", "enum_exhaustive", "--r", "4",
        "--budget", "3", "--out", plan_path,
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(plan_path + ".json")


def test_failed_plan_write_leaves_no_diagnostics(pipeline, tmp_path, capsys):
    config, model, calib, heldout = pipeline
    plan_path = tmp_path / "p" / "plan"
    (tmp_path / "p" / "plan.json").mkdir(parents=True)  # the plan's own write fails
    code = run(["prune", "--model", model, "--cache", calib,
                "--method", "mop", "--r", "4", "--out", str(plan_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "p" / "plan.diag.json").exists()
    assert not (tmp_path / "p" / "plan.diag.bin").exists()


def test_archive_of_wrong_kind_named(pipeline, tmp_path, capsys):
    config, model, calib, heldout = pipeline
    code = run(["prune", "--model", calib, "--cache", calib,
                "--method", "frequency", "--r", "4", "--out", str(tmp_path / "plan")])
    assert code == 1
    err = capsys.readouterr().err
    assert calib in err and "moe_layer" in err


def test_interrupt_removes_written_archive(tmp_path, monkeypatch):
    out = str(tmp_path / "model")

    def interrupt(*args):
        raise KeyboardInterrupt

    # the layer archive is on disk when the provenance write is interrupted
    monkeypatch.setattr(cli, "_write_provenance", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(["gen-model", "--out", out])
    assert not os.path.exists(out + ".json")
    assert not os.path.exists(out + ".bin")


def _snapshot(root):
    """Every path under `root`: a file's bytes, None for a directory."""
    tree = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames:
            tree[os.path.relpath(os.path.join(dirpath, name), root)] = None
        for name in filenames:
            path = os.path.join(dirpath, name)
            tree[os.path.relpath(path, root)] = Path(path).read_bytes()
    return tree


def _committed(root):
    """`_snapshot(root)`, checked to hold no staging directory."""
    tree = _snapshot(root)
    assert not [path for path in tree if ".moe-prune-" in path]
    return tree


def _prune(model, calib, r, out):
    return run(["prune", "--model", model, "--cache", calib, "--method", "mop",
                "--r", str(r), "--out", out])


def test_failed_plan_rerun_keeps_earlier_plan(pipeline, tmp_path, monkeypatch, capsys):
    config, model, calib, heldout = pipeline
    plan = str(tmp_path / "p")
    assert _prune(model, calib, 4, plan) == 0
    before = _committed(tmp_path)
    real_save_plan = prune_module.save_plan

    def save_plan_then_full_disk(plan, path):
        real_save_plan(plan, path)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(prune_module, "save_plan", save_plan_then_full_disk)
    assert _prune(model, calib, 3, plan) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert _snapshot(tmp_path) == before


def test_interrupted_plan_rerun_keeps_earlier_plan(pipeline, tmp_path, monkeypatch):
    config, model, calib, heldout = pipeline
    plan = str(tmp_path / "p")
    assert _prune(model, calib, 4, plan) == 0
    before = _committed(tmp_path)

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_write_provenance", interrupt)
    with pytest.raises(KeyboardInterrupt):
        _prune(model, calib, 3, plan)
    assert _snapshot(tmp_path) == before


def test_failed_eval_rerun_keeps_earlier_report(pipeline, tmp_path, monkeypatch, capsys):
    config, model, calib, heldout = pipeline
    plan, out = str(tmp_path / "p"), str(tmp_path / "eval")
    assert _prune(model, calib, 4, plan) == 0
    argv = ["eval", "--model", model, "--plan", plan, "--heldout", heldout, "--out", out]
    assert run(argv) == 0
    assert run(["report", "--dir", out, "--out", str(tmp_path / "summary.csv")]) == 0
    assert _prune(model, calib, 3, plan) == 0  # a new plan, so a rerun changes the report
    before = _committed(tmp_path)

    def first_file_then_full_disk(report, path_prefix):
        Path(f"{path_prefix}_domain0.csv").write_text("layer\n")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(evaluation, "export_heatmap_csv", first_file_then_full_disk)
    assert run(argv) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert _snapshot(tmp_path) == before


def test_calibration_spec_with_other_planted_domains_rejected(tmp_path, capsys):
    # 2 x 3 + 2 and the default 3 x 2 + 2 both have 8 experts
    model, calib = str(tmp_path / "model"), str(tmp_path / "calib")
    assert run(["gen-model", "--out", model]) == 0
    config = write_config(tmp_path, model={"n_domains": 2, "specialists_per_domain": 3})
    capsys.readouterr()
    assert run(["gen-calib", "--config", config, "--model", model, "--out", calib]) == 1
    err = capsys.readouterr().err
    assert "[0, 0, 1, 1, 2, 2, -1, -1]" in err and "[0, 0, 0, 1, 1, 1, -1, -1]" in err
    assert not os.path.exists(calib + ".json")


def test_missing_router_array_named(pipeline, tmp_path, capsys):
    config, model, calib, heldout = pipeline
    manifest, arrays = read_archive(model)
    broken = str(tmp_path / "no_router")
    del arrays["router"]
    write_archive(broken, arrays, manifest.metadata)
    code = run(["prune", "--model", broken, "--cache", calib,
                "--method", "frequency", "--r", "4", "--out", str(tmp_path / "plan")])
    assert code == 1
    err = capsys.readouterr().err
    assert broken in err and "'router'" in err


def test_missing_metadata_key_named(pipeline, tmp_path, capsys):
    config, model, calib, heldout = pipeline
    manifest, arrays = read_archive(model)
    broken = str(tmp_path / "no_top_k")
    metadata = dict(manifest.metadata)
    del metadata["top_k"]
    write_archive(broken, arrays, metadata)
    code = run(["gen-calib", "--config", config, "--model", broken,
                "--out", str(tmp_path / "calib")])
    assert code == 1
    err = capsys.readouterr().err
    assert broken in err and "'top_k'" in err and "metadata" in err


def _json_edit(edit):
    """A change that applies `edit` to the JSON document at `<prefix>.json`."""
    def change(prefix):
        with open(prefix + ".json", encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # writes inf as Infinity
    return change


def _document(**fields):
    return _json_edit(lambda doc: doc.update(fields))


def _first_array(**fields):
    return _json_edit(lambda doc: doc["arrays"][0].update(fields))


def _metadata(**fields):
    return _json_edit(lambda doc: doc["metadata"].update(fields))


def _diagnostics_path(prefix):
    # an absolute path to the plan's own diagnostics: readable, but not a bare name
    _document(diagnostics_archive=os.path.abspath(prefix + ".diag"))(prefix)


def _negative_source_domain(prefix):
    manifest, arrays = read_archive(prefix)
    arrays["source_domain"][0] = -1
    write_archive(prefix, arrays, manifest.metadata)


# the input to break, how, and the field the error must name with its file
MALFORMED = {
    "metadata_list": ("model", _document(metadata=[]), "metadata"),
    "shape_infinity": ("model", _first_array(shape=[float("inf"), 16]), "arrays[0].shape[0]"),
    "shape_string": ("model", _first_array(shape="816"), "arrays[0].shape"),
    "format_version_string": ("model", _document(format_version="1"), "format_version"),
    "dtype_swapped": ("model", _first_array(dtype="i32"), "'router' is i32, expected f32"),
    "n_experts_text": ("model", _metadata(n_experts="abc"), "n_experts"),
    "n_experts_above_router": ("model", _metadata(n_experts="9"), "n_experts"),
    "n_experts_huge": ("model", _metadata(n_experts="1000000"), "n_experts"),
    "params_scalar": ("plan", _document(params=1), "params"),
    "params_seed_text": (
        "plan", _json_edit(lambda doc: doc["params"].update(seed="1,2")), "params.seed"
    ),
    "kept_float": ("plan", _document(kept=1e308), "kept"),
    "kept_out_of_range": ("plan", _document(kept=[0, 1, 2, 99]), "kept index out of range"),
    "diagnostics_archive_int": ("plan", _document(diagnostics_archive=5), "diagnostics_archive"),
    "diagnostics_archive_absolute": ("plan", _diagnostics_path, "diagnostics_archive"),
    "diagnostics_archive_parent": (
        "plan", _document(diagnostics_archive="../plan.diag"), "diagnostics_archive"
    ),
    "diagnostics_archive_missing": (
        "plan", _document(diagnostics_archive="missing"), "diagnostics_archive"
    ),
    "source_domain_negative": ("heldout", _negative_source_domain, "source_domain"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_fails_by_name(pipeline, tmp_path, capsys, case):
    config, model, calib, heldout = pipeline
    plan = str(tmp_path / "plan")
    assert run(["prune", "--model", model, "--cache", calib, "--method", "mop",
                "--r", "4", "--out", plan]) == 0
    target, change, field = MALFORMED[case]
    prefix = {"model": model, "plan": plan, "heldout": heldout}[target]
    change(prefix)
    capsys.readouterr()
    code = run(["eval", "--model", model, "--plan", plan, "--heldout", heldout,
                "--out", str(tmp_path / "eval")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ")
    assert prefix in err and field in err, err


def test_cli_import_leaves_numpy_unloaded():
    # numpy's import would dominate the start-up of the parser and of `report`
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, moe_prune.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _loaded_modules(importtime_stderr):
    """Module names from the `-X importtime` lines of a process's stderr."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:")
    }


def test_eval_leaves_numpy_ma_unloaded(tmp_path):
    # importing numpy.ma costs an eval process about 16 ms
    model, calib, heldout = (str(tmp_path / name) for name in ("model", "calib", "heldout"))
    plan, out = str(tmp_path / "plan"), str(tmp_path / "eval")
    assert run(["gen-model", "--out", model]) == 0
    assert run(["gen-calib", "--model", model, "--out", calib]) == 0
    assert run(["gen-calib", "--model", model, "--role", "heldout", "--out", heldout]) == 0
    assert run(["prune", "--model", model, "--cache", calib, "--method", "mop",
                "--r", "4", "--out", plan]) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "moe_prune.cli", "eval", "--model", model,
         "--plan", plan, "--heldout", heldout, "--out", out],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules = _loaded_modules(proc.stderr)
    assert "moe_prune.evaluation" in modules
    assert not {m for m in modules if m == "numpy.ma" or m.startswith("numpy.ma.")}


def test_report_leaves_numpy_and_dataclasses_unloaded(tmp_path):
    # importing dataclasses (and with it inspect, ast and dis) costs a report process about 11 ms
    os.makedirs(tmp_path / "evals" / "a")
    (tmp_path / "evals" / "a" / "report.csv").write_text("method,d0\nmop,1\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "moe_prune.cli", "report",
         "--dir", str(tmp_path / "evals")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    modules = _loaded_modules(proc.stderr)
    assert "moe_prune" in modules
    assert not modules & {"numpy", "dataclasses"}


def test_evaluate_plan_leaves_numpy_ma_unloaded():
    # in a fresh interpreter: the test process has loaded numpy.ma (scipy does)
    code = """if True:
        import sys
        from moe_prune.evaluation import compare_methods
        from moe_prune.moe_sim import PlantedSpec, generate_calibration, generate_layer
        spec = PlantedSpec(n_domains=3, specialists_per_domain=2, n_generalists=2,
                           duplicate_noise=0.05, domain_separation=20.0, seed=5)
        layer = generate_layer(spec, hidden_dim=16, ff_dim=32, top_k=2)
        calib = generate_calibration(layer, spec, 32, seed=6)
        heldout = generate_calibration(layer, spec, 32, seed=7)
        configs = [dict(method=m, r=4, m=2, seed=1, kmeans_seed=1) for m in ("gvp", "mop")]
        rows = compare_methods(layer, calib, heldout, configs)
        assert all(row["coverage"] is not None for row in rows)
        assert "numpy.ma" not in sys.modules, "numpy.ma loaded"
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_pipeline_determinism(pipeline, tmp_path):
    """Criterion-9-style check at module scope: rerunning every stage with the
    same config produces byte-identical archives, plans, and CSVs."""
    config, model, calib, heldout = pipeline
    redo_model = str(tmp_path / "redo_model")
    redo_calib = str(tmp_path / "redo_calib")
    run(["gen-model", "--config", config, "--out", redo_model])
    run(["gen-calib", "--config", config, "--model", redo_model, "--out", redo_calib])
    for a, b in ((model, redo_model), (calib, redo_calib)):
        for suffix in (".bin", ".json"):
            assert Path(a + suffix).read_bytes() == Path(b + suffix).read_bytes()

    plans, diags = [], []
    for run_dir in ("runA", "runB"):
        plan_path = str(tmp_path / run_dir / "plan")
        run(["prune", "--model", model, "--cache", calib,
             "--method", "mop", "--r", "4", "--m", "1",
             "--kmeans-seed", "9", "--out", plan_path])
        plans.append(Path(plan_path + ".json").read_bytes())
        diags.append(Path(plan_path + ".diag.bin").read_bytes())
    assert plans[0] == plans[1]
    assert diags[0] == diags[1]
