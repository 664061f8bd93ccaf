"""The default-config CLI pipeline, pinned file by file.

`gen-model`, both `gen-calib` roles, `prune` + `eval` for every method
choice at r = 4, m = 1, then `report`, all in process through `cli.main`.
The sha256 of every file written must equal the manifest recorded in
golden_pipeline.json, so a change that moves any plan, loss or archive
byte fails here. Plans and losses come from matrix products, so the hashes
hold for numpy 2.4 with OpenBLAS 0.3, the build they were recorded with.

A deliberate format change re-records the manifest with
``PYTHONPATH=src python tests/test_golden_pipeline.py`` and names every file
whose hash moved.
"""

import hashlib
import json
import os
import sys

from moe_prune.cli import METHOD_CHOICES, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_pipeline.json")


def run_pipeline(root: str) -> dict[str, str]:
    """Run the pipeline under `root`; the sha256 of every file, by relative path."""
    model, calib, heldout = (os.path.join(root, name) for name in ("model", "calib", "heldout"))
    commands = [
        ["gen-model", "--out", model],
        ["gen-calib", "--model", model, "--out", calib],
        ["gen-calib", "--model", model, "--role", "heldout", "--out", heldout],
    ]
    for method in METHOD_CHOICES:
        plan = os.path.join(root, "plans", method, "plan")
        commands += [
            ["prune", "--model", model, "--cache", calib, "--method", method,
             "--r", "4", "--m", "1", "--out", plan],
            ["eval", "--model", model, "--plan", plan, "--heldout", heldout,
             "--out", os.path.join(root, "evals", method)],
        ]
    commands.append(["report", "--dir", os.path.join(root, "evals"),
                     "--out", os.path.join(root, "report.csv")])
    for argv in commands:
        assert main(argv) == 0, argv
    hashes = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


def test_pipeline_files_match_recorded_manifest(tmp_path, capsys):
    got = run_pipeline(str(tmp_path))
    capsys.readouterr()  # the commands' own output
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    moved = sorted(path for path in want.keys() | got.keys() if want.get(path) != got.get(path))
    assert not moved, "files whose hash moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        manifest = run_pipeline(root)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
    print(f"recorded {len(manifest)} files in {GOLDEN}", file=sys.stderr)
