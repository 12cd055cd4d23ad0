"""``sweep status`` must degrade to one-line errors, never tracebacks.

The heartbeat file is rewritten while the fleet runs, so a status
probe can race a writer and observe a missing, truncated, or partial
``status.json``.  Each of those must produce a single clear stderr
line and exit code 1.
"""

import json
import os

from repro.harness.cli import main
from repro.sweep.executor import cache_root, run_sweep
from repro.sweep.spec import load_sweep_spec

TINY = {
    "name": "tiny-status",
    "systems": ["p4update-dl"],
    "topologies": ["fig1"],
    "scenarios": ["single"],
    "seeds": 1,
}


def _spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def _status_args(tmp_path):
    return [
        "sweep", "status", _spec_file(tmp_path),
        "--cache-dir", str(tmp_path / "cache"),
    ]


def _status_path(tmp_path):
    spec = load_sweep_spec(TINY)
    root = cache_root(spec, str(tmp_path / "cache"))
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, "status.json")


def test_status_missing_file_is_one_line_error(tmp_path, capsys):
    rc = main(_status_args(tmp_path))
    out = capsys.readouterr()
    assert rc == 1
    assert out.err.startswith("error: no status for sweep")
    assert len(out.err.strip().splitlines()) == 1
    assert "Traceback" not in out.err


def test_status_truncated_json_is_one_line_error(tmp_path, capsys):
    path = _status_path(tmp_path)
    with open(path, "w") as fh:
        fh.write('{"name": "tiny-status", "state"')  # writer cut mid-dump
    rc = main(_status_args(tmp_path))
    out = capsys.readouterr()
    assert rc == 1
    assert "unreadable or mid-write" in out.err
    assert "Traceback" not in out.err


def test_status_partial_document_is_one_line_error(tmp_path, capsys):
    path = _status_path(tmp_path)
    with open(path, "w") as fh:
        json.dump({"name": "tiny-status", "state": "running"}, fh)
    rc = main(_status_args(tmp_path))
    out = capsys.readouterr()
    assert rc == 1
    assert "incomplete" in out.err
    assert "spec_hash" in out.err
    assert "Traceback" not in out.err


def test_status_after_real_run_renders(tmp_path, capsys):
    spec = load_sweep_spec(TINY)
    run = run_sweep(spec, cache_dir=str(tmp_path / "cache"))
    assert run.ok
    rc = main(_status_args(tmp_path))
    out = capsys.readouterr()
    assert rc == 0
    assert "[finished]" in out.out
    assert "1/1 completed" in out.out
