import hashlib
import os

import numpy as np
import pytest

from anensolar import cli, verify, weights, workflow
from anensolar._atomic import atomic_write, atomic_write_csv
from anensolar.workflow import Pipeline, Stage, Task, TaskState, TransitionRecord, Workflow


def test_atomic_write_returns_the_digest_of_the_bytes_on_disk(tmp_path):
    path = tmp_path / "block.bin"
    path.write_bytes(b"previous bytes")
    digest = atomic_write(path, [b"header\x00\n", np.arange(6.0).reshape(2, 3)])
    assert path.read_bytes() == b"header\x00\n" + np.arange(6.0).tobytes()
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert [p.name for p in tmp_path.iterdir()] == ["block.bin"]


def test_atomic_write_csv_writes_crlf_rows(tmp_path):
    path = tmp_path / "table.csv"
    digest = atomic_write_csv(path, ["a", "b"], iter([[1, "x"], [2, "y,z"]]))
    assert path.read_bytes() == b'a,b\r\n1,x\r\n2,"y,z"\r\n'
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def _report_command(path):
    source = path.parent.parent / "lead.csv"
    _verify_report().to_csv(source)
    args = cli.build_parser().parse_args(["report", str(source), "--output", path.name])
    run = cli.Runner(cli.load_config(None, [f"output_dir={path.parent}"]), "report")
    return lambda: cli.cmd_report(run, args)


def _manifest(path):
    run = cli.Runner(cli.load_config(None, [f"output_dir={path.parent}"]), "sigma")
    return run.write_manifest


def _verify_report():
    return verify.VerifyReport("lead", (verify.ReportRow(0, 1.5, -0.25, 0.75, 2.0, 12),))


# writer -> (file it writes, setup that takes that path and returns the write)
WRITERS = {
    "weights": ("weights.csv", lambda path: lambda: weights.write_weights_csv(
        path, np.full((4, 3), 1 / 3), ("a", "b", "c"))),
    "clustering": ("clustering.csv", lambda path: lambda: weights.hierarchical_cluster(
        np.random.default_rng(3).normal(0, 1, size=(9, 3)), 3).write_csv(path)),
    "verify": ("report.csv", lambda path: lambda: _verify_report().to_csv(path)),
    "report": ("report_wide.csv", _report_command),
    "events": ("events.log", lambda path: lambda: workflow.write_event_log(
        [TransitionRecord(1, 0.5, "t0", TaskState.PENDING, TaskState.SCHEDULED)], path)),
    "workflow": ("workflow.yaml", lambda path: lambda: workflow.dump_workflow_file(
        Workflow([Pipeline("p", [Stage("s", [Task("t", ("true",))])])], 1), path)),
    "manifest": ("manifest.json", _manifest),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_previous_bytes(tmp_path, monkeypatch, writer):
    name, setup = WRITERS[writer]
    out = tmp_path / "out"
    out.mkdir()
    path = out / name
    write = setup(path)
    # valid JSON, so the manifest writer gets as far as replacing the file
    path.write_bytes(b"{}\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write()
    assert path.read_bytes() == b"{}\n"
    assert [p.name for p in out.iterdir()] == [name]
