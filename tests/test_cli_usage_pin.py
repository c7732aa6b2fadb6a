"""Byte pin of the CLI's help, version and usage-error output.

For each argv below, `cli_usage_pin.json` holds the exit code and every byte
`cli.main` writes to stdout and stderr, with argparse wrapping at 80 columns.
argparse words these messages a little differently from one Python version
to the next, so the pin records the version it was taken on and holds only
there. A change meant to alter them rewrites the file, from the root of a
checkout:

    PYTHONPATH=src python tests/test_cli_usage_pin.py > tests/cli_usage_pin.json
"""
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dressed_modes.cli import main

PIN = Path(__file__).with_name("cli_usage_pin.json")
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"
ARGVS = (
    ["-h"],
    ["--version"],
    [],
    ["no-such-command"],
    ["validate", "--bogus"],
    ["validate", "sweep"],
    ["validate", "--seed", "-1"],
    *([name, "-h"] for name in (
        "spectrum", "sweep", "chi", "rabi", "multimode", "parity", "wedge", "validate",
    )),
    ["sweep", "--config", "x", "--omega-q-ghz", "1:2"],
    ["chi", "--json", "--csv", "--config", "x"],
    ["wedge", "--modes", "0"],
    ["spectrum"],
    # values the model itself rejects, checked while parsing
    ["wedge", "--angle-rad", "0"],
    ["wedge", "--angle-rad", "7"],
    ["parity", "--config", "x", "--q2-frequency-ghz", "-5"],
    ["parity", "--config", "x", "--q2-anharmonicity-ghz", "0.1"],
    ["parity", "--config", "x", "--q2-coupling-ghz", "-0.1"],
)


def run(argv) -> dict:
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_usage_output_is_pinned(argv, monkeypatch):
    pin = json.loads(PIN.read_text())
    if pin["python"] != PYTHON:
        pytest.skip(f"argparse output is pinned on Python {pin['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv) == pin["runs"][" ".join(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    runs = {" ".join(argv): run(argv) for argv in ARGVS}
    sys.stdout.write(json.dumps({"python": PYTHON, "runs": runs}, indent=1) + "\n")
