"""Every output of ``tools/capture_outputs.py`` matches its recorded digest.

``tests/golden/capture_digests.json`` holds one SHA-256 per file the tool
captures: the stdout, exit code and written files of every case it runs
(see its docstring). Byte-identical outputs for identical configurations are
the contract, so a change that alters any of them shows here, by file name,
as a digest that differs, a file that appeared or a file that vanished.

Most captured files hold only integers, dyadic values, witnesses and flags.
The float-carrying ones (entropy.json, compare.json, slopes.csv and the
estimates printed by ``entropy`` and ``compare``) hold least-squares slopes;
they are digested as numpy 2.4.6 on x86-64 Linux writes them, and another
numpy build may round them differently. ``tests/golden/`` keeps its byte
files too, because a digest does not show how an output differs.

Regenerate the digests only with a change that alters outputs on purpose,
and name the changed files with it::

    PYTHONPATH=src python tools/capture_outputs.py --digests
"""
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = json.loads((ROOT / "tests" / "golden" / "capture_digests.json").read_text())


@pytest.fixture(scope="module")
def tool():
    """tools/capture_outputs.py as a module, with sys.path as it was."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "capture_outputs", ROOT / "tools" / "capture_outputs.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.fixture
def child_env(monkeypatch):
    """The CLI children import qme from this checkout's src."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    return monkeypatch


def _mismatches(found: dict, expected: dict) -> list:
    return ([f"differs: {p}" for p in sorted(found.keys() & expected.keys())
             if found[p] != expected[p]]
            + [f"appeared: {p}" for p in sorted(found.keys() - expected.keys())]
            + [f"vanished: {p}" for p in sorted(expected.keys() - found.keys())])


def test_capture_matches_recorded_digests(tool, child_env, tmp_path):
    child_env.setenv("PYTHONHASHSEED", "0")
    out = tmp_path / "capture"
    tool.capture(str(out))
    assert _mismatches(tool.digests(str(out)), RECORDED) == []


def test_hash_seed_does_not_reach_outputs(tool, child_env, tmp_path):
    # _selection_key keys relations by the builtin hash(), which
    # PYTHONHASHSEED salts; this case reuses relations across cells and
    # pairings. The full capture above runs it under seed 0.
    child_env.setenv("PYTHONHASHSEED", "12345")
    out = tmp_path / "repeats_asym"
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    tool.capture_repeats_asym(str(out), str(scratch))
    found = {f"repeats_asym/{p}": d for p, d in tool.digests(str(out)).items()}
    expected = {p: d for p, d in RECORDED.items() if p.startswith("repeats_asym/")}
    assert expected and _mismatches(found, expected) == []
