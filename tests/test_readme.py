"""The README's examples run: its two Python quick-start blocks, and each
scenario's JSON config under that scenario."""

import json
import math
import re
import shutil
from pathlib import Path

import pytest

from glsim.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str, text: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.S | re.M)


def _section(heading: str) -> str:
    """The README text under heading, up to the next heading."""
    return re.search(rf"^{heading}\n(.*?)(?=^#)", README, flags=re.S | re.M).group(1)


def test_quick_start_blocks_run():
    first, second = _blocks("python", _section("## Quick start"))
    ns: dict = {}
    exec(compile(first, "README quick start 1", "exec"), ns)
    assert abs(ns["report"].value + math.sin(math.sqrt(2.0)) / math.sqrt(2.0)) <= 0.05
    ns = {}
    exec(compile(second, "README quick start 2", "exec"), ns)
    assert 0 <= ns["result"].site < ns["n"]


@pytest.mark.parametrize("scenario", ["estimate", "sample", "oscillator", "energy",
                                      "pde", "embed"])
def test_scenario_config_runs(scenario, tmp_path, monkeypatch):
    """Each scenario's config runs, and a rerun writes the same files: the same
    report but for wall_time_s, and the same series byte for byte."""
    (cfg,) = _blocks("json", _section(f"### {scenario}"))
    monkeypatch.chdir(tmp_path)
    if scenario == "energy":   # its config reads the oscillator example's system
        (oscillator,) = _blocks("json", _section("### oscillator"))
        Path("system.json").write_text(json.dumps(json.loads(oscillator)["system"]))
    Path(f"{scenario}.json").write_text(cfg)
    runs = []
    for _ in range(2):
        shutil.rmtree("runs", ignore_errors=True)
        assert main([scenario, "--config", f"{scenario}.json", "--out", "runs"]) == 0
        files = {path.name: path.read_bytes() for path in Path("runs").iterdir()}
        report = json.loads(files.pop(f"{scenario}_report.json"))
        assert report.pop("wall_time_s") >= 0
        runs.append((report, files))
    assert runs[0] == runs[1]
