"""What importing groupra loads, and the names its package gives."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import groupra

SRC = str(Path(groupra.__file__).resolve().parents[1])

# every public name of the package, with the submodule that defines it
EXPORTS = {
    "algebra": (
        "AtomIndex", "BaseSpace", "FrameElement", "GroupRelationAlgebra",
        "MeasureEntry", "MeasureReport",
    ),
    "builders": (
        "build_complex_algebra_frame", "build_cyclic_frame", "build_power_frame",
        "cyclic_iso_record", "merge_frames",
    ),
    "errors": (
        "FrameBuildError", "FrameFormatError", "FrameMismatchError", "GroupTableError",
        "IncompatibleQuotientsError", "InvalidFrameError", "NotASubgroupError",
        "NotNormalError", "NotRelatedError", "UncheckedFrameError",
    ),
    "fileformat": ("emit_frame", "parse_frame"),
    "frames": (
        "Frame", "FrameCheckReport", "IsoRecord", "Violation",
        "check_frame_full", "check_frame_reduced",
    ),
    "groups": (
        "CosetSystem", "FiniteGroup", "IsoCheck", "Mask", "check_quotient_iso",
        "complex_product", "elements", "enumerate_cosets", "is_normal", "make_cyclic",
        "mask_of", "quotient_group", "validate_table",
    ),
    "relations": (
        "ConcreteRelation", "cayley_relation", "identity_on", "rel_compose",
        "rel_converse", "rel_union",
    ),
}

# Prints, as JSON, the modules each step adds to sys.modules in a fresh
# interpreter, then checks that a public name and the submodules resolve.
PROBE = """
import json, sys
steps = {}
seen = set(sys.modules)
for step in ("groupra", "groupra.cli"):
    __import__(step)
    steps[step] = sorted(set(sys.modules) - seen)
    seen = set(sys.modules)
import groupra
from groupra import parse_frame
assert parse_frame is groupra.fileformat.parse_frame
steps["submodules"] = [getattr(groupra, name).__name__ for name in ("groups", "builders")]
print(json.dumps(steps))
"""


def fresh_imports() -> dict:
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_groupra_loads_no_submodule_and_cli_only_what_every_command_needs():
    steps = fresh_imports()
    # only groupra's own modules: what the standard library loads for it
    # depends on what the interpreter had loaded at start-up
    assert [m for m in steps["groupra"] if m.split(".")[0] == "groupra"] == ["groupra"]
    cli = steps["groupra.cli"]
    assert "groupra.cli" in cli
    for lazy in ("dataclasses", "groupra.builders", "groupra.verification"):
        assert lazy not in cli
    assert steps["submodules"] == ["groupra.groups", "groupra.builders"]


def test_every_public_name_resolves_to_its_submodule_object():
    names = {name: module for module, names in EXPORTS.items() for name in names}
    assert sorted(groupra.__all__) == sorted(names)
    listed = dir(groupra)
    for name, module in names.items():
        scope: dict = {}
        exec(f"from groupra import {name}", scope)
        assert scope[name] is getattr(importlib.import_module(f"groupra.{module}"), name), name
        assert name in listed, name
    assert groupra.__version__ == "0.1.0"
