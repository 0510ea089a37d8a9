"""Golden outputs: every command on the shipped frames, the documented
``op`` queries with and without ``--check``, ``gen`` on the README inputs
and each documented ``gen`` refusal, the full check's report on the failing
half of ``verdict_corpus()``, the parse outcomes of a seeded corpus of
mutated frames and the build outcomes of a seeded corpus of mutated kappa
specs, pinned as digests in ``golden_outputs.json``.

The file is computed from the code, never edited to fit a change.  A change
that alters output on purpose rewrites it with ``python -m tests.test_golden``
(run from the repository root, with ``src`` on ``PYTHONPATH``) and says why.
"""

import contextlib
import io
import json
import tempfile
from hashlib import sha256
from pathlib import Path

from groupra.builders import build_cyclic_frame
from groupra.cli import main
from groupra.errors import FrameFormatError
from groupra.fileformat import emit_frame, parse_frame
from groupra.frames import check_frame_full

from tests.helpers import (
    KAPPA_MUTATION_COUNT,
    MUTATION_COUNT,
    MUTATION_SEED,
    SHIPPED_FRAMES,
    mutated_frame_texts,
    mutated_kappa_specs,
    verdict_corpus,
)

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
COMMANDS = [
    ["validate"],
    ["validate", "--full"],
    ["atoms"],
    ["atoms", "--cosets"],
    ["atoms", "--pairs"],
    ["table"],
    ["measure"],
    ["decompose"],
    ["verify"],
]
# the worked examples of the README
OP_QUERIES = [
    ["conv", "0", "1", "1"],
    ["comp", "0", "1", "1", "0", "1"],
    ["comp", "0", "1", "1", "1", "1"],
]
# the README queries on z6z9.frame, with and without --check, and --check on
# the non-abelian frame
OP_CALLS = [
    *(("z6z9.frame", query) for query in OP_QUERIES),
    *(("z6z9.frame", [*query, "--check"]) for query in OP_QUERIES),
    ("d4q8d4.frame", ["conv", "0", "1", "1", "--check"]),
    ("d4q8d4.frame", ["comp", "0", "1", "1", "1", "2", "--check"]),
]
# the input files of the gen calls, by name: the README's kappa matrix for
# Z6 and Z9, one broken matrix per documented refusal, and a Z2 table
GEN_FILES = {
    "kappa-z6z9": "6 3\n3 9\n",
    "kappa-asymmetric": "6 3\n2 9\n",
    "kappa-diagonal": "5 3\n3 9\n",
    "kappa-non-divisor": "6 4\n4 9\n",
    "kappa-gcds": "6 2 3\n2 6 6\n3 6 6\n",
    "kappa-intransitive": "2 1 0\n1 2 1\n0 1 2\n",
    "table-z2": "0 1\n1 0\n",
}
GEN_CALLS = [
    ["cyclic", "6,9", "kappa-z6z9"],
    ["power", "table-z2", "0", "2"],
    ["power", "table-z2", "0", "3", "0,2;1"],
    ["power", "table-z2", "0,1", "2", "1,0"],
    # the documented refusals, each with exit 1 but the last (a parse error)
    ["cyclic", "6,9", "kappa-asymmetric"],
    ["cyclic", "6,9", "kappa-diagonal"],
    ["cyclic", "6,9", "kappa-non-divisor"],
    ["cyclic", "6,6,6", "kappa-gcds"],
    ["cyclic", "2,2,2", "kappa-intransitive"],
    ["power", "table-z2", "0", "65"],
    ["power", "table-z2", "-1", "2"],
]


def _digest(text: str) -> str:
    return sha256(text.encode()).hexdigest()


def _call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "exit": code,
        "lines": out.getvalue().count("\n"),
        "stdout": _digest(out.getvalue()),
        "stderr": _digest(err.getvalue()),
    }


def _parse_outcome(text: str) -> str:
    try:
        return emit_frame(parse_frame(text))
    except FrameFormatError as exc:
        return f"error {exc}\n"


def _build_outcome(orders: list[int], kappa: object) -> str:
    try:
        return emit_frame(build_cyclic_frame(orders, kappa))
    except ValueError as exc:  # FrameBuildError and any other ValueError, by class
        return f"error {type(exc).__name__} {exc}\n"


def _corpus_digest(outcomes: list[str]) -> dict:
    return {
        "errors": sum(outcome.startswith("error ") for outcome in outcomes),
        "sha256": _digest("\0".join(outcomes)),
    }


def golden_outputs() -> dict:
    calls = {}
    for path in SHIPPED_FRAMES:
        for command, *flags in COMMANDS:
            calls[" ".join([command, *flags, path.name])] = _call([command, str(path), *flags])
    frames = SHIPPED_FRAMES[0].parent
    for name, query in OP_CALLS:
        calls[" ".join(["op", name, *query])] = _call(["op", str(frames / name), *query])
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in GEN_FILES.items():
            Path(scratch, name).write_text(text)
        for args in GEN_CALLS:
            argv = [str(Path(scratch, a)) if a in GEN_FILES else a for a in args]
            calls[" ".join(["gen", *args])] = _call(["gen", *argv])
    failing = [check_frame_full(frame).lines() for frame in verdict_corpus()[1]]
    reports = {
        "frames": len(failing),
        "lines": sum(map(len, failing)),
        "sha256": _digest("\0".join("\n".join(lines) for lines in failing)),
    }
    frame_outcomes = [_parse_outcome(text) for text in mutated_frame_texts()]
    kappa_outcomes = [_build_outcome(*spec) for spec in mutated_kappa_specs()]
    return {
        "calls": calls,
        "full check of the failing verdict corpus": reports,
        "mutated frames": {"seed": MUTATION_SEED, "texts": MUTATION_COUNT}
        | _corpus_digest(frame_outcomes),
        "mutated kappa specs": {"seed": MUTATION_SEED, "specs": KAPPA_MUTATION_COUNT}
        | _corpus_digest(kappa_outcomes),
    }


def test_read_path_outputs_match_the_golden_digests():
    assert golden_outputs() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1, sort_keys=True) + "\n")
