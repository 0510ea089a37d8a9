"""Golden outputs of the read path: every command on the shipped frames, the
documented ``op`` queries and the parse outcomes of a seeded corpus of
mutated frames, pinned as digests in ``golden_outputs.json``.

The file is computed from the code, never edited to fit a change.  A change
that alters output on purpose rewrites it with ``python -m tests.test_golden``
(run from the repository root, with ``src`` on ``PYTHONPATH``) and says why.
"""

import contextlib
import io
import json
from hashlib import sha256
from pathlib import Path

from groupra.cli import main
from groupra.errors import FrameFormatError
from groupra.fileformat import emit_frame, parse_frame

from tests.helpers import MUTATION_COUNT, MUTATION_SEED, SHIPPED_FRAMES, mutated_frame_texts

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


def golden_outputs() -> dict:
    calls = {}
    for path in SHIPPED_FRAMES:
        for command, *flags in COMMANDS:
            calls[" ".join([command, *flags, path.name])] = _call([command, str(path), *flags])
    z6z9 = SHIPPED_FRAMES[0].with_name("z6z9.frame")
    for query in OP_QUERIES:
        calls[" ".join(["op", z6z9.name, *query])] = _call(["op", str(z6z9), *query])
    outcomes = [_parse_outcome(text) for text in mutated_frame_texts()]
    mutations = {
        "seed": MUTATION_SEED,
        "texts": MUTATION_COUNT,
        "errors": sum(outcome.startswith("error ") for outcome in outcomes),
        "sha256": _digest("\0".join(outcomes)),
    }
    return {"calls": calls, "mutated frames": mutations}


def test_read_path_outputs_match_the_golden_digests():
    assert golden_outputs() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1, sort_keys=True) + "\n")
