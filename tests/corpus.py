"""The byte corpus: what each command of a fixed list writes and returns.

``tests/golden/corpus.json`` maps each argv to its exit code, stdout and
stderr, run in process through ``cli.main``. A short stream is kept as its
text; a long one as its sha256 and a 12-hex-digit sha256 of each line, so that
a check can name the first line that differs. This module is the file's only
writer: run ``PYTHONPATH=src python tests/corpus.py`` to regenerate it from the
tree, and commit the result with the change that moved it.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

PATH = Path(__file__).parent / "golden" / "corpus.json"

# a stream longer than this many characters is kept as digests
_TEXT_LIMIT = 4096


def _simulate(*args):
    return ("simulate",) + args


def _tables():
    for command in ("alpha", "plotdata", "tangent"):
        for grid in ("2", "101", "1001"):
            for fmt in ("csv", "json"):
                yield (command, "--grid", grid, "--format", fmt)


COMMANDS = (
    [("verify", "--seed", str(seed)) for seed in range(50)]
    + [("verify", "--seed", "123456789012345")]
    # the golden reports and acceptance criterion 7
    + [_simulate("--trials", "300", "--seed", "7"),
       _simulate("--trials", "100", "--dmax", "32", "--seed", "5"),
       _simulate("--trials", "200", "--dmax", "3", "--horizon-mult", "4", "--seed", "9"),
       _simulate("--trials", "50", "--dmax", "128", "--seed", "1"),
       _simulate("--trials", "10000", "--seed", "7")]
    # wide states, short horizons, empty and tiny runs
    + [_simulate("--trials", "3", "--dmax", "256"),
       _simulate("--trials", "3", "--dmax", "1024"),
       _simulate("--trials", "100", "--dmax", "40", "--seed", "3", "--horizon-mult", "0.3"),
       _simulate("--trials", "20", "--dmax", "256", "--seed", "2"),
       _simulate("--trials", "20", "--dmax", "512", "--seed", "2"),
       _simulate("--trials", "1000", "--seed", "3"),
       _simulate("--trials", "0"),
       _simulate("--trials", "2", "--dmax", "2"),
       _simulate("--trials", "1000", "--dmax", "16", "--seed", "11"),
       _simulate("--trials", "200", "--dmax", "64", "--seed", "4", "--horizon-mult", "2.0"),
       _simulate("--trials", "2", "--horizon-mult", "5e-324")]
    # the seven commands of the benchmark's mc round at run seed 7
    + [_simulate("--seed", str(seed), "--trials", "125") for seed in (7, 132, 257, 382, 507, 632)]
    + [_simulate("--seed", "6062", "--trials", "10")]
    + list(_tables())
    + [("alpha", "--delta", delta) for delta in ("0", "0.5", "1", "1e-12", "0.999999999999")]
    # usage errors
    + [("alpha", "--delta", "2"),
       _simulate("--horizon-mult", "nan"),
       _simulate("--trials", "20", "--horizon-mult", "-1")]
)


def run(argv):
    """(exit code, stdout, stderr) of ``qsl argv``, run in process."""
    from qsl import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def line_digests(text):
    return [hashlib.sha256(line.encode()).hexdigest()[:12] for line in text.splitlines(True)]


def stream(text):
    """A stream as the corpus keeps it: its text, or its digests when long."""
    if len(text) <= _TEXT_LIMIT:
        return text
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "lines": line_digests(text)}


def entry(argv):
    code, out, err = run(argv)
    return {"argv": list(argv), "exit": code, "stdout": stream(out), "stderr": stream(err)}


def main():
    entries = [entry(argv) for argv in COMMANDS]
    PATH.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} commands to {PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
