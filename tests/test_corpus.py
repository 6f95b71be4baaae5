"""Every command of the byte corpus writes the bytes and returns the code it recorded."""

import json

import pytest

import corpus

ENTRIES = json.loads(corpus.PATH.read_text())


def first_difference(name, want, got):
    """None if the stream ``got`` is the recorded ``want``, else the first line that differs."""
    if want == corpus.stream(got):
        return None
    lines = got.splitlines(True)
    digests = corpus.line_digests(got)
    if isinstance(want, dict):  # a long stream: only its lines' digests are kept
        want_digests = want["lines"]
        want_lines = [f"a line of digest {digest}" for digest in want_digests]
    else:
        want_lines = want.splitlines(True)
        want_digests = corpus.line_digests(want)
    for k in range(max(len(lines), len(want_digests))):
        if digests[k:k + 1] != want_digests[k:k + 1]:
            expected = want_lines[k] if k < len(want_lines) else "(no line)"
            actual = lines[k] if k < len(lines) else "(no line)"
            return f"{name} line {k + 1}: expected {expected!r}, got {actual[:200]!r}"
    return f"{name}: same lines, different bytes"


def test_the_command_list_is_the_recorded_one():
    assert [tuple(e["argv"]) for e in ENTRIES] == [tuple(argv) for argv in corpus.COMMANDS]


@pytest.mark.parametrize("recorded", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_command_bytes_match_the_corpus(recorded):
    code, out, err = corpus.run(recorded["argv"])
    problems = [first_difference(name, recorded[name], got)
                for name, got in (("stdout", out), ("stderr", err))]
    problems = [p for p in problems if p]
    if code != recorded["exit"]:
        problems.append(f"exit code {code}, expected {recorded['exit']}")
    assert not problems, "qsl " + " ".join(recorded["argv"]) + ": " + "; ".join(problems)
