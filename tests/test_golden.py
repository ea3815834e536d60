"""Golden outputs: the library's numbers and the CLI's bytes stay as stored.

The goldens in tests/golden/ are written by tests/make_golden.py. On the
numpy version and SIMD features they were made with, every float must
match bit for bit and every CLI output byte for byte. Elsewhere numpy's
SIMD exp and log may round an ulp differently, so each float may then
differ by up to ULP_BUDGET ulps, and the test says so in a warning.
A mismatch lists every entry that differs, with its distance in ulps.
"""

import json
import math
import re
import struct
import warnings

import pytest

import make_golden

# ulps a float may move where numpy or the CPU differ from the goldens' own
ULP_BUDGET = 8
# a number as the CLI prints it
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def _load(name):
    return json.loads((make_golden.GOLDEN / name).read_text(encoding="utf-8"))


def _ordered(x: float) -> int:
    """x's bits as an integer that orders like x, so that ulps are differences.

    -0.0 sits one step below 0.0, so that a changed sign of zero counts.
    """
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF) - 1


def _ulps(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    return float(abs(_ordered(a) - _ordered(b)))


def _token_ulps(want: str, got: str, parse) -> float:
    """The ulps between two tokens that parse as floats; inf where they differ otherwise."""
    if want == got:
        return 0.0
    try:
        return _ulps(parse(want), parse(got))
    except ValueError:
        return math.inf


def _text_ulps(want: str, got: str) -> float:
    """The largest ulp distance between the numbers of two texts that agree elsewhere."""
    if want == got:
        return 0.0
    if _NUMBER.split(want) != _NUMBER.split(got):
        return math.inf
    pairs = zip(_NUMBER.findall(want), _NUMBER.findall(got))
    return max(_token_ulps(a, b, float) for a, b in pairs)


def _entry_ulps(want: list, got: list) -> float:
    """The largest ulp distance between two manifest entries (float.hex, error or warning)."""
    if len(want) != len(got):
        return math.inf
    return max((_token_ulps(a, b, float.fromhex) for a, b in zip(want, got)), default=0.0)


def _budget() -> int:
    stored, here = _load("env.json"), make_golden.environment()
    if stored == here:
        return 0
    warnings.warn(
        f"goldens made with numpy {stored['numpy']} on SIMD {stored['simd']}; "
        f"this is numpy {here['numpy']} on SIMD {here['simd']}: "
        f"floats compared within {ULP_BUDGET} ulps, not bit for bit",
        UserWarning,
    )
    return ULP_BUDGET


def _report(diffs: list[tuple[str, float]], budget: int) -> str:
    lines = [f"{len(diffs)} golden entries differ (budget {budget} ulps):"]
    lines += [f"  {name}: {'not a float change' if d == math.inf else f'{d:.0f} ulps'}"
              for name, d in diffs]
    return "\n".join(lines)


def test_library_outputs_match_the_goldens():
    budget = _budget()
    want = _load("manifest.json")
    got = make_golden.manifest()
    diffs = [(name, _entry_ulps(want[name], got[name]) if name in got else math.inf)
             for name in want]
    diffs = [(name, d) for name, d in diffs if d > budget]
    diffs += [(name, math.inf) for name in got if name not in want]
    assert not diffs, _report(diffs, budget)


def test_cli_outputs_match_the_goldens():
    budget = _budget()
    stored = _load("cli.json")
    assert [r["argv"] for r in stored["readme"]] == make_golden.readme_commands()
    diffs = []
    for group, runs in stored.items():
        for k, want in enumerate(runs):
            got = make_golden.run_cli(want["argv"])
            name = f"{group}[{k}] {' '.join(want['argv'])}"
            if got["exit"] != want["exit"] or sorted(got["files"]) != sorted(want["files"]):
                diffs.append((f"{name}: exit code or files", math.inf))
            texts = [("stdout", want["stdout"], got["stdout"]),
                     ("warnings", "\n".join(want["warnings"]), "\n".join(got["warnings"]))]
            texts += [(f, want["files"][f], got["files"].get(f, "")) for f in want["files"]]
            for part, a, b in texts:
                d = _text_ulps(a, b)
                if d > budget:
                    diffs.append((f"{name}: {part}", d))
    assert not diffs, _report(diffs, budget)


@pytest.mark.parametrize(
    "want, got, ulps",
    [(1.0, 1.0, 0.0), (1.0, math.nextafter(1.0, 2.0), 1.0), (-0.0, 0.0, 1.0),
     (-5e-324, 5e-324, 3.0), (1.0, math.nextafter(math.nextafter(1.0, 0.0), 0.0), 2.0)],
)
def test_ulp_distance(want, got, ulps):
    assert _ulps(want, got) == ulps
    assert _entry_ulps([want.hex()], [got.hex()]) == ulps
    assert _text_ulps(f"x,{want!r}\n", f"x,{got!r}\n") == ulps
