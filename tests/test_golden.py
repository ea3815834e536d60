"""Golden outputs: the library's numbers and the CLI's bytes stay as stored.

The goldens in tests/golden/ are written by tests/make_golden.py. On the
numpy version and SIMD features they were made with, every float must
match bit for bit and every CLI output byte for byte. Elsewhere numpy's
SIMD exp and log may round an ulp differently, so each float may then
differ by up to ULP_BUDGET ulps, and the test says so in a warning.
A mismatch lists every entry that differs, with its largest distance in
ulps and its largest absolute difference.
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


def _abs_diff(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    return 0.0 if a == b else abs(a - b)


def _token_diff(want: str, got: str, parse) -> tuple[float, float]:
    """The ulps and the absolute difference between two tokens that parse as floats.

    Both are inf where the tokens differ otherwise.
    """
    if want == got:
        return 0.0, 0.0
    try:
        a, b = parse(want), parse(got)
    except ValueError:
        return math.inf, math.inf
    return _ulps(a, b), _abs_diff(a, b)


def _largest(diffs) -> tuple[float, float]:
    """The largest ulps and the largest absolute difference of (ulps, difference) pairs."""
    diffs = list(diffs)
    return max((u for u, _ in diffs), default=0.0), max((a for _, a in diffs), default=0.0)


def _text_diff(want: str, got: str) -> tuple[float, float]:
    """The largest ulps and absolute difference between the numbers of two texts.

    Both are inf where the texts differ other than in their numbers.
    """
    if want == got:
        return 0.0, 0.0
    if _NUMBER.split(want) != _NUMBER.split(got):
        return math.inf, math.inf
    pairs = zip(_NUMBER.findall(want), _NUMBER.findall(got))
    return _largest(_token_diff(a, b, float) for a, b in pairs)


def _entry_diff(want: list, got: list) -> tuple[float, float]:
    """The largest ulps and absolute difference between two manifest entries.

    The entries hold float.hex values, errors or warnings.
    """
    if len(want) != len(got):
        return math.inf, math.inf
    return _largest(_token_diff(a, b, float.fromhex) for a, b in zip(want, got))


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


def _report(diffs: list[tuple[str, float, float]], budget: int) -> str:
    """One line per differing entry: its largest ulp distance and its largest absolute difference.

    An entry near zero can be many ulps off by a tiny absolute amount, so
    both are given.
    """
    lines = [f"{len(diffs)} golden entries differ (budget {budget} ulps):"]
    lines += [f"  {name}: "
              + ("not a float change" if d == math.inf else f"{d:.0f} ulps, |difference| {a:.3g}")
              for name, d, a in diffs]
    return "\n".join(lines)


def test_library_outputs_match_the_goldens():
    budget = _budget()
    want = _load("manifest.json")
    got = make_golden.manifest()
    diffs = [(name, *(_entry_diff(want[name], got[name]) if name in got
                      else (math.inf, math.inf)))
             for name in want]
    diffs = [(name, d, a) for name, d, a in diffs if d > budget]
    diffs += [(name, math.inf, math.inf) for name in got if name not in want]
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
                diffs.append((f"{name}: exit code or files", math.inf, math.inf))
            texts = [("stdout", want["stdout"], got["stdout"]),
                     ("warnings", "\n".join(want["warnings"]), "\n".join(got["warnings"]))]
            texts += [(f, want["files"][f], got["files"].get(f, "")) for f in want["files"]]
            for part, a, b in texts:
                d, diff = _text_diff(a, b)
                if d > budget:
                    diffs.append((f"{name}: {part}", d, diff))
    assert not diffs, _report(diffs, budget)


@pytest.mark.parametrize(
    "want, got, ulps",
    [(1.0, 1.0, 0.0), (1.0, math.nextafter(1.0, 2.0), 1.0), (-0.0, 0.0, 1.0),
     (-5e-324, 5e-324, 3.0), (1.0, math.nextafter(math.nextafter(1.0, 0.0), 0.0), 2.0)],
)
def test_ulp_distance(want, got, ulps):
    assert _ulps(want, got) == ulps
    assert _entry_diff([want.hex()], [got.hex()]) == (ulps, abs(want - got))
    assert _text_diff(f"x,{want!r}\n", f"x,{got!r}\n") == (ulps, abs(want - got))


def test_report_gives_ulps_and_the_absolute_difference():
    # a component near zero: 2.4e17 ulps apart, by 2e-300
    d, a = _entry_diff([(1e-300).hex()], [(-1e-300).hex()])
    assert d > 2e17 and a == 2e-300
    report = _report([("grad", d, a), ("gone", math.inf, math.inf)], 0)
    assert f"grad: {d:.0f} ulps, |difference| 2e-300" in report
    assert "gone: not a float change" in report
