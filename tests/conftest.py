"""Shared test helpers: definitional oracles independent of the library.

The oracles reimplement containment straight from its definition, without
the fixed index table or any library shortcut, so agreement with the
library is meaningful.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signedperms
from signedperms import PATTERNS, PatternSet


def fresh_env() -> dict[str, str]:
    # the environment of a new interpreter that imports this signedperms
    src = str(Path(signedperms.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_bounded(*args: str) -> subprocess.CompletedProcess:
    """Run python with args in a new interpreter, limited in time and memory.

    A regression that reads an endless file or waits on a pipe fails the
    test, instead of hanging it or filling memory.
    """

    def limit_memory() -> None:
        import resource

        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(hard, 1 << 30)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    return subprocess.run(
        [sys.executable, *args], env=fresh_env(), capture_output=True, timeout=10,
        preexec_fn=limit_memory if os.name == "posix" else None,
    )


def not_a_regular_file(kind: str, tmp_path: Path) -> Path:
    """An existing path that is no regular file: a device, a FIFO or a directory."""
    if kind == "device":
        path = Path("/dev/zero")
        if not path.exists():
            pytest.skip("no /dev/zero")
    elif kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs off POSIX")
        path = tmp_path / "fifo"
        os.mkfifo(path)
    else:
        path = tmp_path / "dir"
        path.mkdir()
    return path


NOT_REGULAR = ("device", "fifo", "directory")


def oracle_pair_matches(x: int, y: int, pat: tuple[int, int]) -> bool:
    """Does the letter pair (x, y) match the pattern by definition?

    Bars must agree positionwise and the magnitudes must compare the same
    way as the pattern's magnitudes.
    """
    a, b = pat
    if (x < 0) != (a < 0) or (y < 0) != (b < 0):
        return False
    return (abs(x) < abs(y)) == (abs(a) < abs(b))


def oracle_containment_mask(alpha) -> int:
    letters = tuple(alpha)
    mask = 0
    for i, j in itertools.combinations(range(len(letters)), 2):
        for p in PATTERNS:
            if oracle_pair_matches(letters[i], letters[j], tuple(p.letters)):
                mask |= 1 << p.index
    return mask


def oracle_count(n: int, tset: PatternSet) -> int:
    """Count avoiders by generating words with itertools, no library code."""
    total = 0
    for base in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            word = tuple(s * m for s, m in zip(signs, base))
            if oracle_containment_mask(word) & tset.mask == 0:
                total += 1
    return total


def all_signed_perms(n: int):
    for base in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * m for s, m in zip(signs, base))


# the classical three-pattern sets, by their customary names
NAMED_TRIPLES = {
    "T_1": "1 2, 1 -2, -1 2",
    "T_2": "1 2, 1 -2, -1 -2",
    "T_3": "1 2, 1 -2, 2 1",
    "T_4": "1 2, 1 -2, 2 -1",
    "T_5": "1 2, 1 -2, -2 1",
    "T_6": "1 2, 1 -2, -2 -1",
    "T_7": "1 2, -1 -2, 2 1",
    "T_8": "1 2, -1 -2, 2 -1",
    "T_9": "1 2, 2 -1, -2 1",
    "T_10": "1 -2, -1 2, 2 -1",
}
