"""Byte-identical CLI output on a fixed command corpus.

`data/cli_golden.json` holds, per command, the argv, the exit code and the
exact stdout of `qschur` at a reference version: `verify basis --format
json --seed 9` for every multipartition with at most 6 basis vectors of
(n, r, m) = (2,2,(2,2)), (3,1,(3,)) and (3,3,(1,1,1)), plus `verify
relations` and `verify lemma24` at (n, r) = (2, 2); the generic elements
printed by `compute z|x|y|m|h --format json` for three weights each of
(2,2,(2,2)) and (3,1,(3,)), two `compute h` with another type and
`compute L --i 2 --n 3 --r 2`; `verify branch --format json` for
lambda = ([1],[1]) at m = (2,2) and ([2,1]) at m = (3,); `verify lemma24
--format json` at (n, r) = (1, 3) and (3, 1); `verify relations --samples
20 --format json` at (2, 3) and (3, 2); and `verify basis` for
lambda = ([1],[1]) at m = (2,2), seed 9, under `--flags
m_convention=qlen,y_convention=signed`.  Then `compute L --i 3` at
(n, r) = (3, 1) and (4, 1), `compute x|z|h` for lambda = ([2,1],[]) at
m = (3,3), r = 2, `compute x|y|z|h` for lambda = ([1],[1],[1]) and
`compute x` for ([],[2],[1]), both at m = (1,1,1), r = 3, and `compute
z|h` for ([2],[],[1]) at m = (1,1,1), r = 3.  Of these, the two `compute
L` (L_3 at r = 1), `compute z|h` of ([1],[1],[1]) (L_1) and `compute
z|h` of ([2],[],[1]) (L_2) multiply through a Jucys-Murphy exponent that
overflows (c_i + 1 = r).  Last, five cases at r = 4 or in text form,
where the scalars' packed exponent keys are decoded and sorted for
printing: `compute L --r 4 --i 2 --n 2 --format text`, `compute x` (json)
and `compute y` (text) for lambda = ([1],[],[1],[]) at m = (1,1,1,1),
r = 4, `compute h --format text` for lambda = ([2],[]) at m = (2,2), and
`verify relations --r 4 --n 2 --samples 2 --format json`.  Then, past the
bench's 16-vector cap at n = 4: `verify basis --format json --seed 9` for
the seven multipartitions of (4,2,(2,2)) with more than 16 basis vectors
(18 to 45), and `compute h --format json` for lambda = ([2,1],[1,0]),
mu = ([1,0],[2,1]), tableau index 1, over the generic ring.  Last,
`verify branch --format json` for lambda = ([2,1],[1]) at m = (4,4) and
([1],[1],[1]) at m = (3,3,3), whose layers have up to 112 labels.  Then
`verify basis --format json --seed 9 --flags
m_convention=qlen,y_convention=signed` for every multipartition of
(3,2,(3,3)) (10) and of (4,2,(2,2)) (14), lambda given trimmed and without
spaces, which pins the q^{l(d)} coefficients where one tableau deals many
coset representatives d; and `compute z --format json` for
lambda = ([2,1],[1]) at m = (2,2), r = 2, over the generic ring.  Last,
`verify basis --format json --seed 9` under the literal flags for the
multipartitions of (3,2,(3,3)) (all 10), of (5,1,(3,)) (all 5) and of
(3,3,(1,1,1)) with more than 6 basis vectors (([1],[2],[]), ([2],[1],[])
and ([3],[],[])), lambda padded to m rows: every multipartition of three
of the four configurations that the bench's `basis` pass certifies.  A
change to how the verdicts or elements are computed must leave every byte
the same.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qschur.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"][:4]))
def test_cli_output_is_byte_identical(case):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(case["argv"]))
    assert code == case["exit"]
    assert buf.getvalue() == case["stdout"]
