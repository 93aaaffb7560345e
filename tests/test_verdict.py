"""The verdict record: one function builds every one-sided check, under one
null rule, and one reduction reads them.

`verdict(values, bound)` is ok when max(values) <= bound (< when strict) and
null -- not evaluated -- when there are no values or the bound is not finite;
`reduce_verdicts` passes a null verdict and reports it as not evaluated.  The
scan below keeps every `ok` key of the package inside `verdict()`.
"""

import ast
import math
import pathlib

from hypothesis import given
from hypothesis import strategies as st

import nsbox
from nsbox.certificate import reduce_verdicts, verdict

SRC = pathlib.Path(nsbox.__file__).parent
VERDICT_KEYS = {"ok", "ok_carry"}

values = st.lists(st.floats(allow_nan=False), max_size=4)
bounds = st.floats()  # finite, infinite and nan


def _expected(vals, bound, strict):
    if not vals or not math.isfinite(bound):
        return None
    return max(vals) < bound if strict else max(vals) <= bound


@given(values, bounds, st.one_of(st.none(), bounds), st.booleans())
def test_verdict_null_rule(vals, bound, carry, strict):
    rec = verdict(vals, bound, carry=carry, strict=strict)
    assert rec["values"] == vals and rec["ok"] is _expected(vals, bound, strict)
    if carry is None:
        assert set(rec) == {"values", "bound", "ok"}
    else:
        assert rec["ok_carry"] is _expected(vals, carry, strict)


def test_verdict_at_the_bound():
    assert verdict([1.0], 1.0)["ok"] is True
    assert verdict([1.0], 1.0, strict=True)["ok"] is False
    # an infinite value against a finite bound is a failed check, not a null one
    assert verdict([math.inf], 1.0)["ok"] is False
    assert verdict([], 1.0)["ok"] is None and verdict([0.0], math.inf)["ok"] is None


@given(st.lists(st.sampled_from([True, False, None])))
def test_reduction(oks):
    passed, evaluated = reduce_verdicts(oks)
    assert passed is (False not in oks)
    assert evaluated is (None not in oks)


def test_reduction_passes_null_unevaluated():
    assert reduce_verdicts([True, None]) == (True, False)
    assert reduce_verdicts([False, None]) == (False, False)


def _verdict_key_writes(tree):
    """Lines where a dict literal, a subscript store or a keyword writes an
    `ok` or `ok_carry` key under `tree`."""
    def key(node):
        return isinstance(node, ast.Constant) and node.value in VERDICT_KEYS

    lines = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Dict):
            lines += [k.lineno for k in n.keys if k is not None and key(k)]
        elif isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store) and key(n.slice):
            lines.append(n.lineno)
        elif isinstance(n, ast.keyword) and n.arg in VERDICT_KEYS:
            lines.append(n.value.lineno)
    return lines


def test_ok_keys_are_written_only_by_verdict():
    inside, outside = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = {ln for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "verdict"
               for ln in _verdict_key_writes(node)}
        for ln in _verdict_key_writes(tree):
            (inside if ln in own else outside).append(f"{path.name}:{ln}")
    assert inside, "the scan finds no key written by verdict() itself"
    assert outside == [], f"ok keys written outside verdict(): {outside}"
