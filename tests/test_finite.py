"""Every array is checked for finiteness one way: util.all_finite."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from vidcap.util import all_finite

SRC = Path(__file__).resolve().parent.parent / "src"

# finite values whose squares overflow, so the dot screen alone says "not finite"
HUGE = {np.float32: 3e38, np.float64: 1e200}


def special_values(dtype):
    """Values of dtype, as Python floats it holds exactly, that sit at the
    edges of the finite range: huge, subnormal, NaN and both infinities."""
    tiny = np.finfo(dtype).smallest_subnormal
    values = (HUGE[dtype], -HUGE[dtype], tiny, -tiny, 0.0, np.nan, np.inf, -np.inf)
    return [float(dtype(x)) for x in values]


@st.composite
def arrays(draw):
    """A float32 or float64 array of 0 to 3 dimensions (empty ones too),
    with special values at random positions, as drawn or as a strided,
    reversed or transposed view."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = np.dtype(dtype).itemsize * 8
    elements = st.one_of(st.floats(width=width), st.sampled_from(special_values(dtype)))
    shape = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=9)
    a = draw(hnp.arrays(dtype, shape, elements=elements))
    if a.ndim:
        a = draw(st.sampled_from([a, a[::2], a[::-1], a.T, a[..., 1::3]]))
    return a


@settings(max_examples=400, deadline=None)
@given(arrays())
def test_all_finite_agrees_with_isfinite(a):
    assert all_finite(a) == bool(np.isfinite(a).all())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("value", ["huge", "nan", "inf", "-inf", "subnormal"])
@pytest.mark.parametrize("strided", [False, True])
def test_all_finite_finds_one_value_in_a_large_array(dtype, value, strided):
    # past OpenBLAS's small-vector sizes, at a random position
    rng = np.random.default_rng(7)
    a = rng.standard_normal(2 * 100_003).astype(dtype)
    view = a[::2] if strided else a
    pos = int(rng.integers(view.size))
    view[pos] = {"huge": HUGE[dtype], "nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                 "subnormal": np.finfo(dtype).smallest_subnormal}[value]
    if value == "huge":
        view[-1] = -HUGE[dtype]
    assert all_finite(view) == (value in ("huge", "subnormal"))


def test_only_all_finite_calls_np_isfinite():
    # one finiteness test for every array: a new check calls util.all_finite
    # (a Python float is checked with math.isfinite)
    sites = []
    for path in sorted((SRC / "vidcap").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for node in ast.walk(tree):  # outer functions first: inner ones win
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(sub), node.name) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                    and not (path.name == "util.py" and owner.get(id(node)) == "all_finite")):
                sites.append(f"{path.name}:{node.lineno} ({owner.get(id(node))})")
    assert sites == []
