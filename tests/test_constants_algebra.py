"""Property tests of the constants algebra over random admissible (m, n, lam).

On the constraint line A(m-2) + Bn = 2 the coupling Z_{m,n}(A, B) is a
quadratic in A with vertex value 1/(m-2) (m != 2), so lambda_to_constants
has two roots on one side of that value, a double root at it and none on
the other side; for m = 2, Z is linear and every lam has one root.  For
m > 2 the vertex is the top of the reachable range; for m = 1 it is the
bottom.
"""

import math

import pytest

from warpflow.errors import ConstantsError
from warpflow.warped import (WarpedConstants, c2_residual,
                             lambda_to_constants, z_value)

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st  # noqa: E402

dims = st.tuples(st.integers(1, 12), st.integers(1, 12)) \
    .filter(lambda mn: mn[0] + mn[1] > 2)
curved = dims.filter(lambda mn: mn[0] != 2)
couplings = st.floats(-1e3, 1e3, allow_nan=False)


def reachable(m: int, lam: float) -> bool:
    """Strictly inside the range: two roots for m != 2."""
    return m == 2 or 1.0 - lam * (m - 2) > 0.0


@given(dims, couplings)
def test_every_root_reaches_lambda_on_the_constraint_line(mn, lam):
    m, n = mn
    assume(reachable(m, lam))
    roots = lambda_to_constants(m, n, lam)
    assert len(roots) == (1 if m == 2 else 2)
    for c in roots:
        assert abs(c2_residual(m, n, c.A, c.B)) <= 1e-12
        assert z_value(m, n, c.A, c.B) == pytest.approx(lam, rel=1e-9,
                                                        abs=1e-9)
    assert [c.A for c in roots] == sorted((c.A for c in roots), reverse=True)


@given(curved)
def test_vertex_value_has_one_root(mn):
    m, n = mn
    top = 1.0 / (m - 2)
    (c,) = lambda_to_constants(m, n, top)
    assert abs(c.B) <= 1e-12
    assert z_value(m, n, c.A, c.B) == pytest.approx(top, rel=1e-12)


@given(curved, st.floats(1e-6, 1e3))
def test_past_the_vertex_raises(mn, gap):
    m, n = mn
    top = 1.0 / (m - 2)
    lam = top + gap if m > 2 else top - gap
    with pytest.raises(ConstantsError):
        lambda_to_constants(m, n, lam)


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("mn", [(3, 1), (2, 1), (1, 3)])
def test_non_finite_lambda_raises(mn, lam):
    # inf < inf is False and so is every comparison with NaN, so without
    # their own check these slip past the range test to a vertex or NaN row
    with pytest.raises(ConstantsError):
        lambda_to_constants(*mn, lam)


@pytest.mark.parametrize("A,B,lam", [(math.nan,) * 3,
                                     (math.inf, 0.0, math.inf),
                                     (2.0, 0.0, math.nan)])
def test_constants_reject_non_finite_values(A, B, lam):
    with pytest.raises(ConstantsError):
        WarpedConstants(m=3, n=1, A=A, B=B, theta=math.nan, lam=lam)
