"""Property tests of the SANFV ring up to the advertised limit n = 2^16.

Examples are drawn by hypothesis with a fixed derandomized seed, so every
run checks the same cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import symfai as s
from symfai.sanfv import MAX_VARIABLES

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)

# small n hit the truncation sigma_k = 0 for k > n often; the limit itself
# and the n just below it are drawn explicitly
LIMITS = st.sampled_from((MAX_VARIABLES - 1, MAX_VARIABLES))
SIZES = st.one_of(st.integers(1, 40), st.integers(41, MAX_VARIABLES), LIMITS)


@st.composite
def functions(draw, count: int, sizes=SIZES):
    """count symmetric functions on one drawn n."""
    n = draw(sizes)
    return [s.Sanfv(n, draw(st.integers(0, (1 << (n + 1)) - 1))) for _ in range(count)]


@PROPERTY
@given(functions(3))
def test_add_is_an_abelian_group_of_exponent_two(fs):
    f, g, h = fs
    zero = s.Sanfv(f.n, 0)
    assert s.add(f, g) == s.add(g, f)
    assert s.add(s.add(f, g), h) == s.add(f, s.add(g, h))
    assert s.add(f, zero) == f
    assert s.add(f, f) == zero


@PROPERTY
@given(functions(3))
def test_mul_is_a_commutative_monoid_distributing_over_add(fs):
    f, g, h = fs
    one = s.Sanfv(f.n, 1)
    assert s.mul(f, g) == s.mul(g, f)
    assert s.mul(s.mul(f, g), h) == s.mul(f, s.mul(g, h))
    assert s.mul(f, one) == f
    assert s.mul(f, s.add(g, h)) == s.add(s.mul(f, g), s.mul(f, h))


@PROPERTY
@given(functions(1))
def test_mul_is_idempotent(fs):
    (f,) = fs
    assert s.mul(f, f) == f


@PROPERTY
@given(functions(1))
def test_value_vector_round_trip(fs):
    (f,) = fs
    assert s.to_sanfv(s.to_values(f)) == f


@PROPERTY
@given(functions(1, st.one_of(st.integers(2, 40), st.integers(41, MAX_VARIABLES), LIMITS)), st.data())
def test_split_recombines(fs, data):
    (f,) = fs
    k = data.draw(st.integers(1, f.n.bit_length() - 1))
    form = s.split(f, k)
    assert form.recombine() == f
    # the degree caps that make the split unique
    for i, part in form.parts:
        assert part.degree() is None or part.degree() <= (1 << i) - 1
    assert form.residue.degree() is None or form.residue.degree() <= (1 << k) - 1


@PROPERTY
@given(functions(1))
def test_decompose_compose_round_trip(fs):
    (f,) = fs
    assert s.compose(s.decompose(f), f.n) == f
