"""A hypothesis strategy of small site graphs, shared by the lattice and sampling tests."""

from hypothesis import strategies as st

from glsim import chain, general, grid


@st.composite
def small_graphs(draw):
    """A chain or grid of one to three axes of length 1-5 (short axes make wraps
    coincide), open or periodic, or a general graph of up to 12 sites."""
    if draw(st.integers(0, 4)) == 0:
        n = draw(st.integers(1, 12))
        bonds = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=16))
        return general(n, bonds)
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    boundary = draw(st.sampled_from(["open", "periodic"]))
    return chain(dims[0], boundary) if len(dims) == 1 else grid(dims, boundary)
