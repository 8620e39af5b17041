import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam.seeding import derive_rng, derive_seed

TAG = st.one_of(st.integers(-2**70, 2**70), st.text(max_size=6),
                st.floats(allow_nan=False), st.tuples(st.integers(0, 1), st.integers(0, 1)))


@settings(max_examples=60, deadline=None)
@given(master_seed=st.integers(0, 2**63), tags=st.lists(TAG, max_size=5))
def test_derive_rng_is_default_rng_of_the_derived_seed(master_seed, tags):
    # every stream of every sweep and design depends on this equality
    rng = derive_rng(master_seed, *tags)
    expected = np.random.default_rng(derive_seed(master_seed, *tags))
    assert rng.bit_generator.state == expected.bit_generator.state
    assert rng.random(6).tobytes() == expected.random(6).tobytes()
    assert rng.standard_normal(6).tobytes() == expected.standard_normal(6).tobytes()
    assert np.array_equal(rng.integers(0, 2**62, 6), expected.integers(0, 2**62, 6))
