"""Payload round trips: bit-exact for finite doubles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarflow import AlgebraElement, BlockShape
from cstarflow.sampling import random_element, random_elements, rng
from cstarflow.serialize import element_from_payload, element_to_payload


def test_element_roundtrip_random():
    x = random_element(rng(0), BlockShape([2, 3]))
    back = element_from_payload(json.loads(json.dumps(element_to_payload(x))))
    for a, b in zip(back.blocks, x.blocks):
        np.testing.assert_array_equal(a, b)


def test_element_roundtrip_awkward_doubles():
    tricky = np.array(
        [
            [complex(1.0 / 3.0, -0.0), complex(5e-324, 1e308)],
            [complex(-2.2250738585072014e-308, math.pi), complex(0.1 + 0.2, -1e-17)],
        ]
    )
    from cstarflow import AlgebraElement

    x = AlgebraElement.from_blocks([tricky])
    text = json.dumps(element_to_payload(x))
    back = element_from_payload(json.loads(text))
    np.testing.assert_array_equal(back.blocks[0], tricky)


def test_payload_layout_row_major_pairs():
    from cstarflow import AlgebraElement

    x = AlgebraElement.from_blocks([np.array([[1.0, 2.0 + 3.0j], [0.0, -1.0j]])])
    payload = element_to_payload(x)
    assert payload == {
        "blocks": [[[1.0, 0.0], [2.0, 3.0], [0.0, 0.0], [-0.0, -1.0]]]
    }


def assert_same_bits(x: AlgebraElement, y: AlgebraElement) -> None:
    assert x.shape == y.shape
    for a, b in zip(x.blocks, y.blocks):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1,), (2,), (3,), (2, 1), (1, 2)]),
    st.floats(1e-300, 1e300),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8),
)
def test_payload_roundtrip_bitwise_hypothesis(seed, dims, scale, doubles):
    r, shape = rng(seed), BlockShape(dims)
    # any finite doubles, -0.0 and subnormals included, in a 2 x 2 block
    raw = np.array(doubles).view(complex).reshape(2, 2)
    for x in (AlgebraElement.from_blocks([raw]), scale * random_element(r, shape)):
        assert_same_bits(element_from_payload(json.loads(json.dumps(element_to_payload(x)))), x)


def test_a_batch_is_refused_with_its_shape():
    xs = random_elements(rng(1), BlockShape([2]), 4)
    with pytest.raises(ValueError, match=r"not a batch of shape \(4,\)"):
        element_to_payload(xs)
