"""Structured-text payloads for algebra elements, the format configs give elements in.

A payload is a plain JSON-compatible dictionary,

    {"blocks": [[[re, im], ...row-major...], ...]}

one flat row-major list of [re, im] pairs per square block.  Floats are
written with shortest round-trip representation, so read/write is
bit-exact for finite doubles.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import AlgebraElement, BlockShape


def element_to_payload(x: AlgebraElement) -> dict:
    """The payload of one element; ``ValueError`` for a batch, which the format cannot hold."""
    batch = x.blocks[0].shape[:-2]
    if batch:
        raise ValueError(f"a payload holds one element, not a batch of shape {batch}")
    blocks = []
    for b in x.blocks:
        blocks.append([[float(v.real), float(v.imag)] for v in b.ravel()])
    return {"blocks": blocks}


def element_from_payload(payload: dict) -> AlgebraElement:
    blocks = []
    for flat in payload["blocks"]:
        n = math.isqrt(len(flat))
        if n * n != len(flat):
            raise ValueError("block payload length is not a perfect square")
        data = np.array([complex(re, im) for re, im in flat]).reshape(n, n)
        blocks.append(data)
    return AlgebraElement(BlockShape(b.shape[0] for b in blocks), blocks)

