"""Structured-text payloads for algebra and module values.

Payloads are plain JSON-compatible dictionaries.  An algebra element is

    {"blocks": [[[re, im], ...row-major...], ...]}

one flat row-major list of [re, im] pairs per square block.  A module
operator is ``{"entries": [[element, ...], ...]}``, its k x k grid of
element payloads, and a module vector ``{"entries": [element, ...]}``,
one element payload per slot.  Floats are written with shortest
round-trip representation, so read/write is bit-exact for finite doubles.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .algebra import AlgebraElement, BlockShape, HermitianElement
from .flows import FlowGenerator
from .hilbmod import ModuleOperator, ModuleVector


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


def flow_to_payload(g: FlowGenerator) -> dict:
    return {
        "kind": "automorphism" if g.is_automorphism else "two-sided",
        "h_left": element_to_payload(g.h_left.value),
        "h_right": element_to_payload(g.h_right.value),
    }


def flow_from_payload(payload: dict) -> FlowGenerator:
    return FlowGenerator(
        HermitianElement(element_from_payload(payload["h_left"])),
        HermitianElement(element_from_payload(payload["h_right"])),
    )


def operator_to_payload(s: ModuleOperator) -> dict:
    return {"entries": [[element_to_payload(e) for e in row] for row in s.entries]}


def operator_from_payload(payload: dict) -> ModuleOperator:
    return ModuleOperator.from_entries(
        [[element_from_payload(p) for p in row] for row in payload["entries"]]
    )


def vector_to_payload(v: ModuleVector) -> dict:
    return {"entries": [element_to_payload(e) for e in v.entries]}


def vector_from_payload(payload: dict) -> ModuleVector:
    return ModuleVector.from_entries([element_from_payload(p) for p in payload["entries"]])


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def loads(text: str) -> dict:
    return json.loads(text)
