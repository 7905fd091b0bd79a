"""Pinned outputs of the module-construction layer (cells, D_2, tensor).

Each digest is the sha256 of a module's JSON diagram, its labels per
degree and its sorted action tables, so a refactor of ``from_cells``,
``tensor`` or ``d2_homology`` that changes any label, basis order or
action bit shows here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from hcm import extpower as ep
from hcm import stmodule as sm


def _record(m: sm.GradedModule) -> list:
    return [m.to_json(),
            [[d, list(m.labels(d))] for d in range(m.lo, m.hi + 1)],
            sorted([a, d, list(rows)] for (a, d), rows in m.action.items())]


def _digest(modules) -> str:
    blob = json.dumps([_record(m) for m in modules], sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode()).hexdigest()


SUPPORTED = [n for n in range(8, 80) if n % 8 in (0, 1, 4)]

PINS = {
    "splitting-summands": (
        lambda: [m for n in SUPPORTED for m in ep.d2_splitting_summands(n)],
        "1a46604dde900e778420aa9ab61c656caf62621229c48aaa064ea84f83696ff5"),
    "tensor-square": (
        lambda: [ep.tensor_square(n) for n in (16, 17, 20, 33)],
        "168a592bde3b3f65139160ea15acb7888e6e51be14f6c6f67d15542b592cea69"),
    "d2-sphere-integral": (
        lambda: [ep.d2_sphere(15), ep.d2_integral(15)],
        "c9faa9ffa487339620d0ea0098f3fbb7bd2bc996f08dcafe40fd516601adf545"),
    "square-style-power": (
        lambda: [ep.d2_homology(sm.builtin("o", 17), (32, 35), square_style="power")],
        "5c91064ca269a680f9e75169d1f46808338d9f0994f7cb07608f63495339bf4b"),
    "builtins": (
        lambda: [sm.builtin("o", 16), sm.builtin("o", 17), sm.builtin("o", 20),
                 sm.builtin("Z", 3), sm.builtin("Z", 15, window=(15, 19))],
        "f114bb4b33b6b1208beb23ac73b3750088f820bc777de282852ff2b636629897"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_construction_outputs_pinned(name):
    make, digest = PINS[name]
    assert _digest(make()) == digest
