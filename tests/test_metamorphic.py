"""Metamorphic tests: the run of a mapped problem is the image of the run.

A similarity of the plane, z -> s R z + c (a rotation R, a shift c and a
scale s > 0), maps geodesics to geodesics and multiplies every distance by
s. The Halpern-PPA demo ``scripts/configs/halpern_ppa_segment.json`` runs
the resolvents of f = d^2(., K) / 2 for a segment K, anchored at u. The
mapped objective d^2(., K') / 2, with K' the image of K, is s^2 f of the
preimage, so its resolvent at the same lam is the image of f's, and the
anchor weights do not depend on the points. The run of the mapped config,
with its tolerance times s, must then stop for the same reason after the
same number of steps, on the image of the original's iterates, to rounding.
"""

import json
import math
from pathlib import Path

import pytest

from hadamard_iter.cli import parse_run_config

CONFIG = Path(__file__).resolve().parent.parent / "scripts" / "configs" / "halpern_ppa_segment.json"
ANGLE, SHIFT = 0.7, (5.0, -3.0)


def _similarity(s):
    c, si = math.cos(ANGLE), math.sin(ANGLE)
    return lambda p: [s * (c * p[0] - si * p[1]) + SHIFT[0], s * (si * p[0] + c * p[1]) + SHIFT[1]]


def _run(cfg):
    built, run_cfg, _ = parse_run_config(cfg)
    return built.run(run_cfg)


@pytest.fixture(scope="module")
def original():
    cfg = json.loads(CONFIG.read_text())
    return cfg, _run(cfg)


@pytest.mark.parametrize("s", [1.0, 1e3, 1e6])
def test_a_similarity_maps_the_halpern_segment_run_onto_its_image(original, s):
    cfg, want = original
    image = _similarity(s)
    segment = cfg["source"]["objective"]["set"]
    mapped = {**cfg, "tolerance": cfg["tolerance"] * s,
              **{key: image(cfg[key]) for key in ("start", "anchor", "reference")},
              "source": {"objective": {**cfg["source"]["objective"], "set": {
                  **segment, "a": image(segment["a"]), "b": image(segment["b"])}}}}
    got = _run(mapped)

    assert got.summary.stop_reason is want.summary.stop_reason
    assert got.summary.iterations_run == want.summary.iterations_run
    assert math.dist(got.summary.final_point.xs, image(want.summary.final_point.xs)) <= 1e-12 * s
    assert [g.k for g in got.steps] == [w.k for w in want.steps]
    for g, w in zip(got.steps, want.steps):
        assert abs(g.residual - s * w.residual) <= 1e-10 * s * w.residual, g.k
