"""The outputs of the Euclidean demos in ``scripts/configs``, pinned by digest.

``scripts/demo_digests.json`` holds the sha256 of every file the four demos
below write. A change that moves any bit of them fails here, and the failure
prints the new table, to commit when the change is meant. Two demos are left
out because their bits may differ across machines: ``hyperboloid_ball``,
whose ``math.sinh`` and ``math.asinh`` come from the platform's libm, and
``check_inequalities``, whose numpy ``einsum`` may take other SIMD paths.
"""

import hashlib
import json
from pathlib import Path

from hadamard_iter.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DEMOS = {"ppa_quartic": "run", "halpern_ppa_segment": "run", "halpern_equilibrium": "run",
         "sweep_lambda": "sweep"}


def test_euclidean_demo_outputs_match_their_digests(tmp_path):
    for name, command in DEMOS.items():
        config = SCRIPTS / "configs" / f"{name}.json"
        # a Halpern run that stops at its budget exits 2 by design
        assert main([command, "--config", str(config), "--out", str(tmp_path)]) in (0, 2)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    want = json.loads((SCRIPTS / "demo_digests.json").read_text())
    assert got == want, "new digests:\n" + json.dumps(got, indent=2, sort_keys=True)
