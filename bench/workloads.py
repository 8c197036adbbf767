"""Benchmark workloads and their seeded inputs.

Each workload is one fixed `fchlab` CLI command.  Geometry, well, width
schedule and grid sizes are fixed, so the work per run does not depend on
the seed; the seed only moves the (eta1, eta2) coefficients, which weight
the energy terms but change no array shape, no shooting problem and no
loop count.  The generated configuration reaches the CLI only through
`--config`.
"""

from __future__ import annotations

import random

# (eta1, eta2) box for the converge workloads.  Over it the micelle limit
# -alpha*eta1/2*sigma_2 and the bilayer limit G1 on Sphere(3) keep at least
# 70% of their magnitude at (1, 1), |E(eps_min) - limit| / |limit| stays
# within 2e-5 (micelle) and 2e-4 (bilayer), and the CLI exits 0.
ETA_BOX = (0.8, 1.2)

WORKLOADS = {
    "converge-micelle-ellipse": {
        "command": "converge",
        "base": {
            "kind": "micelle",
            "geometry": {"shape": "ellipse", "a": 2.0, "b": 1.0},
            "alpha": 0.5,
        },
        "rows": 4,
        # |E(eps_min) - limit| / |limit| must stay below this
        "limit_tol": 1e-4,
    },
    "converge-bilayer-sphere": {
        "command": "converge",
        "base": {
            "kind": "bilayer",
            "geometry": {"shape": "sphere", "rho": 3.0},
        },
        "rows": 4,
        "limit_tol": 1e-3,
    },
    "phase-sphere": {
        "command": "phase",
        "base": {
            "geometry": {"shape": "sphere", "rho": 3.0},
            "alpha": 0.5,
        },
        "rows": 121,
    },
}


def make_config(workload: str, seed: int) -> dict:
    """The CLI configuration for one run of `workload`, drawn from `seed`."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    cfg = dict(spec["base"], out="out.csv")
    if spec["command"] == "converge":
        cfg["eta1"] = round(rng.uniform(*ETA_BOX), 6)
        cfg["eta2"] = round(rng.uniform(*ETA_BOX), 6)
    else:
        # shifted 11 x 11 grids; eta1 stays positive so every cell is valid
        lo1 = round(rng.uniform(0.1, 0.3), 6)
        lo2 = round(rng.uniform(-2.5, -1.5), 6)
        cfg["eta1_range"] = [lo1, lo1 + 1.9, 11]
        cfg["eta2_range"] = [lo2, lo2 + 8.0, 11]
    return cfg
