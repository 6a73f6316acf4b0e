"""The benchmark's workloads: which CLI jobs each one runs, on which config.

The workload seed picks data values only: the config ``seed`` (the noise
key), the true-flux amplitude and cycles, and the noise levels. Sizes
(nz, nt, n_modes, number of observations, prior kind, blind m) and the
observation times never depend on it, because they set the amount of work.
"""

from __future__ import annotations

import random

#: Jobs of one pass over each workload, in the order they run.
JOBS = {
    "estimate": ("assimilate", "oracle_check"),
    "diagnose": (
        "validate",
        "eigen",
        "weights",
        "gains",
        "blind",
        "compare_altitude",
    ),
}

#: The diagnose campaign: 16 observation times evenly spaced over (0, 1],
#: weights cycling through these four.
DIAGNOSE_OBSERVATIONS = 16
DIAGNOSE_WEIGHTS = (
    "rho_plus",
    "rho_minus",
    "uniform",
    {"kind": "cosine", "amplitude": 1.0, "mode": 2},
)


def config(workload: str, seed: int) -> dict:
    """The JSON config document every job of ``workload`` runs on."""
    rng = random.Random(seed)
    n_obs = DIAGNOSE_OBSERVATIONS if workload == "diagnose" else 3
    doc = {
        "seed": rng.randrange(2**31),
        "flux": {
            "kind": "sine",
            "amplitude": round(rng.uniform(0.5, 2.0), 6),
            "cycles": round(rng.uniform(0.5, 3.0), 6),
        },
        "observations": {"noise": [round(rng.uniform(0.05, 0.2), 6) for _ in range(n_obs)]},
    }
    if workload == "diagnose":
        # a long, fine campaign; t = i/16 are nodes of the 16384-step grid
        doc["grid"] = {"nz": 4001, "nt": 16384}
        doc["spectral"] = {"n_modes": 40}
        doc["observations"]["times"] = [i / n_obs for i in range(1, n_obs + 1)]
        doc["observations"]["weights"] = [
            DIAGNOSE_WEIGHTS[i % len(DIAGNOSE_WEIGHTS)] for i in range(n_obs)
        ]
        doc["blind"] = {"m": 40}
    return doc
