"""Output checks for one benchmark job.

Each check uses the tolerance the acceptance gate (tests/test_acceptance.py)
already enforces for the same quantity. A job whose artifacts fail any
check counts as failed.
"""

from __future__ import annotations

import json
from pathlib import Path


def _json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


def _manifest(scenario: str, doc: dict, out: Path) -> list:
    manifest = _json(out, "manifest.json")
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    problems = []
    if manifest["outputs"] != written:
        problems.append(f"manifest lists {manifest['outputs']}, wrote {written}")
    if manifest["scenario"] != scenario or manifest["seed"] != doc["seed"]:
        problems.append("manifest names another scenario or seed")
    return problems


def _assimilate(doc: dict, out: Path) -> list:
    # AC8: CG converges and the MAP matches the dense posterior mean to 1e-6
    report = _json(out, "assimilate.json")
    problems = [] if report["converged"] else ["CG did not converge"]
    if not report["map_vs_oracle_mean_rel"] <= 1e-6:
        problems.append(f"MAP vs oracle mean {report['map_vs_oracle_mean_rel']:.3e} > 1e-6")
    return problems


def _oracle_check(doc: dict, out: Path) -> list:
    # AC3: spectral gains match discrete representers to 1e-2 relative L2
    gap = _json(out, "oracle_report.json")["max_representer_vs_gain_rel_l2"]
    return [] if gap <= 1e-2 else [f"representer gap {gap:.3e} > 1e-2"]


def _blind(doc: dict, out: Path) -> list:
    # AC7: normalized projection onto every gain <= 1e-6
    proj = _json(out, "blind_report.json")["max_normalized_projection"]
    return [] if proj <= 1e-6 else [f"blind projection {proj:.3e} > 1e-6"]


def _compare_altitude(doc: dict, out: Path) -> list:
    # AC5 and AC6: the gap matches its closed form to 1e-6 relative, and the
    # surface weight's gain rises while the top weight's falls
    report = _json(out, "compare_altitude.json")
    closed = report["closed_form_difference"]
    problems = []
    if not abs(report["mean_gain_difference"] - closed) <= 1e-6 * closed:
        problems.append(f"gap {report['mean_gain_difference']!r} vs closed form {closed!r}")
    if report["rho_plus"]["monotone"] != "increasing":
        problems.append("rho_plus gain is not increasing")
    if report["rho_minus"]["monotone"] != "decreasing":
        problems.append("rho_minus gain is not decreasing")
    return problems


def _gains(doc: dict, out: Path) -> list:
    # AC6: rho_plus gains increase and rho_minus gains decrease
    summary = _json(out, "gains.json")
    expected = {"rho_plus": "increasing", "rho_minus": "decreasing"}
    problems = []
    for i, weight in enumerate(doc["observations"]["weights"]):
        want = expected.get(weight) if isinstance(weight, str) else None
        got = summary[f"observation_{i:02d}"]["monotone"]
        if want is not None and got != want:
            problems.append(f"observation {i} ({weight}) gain is {got}")
    return problems


_CHECKS = {
    "assimilate": _assimilate,
    "oracle_check": _oracle_check,
    "blind": _blind,
    "compare_altitude": _compare_altitude,
    "gains": _gains,
}


def check(scenario: str, doc: dict, out: Path) -> list:
    """Problems found in the artifacts ``scenario`` wrote to ``out``."""
    try:
        problems = _manifest(scenario, doc, out)
        if scenario in _CHECKS:
            problems += _CHECKS[scenario](doc, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
    return problems
