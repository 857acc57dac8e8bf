"""Output check run after every timed repeat; any problem fails the repeat.

Every seed: the manifest is complete and each listed file matches its
sha256; the averaged well has exactly two bound states with
E0 < E1 < 0; on kh_beat (absorber off) the norm stays within 1e-9 of 1.
Seed 0 at full size also compares against references pinned from the
seed commit, with tolerances loose enough for the rounding changes a
change of method may bring (energies 1e-10; norms and the observable
series 1e-5, since eigenstates may move by 1e-12 in overlap).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

ENERGY_TOL = 1e-10
SERIES_TOL = 1e-5
NORM_CONSERVED_TOL = 1e-9

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
MISSING_REFERENCE = "no pinned reference at"


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_csv_columns(path: str) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(row[i]) for row in body] for i, name in enumerate(header)}


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def _close(a: float, b, tol: float) -> bool:
    if b is None:  # nan in the reference
        return math.isnan(a)
    return abs(a - b) <= tol * max(1.0, abs(b))


def _check_manifest(out_dir: str, manifest: dict) -> list[str]:
    problems = []
    if manifest.get("status") != "complete":
        problems.append(f"manifest status {manifest.get('status')!r}: {manifest.get('error')}")
    files = manifest.get("files") or {}
    if not files:
        problems.append("manifest lists no files")
    for name, digest in files.items():
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name}: listed but missing")
        elif sha256(path) != digest:
            problems.append(f"{name}: sha256 differs from the manifest")
    return problems


def _check_invariants(workload, manifest: dict, kh_energies, series) -> list[str]:
    problems = []
    if len(kh_energies) != 2:
        problems.append(f"{len(kh_energies)} KH bound states, expected exactly 2")
    elif not kh_energies[0] < kh_energies[1] < 0.0:
        problems.append(f"KH energies {kh_energies} are not E0 < E1 < 0")
    derived = manifest.get("derived", {})
    for k, energy in enumerate(kh_energies[:2]):
        if derived.get(f"e_kh_{k}") != energy:
            problems.append(f"manifest e_kh_{k} differs from the solver's value")
    if workload.name == "kh_beat":
        final = manifest.get("residuals", {}).get("final_norm", math.nan)
        drift = max([abs(v - 1.0) for v in series["norm"]] + [abs(final - 1.0)])
        if not drift <= NORM_CONSERVED_TOL:
            problems.append(f"norm drifts by {drift:.3e} with the absorber off")
    return problems


def _check_reference(manifest: dict, series, ref: dict) -> list[str]:
    problems = []
    got = {**manifest.get("derived", {}), **manifest.get("residuals", {})}
    for key, want in ref["energies"].items():
        if not _close(got.get(key, math.nan), want, ENERGY_TOL):
            problems.append(f"{key} = {got.get(key)!r}, reference {want!r}")
    for key, want in ref["norms"].items():
        if not _close(got.get(key, math.nan), want, SERIES_TOL):
            problems.append(f"{key} = {got.get(key)!r}, reference {want!r}")
    if "series" in ref:
        for name, want in ref["series"].items():
            have = series.get(name, [])
            if len(have) != len(want):
                problems.append(f"observables.csv {name}: {len(have)} rows, reference {len(want)}")
                continue
            bad = sum(not _close(a, b, SERIES_TOL) for a, b in zip(have, want))
            if bad:
                problems.append(f"observables.csv {name}: {bad} rows off the reference")
    return problems


def check_output(out_dir: str, workload, seed: int, kh_energies, smoke: bool) -> list[str]:
    """Problems found in one run directory; empty when the output is right."""
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as err:
        return [f"manifest.json unreadable: {err}"]
    problems = _check_manifest(out_dir, manifest)
    series = None
    if workload.propagates:
        try:
            series = read_csv_columns(os.path.join(out_dir, "observables.csv"))
        except (OSError, ValueError, IndexError) as err:
            return problems + [f"observables.csv unreadable: {err}"]
    problems += _check_invariants(workload, manifest, list(kh_energies), series)
    if seed == 0 and not smoke:
        try:
            with open(reference_path(workload.name)) as fh:
                ref = json.load(fh)
        except OSError:
            return problems + [f"{MISSING_REFERENCE} {reference_path(workload.name)}"]
        problems += _check_reference(manifest, series, ref)
    return problems
