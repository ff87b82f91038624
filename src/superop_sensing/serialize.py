"""On-disk formats: JSON manifests plus CMX1 matrix payloads.

Matrix collections are stored as one CMX1 file with the members horizontally
concatenated (an N x N*count matrix); the manifest records the count. JSON
manifests are written with sorted keys so identical objects serialize to
identical bytes.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DimensionError
from .linalg import load_cmx, save_cmx
from .measurements import MeasurementSet, SensingDesign
from .models import Superoperator

__all__ = [
    "write_text",
    "save_json",
    "load_json",
    "save_superoperator",
    "load_superoperator",
    "save_design",
    "load_design",
    "save_measurements",
    "load_measurements",
    "save_matrix_stack",
    "load_matrix_stack",
]


def write_text(path: str, text: str) -> None:
    """Write through a temporary file and rename, so readers never see a
    partial file."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_json(path: str, payload: dict) -> None:
    write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save_matrix_stack(path: str, mats) -> None:
    """Store a list of equally sized matrices as one horizontal concatenation."""
    if not mats:
        raise DimensionError("empty matrix list")
    save_cmx(path, np.hstack([np.asarray(m, dtype=np.complex128) for m in mats]))


def load_matrix_stack(path: str, count: int) -> list:
    block = load_cmx(path)
    width = block.shape[1] // count
    if width * count != block.shape[1]:
        raise DimensionError(f"{path}: width {block.shape[1]} not divisible by {count}")
    return [block[:, i * width:(i + 1) * width] for i in range(count)]


def save_superoperator(out_dir: str, s: Superoperator, extra: dict | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "kind": "superoperator",
        "dim_n": s.dim_n,
        "r_plus": len(s.plus_ops),
        "r_minus": len(s.minus_ops),
    }
    if extra:
        manifest.update(extra)
    if s.plus_ops:
        save_matrix_stack(os.path.join(out_dir, "plus_ops.cmx"), s.plus_ops)
    if s.minus_ops:
        save_matrix_stack(os.path.join(out_dir, "minus_ops.cmx"), s.minus_ops)
    save_json(os.path.join(out_dir, "superoperator.json"), manifest)


def load_superoperator(in_dir: str) -> Superoperator:
    manifest = load_json(os.path.join(in_dir, "superoperator.json"))
    plus = minus = []
    if manifest["r_plus"]:
        plus = load_matrix_stack(os.path.join(in_dir, "plus_ops.cmx"),
                                 manifest["r_plus"])
    if manifest["r_minus"]:
        minus = load_matrix_stack(os.path.join(in_dir, "minus_ops.cmx"),
                                  manifest["r_minus"])
    return Superoperator(manifest["dim_n"], plus, minus)


def save_design(out_dir: str, design: SensingDesign, seed: int | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "kind": design.kind,
        "dim_n": design.dim_n,
        "count": design.n_measurements,
        "row_index": design.row_index,
    }
    if seed is not None:
        manifest["seed"] = seed
    if design.kind == "random_pairs":
        save_matrix_stack(os.path.join(out_dir, "states.cmx"),
                          [p[0] for p in design.pairs])
        save_matrix_stack(os.path.join(out_dir, "observables.cmx"),
                          [p[1] for p in design.pairs])
    else:
        save_matrix_stack(os.path.join(out_dir, "observables.cmx"),
                          design.observables)
    save_json(os.path.join(out_dir, "design.json"), manifest)


def load_design(in_dir: str) -> SensingDesign:
    manifest = load_json(os.path.join(in_dir, "design.json"))
    count = manifest["count"]
    obs = load_matrix_stack(os.path.join(in_dir, "observables.cmx"), count)
    if manifest["kind"] == "random_pairs":
        states = load_matrix_stack(os.path.join(in_dir, "states.cmx"), count)
        return SensingDesign("random_pairs", manifest["dim_n"],
                             pairs=list(zip(states, obs)))
    return SensingDesign("blockwise", manifest["dim_n"], observables=obs,
                         row_index=manifest["row_index"])


def save_measurements(out_dir: str, data: MeasurementSet) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if isinstance(data.values, list):
        values = np.stack([np.asarray(v) for v in data.values]).T  # M_O x N
        kind = "blockwise"
    else:
        values = np.asarray(data.values, dtype=np.complex128).reshape(-1, 1)
        kind = "random_pairs"
    save_cmx(os.path.join(out_dir, "values.cmx"), values)
    save_json(os.path.join(out_dir, "measurements.json"), {
        "kind": kind,
        "design_ref": data.design_ref,
        "sigma": data.sigma,
        "seed": data.seed,
        "noise_mode": data.noise_mode,
        "shape": list(values.shape),
    })


def load_measurements(in_dir: str) -> MeasurementSet:
    manifest = load_json(os.path.join(in_dir, "measurements.json"))
    values = load_cmx(os.path.join(in_dir, "values.cmx"))
    if manifest["kind"] == "blockwise":
        payload = [values[:, k].copy() for k in range(values.shape[1])]
    else:
        payload = values[:, 0].real.copy()
    return MeasurementSet(manifest["design_ref"], payload, manifest["sigma"],
                          manifest["seed"], manifest["noise_mode"])
