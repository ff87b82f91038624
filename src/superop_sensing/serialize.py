"""On-disk formats: JSON manifests plus CMX1 matrix payloads.

Matrix collections are held in memory as one C-contiguous (count, N, N)
array and stored as one CMX1 file with the members horizontally concatenated
(an N x N*count matrix); the manifest records the count. Blockwise data, an
(N, M_O) array in memory, are stored transposed, one column per block. JSON
manifests are written with sorted keys so identical objects serialize to
identical bytes.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import DimensionError, _check_fields
from .linalg import load_cmx, save_cmx
from .measurements import DESIGN_KINDS, NOISE_MODES, MeasurementSet, SensingDesign
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

# the fields of each manifest that its loader reads, by the rules of
# `errors._check_fields`
_SUPEROPERATOR = {"dim_n": 1, "r_plus": 0, "r_minus": 0}
_DESIGN = {"kind": DESIGN_KINDS, "dim_n": 1, "count": 1, "row_index": 0}
_MEASUREMENTS = {"kind": DESIGN_KINDS, "sigma": "[0, inf)", "seed": 0,
                 "noise_mode": NOISE_MODES}


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
    """The JSON object stored at path; any other JSON value, text that is
    not JSON, or JSON nested deeper than the parser's recursion limit
    raises DimensionError naming the file."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DimensionError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DimensionError(f"{path}: need a JSON object, got {type(payload).__name__}")
    return payload


def _read_manifest(path: str, rules: dict) -> dict:
    """The manifest stored at path, whose fields that `rules` names are
    checked by `errors._check_fields`; a DimensionError names the file."""
    manifest = load_json(path)
    try:
        _check_fields(manifest, rules)
    except DimensionError as exc:
        raise DimensionError(f"{path}: {exc}") from exc
    return manifest


def save_matrix_stack(path: str, mats) -> None:
    """Store a (count, N, N) stack as one horizontal concatenation."""
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim != 3 or len(mats) == 0:
        raise DimensionError(f"need a non-empty (count, N, N) stack, got {mats.shape}")
    save_cmx(path, mats.transpose(1, 0, 2).reshape(mats.shape[1], -1))


def load_matrix_stack(path: str, count: int) -> np.ndarray:
    """Read a stack written by save_matrix_stack as a C-contiguous
    (count, N, N) array; count comes from a manifest, so it is checked to
    be an integer >= 1 before the file is read."""
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise DimensionError(f"{path}: stack count must be an integer >= 1, got {count!r}")
    block = load_cmx(path)
    width = block.shape[1] // count
    if width * count != block.shape[1]:
        raise DimensionError(f"{path}: width {block.shape[1]} not divisible by {count}")
    return np.ascontiguousarray(block.reshape(block.shape[0], count, width)
                                .transpose(1, 0, 2))


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
    manifest = _read_manifest(os.path.join(in_dir, "superoperator.json"), _SUPEROPERATOR)
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
        save_matrix_stack(os.path.join(out_dir, "states.cmx"), design.states)
    save_matrix_stack(os.path.join(out_dir, "observables.cmx"), design.observables)
    save_json(os.path.join(out_dir, "design.json"), manifest)


def load_design(in_dir: str) -> SensingDesign:
    manifest = _read_manifest(os.path.join(in_dir, "design.json"), _DESIGN)
    kind, count = manifest["kind"], manifest["count"]
    obs = load_matrix_stack(os.path.join(in_dir, "observables.cmx"), count)
    if kind == "random_pairs":
        states = load_matrix_stack(os.path.join(in_dir, "states.cmx"), count)
        return SensingDesign("random_pairs", manifest["dim_n"], obs, states=states)
    return SensingDesign("blockwise", manifest["dim_n"], obs,
                         row_index=manifest["row_index"])


def save_measurements(out_dir: str, data: MeasurementSet) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if np.ndim(data.values) == 2:
        values = data.values.T                                  # M_O x N
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
    """Stored data, which must have their manifest's `shape`; pair values
    must be one real column."""
    manifest = _read_manifest(os.path.join(in_dir, "measurements.json"), _MEASUREMENTS)
    kind = manifest["kind"]
    path = os.path.join(in_dir, "values.cmx")
    values = load_cmx(path)
    if list(values.shape) != manifest["shape"]:
        raise DimensionError(f"{path}: shape {list(values.shape)}, manifest {manifest['shape']}")
    if kind == "blockwise":
        payload = np.ascontiguousarray(values.T)                # N x M_O
    elif values.shape[1] != 1 or values.imag.any():
        raise DimensionError(f"{path}: pair values must be one real column")
    else:
        payload = values[:, 0].real.copy()
    return MeasurementSet(manifest["design_ref"], payload, manifest["sigma"],
                          manifest["seed"], manifest["noise_mode"])
