"""Checkpoint files.

Layout: a ``DOMBERT-CKPT v1`` header line, one ``key=value`` line per model
config field (plus optional ``domain_names``/``target_index`` lines), then
every parameter array as a ``name dim1 dim2 ...`` text line followed by raw
little-endian 32-bit float data. A training checkpoint appends three
sections, in this order, so a run can resume bit-for-bit:

- ``ADAMAX-STATE step=.. beta1=.. beta2=.. eps=..``, then the arrays
  ``m.<name>`` and ``u.<name>`` for every parameter in parameter order;
- ``SAMPLER-STATE nbytes=N``, then N bytes of JSON in the sampler's own
  format (``sampler.state_to_json``);
- ``TRAINER-STATE nbytes=N``, then N bytes of JSON: the next step and the
  masking and dropout generator states.

Arrays are stored as float32 regardless of the in-memory dtype; training in
float32 (the default) round-trips exactly.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

import numpy as np

from .errors import CheckpointError
from .model import CONFIG_FIELDS, ModelConfig, Params, param_specs

MAGIC = "DOMBERT-CKPT v1"
_ADAMAX_SECTION = "ADAMAX-STATE"
_SAMPLER_SECTION = "SAMPLER-STATE"
_TRAINER_SECTION = "TRAINER-STATE"


@dataclass
class CheckpointBundle:
    config: ModelConfig
    params: Params
    domain_names: list[str] | None = None
    target_index: int | None = None
    adamax: dict[str, Any] | None = None
    sampler: dict[str, Any] | None = None
    trainer: dict[str, Any] | None = None


def _write_line(fh: BinaryIO, text: str) -> None:
    fh.write(text.encode("utf-8") + b"\n")


def _read_line(fh: BinaryIO) -> str:
    raw = fh.readline()
    if not raw.endswith(b"\n"):
        raise CheckpointError("truncated checkpoint: unterminated line")
    return raw[:-1].decode("utf-8")


def _write_array(fh: BinaryIO, name: str, arr: np.ndarray) -> None:
    dims = " ".join(str(d) for d in arr.shape)
    _write_line(fh, f"{name} {dims}")
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_array(fh: BinaryIO, name: str, shape: tuple[int, ...]) -> np.ndarray:
    line = _read_line(fh)
    fields = line.split(" ")
    if fields[0] != name:
        raise CheckpointError(f"expected array {name!r}, found {fields[0]!r}")
    found = tuple(int(v) for v in fields[1:])
    if found != shape:
        raise CheckpointError(f"array {name!r} has shape {found}, expected {shape}")
    nbytes = 4 * int(np.prod(shape)) if shape else 4
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise CheckpointError(f"truncated checkpoint: array {name!r} incomplete")
    return np.frombuffer(data, dtype="<f4").reshape(shape).copy()


def _config_lines(config: ModelConfig) -> list[str]:
    lines = []
    for field in CONFIG_FIELDS:
        lines.append(f"{field}={getattr(config, field)}")
    return lines


def _parse_config(lines: dict[str, str]) -> ModelConfig:
    kwargs: dict[str, Any] = {}
    for field in dataclasses.fields(ModelConfig):
        if field.name not in lines:
            raise CheckpointError(f"missing config field {field.name!r}")
        raw = lines[field.name]
        if field.type in ("int", int):
            kwargs[field.name] = int(raw)
        elif field.type in ("float", float):
            kwargs[field.name] = float(raw)
        elif field.type in ("bool", bool):
            kwargs[field.name] = raw == "True"
        else:
            kwargs[field.name] = raw
    return ModelConfig(**kwargs)


def _write_json_section(fh: BinaryIO, section: str, payload: dict[str, Any]) -> None:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    _write_line(fh, f"{section} nbytes={len(blob)}")
    fh.write(blob)


def save_model(
    path: str | Path,
    config: ModelConfig,
    params: Params,
    *,
    domain_names: list[str] | None = None,
    target_index: int | None = None,
    adamax: dict[str, Any] | None = None,
    sampler: dict[str, Any] | None = None,
    trainer: dict[str, Any] | None = None,
) -> None:
    """Config lines plus all parameter arrays; given adamax, sampler and
    trainer state (all three), a resumable training checkpoint."""
    with open(path, "wb") as fh:
        _write_line(fh, MAGIC)
        for line in _config_lines(config):
            _write_line(fh, line)
        if domain_names is not None:
            _write_line(fh, "domain_names=" + "\t".join(domain_names))
        if target_index is not None:
            _write_line(fh, f"target_index={target_index}")
        for name, shape in param_specs(config):
            _write_array(fh, name, params[name])
        if adamax is None:
            return
        _write_line(
            fh,
            f"{_ADAMAX_SECTION} step={adamax['step']} beta1={adamax['beta1']} "
            f"beta2={adamax['beta2']} eps={adamax['eps']}",
        )
        for name, _ in param_specs(config):
            _write_array(fh, "m." + name, adamax["m"][name])
            _write_array(fh, "u." + name, adamax["u"][name])
        _write_json_section(fh, _SAMPLER_SECTION, sampler)
        _write_json_section(fh, _TRAINER_SECTION, trainer)


def load(path: str | Path) -> CheckpointBundle:
    """Read a checkpoint; rejects bad versions, shapes, and truncation."""
    with open(path, "rb") as fh:
        if _read_line(fh) != MAGIC:
            raise CheckpointError("not a DOMBERT-CKPT v1 file")
        raw_config: dict[str, str] = {}
        domain_names: list[str] | None = None
        target_index: int | None = None
        pos = fh.tell()
        line = _read_line(fh)
        while "=" in line:
            key, value = line.split("=", 1)
            if key == "domain_names":
                domain_names = value.split("\t")
            elif key == "target_index":
                target_index = int(value)
            else:
                raw_config[key] = value
            pos = fh.tell()
            line = _read_line(fh)
        fh.seek(pos)
        config = _parse_config(raw_config)

        params: Params = {}
        dtype = config.np_dtype
        for name, shape in param_specs(config):
            params[name] = _read_array(fh, name, shape).astype(dtype)

        bundle = CheckpointBundle(
            config=config, params=params,
            domain_names=domain_names, target_index=target_index,
        )
        if not fh.peek(1):
            return bundle
        header_text = _read_line(fh)
        if not header_text.startswith(_ADAMAX_SECTION):
            raise CheckpointError(f"unexpected section {header_text!r}")
        kv = dict(f.split("=", 1) for f in header_text.split(" ")[1:])
        m: Params = {}
        u: Params = {}
        for name, shape in param_specs(config):
            m[name] = _read_array(fh, "m." + name, shape).astype(dtype)
            u[name] = _read_array(fh, "u." + name, shape).astype(dtype)
        bundle.adamax = {
            "step": int(kv["step"]), "beta1": float(kv["beta1"]),
            "beta2": float(kv["beta2"]), "eps": float(kv["eps"]),
            "m": m, "u": u,
        }
        bundle.sampler = _read_json_section(fh, _SAMPLER_SECTION)
        bundle.trainer = _read_json_section(fh, _TRAINER_SECTION)
        return bundle


def _read_json_section(fh: BinaryIO, section: str) -> dict[str, Any]:
    line = _read_line(fh)
    if not line.startswith(section):
        raise CheckpointError(f"expected section {section!r}")
    nbytes = int(line.split("nbytes=", 1)[1])
    blob = fh.read(nbytes)
    if len(blob) != nbytes:
        raise CheckpointError(f"truncated checkpoint: section {section!r}")
    return json.loads(blob.decode("utf-8"))


def expected_size(config: ModelConfig, *, domain_names: list[str] | None = None,
                  target_index: int | None = None) -> int:
    """Byte size of a model-only checkpoint: text lines + raw array bytes."""
    total = len(MAGIC) + 1
    for line in _config_lines(config):
        total += len(line) + 1
    if domain_names is not None:
        total += len("domain_names=" + "\t".join(domain_names)) + 1
    if target_index is not None:
        total += len(f"target_index={target_index}") + 1
    for name, shape in param_specs(config):
        dims = " ".join(str(d) for d in shape)
        total += len(f"{name} {dims}") + 1
        total += 4 * int(np.prod(shape))
    return total
