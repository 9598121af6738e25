"""Checkpoint files.

Layout: a ``DOMBERT-CKPT v1`` header line, one ``key=value`` line per model
config field (plus optional ``domain_names``/``target_index`` lines), then
every parameter array as a ``name dim1 dim2 ...`` text line followed by raw
little-endian float data in the config's dtype (``<f4`` for float32, ``<f8``
for float64), so every run round-trips exactly. A training checkpoint
appends three sections, in this order, so a run can resume bit-for-bit:

- ``ADAMAX-STATE step=.. beta1=.. beta2=.. eps=..``, then the arrays
  ``m.<name>`` and ``u.<name>`` for every parameter in parameter order;
- ``SAMPLER-STATE nbytes=N``, then N bytes of JSON in the sampler's own
  format (``sampler.state_to_json``);
- ``TRAINER-STATE nbytes=N``, then N bytes of JSON: the next step, the
  masking generator's state, and the run's training config.

Config keys that are not ModelConfig fields are ignored on load, so a file
that carries a since-retired field still loads.

A file is written under a temporary name and renamed into place, so a
failed save leaves any earlier file at that path intact.
"""
from __future__ import annotations

import dataclasses
import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, BinaryIO

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
    try:
        return raw[:-1].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError("corrupt checkpoint: a text line is not UTF-8") from exc


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CheckpointError(f"corrupt checkpoint: {what} {text!r} is not an integer") from None


@contextmanager
def open_replacing(path: str | Path, mode: str = "wb", **kwargs: Any) -> Iterator[IO]:
    """Open a temporary sibling of path for writing and rename it over path
    once the block completes; on failure the temporary file is removed and
    path keeps its old content. The temporary name ends in ``.tmp``."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_array(fh: BinaryIO, name: str, arr: np.ndarray, config: ModelConfig) -> None:
    dims = " ".join(str(d) for d in arr.shape)
    _write_line(fh, f"{name} {dims}")
    fh.write(np.ascontiguousarray(arr, dtype=config.np_dtype.newbyteorder("<")).tobytes())


def _read_array(fh: BinaryIO, name: str, shape: tuple[int, ...],
                config: ModelConfig) -> np.ndarray:
    line = _read_line(fh)
    fields = line.split(" ")
    if fields[0] != name:
        raise CheckpointError(f"expected array {name!r}, found {fields[0]!r}")
    found = tuple(_int(v, f"dimension of array {name!r}") for v in fields[1:])
    if found != shape:
        raise CheckpointError(f"array {name!r} has shape {found}, expected {shape}")
    dtype = config.np_dtype.newbyteorder("<")
    nbytes = dtype.itemsize * int(np.prod(shape))
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise CheckpointError(f"truncated checkpoint: array {name!r} incomplete")
    return np.frombuffer(data, dtype=dtype).reshape(shape).astype(config.np_dtype)


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
        kwargs[field.name] = _int(raw, field.name) if field.type == "int" else raw
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
    with open_replacing(path) as fh:
        _write_line(fh, MAGIC)
        for line in _config_lines(config):
            _write_line(fh, line)
        if domain_names is not None:
            _write_line(fh, "domain_names=" + "\t".join(domain_names))
        if target_index is not None:
            _write_line(fh, f"target_index={target_index}")
        for name, shape in param_specs(config):
            _write_array(fh, name, params[name], config)
        if adamax is None:
            return
        _write_line(
            fh,
            f"{_ADAMAX_SECTION} step={adamax['step']} beta1={adamax['beta1']} "
            f"beta2={adamax['beta2']} eps={adamax['eps']}",
        )
        for name, _ in param_specs(config):
            _write_array(fh, "m." + name, adamax["m"][name], config)
            _write_array(fh, "u." + name, adamax["u"][name], config)
        _write_json_section(fh, _SAMPLER_SECTION, sampler)
        _write_json_section(fh, _TRAINER_SECTION, trainer)


def load(path: str | Path) -> CheckpointBundle:
    """Read a checkpoint; rejects bad versions, numbers, shapes and truncation,
    and domain names or a target index that do not fit the model."""
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
                target_index = _int(value, "target_index")
            else:
                raw_config[key] = value
            pos = fh.tell()
            line = _read_line(fh)
        fh.seek(pos)
        config = _parse_config(raw_config)
        if domain_names is not None and len(domain_names) != config.n_domains:
            raise CheckpointError(
                f"checkpoint names {len(domain_names)} domains, its model has {config.n_domains}")
        if target_index is not None and not 0 <= target_index < config.n_domains:
            raise CheckpointError(f"target_index {target_index} is not a domain of the model")

        params = {name: _read_array(fh, name, shape, config)
                  for name, shape in param_specs(config)}

        bundle = CheckpointBundle(
            config=config, params=params,
            domain_names=domain_names, target_index=target_index,
        )
        if not fh.peek(1):
            return bundle
        header_text = _read_line(fh)
        if not header_text.startswith(_ADAMAX_SECTION):
            raise CheckpointError(f"unexpected section {header_text!r}")
        try:
            kv = dict(f.split("=", 1) for f in header_text.split(" ")[1:])
            adamax = {"step": int(kv["step"]),
                      **{key: float(kv[key]) for key in ("beta1", "beta2", "eps")}}
        except (KeyError, ValueError):
            raise CheckpointError(f"bad section header {header_text!r}") from None
        m: Params = {}
        u: Params = {}
        for name, shape in param_specs(config):
            m[name] = _read_array(fh, "m." + name, shape, config)
            u[name] = _read_array(fh, "u." + name, shape, config)
        bundle.adamax = {**adamax, "m": m, "u": u}
        bundle.sampler = _read_json_section(fh, _SAMPLER_SECTION)
        bundle.trainer = _read_json_section(fh, _TRAINER_SECTION)
        return bundle


def _read_json_section(fh: BinaryIO, section: str) -> dict[str, Any]:
    line = _read_line(fh)
    if not line.startswith(section + " nbytes="):
        raise CheckpointError(f"expected section {section!r}")
    nbytes = _int(line.split("nbytes=", 1)[1], f"{section} nbytes")
    blob = fh.read(max(nbytes, 0))
    if len(blob) != nbytes:
        raise CheckpointError(f"truncated checkpoint: section {section!r}")
    try:
        return json.loads(blob.decode("utf-8"))
    except ValueError:
        raise CheckpointError(f"corrupt checkpoint: section {section!r} is not JSON") from None


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
        total += config.np_dtype.itemsize * int(np.prod(shape))
    return total
