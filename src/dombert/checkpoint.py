"""Checkpoint files.

Layout: a ``DOMBERT-CKPT v1`` header line, one ``key=value`` line per model
config field, a ``domain_names`` line and a ``target_index`` line, then
every parameter array as a ``name dim1 dim2 ...`` text line followed by raw
little-endian float data in the config's dtype (``<f4`` for float32, ``<f8``
for float64), so every run round-trips exactly. A training checkpoint
appends three sections, in this order, so a run can resume bit-for-bit:

- ``ADAMAX-STATE step=.. beta1=.. beta2=.. eps=..``, then the arrays
  ``m.<name>`` and ``u.<name>`` for every parameter in parameter order;
- ``SAMPLER-STATE nbytes=N``, then N bytes of JSON in the sampler's own
  format (``sampler.state_to_json``);
- ``TRAINER-STATE nbytes=N``, then N bytes of JSON: the next step (Adamax's
  step + 1), the masking generator's state and the run's training config.

Config keys that are not ModelConfig fields are ignored on load, so a file
that carries a since-retired field still loads.

A file is written under a temporary name and renamed into place, so a
failed save leaves any earlier file at that path intact.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import re
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

import numpy as np

from .errors import CheckpointError, ConfigError
from .model import ModelConfig, Params, param_specs
from .nputil import open_replacing

MAGIC = "DOMBERT-CKPT v1"
_ADAMAX_SECTION = "ADAMAX-STATE"
SAMPLER_SECTION = "SAMPLER-STATE"
TRAINER_SECTION = "TRAINER-STATE"


@dataclass
class CheckpointBundle:
    config: ModelConfig
    params: Params
    domain_names: list[str]
    target_index: int
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


def _read_exact(fh: BinaryIO, nbytes: int, what: str) -> bytes:
    """nbytes from fh, checked against the bytes left in the file before
    anything is read, so a size past the end is not allocated."""
    if not 0 <= nbytes <= os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"truncated checkpoint: {what}")
    return fh.read(nbytes)


# An int as str() writes it; 18 digits are more than any field can hold.
_DECIMAL = re.compile("-?[0-9]{1,18}")


def _int(text: str, what: str) -> int:
    if not _DECIMAL.fullmatch(text):
        raise CheckpointError(f"corrupt checkpoint: {what} {text!r} is not a decimal integer")
    return int(text)


def json_int(value: object, what: str) -> int:
    """value, if a JSON section gave it as an integer; a float, bool or
    string, which int() would take, is a CheckpointError naming `what`."""
    if type(value) is not int:
        raise CheckpointError(f"corrupt checkpoint: {what} {value!r} is not an integer")
    return value


def _write_array(fh: BinaryIO, name: str, arr: np.ndarray, config: ModelConfig) -> None:
    dims = " ".join(str(d) for d in arr.shape)
    _write_line(fh, f"{name} {dims}")
    fh.write(np.ascontiguousarray(arr, dtype=config.np_dtype.newbyteorder("<")).data)


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
    data = _read_exact(fh, dtype.itemsize * math.prod(shape), f"array {name!r} incomplete")
    return np.frombuffer(data, dtype=dtype).reshape(shape).astype(config.np_dtype)


def _parse_config(lines: dict[str, str]) -> ModelConfig:
    kwargs: dict[str, Any] = {}
    for field in dataclasses.fields(ModelConfig):
        if field.name not in lines:
            raise CheckpointError(f"missing config field {field.name!r}")
        raw = lines[field.name]
        kwargs[field.name] = _int(raw, field.name) if field.type == "int" else raw
    try:
        return ModelConfig(**kwargs)
    except ConfigError as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from None


def _write_json_section(fh: BinaryIO, section: str, payload: dict[str, Any]) -> None:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    _write_line(fh, f"{section} nbytes={len(blob)}")
    fh.write(blob)


def save_model(
    path: str | Path,
    config: ModelConfig,
    params: Params,
    *,
    domain_names: list[str],
    target_index: int,
    adamax: dict[str, Any] | None = None,
    sampler: dict[str, Any] | None = None,
    trainer: dict[str, Any] | None = None,
) -> None:
    """Config lines plus all parameter arrays; given adamax, sampler and
    trainer state (all three, else ValueError), a resumable training checkpoint."""
    state = {"adamax": adamax, "sampler": sampler, "trainer": trainer}
    missing = [name for name, value in state.items() if value is None]
    if 0 < len(missing) < len(state):
        raise ValueError(f"training state without {', '.join(missing)}")
    with open_replacing(path) as fh:
        _write_line(fh, MAGIC)
        for field in dataclasses.fields(ModelConfig):
            _write_line(fh, f"{field.name}={getattr(config, field.name)}")
        _write_line(fh, "domain_names=" + "\t".join(domain_names))
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
        _write_json_section(fh, SAMPLER_SECTION, sampler)
        _write_json_section(fh, TRAINER_SECTION, trainer)


def load(path: str | Path) -> CheckpointBundle:
    """Read a checkpoint; rejects bad versions, numbers, shapes and truncation,
    bytes after the last section, a config the model refuses, domain names or
    a target index that are missing or do not fit the model, and Adamax
    settings outside step >= 0, 0 <= beta1, beta2 < 1 and finite eps > 0."""
    with open(path, "rb") as fh:
        if _read_line(fh) != MAGIC:
            raise CheckpointError("not a DOMBERT-CKPT v1 file")
        header: dict[str, str] = {}
        pos = fh.tell()
        line = _read_line(fh)
        while "=" in line:
            key, value = line.split("=", 1)
            header[key] = value
            pos = fh.tell()
            line = _read_line(fh)
        fh.seek(pos)
        config = _parse_config(header)
        for key in ("domain_names", "target_index"):
            if key not in header:
                raise CheckpointError(f"missing {key!r} line")
        domain_names = header["domain_names"].split("\t")
        target_index = _int(header["target_index"], "target_index")
        if len(domain_names) != config.n_domains:
            raise CheckpointError(
                f"checkpoint names {len(domain_names)} domains, its model has {config.n_domains}")
        if not 0 <= target_index < config.n_domains:
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
            adamax = {"step": _int(kv["step"], "step"),
                      **{key: float(kv[key]) for key in ("beta1", "beta2", "eps")}}
        except (KeyError, ValueError):
            raise CheckpointError(f"bad section header {header_text!r}") from None
        for key, ok in (("step", adamax["step"] >= 0),
                        ("beta1", 0.0 <= adamax["beta1"] < 1.0),
                        ("beta2", 0.0 <= adamax["beta2"] < 1.0),
                        ("eps", math.isfinite(adamax["eps"]) and adamax["eps"] > 0.0)):
            if not ok:
                raise CheckpointError(f"{_ADAMAX_SECTION} {key}={adamax[key]} is out of range")
        m: Params = {}
        u: Params = {}
        for name, shape in param_specs(config):
            m[name] = _read_array(fh, "m." + name, shape, config)
            u[name] = _read_array(fh, "u." + name, shape, config)
        bundle.adamax = {**adamax, "m": m, "u": u}
        bundle.sampler = _read_json_section(fh, SAMPLER_SECTION)
        bundle.trainer = _read_json_section(fh, TRAINER_SECTION)
        if fh.peek(1):
            raise CheckpointError(f"unexpected bytes after the {TRAINER_SECTION} section")
        return bundle


def _read_json_section(fh: BinaryIO, section: str) -> dict[str, Any]:
    line = _read_line(fh)
    if not line.startswith(section + " nbytes="):
        raise CheckpointError(f"expected section {section!r}")
    nbytes = _int(line.split("nbytes=", 1)[1], f"{section} nbytes")
    blob = _read_exact(fh, nbytes, f"section {section!r}")
    try:
        return json.loads(blob.decode("utf-8"))
    except ValueError:
        raise CheckpointError(f"corrupt checkpoint: section {section!r} is not JSON") from None


@contextmanager
def section_fields(section: str) -> Iterator[None]:
    """A block reading a loaded JSON section's fields, in which the errors of
    a section of another shape become a CheckpointError naming it."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"malformed {section} section: {type(exc).__name__}: {exc}") from None

