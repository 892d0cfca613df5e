"""Model bundles, the one save format of both model kinds.

A manifest ``m.model`` of ``key: value`` lines holds ``format:``, the model's
fields, ``blob:`` naming ``m.model.bin`` and one ``param: name [d0,d1,...]``
per tensor; the blob holds the tensors as little-endian float64, back to back
in ``param:`` order.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from .errors import BlobSizeError, ManifestError


def write_bundle(manifest_path, fmt: str, fields, tensors: dict, notes=()) -> None:
    """Write the format, ``fields``, the blob name, ``notes`` ((key, value) pairs) and params."""
    manifest_path = Path(manifest_path)
    blob_path = manifest_path.with_suffix(manifest_path.suffix + ".bin")
    lines = [("format", fmt), *fields, ("blob", blob_path.name), *notes]
    lines += [("param", f"{name} {_dims(v.shape)}") for name, v in tensors.items()]
    manifest_path.write_text("".join(f"{k}: {v}\n" for k, v in lines))
    with open(blob_path, "wb") as fh:
        for value in tensors.values():
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def _dims(shape) -> str:
    return "[" + ",".join(str(d) for d in shape) + "]"


def _param(text: str) -> tuple[str, tuple]:
    name, dims = text.split()
    shape = tuple(int(d) for d in dims.strip("[]").split(",") if d)
    if min(shape, default=1) < 1:
        raise ValueError("dimensions must be positive")
    return name, shape


def unpack(flat: np.ndarray, layout) -> dict:
    """Named views of the 1-D ``flat``, which holds the ``(name, shape)`` tensors of
    ``layout`` back to back in order, as a blob does."""
    pieces = np.split(flat, np.cumsum([math.prod(shape) for _, shape in layout])[:-1])
    return {name: v.reshape(shape) for (name, shape), v in zip(layout, pieces)}


class Bundle:
    """A checked manifest: ``fields`` by key (a list for a repeated key) and ``params``.

    ``fields`` (required), ``optional`` and ``repeated`` (keys that may recur)
    map each key to the function that converts its text; other keys fail.
    A value is read without its surrounding whitespace, except that keys in
    ``indented`` keep the indentation after the one separator space.
    """

    def __init__(self, manifest_path, fmt: str, fields: dict, optional=None, repeated=None,
                 indented=()):
        self.path, self.fields = Path(manifest_path), {}
        repeated = {"param": _param, **(repeated or {})}
        single = {"blob": str, **fields, **(optional or {})}
        entries = []
        for number, line in enumerate(self.build(None, self.path.read_text).splitlines(), 1):
            key, colon, text = line.partition(":")
            if line.strip() and not colon:
                raise ManifestError(f"{self.path.name}: line {number} {line!r} has no 'field:'")
            key = key.strip()
            text = text.removeprefix(" ").rstrip() if key in indented else text.strip()
            entries += [(key, text)] if colon else []
        formats = [text for key, text in entries if key == "format"]
        if formats != [fmt]:
            raise self.error("format", f"reads {formats or 'nothing'}; expected [{fmt!r}]")
        for key, text in entries:
            if key in repeated:
                self.fields.setdefault(key, []).append(self.build(key, repeated[key], text))
            elif key in self.fields:
                raise self.error(key, "appears twice")
            elif key in single:
                self.fields[key] = self.build(key, single[key], text)
            elif key != "format":
                raise self.error(key, f"is not a field of {fmt}")
        for key in ("blob", *fields):
            if key not in self.fields:
                raise self.error(key, "is missing")
        self.params = self.fields.pop("param", [])

    def error(self, field: str | None, why: str) -> ManifestError:
        subject = "model" if field is None else f"field {field!r}"
        return ManifestError(f"{self.path.name}: {subject} {why}")

    def build(self, field: str | None, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``; its argument errors name the file and ``field``."""
        try:
            return fn(*args, **kwargs)
        except (ValueError, KeyError, TypeError) as exc:
            raise self.error(field, f"is invalid: {exc}") from None

    def tensors(self, layout: list[tuple[str, tuple]]) -> dict:
        """The blob's tensors, once the ``param:`` lines equal ``layout`` in order."""
        for i, pair in enumerate(itertools.zip_longest(self.params, layout)):
            if pair[0] != pair[1]:
                got, want = (f"{p[0]} {_dims(p[1])}" if p else "nothing" for p in pair)
                raise self.error("param", f"entry {i + 1} is {got}; expected {want}")
        blob = (self.path.parent / self.fields["blob"]).read_bytes()
        need = 8 * sum(math.prod(shape) for _, shape in self.params)
        if len(blob) != need:
            raise BlobSizeError(f"blob {self.fields['blob']} has {len(blob)} bytes; "
                                f"manifest shapes need {need}")
        tensors = unpack(np.frombuffer(blob, dtype="<f8").copy(), self.params)
        for name, v in tensors.items():
            bad = np.flatnonzero(~np.isfinite(v))
            if bad.size:
                raise self.error("param", f"{name} holds {v.flat[bad[0]]} in "
                                          f"{self.fields['blob']} at flat index {bad[0]}")
        return tensors
