"""Versioned plain-text checkpoints: every tensor by name with its shape
and row-major values at full float64 precision, plus the metadata needed
to rebuild the pipeline (variant, dims, seed)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .encoder import EmbedParams
from .graph import ValidationError, open_output, open_text
from .model import apply_ablation, named_tensors
from .ranker import RankerParams

_CKPT_MAGIC = "roadrank-checkpoint v1"


def save_checkpoint(path, embed: EmbedParams | None, ranker: RankerParams,
                    meta: dict) -> None:
    """Write parameters and metadata; ``embed`` may be None (NoEmb)."""
    tensors = named_tensors(embed, ranker)
    with open_output(Path(path)) as fh:
        fh.write(_CKPT_MAGIC + "\n")
        for key in sorted(meta):
            fh.write(f"meta {key} {meta[key]}\n")
        for name in sorted(tensors):
            arr = tensors[name]
            shape = " ".join(str(d) for d in arr.shape)
            fh.write(f"tensor {name} {shape}\n")
            fh.write(" ".join(repr(float(v)) for v in arr.reshape(-1)) + "\n")


def load_checkpoint(path) -> tuple[EmbedParams | None, RankerParams, dict]:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    path = Path(path)
    meta: dict[str, str] = {}
    tensors: dict[str, tuple[int, np.ndarray]] = {}  # name -> (shape line, values)
    with open_text(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic != _CKPT_MAGIC:
            raise ValidationError(f"{path}: unrecognized checkpoint header {magic!r}")
        lines = enumerate(fh, start=2)
        for ln, line in lines:
            line = line.rstrip("\n")
            if not line:
                continue
            kind, _, rest = line.partition(" ")
            name, _, value = rest.partition(" ")
            if name in {"meta": meta, "tensor": tensors}.get(kind, ()):
                raise ValidationError(f"{path}:{ln}: repeated {kind} {name}")
            if kind == "meta":
                meta[name] = value
            elif kind == "tensor":
                shape_ln = ln
                try:
                    shape = tuple(int(d) for d in rest.split(" ")[1:])
                    ln, values = next(lines, (ln + 1, ""))
                    arr = np.array([float(v) for v in values.split()], dtype=np.float64)
                except UnicodeDecodeError:
                    raise  # open_text names the file
                except ValueError:
                    raise ValidationError(
                        f"{path}:{ln}: tensor {name} has a non-numeric shape or value") from None
                if arr.size != int(np.prod(shape)):
                    raise ValidationError(f"{path}:{ln}: tensor {name} has wrong value count")
                if not np.isfinite(arr).all():
                    raise ValidationError(f"{path}:{ln}: tensor {name} has a non-finite value")
                tensors[name] = shape_ln, arr.reshape(shape)
            else:
                raise ValidationError(f"{path}:{ln}: unexpected line {line!r}")

    def meta_int(key: str, default=None) -> int:
        try:
            value = int(meta.get(key, default))
        except (TypeError, ValueError):
            value = 0
        if value < 1:
            raise ValidationError(
                f"{path}: meta {key} must be a positive integer, got {meta.get(key)!r}")
        return value

    ranker = RankerParams.zeros(meta_int("input_dim"), meta_int("f1", 32), meta_int("f2", 16),
                                meta_int("rdim", 8))
    try:
        variant = apply_ablation(meta.get("variant", "full"))
    except ValidationError as e:
        raise ValidationError(f"{path}: meta variant: {e}") from None
    embed = None
    if variant.use_embedding:
        embed = EmbedParams.zeros(meta_int("m"), meta_int("x"), meta_int("dim"))
    expected = named_tensors(embed, ranker)
    for name, (ln, _) in tensors.items():
        if name not in expected:
            raise ValidationError(f"{path}:{ln}: unknown tensor {name}")
    for key, arr in expected.items():
        if key not in tensors:
            raise ValidationError(f"{path}: missing tensor {key}")
        ln, values = tensors[key]
        if values.shape != arr.shape:
            raise ValidationError(f"{path}:{ln}: tensor {key} has shape {values.shape}, "
                                  f"expected {arr.shape} from the metadata")
        arr[...] = values
    return embed, ranker, meta
