"""Binary weights file: magic "A2GW", little-endian, float32 payloads.

Layout:
    magic           4 bytes  b"A2GW"
    version         u16      currently 3
    d, k, g         u32 each
    n_blocks        u32
    flags           u32      reserved, must be 0
    n_records       u32
    records:        u16 name length, utf-8 name, u8 rank, rank * u32 dims,
                    prod(dims) * f32 payload (row-major)

The records are the parameters in layout order (`ModelWeights.layout`);
any other order is rejected. Save and load share one encoder of a record's
head (name, rank, dims): load walks the layout of the header's network and
compares each head in the file with the bytes save would write, so a
re-save of a loaded file has its bytes. Older versions are rejected, not
converted: version 1 also held batch-norm running buffers ("buffers/"
records), version 2 48 biases that changed no output. Values are stored as
float32, the dtype `ModelWeights` holds, and load returns them as float32,
so load(save(w)) is w bit for bit. Every value must be a finite float32:
save refuses NaN and inf, and rounds float64 values (of a promoted copy) to
float32, refusing those beyond its range; load rejects a file holding NaN
or inf. The header holds every field of NetworkConfig, so the reloaded
network is the saved one. Every file load rejects (bad magic, another
version, a truncated file, a record count or record head that differs from
the layout, trailing bytes) and every value save refuses raises
`synth.InvalidConfig`.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .autodiff import Tensor
from .network import ModelWeights, NetworkConfig
from .synth import InvalidConfig

MAGIC = b"A2GW"
VERSION = 3
HEADER = struct.Struct("<4sH6I")


def _head(name: str, shape) -> bytes:
    """A record's bytes before its payload: name length, name, rank, dims."""
    encoded = name.encode("utf-8")
    return struct.pack(f"<H{len(encoded)}sB{len(shape)}I",
                       len(encoded), encoded, len(shape), *shape)


def _write_record(out, name: str, arr: np.ndarray):
    with np.errstate(over="ignore"):  # caught below: beyond float32 is inf
        payload = np.ascontiguousarray(arr, dtype="<f4")
    if not np.isfinite(payload).all():
        raise InvalidConfig(f"record {name} holds a value that is not a finite float32")
    out.append(_head(name, arr.shape) + payload.tobytes())


def save_weights(path, weights: ModelWeights):
    cfg = weights.config
    layout = ModelWeights.layout(cfg)
    out = [HEADER.pack(MAGIC, VERSION, cfg.d, cfg.k, cfg.g, cfg.n_blocks, 0, len(layout))]
    for name, _ in layout:
        _write_record(out, name, weights.params[name].data)
    with open(path, "wb") as f:
        f.write(b"".join(out))


def load_weights(path) -> ModelWeights:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < HEADER.size:
        raise InvalidConfig("truncated weights file")
    magic, version, d, k, g, n_blocks, flags, n_records = HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise InvalidConfig("not a weights file (bad magic)")
    if version != VERSION:
        raise InvalidConfig(f"unsupported weights version {version}, expected {VERSION}")
    if flags != 0:
        raise InvalidConfig(f"reserved flags word is {flags:#x}, expected 0")
    try:
        cfg = NetworkConfig(d=d, k=k, g=g, n_blocks=n_blocks)
    except ValueError as exc:
        raise InvalidConfig(f"invalid network header: {exc}") from exc
    layout = ModelWeights.layout(cfg)
    if n_records != len(layout):
        raise InvalidConfig(f"file holds {n_records} records, "
                            f"the header's network has {len(layout)}")

    params = {}
    off = HEADER.size
    for i, (name, shape) in enumerate(layout):
        head = _head(name, shape)
        if blob[off:off + len(head)] != head:
            raise InvalidConfig(f"record {i} is not {name} of shape {shape}: "
                                f"records follow the layout order")
        off += len(head)
        size = math.prod(shape)
        if off + 4 * size > len(blob):
            raise InvalidConfig("truncated weights file")
        payload = np.frombuffer(blob, dtype="<f4", count=size, offset=off)
        off += 4 * size
        if not np.isfinite(payload).all():
            raise InvalidConfig(f"record {name} holds a non-finite value")
        params[name] = Tensor(payload.astype(np.float32).reshape(shape), requires_grad=True)
    if off != len(blob):
        raise InvalidConfig(f"{len(blob) - off} trailing bytes")
    return ModelWeights(cfg, params)
