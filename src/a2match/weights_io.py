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

The records are the parameters in creation order (`ModelWeights.layout`),
each name once; load returns them in that order whatever the file's, so a
re-save of a loaded file has the bytes of a save of the same weights. Older
versions are rejected, not converted: version 1 also held batch-norm running
buffers ("buffers/" records), version 2 48 biases that changed no output.
Values are stored as float32, the dtype `ModelWeights` holds, and load
returns them as float32, so load(save(w)) is w bit for bit. Every value
must be a finite float32: save refuses NaN and inf, and rounds float64
values (of a promoted copy) to float32, refusing those beyond its range;
load rejects a file holding NaN or inf. The header holds every field of
NetworkConfig, so the reloaded network is the saved one. Every file load
rejects (bad magic, another version, a truncated or malformed record,
records that do not match the header) and every value save refuses raises
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


def _write_record(out, name: str, arr: np.ndarray):
    with np.errstate(over="ignore"):  # caught below: beyond float32 is inf
        payload = np.ascontiguousarray(arr, dtype="<f4")
    if not np.isfinite(payload).all():
        raise InvalidConfig(f"record {name} holds a value that is not a finite float32")
    encoded = name.encode("utf-8")
    out.append(struct.pack("<H", len(encoded)))
    out.append(encoded)
    out.append(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        out.append(struct.pack("<I", dim))
    out.append(payload.tobytes())


def save_weights(path, weights: ModelWeights):
    cfg = weights.config
    out = [MAGIC,
           struct.pack("<H", VERSION),
           struct.pack("<IIIII", cfg.d, cfg.k, cfg.g, cfg.n_blocks, 0),
           struct.pack("<I", len(weights.params))]
    for name, p in weights.params.items():
        _write_record(out, name, p.data)
    with open(path, "wb") as f:
        f.write(b"".join(out))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise InvalidConfig("truncated weights file")
        chunk = self.blob[self.off:self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_weights(path) -> ModelWeights:
    with open(path, "rb") as f:
        r = _Reader(f.read())
    if r.take(4) != MAGIC:
        raise InvalidConfig("not a weights file (bad magic)")
    (version,) = r.unpack("<H")
    if version != VERSION:
        raise InvalidConfig(f"unsupported weights version {version}, expected {VERSION}")
    d, k, g, n_blocks, flags = r.unpack("<IIIII")
    if flags != 0:
        raise InvalidConfig(f"reserved flags word is {flags:#x}, expected 0")
    try:
        cfg = NetworkConfig(d=d, k=k, g=g, n_blocks=n_blocks)
    except ValueError as exc:
        raise InvalidConfig(f"invalid network header: {exc}") from exc
    (n_records,) = r.unpack("<I")

    params: dict = {}
    for _ in range(n_records):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidConfig(f"record name is not UTF-8: {exc}") from exc
        if name in params:
            raise InvalidConfig(f"record {name} appears twice")
        (rank,) = r.unpack("<B")
        dims = tuple(r.unpack("<" + "I" * rank)) if rank else ()
        payload = np.frombuffer(r.take(4 * math.prod(dims)), dtype="<f4")
        if not np.isfinite(payload).all():
            raise InvalidConfig(f"record {name} holds a non-finite value")
        params[name] = Tensor(payload.astype(np.float32).reshape(dims), requires_grad=True)
    if r.off != len(r.blob):
        raise InvalidConfig(f"{len(r.blob) - r.off} trailing bytes")

    expected = dict(ModelWeights.layout(cfg))
    if set(expected) != set(params):
        raise InvalidConfig(
            f"parameter records do not match config: {set(expected) ^ set(params)}")
    for name, p in params.items():
        if p.data.shape != expected[name]:
            raise InvalidConfig(f"shape of {name} is {p.data.shape}, "
                                f"expected {expected[name]}")
    return ModelWeights(cfg, {name: params[name] for name in expected})
