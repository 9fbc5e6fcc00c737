"""8-bit RGB image I/O.

Binary PPM (P6, maxval 255) is the native, bit-exact format: a pixel value v
in [0, 1] encodes as round-half-up(v * 255) and a byte b decodes as b / 255.
PNG rides behind the same interface when pillow is importable.
"""

from __future__ import annotations

import os

import numpy as np

from .tensor import Tensor

_WS = b" \t\r\n\x0b\x0c"


class CodecError(ValueError):
    """Malformed or unsupported image file."""


def _quantize(img: Tensor) -> np.ndarray:
    """(h, w, 3) uint8 of a (3, h, w) [0, 1] image, rounded half up."""
    q = np.floor(np.clip(img.data, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    return np.moveaxis(q, 0, 2)


def encode_bytes(img: Tensor) -> bytes:
    """Quantize a (3, h, w) [0, 1] image to interleaved RGB bytes."""
    return _quantize(img).tobytes()


def decode_bytes(payload: bytes, height: int, width: int) -> Tensor:
    arr = np.frombuffer(payload, dtype=np.uint8)
    if arr.size != height * width * 3:
        raise CodecError(f"payload has {arr.size} bytes, expected "
                         f"{height * width * 3}")
    rgb = arr.reshape(height, width, 3).astype(np.float64) / 255.0
    return Tensor(np.moveaxis(rgb, 2, 0))


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(buf):
        ch = buf[pos:pos + 1]
        if ch == b"#":
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif ch in _WS:
            pos += 1
        else:
            break
    start = pos
    while pos < len(buf) and buf[pos:pos + 1] not in _WS:
        pos += 1
    if start == pos:
        raise CodecError("truncated header")
    return buf[start:pos], pos


def read_ppm(path) -> Tensor:
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _next_token(buf, 0)
    if magic != b"P6":
        raise CodecError(f"bad magic {magic!r}, expected P6")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(buf, pos)
        if not tok.isdigit():
            raise CodecError(f"non-numeric header field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise CodecError(f"unsupported maxval {maxval}, expected 255")
    if width < 1 or height < 1:
        raise CodecError("empty image")
    pos += 1  # single whitespace byte after maxval
    payload = buf[pos:pos + height * width * 3]
    if len(payload) < height * width * 3:
        raise CodecError("truncated pixel payload")
    return decode_bytes(payload, height, width)


def write_ppm(path, img: Tensor):
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + encode_bytes(img))


def read_image(path) -> Tensor:
    """Read PPM (always) or PNG (when pillow is installed) as (3, h, w) [0, 1]."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".png":
        return _read_png(path)
    return read_ppm(path)


def write_image(path, img: Tensor):
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".png":
        _write_png(path, img)
    else:
        write_ppm(path, img)


def _require_pillow():
    try:
        from PIL import Image
    except ImportError as exc:
        raise CodecError("PNG support requires pillow; use PPM instead") from exc
    return Image


def _read_png(path) -> Tensor:
    image_mod = _require_pillow()
    with image_mod.open(path) as im:
        rgb = np.asarray(im.convert("RGB"), dtype=np.float64) / 255.0
    return Tensor(np.moveaxis(rgb, 2, 0))


def _write_png(path, img: Tensor):
    _require_pillow().fromarray(_quantize(img), mode="RGB").save(path)
