import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradstyle.imagecodec import (
    CodecError,
    decode_bytes,
    encode_bytes,
    read_image,
    read_ppm,
    write_image,
    write_ppm,
)

# quantized bytes of the seed-20260811 uniform 24x17 image; platform-stable
FIXTURE_SHA256 = "28427fa50090431bca6e7b8158e02306768b2d1596494e2a69c2e6567b101526"


def fixture_image():
    rng = np.random.default_rng(20260811)
    return rng.uniform(0.0, 1.0, (3, 24, 17))


class TestQuantization:
    def test_encode_decode_identity_on_random_bytes(self, rng):
        raw = rng.integers(0, 256, size=6 * 5 * 3, dtype=np.uint8).tobytes()
        img = decode_bytes(raw, 6, 5)
        assert encode_bytes(img) == raw

    def test_half_rounds_up(self):
        img = np.full((3, 1, 1), 0.5)
        assert encode_bytes(img) == bytes([128, 128, 128])

    def test_extremes(self):
        img = np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1)
        assert encode_bytes(img) == bytes([0, 255, 0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, tmp_path, value):
        # a NaN used to be quantized to byte 0 with only a cast warning
        img = np.full((3, 2, 2), 0.5)
        img[0, 1, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            write_ppm(tmp_path / "bad.ppm", img)
        assert not (tmp_path / "bad.ppm").exists()


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_quantization_roundtrips_any_bytes(h, w, seed):
    raw = np.random.default_rng(seed).integers(
        0, 256, size=h * w * 3, dtype=np.uint8).tobytes()
    assert encode_bytes(decode_bytes(raw, h, w)) == raw


class TestPpm:
    def test_roundtrip(self, tmp_path, rng):
        img = rng.uniform(0, 1, (3, 9, 7))
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        np.testing.assert_array_equal(encode_bytes(back), encode_bytes(img))

    def test_fixture_checksum_stable(self, tmp_path):
        path = tmp_path / "fix.ppm"
        write_ppm(path, fixture_image())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FIXTURE_SHA256

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6 # a comment\n# another\n2 1\n255\n" + bytes(6))
        img = read_ppm(path)
        assert img.shape == (3, 1, 2)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes(6))
        with pytest.raises(CodecError, match="magic"):
            read_ppm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n2 1\n65535\n" + bytes(12))
        with pytest.raises(CodecError, match="maxval"):
            read_ppm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(CodecError, match="truncated"):
            read_ppm(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "h.ppm"
        path.write_bytes(b"P6\n4")
        with pytest.raises(CodecError, match="header"):
            read_ppm(path)

    def test_non_numeric_header_rejected(self, tmp_path):
        path = tmp_path / "n.ppm"
        path.write_bytes(b"P6\nwide 1\n255\n" + bytes(6))
        with pytest.raises(CodecError, match="non-numeric"):
            read_ppm(path)


class TestPng:
    def test_roundtrip_when_pillow_available(self, tmp_path, rng):
        pytest.importorskip("PIL")
        img = rng.uniform(0, 1, (3, 8, 6))
        path = tmp_path / "img.png"
        write_image(path, img)
        back = read_image(path)
        np.testing.assert_array_equal(encode_bytes(back), encode_bytes(img))
