"""``payload_size`` is pinned: every message's wire size flows from it.

A different size moves transfer times, and with them every figure.
numpy scalars that subclass ``bytes`` or ``str`` count as scalars.
"""

import numpy as np
import pytest

from repro.mpi import payload_size


class _Hinted:
    def payload_bytes(self):
        return 1234


class _Opaque:
    pass


PINNED = [
    ("float64 array", np.zeros(10), 80),
    ("int32 array", np.zeros(7, dtype=np.int32), 28),
    ("empty array", np.zeros(0), 0),
    ("np.float64", np.float64(1.5), 8),
    ("np.int32", np.int32(3), 8),
    ("np.bool_", np.bool_(True), 8),
    ("np.str_", np.str_("abcdef"), 8),
    ("np.bytes_", np.bytes_(b"abcdef"), 8),
    ("None", None, 8),
    ("bool", True, 8),
    ("int", 7, 8),
    ("float", 2.5, 8),
    ("complex", 1j, 8),
    ("bytes", b"abcde", 5),
    ("str", "héllo", 6),
    ("nested list", [1, [2.0, "ab"], np.zeros(3)], 114),
    ("nested tuple", (1, (2, b"xy")), 82),
    ("nested dict", {"a": 1, 2: [3.0, None]}, 113),
    ("set", {1, 2, 3}, 64),
    ("payload_bytes hint", _Hinted(), 1234),
    ("fallback", _Opaque(), 64),
]


@pytest.mark.parametrize("obj, size", [(o, s) for _, o, s in PINNED],
                         ids=[name for name, _, _ in PINNED])
def test_payload_size_is_pinned(obj, size):
    assert payload_size(obj) == size
