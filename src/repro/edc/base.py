"""Common interface of the block codes used to protect cache words."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Widest codeword the batched ``*_many`` paths hold (one uint64 lane).
MAX_BATCH_BITS = 64


class DecodeStatus(enum.Enum):
    """Outcome of decoding one received word."""

    CLEAN = "clean"              #: syndrome zero, word accepted as-is
    CORRECTED = "corrected"      #: correctable error fixed
    DETECTED = "detected"        #: uncorrectable error flagged

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding one codeword.

    Attributes:
        data: the decoded data word (meaningful unless ``status`` is
            ``DETECTED``).
        status: see :class:`DecodeStatus`.
        corrected_positions: codeword bit positions that were flipped.
    """

    data: int
    status: DecodeStatus
    corrected_positions: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the data field is trustworthy."""
        return self.status is not DecodeStatus.DETECTED


class LinearBlockCode:
    """Abstract (n, k) binary linear block code over integer words.

    Bit convention: LSB-first; data occupies the *low* ``k`` bits of the
    data word argument.  Codeword layout is implementation-defined but
    stable, with :meth:`extract_data` as the accessor used by tests.
    """

    #: codeword length in bits
    n: int
    #: data length in bits
    k: int
    #: guaranteed number of correctable random bit errors
    correctable: int
    #: guaranteed number of detectable random bit errors
    detectable: int

    @property
    def check_bits(self) -> int:
        """Number of redundancy bits (n - k)."""
        return self.n - self.k

    def encode(self, data: int) -> int:
        """Encode ``data`` (k bits) into an n-bit codeword."""
        raise NotImplementedError

    def decode(self, received: int) -> DecodeResult:
        """Decode an n-bit received word."""
        raise NotImplementedError

    def extract_data(self, codeword: int) -> int:
        """Strip check bits from an (assumed clean) codeword."""
        raise NotImplementedError

    # ------------------------------------------------------------ batched
    # Encoding and data extraction are GF(2)-linear, so each is fixed by
    # its images of the unit vectors.  The batched paths XOR byte-sliced
    # tables of those images, taken from the scalar methods above: one
    # implementation for every code, and it cannot drift from them.
    @cached_property
    def _encode_tables(self) -> np.ndarray:
        return _byte_tables([self.encode(1 << bit) for bit in range(self.k)])

    @cached_property
    def _extract_tables(self) -> np.ndarray:
        return _byte_tables(
            [self.extract_data(1 << bit) for bit in range(self.n)]
        )

    def encode_many(self, data: np.ndarray) -> np.ndarray:
        """Encode a uint64 array of k-bit data words (``n <= 64``)."""
        data = np.asarray(data, dtype=np.uint64)
        if np.any(data >> self.k):
            raise ValueError(f"data must fit in {self.k} bits")
        return _apply_tables(self._encode_tables, data)

    def screen_many(
        self, received: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Data fields of n-bit received words and which are codewords.

        A systematic code's word is a codeword exactly when re-encoding
        its data field reproduces it, which is exactly when the scalar
        :meth:`decode` reports ``CLEAN`` (with that data field).
        """
        received = np.asarray(received, dtype=np.uint64)
        if np.any(received >> self.n):
            raise ValueError(f"received words must fit in {self.n} bits")
        data = _apply_tables(self._extract_tables, received)
        return data, _apply_tables(self._encode_tables, data) == received

    def _check_data_range(self, data: int) -> None:
        if data < 0 or data >> self.k:
            raise ValueError(f"data must fit in {self.k} bits")

    def _check_word_range(self, word: int) -> None:
        if word < 0 or word >> self.n:
            raise ValueError(f"received word must fit in {self.n} bits")

    def describe(self) -> str:
        """Short human-readable identification."""
        return (
            f"{type(self).__name__}(n={self.n}, k={self.k}, "
            f"correct={self.correctable}, detect={self.detectable})"
        )


def _byte_tables(images: list[int]) -> np.ndarray:
    """XOR tables of the GF(2)-linear map with unit-vector ``images``.

    Row ``b`` maps every value of input byte ``b`` to the XOR of the
    images of its set bits.
    """
    tables = np.zeros((-(-len(images) // 8), 256), dtype=np.uint64)
    for bit, image in enumerate(images):
        byte, offset = divmod(bit, 8)
        span = 1 << offset
        tables[byte, span:2 * span] = tables[byte, :span] ^ np.uint64(image)
    return tables


def _apply_tables(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Apply byte-sliced XOR tables to a uint64 array."""
    out = np.zeros(words.shape, dtype=np.uint64)
    for byte, table in enumerate(tables):
        out ^= table[(words >> (8 * byte)) & 0xFF]
    return out
