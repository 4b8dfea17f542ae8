"""Array layout: how device pages map onto stripes, chunks and blocks."""
from __future__ import annotations

from dataclasses import dataclass


class GeometryError(ValueError):
    """Inconsistent array layout parameters."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Device and stripe layout of one array.

    A stripe spans all devices; each device contributes one chunk of
    `chunk_pages` pages (symbols).  A flash block holds `pages_per_block`
    pages, so one block underlies `chunks_per_block` consecutive stripes.
    """

    n_devices: int = 8
    page_size: int = 4096  # bytes
    pages_per_block: int = 64
    blocks_per_device: int = 131_072
    stripe_size: int = 131_072  # bytes, data+parity across all devices

    def __post_init__(self):
        if self.n_devices < 3:
            raise GeometryError("n_devices must be >= 3")
        if min(self.page_size, self.pages_per_block, self.blocks_per_device, self.stripe_size) < 1:
            raise GeometryError("page/block/stripe parameters must be positive")
        if self.stripe_size % (self.n_devices * self.page_size) != 0:
            raise GeometryError("stripe_size must be a multiple of n_devices * page_size")
        if self.pages_per_block % self.chunk_pages != 0:
            raise GeometryError("pages_per_block must be a multiple of chunk_pages")

    @property
    def chunk_pages(self) -> int:
        """Pages (symbols) each device contributes to one stripe."""
        return self.stripe_size // (self.n_devices * self.page_size)

    @property
    def chunks_per_block(self) -> int:
        """Consecutive stripes sharing one flash block."""
        return self.pages_per_block // self.chunk_pages

    @property
    def array_stripes(self) -> int:
        return self.blocks_per_device * self.chunks_per_block

    @property
    def symbols_per_device(self) -> int:
        return self.blocks_per_device * self.pages_per_block
