import pytest

from ssdfi.geometry import ArrayGeometry, GeometryError


class TestDefaults:
    def test_table_defaults(self):
        g = ArrayGeometry()
        assert g.n_devices == 8
        assert g.page_size == 4096
        assert g.pages_per_block == 64
        assert g.blocks_per_device == 131_072
        assert g.stripe_size == 131_072

    def test_derived_quantities(self):
        g = ArrayGeometry()
        assert g.chunk_pages == 4  # 128 KB / (8 * 4 KB)
        assert g.chunks_per_block == 16
        assert g.array_stripes == 131_072 * 16
        assert g.symbols_per_device == 131_072 * 64


class TestScaling:
    def test_halving_stripe_doubles_stripes(self):
        g_big = ArrayGeometry(stripe_size=64 * 1024)
        g_small = ArrayGeometry(stripe_size=32 * 1024)
        assert g_small.array_stripes == 2 * g_big.array_stripes
        assert g_small.chunk_pages * 2 == g_big.chunk_pages

    def test_symbols_independent_of_stripe_size(self):
        for kb in (32, 64, 128):
            g = ArrayGeometry(stripe_size=kb * 1024)
            assert g.symbols_per_device == 131_072 * 64


class TestValidation:
    def test_min_devices(self):
        with pytest.raises(GeometryError):
            ArrayGeometry(n_devices=2)

    def test_stripe_must_divide(self):
        with pytest.raises(GeometryError):
            ArrayGeometry(stripe_size=100_000)

    def test_block_must_hold_whole_chunks(self):
        with pytest.raises(GeometryError):
            ArrayGeometry(pages_per_block=6, stripe_size=8 * 4096 * 4)

    def test_positive_parameters(self):
        # A stripe size of 0 would divide by zero; a negative one passed
        # every other check and gave negative stripe counts.
        for kwargs in ({"blocks_per_device": 0}, {"stripe_size": 0}, {"stripe_size": -131_072}):
            with pytest.raises(GeometryError):
                ArrayGeometry(**kwargs)
