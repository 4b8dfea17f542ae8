import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdfi.codes import (
    DEVICE_TOLERANCE,
    CodesError,
    ErasureCode,
    encode_xor_count,
    erf,
    stripe_counts,
    uncorrectable,
    update_penalty,
)
import stripe_oracle
from stripe_oracle import (
    ChunkFault,
    StripeFaultState,
    brute_force_correctable,
    check_stripe_dl,
    chunk_sets,
)

R5, R6, PMDS = ErasureCode.RAID5, ErasureCode.RAID6, ErasureCode.PMDS11


def state(n_devices=8, chunk_pages=4, **chunks):
    mapped = {int(k.lstrip("c")): v for k, v in chunks.items()}
    return StripeFaultState(n_devices=n_devices, chunk_pages=chunk_pages, chunks=mapped)


FAILED = ChunkFault(device_failed=True)
BLOCK = ChunkFault(bad_block=True)


def syms(*indices):
    return ChunkFault(bad_symbols=frozenset(indices))


class TestCounts:
    # stripe_counts(n_failed, bb_devs, bs_map) -> (faulty, multi, n_bb, n_bs)
    def test_empty(self):
        assert stripe_counts(0, None, None) == (0, 0, 0, 0)
        assert stripe_counts(0, set(), {}) == (0, 0, 0, 0)

    def test_chunk_counts_once(self):
        # A bad symbol on a bad-block or failed chunk adds no faulty chunk.
        assert stripe_counts(0, {0}, {0: {0}}) == (1, 1, 1, 0)
        block = ChunkFault(bad_block=True, bad_symbols=frozenset({0}))
        assert not check_stripe_dl(PMDS, state(c0=block, c1=syms(1)))
        failed = ChunkFault(device_failed=True, bad_block=True, bad_symbols=frozenset({0}))
        assert not check_stripe_dl(PMDS, state(c0=failed, c1=syms(1)))

    def test_multi_symbol_rules(self):
        assert stripe_counts(0, None, {0: {0}}) == (1, 0, 0, 1)
        assert stripe_counts(0, {0}, None) == (1, 1, 1, 0)
        assert stripe_counts(1, None, None) == (1, 1, 0, 0)
        assert stripe_counts(0, None, {0: {0, 1}, 1: {2, 3}}) == (2, 2, 0, 2)


class TestStateValidation:
    def test_chunk_index_range(self):
        with pytest.raises(CodesError):
            state(c9=FAILED)

    def test_symbol_index_range(self):
        with pytest.raises(CodesError):
            state(c0=syms(4))

    def test_min_devices(self):
        with pytest.raises(CodesError):
            StripeFaultState(n_devices=2, chunk_pages=4)


class TestJudge:
    def test_kernel(self):
        assert uncorrectable(R5, 2, 0)
        assert not uncorrectable(R5, 1, 1)
        assert not uncorrectable(R6, 2, 2)
        assert uncorrectable(R6, 3, 0)
        assert uncorrectable(PMDS, 2, 2)
        assert not uncorrectable(PMDS, 2, 1)
        assert uncorrectable(PMDS, 3, 0)

    # The correctability rules, written out apart from the kernel.
    RULES = {
        R5: lambda faulty, multi: faulty > 1,
        R6: lambda faulty, multi: faulty > 2,
        PMDS: lambda faulty, multi: faulty > 2 or multi > 1,
    }

    @pytest.mark.parametrize("code", list(ErasureCode))
    def test_kernel_matches_rule_table(self, code):
        # Every count pair `stripe_counts` can give (multi <= faulty) up to 8
        # chunks, for the package's kernel and the oracles' frozen copy.
        for judge in (uncorrectable, stripe_oracle.uncorrectable):
            for faulty in range(9):
                for multi in range(faulty + 1):
                    assert judge(code, faulty, multi) == self.RULES[code](faulty, multi), (
                        judge, faulty, multi,
                    )

    @pytest.mark.parametrize("code", ["RAID5", None, 5])
    def test_unknown_code_from_two_faulty_chunks(self, code):
        for faulty in range(2, 9):
            for multi in range(faulty + 1):
                with pytest.raises(CodesError, match="unknown code"):
                    uncorrectable(code, faulty, multi)

    @pytest.mark.parametrize("code", list(ErasureCode))
    def test_device_tolerance(self, code):
        t = DEVICE_TOLERANCE[code]
        assert not uncorrectable(code, t, t)
        assert uncorrectable(code, t + 1, t + 1)

    def test_empty_stripe_correctable_everywhere(self):
        for code in ErasureCode:
            assert not check_stripe_dl(code, state())

    @pytest.mark.parametrize("code", list(ErasureCode))
    def test_one_bad_symbol_on_a_healthy_stripe_is_correctable(self, code):
        # The engine's bulk intake of isolated bad symbols rests on this.
        for chunk in range(8):
            for symbol in range(4):
                assert not check_stripe_dl(code, state(**{f"c{chunk}": syms(symbol)}))

    def test_failed_plus_symbol(self):
        s = state(c0=FAILED, c3=syms(1))
        assert check_stripe_dl(R5, s)
        assert not check_stripe_dl(R6, s)
        assert not check_stripe_dl(PMDS, s)

    def test_failed_plus_block(self):
        s = state(c0=FAILED, c3=BLOCK)
        assert check_stripe_dl(R5, s)
        assert not check_stripe_dl(R6, s)
        assert check_stripe_dl(PMDS, s)


chunk_strategy = st.one_of(
    st.just(ChunkFault()),
    st.just(FAILED),
    st.just(BLOCK),
    st.builds(
        lambda idx: ChunkFault(bad_symbols=frozenset(idx)),
        st.sets(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
    ),
)

state_strategy = st.builds(
    lambda chunks: StripeFaultState(n_devices=8, chunk_pages=4, chunks=chunks),
    st.dictionaries(st.integers(min_value=0, max_value=7), chunk_strategy, max_size=5),
)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=8),
        st.one_of(st.none(), st.sets(st.integers(min_value=0, max_value=7), max_size=8)),
        st.one_of(
            st.none(),
            st.dictionaries(
                st.integers(min_value=0, max_value=7),
                st.sets(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
                max_size=8,
            ),
        ),
    )
    def test_counts_bound_multi_by_faulty(self, n_failed, bb_devs, bs_map):
        # `uncorrectable` answers faulty < 2 without the code on this bound.
        faulty, multi, n_bb, n_bs = stripe_counts(n_failed, bb_devs, bs_map)
        assert multi <= faulty
        assert faulty == n_failed + n_bb + n_bs
        assert n_bb == len(bb_devs or ())
        assert n_bs == len(set(bs_map or ()) - set(bb_devs or ()))

    @settings(max_examples=300, deadline=None)
    @given(state_strategy)
    def test_strength_ordering(self, s):
        # correctable(RAID5) => correctable(PMDS11) => correctable(RAID6)
        if not check_stripe_dl(R5, s):
            assert not check_stripe_dl(PMDS, s)
        if not check_stripe_dl(PMDS, s):
            assert not check_stripe_dl(R6, s)

    @settings(max_examples=300, deadline=None)
    @given(state_strategy)
    def test_judge_matches_brute_force(self, s):
        # The oracles' frozen judge and the package's both agree with the decoder.
        faulty, multi, _, _ = stripe_counts(*chunk_sets(s))
        for code in ErasureCode:
            lost = not brute_force_correctable(code, s)
            assert check_stripe_dl(code, s) == lost
            assert uncorrectable(code, faulty, multi) == lost


class TestCostModel:
    def test_erf_values(self):
        assert erf(R5, 8, 4) == pytest.approx(1.125)
        assert erf(R6, 8, 4) == pytest.approx(1.25)
        assert erf(PMDS, 8, 4) == pytest.approx(36 / 31)

    def test_erf_pmds_monotone_in_r(self):
        for n in range(3, 17):
            for r in range(1, 64):
                assert erf(PMDS, n, r + 1) < erf(PMDS, n, r)

    def test_xor_counts(self):
        assert encode_xor_count(R5, 8, 4) == 28
        assert encode_xor_count(R6, 8, 4) == 56
        assert encode_xor_count(PMDS, 8, 1) == 14
        assert encode_xor_count(PMDS, 8, 4) == 59

    def test_update_penalties(self):
        assert update_penalty(PMDS, "row", 8, 4) == (11, 10)
        assert update_penalty(R6, "stripe", 8, 4) == (40, 0)
        assert update_penalty(R5, "sector", 8, 4) == (2, 2)

    def test_stripe_penalty_symmetry(self):
        for n in range(3, 17):
            for r in (1, 2, 4, 8):
                assert update_penalty(PMDS, "stripe", n, r) == update_penalty(
                    R5, "stripe", n, r
                )

    def test_unknown_strategy(self):
        with pytest.raises(CodesError):
            update_penalty(R5, "page", 8, 4)
