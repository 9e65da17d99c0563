"""Unit tests for the binomial UBER/RBER model (Table 1)."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.ecc.model import (
    CONSUMER_UBER,
    ECC2,
    ECC_STRENGTHS,
    ENTERPRISE_UBER,
    NO_ECC,
    SECDED,
    EccStrength,
    tolerable_bit_errors,
    tolerable_rber,
    uber,
    uncorrectable_word_probability,
)
from repro.errors import ConfigurationError

GIB = 1 << 30
GOLDEN = json.loads(Path(__file__).with_name("golden_ecc.json").read_text(encoding="utf-8"))


class TestUberModel:
    def test_no_ecc_uber_approximately_rber(self):
        """With no correction, any failing bit is uncorrectable."""
        assert uber(NO_ECC, 1e-12) == pytest.approx(1e-12, rel=0.01)

    def test_uber_zero_at_zero_rber(self):
        assert uber(SECDED, 0.0) == 0.0

    def test_uber_monotone_in_rber(self):
        values = [uber(SECDED, r) for r in (1e-10, 1e-8, 1e-6, 1e-4)]
        assert values == sorted(values)

    def test_stronger_ecc_lower_uber(self):
        rber = 1e-6
        assert uber(ECC2, rber) < uber(SECDED, rber) < uber(NO_ECC, rber)

    def test_invalid_rber_rejected(self):
        with pytest.raises(ConfigurationError):
            uncorrectable_word_probability(SECDED, 1.5)

    @given(st.floats(min_value=1e-12, max_value=1e-3))
    def test_uber_bounded_by_word_probability(self, rber):
        assert uber(SECDED, rber) <= uncorrectable_word_probability(SECDED, rber)


class TestTable1:
    """Pinned to the paper's Table 1 (UBER = 1e-15)."""

    def test_no_ecc_tolerable_rber(self):
        assert tolerable_rber(NO_ECC, CONSUMER_UBER) == pytest.approx(1.0e-15, rel=0.01)

    def test_secded_tolerable_rber(self):
        assert tolerable_rber(SECDED, CONSUMER_UBER) == pytest.approx(3.8e-9, rel=0.05)

    def test_ecc2_tolerable_rber(self):
        assert tolerable_rber(ECC2, CONSUMER_UBER) == pytest.approx(6.9e-7, rel=0.05)

    @pytest.mark.parametrize(
        "size_gib,expected",
        [(0.5, 16.3), (1, 32.6), (2, 65.3), (4, 130.6), (8, 261.1)],
    )
    def test_secded_tolerable_bit_errors(self, size_gib, expected):
        count = tolerable_bit_errors(SECDED, int(size_gib * GIB), CONSUMER_UBER)
        assert count == pytest.approx(expected, rel=0.05)

    def test_ecc2_512mb_about_3000(self):
        count = tolerable_bit_errors(ECC2, GIB // 2, CONSUMER_UBER)
        assert count == pytest.approx(3.0e3, rel=0.05)

    def test_no_ecc_2gb_tiny(self):
        count = tolerable_bit_errors(NO_ECC, 2 * GIB, CONSUMER_UBER)
        assert count == pytest.approx(1.7e-5, rel=0.05)


class TestInversion:
    @pytest.mark.parametrize("ecc", [NO_ECC, SECDED, ECC2])
    @pytest.mark.parametrize("target", [1e-15, 1e-17, 1e-12])
    def test_tolerable_rber_inverts_uber(self, ecc, target):
        rber = tolerable_rber(ecc, target)
        assert uber(ecc, rber) == pytest.approx(target, rel=0.01)

    def test_stricter_target_smaller_rber(self):
        assert tolerable_rber(SECDED, 1e-17) < tolerable_rber(SECDED, 1e-15)

    def test_invalid_target_rejected(self):
        with pytest.raises(ConfigurationError):
            tolerable_rber(SECDED, 0.0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            tolerable_bit_errors(SECDED, 0)

    @pytest.mark.parametrize("correctable", [12, 20, 60])
    def test_strong_codes_solve_despite_underflow(self, correctable):
        """binom.sf underflows to 0.0 at the 1e-30 bracket for strong codes."""
        ecc = EccStrength(name="strong", word_bits=144, correctable=correctable)
        rber = tolerable_rber(ecc, CONSUMER_UBER)
        assert 0.0 < rber < 0.5
        assert uber(ecc, rber) == pytest.approx(CONSUMER_UBER, rel=0.01)

    def test_target_met_at_half_rber(self):
        ecc = EccStrength(name="all-but-one", word_bits=144, correctable=143)
        assert tolerable_rber(ecc, CONSUMER_UBER) == 0.5


class TestGoldenTable:
    """Bit-for-bit pin of the tolerable RBERs (``golden_ecc.json``)."""

    def test_tolerable_rbers_match_golden_digest(self):
        table = {
            name: {
                repr(target): tolerable_rber(ecc, target)
                for target in (CONSUMER_UBER, ENTERPRISE_UBER)
            }
            for name, ecc in ECC_STRENGTHS.items()
        }
        text = json.dumps(table, sort_keys=True)
        assert table == GOLDEN["values"]
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN["sha256"], (
            "tolerable RBER table changed; if on purpose, update "
            "tests/golden_ecc.json in the same reviewed change"
        )


class TestEccStrengthValidation:
    def test_negative_correctable_rejected(self):
        with pytest.raises(ConfigurationError):
            EccStrength(name="bad", word_bits=72, correctable=-1)

    def test_correctable_beyond_word_rejected(self):
        with pytest.raises(ConfigurationError):
            EccStrength(name="bad", word_bits=8, correctable=8)
