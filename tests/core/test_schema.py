"""The one checkpoint schema: ``Field`` declarations and ``check``."""

import math

import pytest

from repro.core.persistence import Field, check, check_rows, dataclass_fields, within
from repro.errors import ConfigurationError
from repro.shift.queue import ShiftJob


def parse(field, value):
    return check({"x": value}, {"x": field})["x"]


class TestKinds:
    @pytest.mark.parametrize("value", [1.5, 2, -0.0, 1e300])
    def test_number_reads_as_float(self, value):
        result = parse(Field(), value)
        assert result == value and type(result) is float

    @pytest.mark.parametrize("value", [True, False, "1.5", [1.0], {}])
    def test_number_rejects_bool_and_non_numbers(self, value):
        with pytest.raises(ConfigurationError, match="x must be a number"):
            parse(Field(), value)

    def test_integral_float_reads_as_int(self):
        result = parse(Field(int), 3.0)
        assert result == 3 and type(result) is int

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, -math.inf])
    def test_integer_rejects_fractions_and_non_finite(self, value):
        with pytest.raises(ConfigurationError, match="x must be an integer"):
            parse(Field(int), value)

    @pytest.mark.parametrize("value", [True, "3"])
    def test_integer_rejects_bool_and_strings(self, value):
        with pytest.raises(ConfigurationError, match="x must be an integer"):
            parse(Field(int), value)

    def test_big_integers_are_exact(self):
        assert parse(Field(int, lo=0, hi=2**128 - 1), 2**127 + 1) == 2**127 + 1

    @pytest.mark.parametrize("value", [1, 0, "true", None])
    def test_bool_is_only_a_bool(self, value):
        with pytest.raises(ConfigurationError, match="x must be a boolean"):
            parse(Field(bool), value)
        assert parse(Field(bool), True) is True

    @pytest.mark.parametrize("value", [7, math.nan, True, None])
    def test_str_is_only_a_str(self, value):
        with pytest.raises(ConfigurationError, match="x must be a string"):
            parse(Field(str), value)

    def test_choices(self):
        assert parse(Field(str, choices=("a", "b")), "b") == "b"
        with pytest.raises(ConfigurationError, match="one of"):
            parse(Field(str, choices=("a", "b")), "c")

    def test_many(self):
        assert parse(Field(lo=0.0, many=True), [1, 2.5]) == [1.0, 2.5]
        with pytest.raises(ConfigurationError, match=r"x\.1 must be in"):
            parse(Field(lo=0.0, many=True), [1.0, -1.0])
        with pytest.raises(ConfigurationError, match="x must be a list"):
            parse(Field(many=True), 1.0)


class TestFiniteRangeNull:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_numbers_are_finite_by_default(self, value):
        with pytest.raises(ConfigurationError, match="x must be finite"):
            parse(Field(), value)

    def test_finite_off_passes_non_finite(self):
        assert math.isnan(parse(Field(finite=False), math.nan))
        assert parse(Field(finite=False), math.inf) == math.inf

    def test_range_edges_are_inclusive(self):
        field = Field(lo=0.0, hi=1.0)
        assert parse(field, 0.0) == 0.0 and parse(field, 1) == 1.0
        for value in (-1e-12, 1.0000001):
            with pytest.raises(ConfigurationError, match=r"x must be in \[0.0, 1.0\]"):
                parse(field, value)

    def test_integer_range(self):
        assert parse(Field(int, lo=0, hi=1), 1) == 1
        with pytest.raises(ConfigurationError, match="must be in"):
            parse(Field(int, lo=0, hi=1), -1)

    def test_null_only_when_nullable(self):
        assert parse(Field(nullable=True), None) is None
        with pytest.raises(ConfigurationError, match="x must be a number, got None"):
            parse(Field(), None)

    def test_missing_key(self):
        with pytest.raises(ConfigurationError, match="x is missing"):
            check({}, {"x": Field(nullable=True)})

    def test_state_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="state must be an object"):
            check([1.0], {"x": Field()})

    def test_undeclared_keys_are_not_read(self):
        assert check({"x": 1, "y": "anything"}, {"x": Field()}) == {"x": 1.0}


class TestPaths:
    def test_path_prefixes_the_field(self):
        with pytest.raises(ConfigurationError, match=r"^battery\.soc_wh must be"):
            check({"soc_wh": True}, {"soc_wh": Field()}, "battery")

    def test_within_nests_paths(self):
        with pytest.raises(ConfigurationError) as err:
            with within("racks.rack0"), within("battery"):
                check({"soc_wh": math.nan}, {"soc_wh": Field()})
        assert str(err.value) == "racks.rack0.battery.soc_wh must be finite, got nan"

    def test_within_names_a_plain_error(self):
        with pytest.raises(ConfigurationError) as err:
            with within("racks.rack0"):
                raise ConfigurationError("state components differ")
        assert str(err.value) == "racks.rack0 is rejected: state components differ"

    def test_rows(self):
        fields = {"platform": Field(str), "count": Field(int)}
        assert check_rows([["a", 2.0]], fields, "platforms") == [("a", 2)]
        with pytest.raises(ConfigurationError, match=r"platforms\.0\.count must be"):
            check_rows([["a", True]], fields, "platforms")
        with pytest.raises(ConfigurationError, match=r"platforms\.0 must be a list"):
            check_rows([["a"]], fields, "platforms")


def test_dataclass_kinds_come_from_annotations():
    fields = dataclass_fields(ShiftJob)
    assert fields["job_id"].kind is str
    assert fields["energy_wh"].kind is float
