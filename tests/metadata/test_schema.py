"""Tests for schemas and validation."""

import pytest

from repro.metadata import FieldSpec, Schema, SchemaError


def _schema(allow_extra=False):
    return Schema(
        "test",
        [
            FieldSpec("plate", "int", required=True),
            FieldSpec("well", "str", required=True),
            FieldSpec("microscope", "str", default="scanR"),
            FieldSpec("quality", "str", choices=("good", "bad")),
            FieldSpec("score", "float", validator=lambda v: 0.0 <= v <= 1.0),
            FieldSpec("flags", "list"),
        ],
        allow_extra=allow_extra,
    )


class TestFieldSpec:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec("x", "complex128")

    def test_required_with_default_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec("x", "int", required=True, default=1)

    def test_nonconforming_default_rejected(self):
        with pytest.raises(ValueError, match="does not conform"):
            FieldSpec("x", "int", default="a")
        with pytest.raises(ValueError, match="does not conform"):
            FieldSpec("x", "str", choices=("a", "b"), default="c")

    def test_bool_not_accepted_as_int(self):
        spec = FieldSpec("x", "int")
        assert spec.check(True) is not None
        assert spec.check(3) is None

    def test_int_accepted_as_float(self):
        assert FieldSpec("x", "float").check(3) is None
        assert FieldSpec("x", "float").check(3.5) is None

    def test_choices(self):
        spec = FieldSpec("x", "str", choices=("a", "b"))
        assert spec.check("a") is None
        assert "not in allowed" in spec.check("c")

    def test_validator(self):
        spec = FieldSpec("x", "int", validator=lambda v: v > 0)
        assert spec.check(5) is None
        assert "rejected by validator" in spec.check(-5)


class TestValidate:
    def test_valid_record_normalised(self):
        out = _schema().validate({"plate": 3, "well": "A01"})
        assert out == {"plate": 3, "well": "A01", "microscope": "scanR"}

    def test_missing_required_listed(self):
        with pytest.raises(SchemaError, match="plate.*required"):
            _schema().validate({"well": "A01"})

    def test_all_errors_reported_at_once(self):
        with pytest.raises(SchemaError) as excinfo:
            _schema().validate({"quality": "ugly", "score": 2.0})
        message = str(excinfo.value)
        assert "plate" in message and "well" in message
        assert "quality" in message and "score" in message

    def test_wrong_type_rejected(self):
        with pytest.raises(SchemaError, match="expected int"):
            _schema().validate({"plate": "three", "well": "A01"})

    def test_extra_fields_rejected_by_default(self):
        with pytest.raises(SchemaError, match="undeclared"):
            _schema().validate({"plate": 1, "well": "A01", "surprise": 1})

    def test_extra_fields_kept_when_allowed(self):
        out = _schema(allow_extra=True).validate({"plate": 1, "well": "A01", "surprise": 1})
        assert out["surprise"] == 1

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValueError):
            Schema("dup", [FieldSpec("x"), FieldSpec("x")])

    def test_list_type(self):
        out = _schema().validate({"plate": 1, "well": "A", "flags": ["a"]})
        assert out["flags"] == ["a"]

    def test_extra_fields_keep_the_record_order(self):
        record = {"plate": 1, "well": "A01", "zeta": 1, "alpha": 2, "mu": 3}
        out = _schema(allow_extra=True).validate(record)
        assert list(out)[-3:] == ["zeta", "alpha", "mu"]

    @pytest.mark.parametrize("kind", ["str", "int", "float", "bool", "list",
                                      "dict"])
    @pytest.mark.parametrize("narrowed", ["plain", "choices", "validator"])
    def test_outcome_is_the_field_check(self, kind, narrowed):
        """Values that skip FieldSpec.check end exactly as check says."""
        class Text(str):
            pass

        spec = FieldSpec(
            "x", kind,
            choices=(1, "a", True) if narrowed == "choices" else None,
            validator=(lambda v: v != 0) if narrowed == "validator" else None)
        schema = Schema("one", [spec])
        for value in ("a", Text("a"), 0, 1, True, 1.5, [1], {"k": 1}, None):
            message = spec.check(value)
            if message is None:
                assert schema.validate({"x": value}) == {"x": value}
            else:
                with pytest.raises(SchemaError) as excinfo:
                    schema.validate({"x": value})
                assert str(excinfo.value).endswith(message)


class TestEvolution:
    def test_extend_adds_optional_fields(self):
        v2 = _schema().extend([FieldSpec("operator", "str")])
        assert v2.version == 2
        # Old records still validate.
        v2.validate({"plate": 1, "well": "A01"})

    def test_extend_rejects_required_fields(self):
        with pytest.raises(ValueError, match="additive"):
            _schema().extend([FieldSpec("new", "int", required=True)])

    def test_extend_rejects_duplicates(self):
        with pytest.raises(ValueError):
            _schema().extend([FieldSpec("plate", "int")])


class TestSerialisation:
    def test_round_trip(self):
        original = _schema()
        restored = Schema.from_dict(original.to_dict())
        assert restored.name == original.name
        assert restored.version == original.version
        assert list(restored.fields) == list(original.fields)
        restored.validate({"plate": 1, "well": "A01"})

    def test_choices_survive_round_trip(self):
        restored = Schema.from_dict(_schema().to_dict())
        with pytest.raises(SchemaError):
            restored.validate({"plate": 1, "well": "A", "quality": "ugly"})

    def test_validators_not_serialised(self):
        restored = Schema.from_dict(_schema().to_dict())
        # score validator is lost: 2.0 now passes.
        restored.validate({"plate": 1, "well": "A", "score": 2.0})
