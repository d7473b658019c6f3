"""Project-dependent metadata schemas.

    "Metadata schema is highly project-dependent" — slide 8.

A :class:`Schema` declares typed fields with requiredness, defaults, choice
sets and custom validators; :meth:`Schema.validate` normalises a raw dict
into a conforming one or raises :class:`~repro.metadata.errors.SchemaError`
listing *all* violations (not just the first — operators fixing an ingest
pipeline want the full list).

Schemas are versioned and support additive evolution via :meth:`Schema.extend`
— old records stay valid because new fields must be optional or defaulted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.metadata.errors import SchemaError

_TYPE_MAP: dict[str, tuple[type, ...]] = {
    "str": (str,),
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "list": (list,),
    "dict": (dict,),
}


@dataclass(frozen=True)
class FieldSpec:
    """Declaration of one metadata field.

    Parameters
    ----------
    name:
        Field key.
    type:
        One of ``str, int, float, bool, list, dict``.
    required:
        Whether :meth:`Schema.validate` rejects records missing the field.
    default:
        Value filled in for missing optional fields (``None`` = omit).
    choices:
        Optional closed set of allowed values.
    validator:
        Optional predicate; a ``False`` return marks the value invalid.
    doc:
        Human-readable description.
    """

    name: str
    type: str = "str"
    required: bool = False
    default: Any = None
    choices: Optional[tuple] = None
    validator: Optional[Callable[[Any], bool]] = None
    doc: str = ""

    def __post_init__(self) -> None:
        if self.type not in _TYPE_MAP:
            raise ValueError(f"field {self.name!r}: unknown type {self.type!r}")
        if self.required and self.default is not None:
            raise ValueError(f"field {self.name!r}: required fields cannot have defaults")
        # The WAL logs validated records and replay validates them again,
        # which gives the same record only if a filled-in default conforms.
        if self.default is not None and self.check(self.default):
            raise ValueError(f"field {self.name!r}: default {self.default!r} "
                             "does not conform")

    def check(self, value: Any) -> Optional[str]:
        """Return an error message for ``value``, or None if it conforms."""
        expected = _TYPE_MAP[self.type]
        if self.type == "float" and isinstance(value, bool):
            return f"{self.name}: expected float, got bool"
        if self.type == "int" and isinstance(value, bool):
            return f"{self.name}: expected int, got bool"
        if not isinstance(value, expected):
            return f"{self.name}: expected {self.type}, got {type(value).__name__}"
        if self.choices is not None and value not in self.choices:
            return f"{self.name}: {value!r} not in allowed choices {self.choices!r}"
        if self.validator is not None and not self.validator(value):
            return f"{self.name}: {value!r} rejected by validator"
        return None


class Schema:
    """An ordered collection of :class:`FieldSpec` with validation.

    Parameters
    ----------
    name:
        Schema name, e.g. ``"zebrafish-basic"``.
    fields:
        The field declarations.
    version:
        Monotonic schema version; bumped by :meth:`extend`.
    allow_extra:
        Whether keys not declared in the schema are tolerated (kept as-is).
    """

    def __init__(
        self,
        name: str,
        fields: Iterable[FieldSpec],
        version: int = 1,
        allow_extra: bool = False,
    ):
        self.name = name
        self.version = version
        self.allow_extra = allow_extra
        self.fields: dict[str, FieldSpec] = {}
        for spec in fields:
            if spec.name in self.fields:
                raise ValueError(f"schema {name!r}: duplicate field {spec.name!r}")
            self.fields[spec.name] = spec
        # Per field, the exact types that conform without FieldSpec.check
        # (none with choices or a validator; bool is not int's exact type).
        self._plain: dict[str, tuple[type, ...]] = {
            spec.name: () if spec.choices is not None or spec.validator is not None
            else _TYPE_MAP[spec.type]
            for spec in self.fields.values()
        }

    def validate(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Normalise ``record``; raise :class:`SchemaError` on violations.

        Returns a new dict with defaults filled in and (when
        ``allow_extra=False``) only declared keys.
        """
        errors: list[str] = []
        out: dict[str, Any] = {}
        plain = self._plain
        for name, spec in self.fields.items():
            if name in record:
                value = record[name]
                if type(value) not in plain[name]:
                    message = spec.check(value)
                    if message:
                        errors.append(message)
                        continue
                out[name] = value
            elif spec.required:
                errors.append(f"{name}: required field missing")
            elif spec.default is not None:
                out[name] = spec.default
        # In the record's own order: a set's order would follow the hash
        # seed into the saved store.
        extra = [key for key in record if key not in self.fields]
        if extra:
            if self.allow_extra:
                for key in extra:
                    out[key] = record[key]
            else:
                errors.append(f"undeclared fields: {sorted(extra)}")
        if errors:
            raise SchemaError(f"schema {self.name!r} v{self.version}: " + "; ".join(sorted(errors)))
        return out

    def extend(self, new_fields: Sequence[FieldSpec], name: Optional[str] = None) -> "Schema":
        """Additive schema evolution: a new version with extra fields.

        New fields must be optional (or defaulted) so records validated
        under the old version remain valid under the new one.
        """
        for spec in new_fields:
            if spec.required:
                raise ValueError(
                    f"schema evolution must be additive: new field {spec.name!r} "
                    "cannot be required"
                )
            if spec.name in self.fields:
                raise ValueError(f"field {spec.name!r} already exists in schema {self.name!r}")
        return Schema(
            name or self.name,
            list(self.fields.values()) + list(new_fields),
            version=self.version + 1,
            allow_extra=self.allow_extra,
        )

    def to_dict(self) -> dict:
        """JSON-serialisable description (validators are not serialised)."""
        return {
            "name": self.name,
            "version": self.version,
            "allow_extra": self.allow_extra,
            "fields": [
                {
                    "name": spec.name,
                    "type": spec.type,
                    "required": spec.required,
                    "default": spec.default,
                    "choices": list(spec.choices) if spec.choices else None,
                    "doc": spec.doc,
                }
                for spec in self.fields.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Schema":
        """Inverse of :meth:`to_dict` (custom validators are lost)."""
        fields = [
            FieldSpec(
                name=f["name"],
                type=f.get("type", "str"),
                required=f.get("required", False),
                default=f.get("default"),
                choices=tuple(f["choices"]) if f.get("choices") else None,
                doc=f.get("doc", ""),
            )
            for f in data["fields"]
        ]
        return cls(
            data["name"],
            fields,
            version=data.get("version", 1),
            allow_extra=data.get("allow_extra", False),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Schema {self.name} v{self.version} fields={list(self.fields)}>"
