"""Structured pass/fail records shared by every verification suite.

A report is a flat list of checks; serialisation follows the fixed schema
{config, suite, instances: [{id, params, pass, witness?, value?}], totals}
so runs are diffable CI artifacts.  Instances are order-normalised before
serialisation, which keeps concurrent or reordered evaluation invisible.
"""

from __future__ import annotations

import json


class Record:
    """A value class whose fields are its __slots__, in constructor order.

    Built positionally, one value per slot; equal field by field to a
    record of its own class only; shown as Name(field=value, ...); and,
    being mutable, unhashable."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"fields, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """A record that hashes its fields and refuses attribute assignment
    and deletion; a subclass's own __init__ sets its fields through
    Record.__init__."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete field {name!r} of {type(self).__name__}")


class Check(Record):
    """One checked instance: its id, parameters, verdict and the optional
    witness and value strings."""

    __slots__ = ("check_id", "params", "ok", "witness", "value")

    def __init__(self, check_id: str, params: dict, ok: bool,
                 witness: str | None = None, value: str | None = None) -> None:
        self.check_id = check_id
        self.params = params
        self.ok = ok
        self.witness = witness
        self.value = value

    def to_obj(self) -> dict:
        obj = {"id": self.check_id, "params": self.params, "pass": self.ok}
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.value is not None:
            obj["value"] = self.value
        return obj

    def sort_key(self):
        return (self.check_id, json.dumps(self.params, sort_keys=True))


class Report(Record):
    """A suite name, its config and the checks in the order added."""

    __slots__ = ("suite", "config", "checks")

    def __init__(self, suite: str, config: dict | None = None) -> None:
        self.suite = suite
        self.config = {} if config is None else config
        self.checks: list[Check] = []

    def add(self, check_id: str, params: dict, ok: bool,
            witness: str | None = None, value: str | None = None) -> Check:
        check = Check(check_id, params, bool(ok), witness, value)
        self.checks.append(check)
        return check

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def counts_by_id(self) -> dict:
        out: dict[str, dict] = {}
        for c in self.checks:
            slot = out.setdefault(c.check_id,
                                  {"instances": 0, "failures": 0, "vacuous": False})
            if c.value == "vacuous":
                slot["vacuous"] = True
                continue
            slot["instances"] += 1
            if not c.ok:
                slot["failures"] += 1
        return out

    def totals(self) -> dict:
        return {
            "instances": len(self.checks),
            "failures": len(self.failures),
            "by_id": self.counts_by_id(),
        }

    def to_payload(self) -> dict:
        """Deterministic JSON-compatible payload (no timestamps here)."""
        instances = [c.to_obj() for c in sorted(self.checks, key=Check.sort_key)]
        return {
            "suite": self.suite,
            "config": self.config,
            "instances": instances,
            "totals": self.totals(),
        }

    def summary_lines(self) -> list[str]:
        lines = [f"suite {self.suite}: {len(self.checks)} checks, "
                 f"{len(self.failures)} failures"]
        for check_id, slot in sorted(self.counts_by_id().items()):
            note = " (vacuous)" if slot["vacuous"] and not slot["instances"] else ""
            lines.append(f"  {check_id}: {slot['instances']} instances, "
                         f"{slot['failures']} failures{note}")
        for c in self.failures[:10]:
            lines.append(f"  FAIL {c.check_id} {c.params} witness={c.witness}")
        return lines
