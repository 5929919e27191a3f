"""Uniform audit/verification records and their JSON form.

A record compares two routes to the same quantity. `hard` records assert
identities that must hold; their failures are defects. Audit records track
published closed forms that desk evaluation shows to be wrong; a nonzero
residual there is data to report, never an error.
"""

from __future__ import annotations

from .qexact import QPolynomial


class AuditRecord:
    __slots__ = ("params", "route_a", "route_b", "residual", "hard", "detail")

    def __init__(
        self,
        params: dict,
        route_a: str,
        route_b: str,
        residual: QPolynomial,
        hard: bool = True,
        detail: dict | None = None,
    ):
        self.params = params
        self.route_a = route_a
        self.route_b = route_b
        self.residual = residual
        self.hard = hard
        self.detail = {} if detail is None else detail

    def _key(self) -> tuple:
        return (self.params, self.route_a, self.route_b, self.residual, self.hard, self.detail)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return (
            f"AuditRecord(params={self.params!r}, route_a={self.route_a!r}, "
            f"route_b={self.route_b!r}, residual={self.residual!r}, hard={self.hard!r}, "
            f"detail={self.detail!r})"
        )

    @property
    def verdict(self) -> str:
        if self.residual.is_zero():
            return "match"
        return "mismatch" if self.hard else "audit-mismatch"

    @property
    def failed(self) -> bool:
        return self.hard and not self.residual.is_zero()

    def to_json_dict(self) -> dict:
        out = {
            "params": {k: _plain(v) for k, v in sorted(self.params.items())},
            "route_a": self.route_a,
            "route_b": self.route_b,
            "residual_polynomial": self.residual.to_json_dict(),
            "verdict": self.verdict,
        }
        if self.detail:
            out["detail"] = {k: _plain(v) for k, v in sorted(self.detail.items())}
        return out


def _plain(v):
    if isinstance(v, QPolynomial):
        return v.to_json_dict()
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in sorted(v.items())}
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return str(v)
