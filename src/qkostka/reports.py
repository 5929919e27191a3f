"""Uniform audit/verification records and their JSON form.

A record compares two routes to the same quantity. `hard` records assert
identities that must hold; their failures are defects. Audit records track
published closed forms that desk evaluation shows to be wrong; a nonzero
residual there is data to report, never an error.
"""

from __future__ import annotations

from .compositions import Value
from .qexact import QPolynomial


class AuditRecord(Value):
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
        detail = {} if detail is None else detail
        super().__init__(params, route_a, route_b, residual, hard, detail)

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
