"""The JSON wire protocol of the policy-serving service.

Everything that crosses the wire is one JSON document per request and one
per response.  This module owns the request-side validation (state
parsing, batch limits) and the **typed error envelope** every failure maps
to::

    {"error": {"type": "invalid-request", "status": 400, "message": "..."}}

Error types are a closed set (:data:`ERROR_STATUS`); handlers never leak a
traceback over the wire — an unexpected exception becomes an opaque
``internal-error`` envelope while the details go to the server's
``repro.net`` log.

A *state* in a decision request may be written three equivalent ways:

* the base-3 **index** of the discretised state (``0 <= index < 243``);
* a 5-element **list** of attribute levels, in paper Table 3 order;
* a **mapping** with exactly the five attribute names
  (:data:`STATE_ATTRIBUTES`), each in ``{0, 1, 2}``.

All three resolve to the same Q-table row via
:class:`repro.core.state.CoherenceState`, so clients can send whatever
they have without pre-encoding.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.state import NUM_STATES, CoherenceState
from repro.errors import PolicyError, ServingError
from repro.net.envelope import EnvelopeError, make_envelope

#: Protocol version stamped into every response envelope.
PROTOCOL_VERSION = 1

#: The closed set of error-envelope types and their HTTP status codes.
ERROR_STATUS: Dict[str, int] = {
    "invalid-request": 400,
    "not-found": 404,
    "model-error": 409,
    "payload-too-large": 413,
    "simulation-error": 422,
    "internal-error": 500,
}

#: Attribute names of a state mapping, in paper Table 3 order.
STATE_ATTRIBUTES: Tuple[str, ...] = (
    "fully_coh_acc",
    "non_coh_acc_per_tile",
    "to_llc_per_tile",
    "tile_footprint",
    "acc_footprint",
)


class RequestError(EnvelopeError, ServingError):
    """A request that failed validation or execution, with a typed envelope."""

    #: The serving vocabulary; see :data:`ERROR_STATUS`.
    vocabulary = ERROR_STATUS

    #: Unknown envelope types are a serving-side bug.
    unknown_error = ServingError


def error_envelope(error_type: str, message: str) -> Dict[str, object]:
    """Build the JSON error envelope for ``error_type``."""
    return make_envelope(ERROR_STATUS, error_type, message, ServingError)


def envelope_for_exception(exc: BaseException) -> Tuple[int, Dict[str, object]]:
    """Map an exception to ``(status, envelope)``; never leaks a traceback.

    :class:`RequestError` carries its own type; the library's domain
    errors map onto the closed envelope set (a corrupt or mid-swap model
    is ``model-error``, an exhausted what-if budget is
    ``simulation-error``, every other :class:`~repro.errors.ReproError` is
    the caller's fault and maps to ``invalid-request``).  Anything else is
    a bug — the client gets an opaque ``internal-error`` naming only the
    exception class, never its message or stack.
    """
    from repro.errors import ModelError, ReproError, SimulationError

    if isinstance(exc, RequestError):
        return exc.status, error_envelope(exc.error_type, str(exc))
    if isinstance(exc, ModelError):
        return ERROR_STATUS["model-error"], error_envelope("model-error", str(exc))
    if isinstance(exc, SimulationError):
        return (
            ERROR_STATUS["simulation-error"],
            error_envelope("simulation-error", str(exc)),
        )
    if isinstance(exc, ReproError):
        return (
            ERROR_STATUS["invalid-request"],
            error_envelope("invalid-request", str(exc)),
        )
    return (
        ERROR_STATUS["internal-error"],
        error_envelope(
            "internal-error",
            f"internal server error ({type(exc).__name__})",
        ),
    )


def parse_state(value: object) -> int:
    """Resolve one wire-format state to its Q-table row index."""
    if isinstance(value, bool):
        raise RequestError("invalid-request", f"state {value!r} is not a state")
    if isinstance(value, int):
        if not 0 <= value < NUM_STATES:
            raise RequestError(
                "invalid-request",
                f"state index {value} out of range [0, {NUM_STATES})",
            )
        return value
    if isinstance(value, (list, tuple)):
        if len(value) != len(STATE_ATTRIBUTES) or not all(
            isinstance(level, int) and not isinstance(level, bool) for level in value
        ):
            raise RequestError(
                "invalid-request",
                f"a state list needs exactly {len(STATE_ATTRIBUTES)} integer "
                f"attribute levels, got {value!r}",
            )
        try:
            return CoherenceState(*value).index
        except PolicyError as exc:
            raise RequestError("invalid-request", str(exc)) from exc
    if isinstance(value, dict):
        if set(value) != set(STATE_ATTRIBUTES):
            raise RequestError(
                "invalid-request",
                "a state mapping needs exactly the attributes "
                f"{list(STATE_ATTRIBUTES)}, got {sorted(value)}",
            )
        levels = [value[name] for name in STATE_ATTRIBUTES]
        return parse_state(levels)
    raise RequestError(
        "invalid-request",
        f"cannot interpret {value!r} as a state (use an index, a "
        f"{len(STATE_ATTRIBUTES)}-element level list, or an attribute mapping)",
    )


def parse_decide_request(
    document: object, max_batch: int
) -> Tuple[List[int], bool]:
    """Validate a decision request; return ``(state_indices, is_single)``.

    A request carries either ``state`` (one state; the response echoes a
    single ``decision``) or ``states`` (a batch, up to ``max_batch``; the
    response carries ``decisions`` in request order) — never both.  A
    plain in-range ``int`` is taken as it is; every other form, ``bool``
    included, goes through :func:`parse_state`.
    """
    if not isinstance(document, dict):
        raise RequestError("invalid-request", "request body must be a JSON object")
    has_single = "state" in document
    has_batch = "states" in document
    if has_single == has_batch:
        raise RequestError(
            "invalid-request",
            "a decision request carries exactly one of 'state' or 'states'",
        )
    if has_single:
        states = [document["state"]]
    else:
        states = document["states"]
        if not isinstance(states, Sequence) or isinstance(states, (str, bytes)):
            raise RequestError(
                "invalid-request", "'states' must be an array of states"
            )
        if len(states) > max_batch:
            raise RequestError(
                "invalid-request",
                f"batch of {len(states)} states exceeds the server's limit of "
                f"{max_batch}; split the request",
            )
    return [
        state if type(state) is int and 0 <= state < NUM_STATES else parse_state(state)
        for state in states
    ], has_single
