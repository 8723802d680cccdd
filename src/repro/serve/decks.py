"""Deck submissions: request JSON -> validated :class:`InputDeck`.

``POST /jobs`` accepts three mutually exclusive deck sources:

* ``{"deck": "<deck-file text>"}`` -- the full ``key = value`` deck
  format of :mod:`repro.sweep.deckfile`, inline;
* ``{"example": "shielding"}`` -- a named deck from the repository's
  ``examples/decks/`` zoo;
* ``{"cube": 16, "sn": 4, "nm": 2, "iterations": 1, "fixup": false}``
  -- the CLI's cubic-deck shorthand.

Whatever the source, the job record keeps the *canonical deck text*
(:func:`repro.sweep.deckfile.format_deck`) so a stored job is
reproducible offline (paste the text into a ``.deck`` file and run
``repro solve --deck``), and the estimated service demand
(:func:`deck_cost`) feeds the fair queue.
"""

from __future__ import annotations

import pathlib

from ..errors import InputDeckError
from ..sweep.deckfile import parse_deck
from ..sweep.input import InputDeck, cube_deck

#: the repository's named example decks
DECK_DIR = pathlib.Path(__file__).resolve().parents[3] / "examples" / "decks"


def example_decks() -> dict[str, pathlib.Path]:
    """Named example decks available to ``{"example": ...}`` requests."""
    if not DECK_DIR.is_dir():  # pragma: no cover - source checkout only
        return {}
    return {p.stem: p for p in sorted(DECK_DIR.glob("*.deck"))}


def deck_cost(deck: InputDeck) -> float:
    """Estimated service demand: cell visits over the whole solve
    (cells x angles x iterations, in units of 10^6 visits so typical
    costs are O(1))."""
    quad = deck.quadrature()
    visits = deck.grid.num_cells * 8 * quad.per_octant * deck.iterations
    return visits / 1e6


def deck_label(deck: InputDeck) -> str:
    g = deck.grid
    return (f"{g.nx}x{g.ny}x{g.nz} S{deck.sn} nm={deck.nm} "
            f"x{deck.iterations}")


def _cube_deck_from_request(doc: dict) -> InputDeck:
    fields = {key: int(doc[key]) for key in
              ("sn", "nm", "iterations", "mk", "mmi") if key in doc}
    fields.update((key, float(doc[key])) for key in
                  ("sigma_t", "scattering_ratio") if key in doc)
    return cube_deck(
        int(doc["cube"]), fixup=bool(doc.get("fixup", True)), **fields
    )


def deck_from_request(doc: dict) -> InputDeck:
    """Build the deck a ``POST /jobs`` body describes.

    Raises :class:`InputDeckError` for anything malformed -- the
    handler maps that to HTTP 400 with the message in the body.
    """
    sources = [k for k in ("deck", "example", "cube") if k in doc]
    if len(sources) != 1:
        raise InputDeckError(
            "job request needs exactly one of 'deck' (inline text), "
            f"'example' (named deck) or 'cube' (edge length); got {sources!r}"
        )
    if "deck" in doc:
        if not isinstance(doc["deck"], str):
            raise InputDeckError("'deck' must be deck-file text")
        return parse_deck(doc["deck"])
    if "example" in doc:
        decks = example_decks()
        name = str(doc["example"])
        if name not in decks:
            raise InputDeckError(
                f"unknown example deck {name!r}; available: "
                f"{sorted(decks) or 'none'}"
            )
        return parse_deck(decks[name].read_text())
    try:
        return _cube_deck_from_request(doc)
    except (TypeError, ValueError) as exc:
        raise InputDeckError(f"bad cube-deck parameters: {exc}") from exc
