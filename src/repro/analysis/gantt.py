"""ASCII schedule visualization: link sparklines.

No plotting stack exists offline, so the examples render schedules as
text.  Link sparklines quantize the piecewise-constant rate profile into
height glyphs, giving a quick visual of load balance across links.
"""

from __future__ import annotations

import io

from repro.errors import ValidationError
from repro.scheduling.schedule import Schedule
from repro.topology.base import Edge

__all__ = ["render_link_sparklines"]

_SPARK_GLYPHS = " .:-=+*#%@"


def render_link_sparklines(
    schedule: Schedule,
    horizon: tuple[float, float] | None = None,
    width: int = 72,
    top: int | None = None,
) -> str:
    """Render each active link's rate profile as a one-line sparkline.

    Links are sorted by peak rate (descending); ``top`` limits the output
    to the busiest links.  All sparklines share one rate scale so heights
    are comparable across links.
    """
    if width < 16:
        raise ValidationError(f"width must be >= 16, got {width}")
    rates = schedule.link_rates()
    if horizon is None:
        points = [
            p
            for profile in rates.values()
            for p in profile.breakpoints
        ]
        horizon = (min(points), max(points))
    t0, t1 = horizon
    if not t1 > t0:
        raise ValidationError(f"bad horizon {horizon!r}")

    global_peak = max(profile.maximum() for profile in rates.values())
    if global_peak <= 0:
        raise ValidationError("schedule carries no traffic")

    ordered: list[tuple[Edge, float]] = sorted(
        ((edge, profile.maximum()) for edge, profile in rates.items()),
        key=lambda item: (-item[1], item[0]),
    )
    if top is not None:
        ordered = ordered[:top]

    label_width = max(len(f"{u}-{v}") for (u, v), _ in ordered) + 2
    out = io.StringIO()
    for (u, v), peak in ordered:
        profile = rates[(u, v)]
        cells = []
        for i in range(width):
            t = t0 + (i + 0.5) * (t1 - t0) / width
            level = profile(t) / global_peak
            glyph = _SPARK_GLYPHS[
                min(len(_SPARK_GLYPHS) - 1, int(level * (len(_SPARK_GLYPHS) - 1) + 0.5))
            ]
            cells.append(glyph)
        out.write(
            f"{u}-{v}".ljust(label_width)
            + "".join(cells)
            + f"  peak={peak:.3g}\n"
        )
    return out.getvalue()
