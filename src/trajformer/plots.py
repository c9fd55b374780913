"""SVG rendering of predicted vs ground-truth trajectories over the map.

Pure-text output keeps plots diffable and testable: the label map becomes
run-length rows of colored rects, polylines are pixel coordinates
(meters / meters_per_pixel), prediction in blue, ground truth in green.
"""

from __future__ import annotations

import numpy as np

from .maps import SceneMap

LABEL_COLORS = (
    "#f2f2f2",  # none
    "#b0b0b0",  # road
    "#d9c9a3",  # sidewalk
    "#ffffff",  # zebra_crossing
    "#9fc98a",  # vegetation
    "#7a6ea5",  # parked_vehicle
)
PREDICTION_COLOR = "#1f4fd8"   # blue
GROUND_TRUTH_COLOR = "#1b9e3a"  # green


def map_background(scene: SceneMap) -> str:
    """The label map as a group of run-length rows of rects: the part of a
    window's SVG that is the same for every window of the scene."""
    rects = ['<g shape-rendering="crispEdges">']
    labels = scene.labels
    for r in range(scene.height):
        row = labels[r]
        boundaries = np.flatnonzero(np.diff(row)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [scene.width]])
        for c0, c1 in zip(starts, ends):
            rects.append(
                f'<rect x="{c0}" y="{r}" width="{c1 - c0}" height="1" '
                f'fill="{LABEL_COLORS[row[c0]]}"/>'
            )
    rects.append("</g>")
    return "\n".join(rects)


def _polyline(points_px: np.ndarray, color: str, width: float) -> str:
    # Python floats format several times faster than numpy scalars, to the same text
    coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in points_px.tolist())
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{width}" stroke-linejoin="round" stroke-linecap="round"/>'
    )


def render_window_svg(
    scene: SceneMap,
    observed_m: np.ndarray,
    predicted_m: np.ndarray,
    ground_truth_m: np.ndarray,
    title: str = "",
    background: str | None = None,
) -> str:
    """One window's SVG; ``background`` is ``map_background(scene)``, which a
    caller drawing many windows of a scene builds once and passes to each."""
    mpp = scene.meters_per_pixel
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {scene.width} {scene.height}" '
        f'width="{scene.width * 3}" height="{scene.height * 3}">',
    ]
    if title:
        parts.append(f"<title>{title}</title>")
    parts.append(map_background(scene) if background is None else background)
    parts.append(_polyline(np.asarray(observed_m) / mpp, "#444444", 0.6))
    parts.append(_polyline(np.asarray(ground_truth_m) / mpp, GROUND_TRUTH_COLOR, 0.8))
    parts.append(_polyline(np.asarray(predicted_m) / mpp, PREDICTION_COLOR, 0.8))
    parts.append("</svg>")
    return "\n".join(parts)
