"""Procedural image datasets standing in for MNIST / Fashion-MNIST /
CIFAR-10 / SVHN (no network access in this environment; see DESIGN.md
substitution table).

Each generator is deterministic given a seed and produces ten visually
distinct classes with realistic nuisance variation (affine jitter, stroke
thickness, pixel noise, cluttered backgrounds), so that

* mini capsule networks reach high clean accuracy (Table II analogue), and
* input-value distributions are non-uniform (exercising Fig. 11 / Table IV).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "render_digit", "render_garment", "synth_mnist_image",
    "synth_fashion_image", "synth_cifar10_image", "synth_svhn_image",
    "GENERATORS", "DIGIT_SEGMENTS", "GARMENT_PRIMITIVES",
]

# --------------------------------------------------------------------------
# Seven-segment-style vector font (unit square, y grows downward)
# --------------------------------------------------------------------------
_SEG = {
    "A": ((0.22, 0.12), (0.78, 0.12)),   # top
    "B": ((0.78, 0.12), (0.78, 0.50)),   # top-right
    "C": ((0.78, 0.50), (0.78, 0.88)),   # bottom-right
    "D": ((0.22, 0.88), (0.78, 0.88)),   # bottom
    "E": ((0.22, 0.50), (0.22, 0.88)),   # bottom-left
    "F": ((0.22, 0.12), (0.22, 0.50)),   # top-left
    "G": ((0.22, 0.50), (0.78, 0.50)),   # middle
    "K": ((0.34, 0.28), (0.50, 0.12)),   # '1' serif
}

#: Segment sets defining each digit glyph.
DIGIT_SEGMENTS: dict[int, str] = {
    0: "ABCDEF", 1: "BCK", 2: "ABGED", 3: "ABGCD", 4: "FGBC",
    5: "AFGCD", 6: "AFGECD", 7: "ABC", 8: "ABCDEFG", 9: "ABFGCD",
}


def _segment_distance(px: np.ndarray, py: np.ndarray,
                      p0: tuple[float, float],
                      p1: tuple[float, float]) -> np.ndarray:
    """Distance from each pixel centre to the segment ``p0-p1``."""
    (x0, y0), (x1, y1) = p0, p1
    dx, dy = x1 - x0, y1 - y0
    length_sq = dx * dx + dy * dy
    if length_sq < 1e-12:
        return np.hypot(px - x0, py - y0)
    t = np.clip(((px - x0) * dx + (py - y0) * dy) / length_sq, 0.0, 1.0)
    return np.hypot(px - (x0 + t * dx), py - (y0 + t * dy))


def _pixel_grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    coords = (np.arange(size) + 0.5) / size
    return np.meshgrid(coords, coords, indexing="xy")


def render_digit(digit: int, size: int = 28, *,
                 thickness: float = 0.06) -> np.ndarray:
    """Rasterise a digit glyph as an anti-aliased ``size×size`` float image."""
    if digit not in DIGIT_SEGMENTS:
        raise ValueError(f"digit must be 0-9, got {digit}")
    px, py = _pixel_grid(size)
    image = np.zeros((size, size), dtype=np.float32)
    for key in DIGIT_SEGMENTS[digit]:
        dist = _segment_distance(px, py, *_SEG[key])
        image = np.maximum(image, np.clip(1.5 - dist / thickness, 0.0, 1.0))
    return np.clip(image, 0.0, 1.0)


# --------------------------------------------------------------------------
# Garment silhouettes (Fashion-MNIST stand-in); primitives on unit square
# --------------------------------------------------------------------------
def _rect(x0, y0, x1, y1):
    return ("rect", x0, y0, x1, y1)


def _ellipse(cx, cy, rx, ry):
    return ("ellipse", cx, cy, rx, ry)


def _tri(p0, p1, p2):
    return ("tri", p0, p1, p2)


#: Filled-primitive composition per Fashion-MNIST-like class:
#: 0 t-shirt, 1 trouser, 2 pullover, 3 dress, 4 coat,
#: 5 sandal, 6 shirt, 7 sneaker, 8 bag, 9 ankle boot.
GARMENT_PRIMITIVES: dict[int, list] = {
    0: [_rect(0.30, 0.25, 0.70, 0.80), _rect(0.12, 0.25, 0.32, 0.45),
        _rect(0.68, 0.25, 0.88, 0.45)],
    1: [_rect(0.30, 0.15, 0.48, 0.90), _rect(0.52, 0.15, 0.70, 0.90),
        _rect(0.30, 0.10, 0.70, 0.25)],
    2: [_rect(0.30, 0.20, 0.70, 0.85), _rect(0.10, 0.20, 0.32, 0.75),
        _rect(0.68, 0.20, 0.90, 0.75)],
    3: [_tri((0.50, 0.12), (0.22, 0.90), (0.78, 0.90)),
        _rect(0.40, 0.10, 0.60, 0.30)],
    4: [_rect(0.28, 0.12, 0.72, 0.92), _rect(0.08, 0.15, 0.30, 0.80),
        _rect(0.70, 0.15, 0.92, 0.80), _tri((0.50, 0.12), (0.38, 0.35),
                                            (0.62, 0.35))],
    5: [_rect(0.15, 0.62, 0.85, 0.72), _rect(0.20, 0.42, 0.30, 0.64),
        _rect(0.45, 0.42, 0.55, 0.64), _rect(0.70, 0.42, 0.80, 0.64)],
    6: [_rect(0.30, 0.18, 0.70, 0.88), _rect(0.14, 0.18, 0.32, 0.55),
        _rect(0.68, 0.18, 0.86, 0.55), _tri((0.50, 0.35), (0.40, 0.18),
                                            (0.60, 0.18))],
    7: [_rect(0.12, 0.55, 0.88, 0.75), _tri((0.12, 0.55), (0.45, 0.35),
                                            (0.88, 0.55)),
        _ellipse(0.25, 0.75, 0.12, 0.08)],
    8: [_rect(0.22, 0.40, 0.78, 0.85), _ellipse(0.50, 0.33, 0.20, 0.14),
        _rect(0.42, 0.25, 0.58, 0.45)],
    9: [_rect(0.35, 0.15, 0.70, 0.75), _rect(0.20, 0.60, 0.70, 0.85),
        _ellipse(0.68, 0.25, 0.10, 0.10)],
}


def _rasterise_primitive(primitive, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    kind = primitive[0]
    if kind == "rect":
        _, x0, y0, x1, y1 = primitive
        return ((px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)).astype(np.float32)
    if kind == "ellipse":
        _, cx, cy, rx, ry = primitive
        return (((px - cx) / rx) ** 2 + ((py - cy) / ry) ** 2 <= 1.0).astype(np.float32)
    if kind == "tri":
        _, p0, p1, p2 = primitive

        def half_plane(a, b):
            return (px - a[0]) * (b[1] - a[1]) - (py - a[1]) * (b[0] - a[0])

        d0, d1, d2 = half_plane(p0, p1), half_plane(p1, p2), half_plane(p2, p0)
        inside = ((d0 >= 0) & (d1 >= 0) & (d2 >= 0)) | ((d0 <= 0) & (d1 <= 0) & (d2 <= 0))
        return inside.astype(np.float32)
    raise ValueError(f"unknown primitive kind {kind!r}")


def render_garment(label: int, size: int = 28) -> np.ndarray:
    """Rasterise a garment silhouette as a filled ``size×size`` float image."""
    if label not in GARMENT_PRIMITIVES:
        raise ValueError(f"label must be 0-9, got {label}")
    px, py = _pixel_grid(size)
    image = np.zeros((size, size), dtype=np.float32)
    for primitive in GARMENT_PRIMITIVES[label]:
        image = np.maximum(image, _rasterise_primitive(primitive, px, py))
    from scipy import ndimage
    return ndimage.gaussian_filter(image, 0.6).astype(np.float32)


# --------------------------------------------------------------------------
# Per-image nuisance jitter
# --------------------------------------------------------------------------
def _random_affine(image: np.ndarray, rng: np.random.Generator, *,
                   max_rotate: float = 12.0, scale_range=(0.88, 1.12),
                   max_shift: float = 2.0) -> np.ndarray:
    """Apply a random rotation/scale/shift around the image centre."""
    angle = np.deg2rad(rng.uniform(-max_rotate, max_rotate))
    scale = rng.uniform(*scale_range)
    cos, sin = np.cos(angle) / scale, np.sin(angle) / scale
    matrix = np.array([[cos, -sin], [sin, cos]], dtype=np.float64)
    centre = np.array(image.shape, dtype=np.float64) / 2.0
    shift = rng.uniform(-max_shift, max_shift, size=2)
    offset = centre - matrix @ (centre + shift)
    from scipy import ndimage
    return ndimage.affine_transform(image, matrix, offset=offset, order=1,
                                    mode="constant", cval=0.0)


def synth_mnist_image(label: int, rng: np.random.Generator,
                      size: int = 28) -> np.ndarray:
    """One MNIST-like grayscale sample ``(1, size, size)`` in [0, 1]."""
    glyph = render_digit(label, size, thickness=rng.uniform(0.05, 0.075))
    glyph = _random_affine(glyph, rng)
    glyph += rng.normal(0.0, 0.04, glyph.shape)
    return np.clip(glyph, 0.0, 1.0).astype(np.float32)[None]


def synth_fashion_image(label: int, rng: np.random.Generator,
                        size: int = 28) -> np.ndarray:
    """One Fashion-MNIST-like grayscale sample ``(1, size, size)``."""
    silhouette = render_garment(label, size)
    silhouette = _random_affine(silhouette, rng, max_rotate=8.0)
    silhouette *= rng.uniform(0.75, 1.0)
    silhouette += rng.normal(0.0, 0.05, silhouette.shape)
    return np.clip(silhouette, 0.0, 1.0).astype(np.float32)[None]


_CIFAR_SHAPES = ("circle", "square", "triangle", "ring", "cross",
                 "diamond", "hbar", "vbar", "dot_grid", "wedge")
_CIFAR_HUES = np.linspace(0.0, 0.9, 10)


def _hue_to_rgb(hue: float) -> np.ndarray:
    """Cheap HSV(h, 1, 1) → RGB conversion."""
    k = (np.array([0, 2, 4]) + hue * 6.0) % 6.0
    return (1.0 - np.clip(np.minimum(k, 4.0 - k), 0.0, 1.0)).astype(np.float32)


def _shape_mask(shape: str, size: int, rng: np.random.Generator) -> np.ndarray:
    px, py = _pixel_grid(size)
    cx, cy = rng.uniform(0.35, 0.65, size=2)
    r = rng.uniform(0.18, 0.28)
    if shape == "circle":
        return (np.hypot(px - cx, py - cy) <= r).astype(np.float32)
    if shape == "square":
        return ((np.abs(px - cx) <= r) & (np.abs(py - cy) <= r)).astype(np.float32)
    if shape == "triangle":
        return _rasterise_primitive(
            _tri((cx, cy - r), (cx - r, cy + r), (cx + r, cy + r)), px, py)
    if shape == "ring":
        dist = np.hypot(px - cx, py - cy)
        return ((dist <= r) & (dist >= 0.55 * r)).astype(np.float32)
    if shape == "cross":
        return (((np.abs(px - cx) <= 0.35 * r) & (np.abs(py - cy) <= r))
                | ((np.abs(py - cy) <= 0.35 * r) & (np.abs(px - cx) <= r))
                ).astype(np.float32)
    if shape == "diamond":
        return ((np.abs(px - cx) + np.abs(py - cy)) <= r).astype(np.float32)
    if shape == "hbar":
        return ((np.abs(py - cy) <= 0.4 * r) & (np.abs(px - cx) <= 1.4 * r)
                ).astype(np.float32)
    if shape == "vbar":
        return ((np.abs(px - cx) <= 0.4 * r) & (np.abs(py - cy) <= 1.4 * r)
                ).astype(np.float32)
    if shape == "dot_grid":
        mask = np.zeros_like(px)
        for ox in (-0.6, 0.0, 0.6):
            for oy in (-0.6, 0.0, 0.6):
                mask = np.maximum(mask, (np.hypot(
                    px - cx - ox * r, py - cy - oy * r) <= 0.25 * r))
        return mask.astype(np.float32)
    if shape == "wedge":
        angle = np.arctan2(py - cy, px - cx)
        return ((np.hypot(px - cx, py - cy) <= 1.2 * r)
                & (np.abs(angle) <= 0.9)).astype(np.float32)
    raise ValueError(f"unknown shape {shape!r}")


def _textured_background(size: int, rng: np.random.Generator,
                         hue: float) -> np.ndarray:
    from scipy import ndimage
    noise = rng.normal(0.0, 1.0, (3, size, size))
    smooth = np.stack([ndimage.gaussian_filter(c, 2.5) for c in noise])
    smooth = (smooth - smooth.min()) / (np.ptp(smooth) + 1e-9)
    base = _hue_to_rgb(hue)[:, None, None]
    return (0.25 * base + 0.3 * smooth).astype(np.float32)


def synth_cifar10_image(label: int, rng: np.random.Generator,
                        size: int = 32) -> np.ndarray:
    """One CIFAR-10-like RGB sample ``(3, size, size)`` in [0, 1].

    Each class is a fixed (shape, hue) pair rendered over a smooth textured
    background in a shifted hue.
    """
    shape, hue = _CIFAR_SHAPES[label], float(_CIFAR_HUES[label])
    image = _textured_background(size, rng, (hue + 0.45) % 1.0)
    mask = _shape_mask(shape, size, rng)
    from scipy import ndimage
    mask = ndimage.gaussian_filter(mask, 0.6)
    colour = _hue_to_rgb(hue)[:, None, None] * rng.uniform(0.7, 1.0)
    image = image * (1.0 - mask) + colour * mask
    image += rng.normal(0.0, 0.03, image.shape)
    return np.clip(image, 0.0, 1.0).astype(np.float32)


def synth_svhn_image(label: int, rng: np.random.Generator,
                     size: int = 32) -> np.ndarray:
    """One SVHN-like RGB sample: centre digit + distractor digit fragments."""
    image = _textured_background(size, rng, rng.uniform(0.0, 1.0))
    glyph = render_digit(label, size, thickness=rng.uniform(0.05, 0.08))
    glyph = _random_affine(glyph, rng, max_rotate=8.0, max_shift=2.5)
    colour = _hue_to_rgb(rng.uniform(0.0, 1.0))
    colour = 0.35 + 0.65 * colour  # keep digits bright against clutter
    image = image * (1.0 - glyph) + colour[:, None, None] * glyph
    # distractor fragments at the lateral edges, as in street-number crops
    for side in (-1, 1):
        distractor = render_digit(int(rng.integers(0, 10)), size)
        shifted = np.roll(distractor, side * int(0.4 * size), axis=1)
        shifted[:, :] *= 0.5
        edge = slice(0, size // 4) if side < 0 else slice(3 * size // 4, size)
        cols = np.zeros_like(distractor)
        cols[:, edge] = shifted[:, edge]
        image = np.maximum(image, cols[None] * colour[:, None, None] * 0.6)
    image += rng.normal(0.0, 0.03, image.shape)
    return np.clip(image, 0.0, 1.0).astype(np.float32)


#: name -> (generator, channels, default size)
GENERATORS = {
    "synth-mnist": (synth_mnist_image, 1, 28),
    "synth-fashion": (synth_fashion_image, 1, 28),
    "synth-cifar10": (synth_cifar10_image, 3, 32),
    "synth-svhn": (synth_svhn_image, 3, 32),
}
