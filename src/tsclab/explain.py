"""Class Activation Maps and metric MDS of the pre-classifier features.

Both tools need a GAP-headed network (the convolutional feature map is
averaged over time and fed straight to the softmax layer), so they are
restricted to architectures with that head.  The CAM of class ``c`` is
the softmax-weight-combined final feature map over time; its time
average plus the class bias reproduces the class logit exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import svg
from .data import TimeSeriesDataset
from .errors import NumericError
from .models import INFER_VALUES, Sequential, TrainedModel, forward_batch, gap_head, infer_batch

MDS_MAX_ITERATIONS = 300
MDS_TOL = 1e-6  # SMACOF stops below this relative stress improvement


@dataclass
class CamOutput:
    values: np.ndarray       # [T] raw CAM_c(t)
    normalized: np.ndarray   # [T] min-max rescaled to [0, 1] for rendering
    logit: float
    bias: float
    activations: np.ndarray    # [T, C_last] final-convolution output


@dataclass
class MdsEmbedding:
    points: np.ndarray       # [N, 2]
    stress: float
    stress_trace: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# GAP features and CAM

def _final_feature_map(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    # the layers before the GAP, run as a net of their own
    gap, _ = gap_head(model.spec)
    body = Sequential(model.spec.net.children[:gap])
    y, _ = forward_batch(replace(model.spec, net=body), model.params, x, "infer")
    return y


def gap_features(model: TrainedModel, dataset: TimeSeriesDataset) -> np.ndarray:
    """[N, C_last] time-averaged final feature map (the softmax layer's input)."""
    chunks = []
    batch = infer_batch(model.spec)
    for lo in range(0, dataset.n, batch):
        a = _final_feature_map(model, dataset.X[lo : lo + batch])
        chunks.append(a.mean(axis=1))
    return np.concatenate(chunks, axis=0)


def compute_cam(model: TrainedModel, series: np.ndarray, class_index: int) -> CamOutput:
    """Per-timestamp class evidence for one [T, M] series."""
    _, dense = gap_head(model.spec)
    if not 0 <= class_index < model.spec.classes:
        raise ValueError(
            f"class index {class_index} out of range for {model.spec.classes} classes"
        )
    a = _final_feature_map(model, series[None, :, :])[0]  # [T, C_last]
    w, bias = (model.params[key][..., class_index] for key in dense.keys)
    cam = a @ w
    lo, hi = float(cam.min()), float(cam.max())
    normalized = (cam - lo) / (hi - lo) if hi > lo else np.zeros_like(cam)
    logit = float(a.mean(axis=0) @ w + bias)
    return CamOutput(cam, normalized, logit, float(bias), a)


# ---------------------------------------------------------------------------
# distances and MDS

def distance_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances; symmetric with a zero diagonal."""
    if features.ndim != 2 or features.shape[0] < 2:
        raise ValueError(f"need at least 2 feature rows, got shape {features.shape}")
    d = np.empty((len(features),) * 2)
    rows = max(1, INFER_VALUES // features.size)  # a block's [rows, N, C] differences
    for lo in range(0, len(d), rows):
        diff = features[lo : lo + rows, None, :] - features[None, :, :]
        d[lo : lo + rows] = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    return d


def _check_distance_matrix(d: np.ndarray) -> None:
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    if not np.allclose(d, d.T, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")
    if np.abs(np.diag(d)).max() > 1e-12:
        raise ValueError("distance matrix must have a zero diagonal")
    if d.min() < 0:
        raise ValueError("distances must be non-negative")


def _classical_init(d: np.ndarray) -> np.ndarray:
    d2 = d * d
    # double centering: B = -1/2 J D^2 J
    row = d2.mean(axis=0)
    grand = d2.mean()
    B = -0.5 * (d2 - row[None, :] - row[:, None] + grand)
    # the two largest eigenpairs (eigh sorts ascending); a non-Euclidean d
    # can leave them negative, and those axes start at 0
    values, vectors = np.linalg.eigh(B)
    return vectors[:, [-1, -2]] * np.sqrt(np.maximum(values[[-1, -2]], 0.0))


def stress_value(d: np.ndarray, e: np.ndarray) -> float:
    """Normalized residual stress of distances ``e``: sqrt(sum (d_ij - e_ij)^2 / sum d_ij^2)."""
    return float(np.sqrt(((d - e) ** 2).sum() / (d * d).sum()))


def mds_embed(d: np.ndarray) -> MdsEmbedding:
    """Metric MDS into 2-D: classical (eigen) start refined by SMACOF.

    The Guttman transform never increases the residual stress, so the
    recorded stress trace is non-increasing.  Stops when the relative
    stress improvement drops below ``MDS_TOL``.
    """
    d = np.asarray(d, dtype=np.float64)
    _check_distance_matrix(d)
    if d.max() == 0.0:
        raise NumericError("degenerate all-zero distance matrix")
    n = d.shape[0]
    x = _classical_init(d)
    e = distance_matrix(x)  # each iterate's distances, built once
    trace = [stress_value(d, e)]
    for _ in range(MDS_MAX_ITERATIONS):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(e > 0.0, d / np.where(e > 0.0, e, 1.0), 0.0)
        b = -ratio
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        x = (b @ x) / n
        e = distance_matrix(x)
        trace.append(stress_value(d, e))
        if trace[-2] - trace[-1] < MDS_TOL * max(trace[-2], 1e-300):
            break
    return MdsEmbedding(x, trace[-1], trace)


# ---------------------------------------------------------------------------
# exports

def _ramp_color(t: float) -> str:
    r = int(round(255 * min(max(t, 0.0), 1.0)))
    return f"#{r:02x}00{255 - r:02x}"


def export_cam_svg(series: np.ndarray, cam_normalized: np.ndarray) -> str:
    """Series polyline with segments colored by CAM weight (blue: 0, red: 1)."""
    y = np.asarray(series, dtype=np.float64).reshape(-1)
    if y.shape[0] != cam_normalized.shape[0]:
        raise ValueError(
            f"series length {y.shape[0]} != cam length {cam_normalized.shape[0]}"
        )
    T = y.shape[0]
    width, height, margin = 800.0, 300.0, 30.0
    lo, hi = float(y.min()), float(y.max())
    span = hi - lo if hi > lo else 1.0

    def px(t: int) -> float:
        return margin + t / max(T - 1, 1) * (width - 2 * margin)

    def py(v: float) -> float:
        return height - margin - (v - lo) / span * (height - 2 * margin)

    parts = [svg.element("line", x1=px(t), y1=py(y[t]), x2=px(t + 1), y2=py(y[t + 1]),
                         stroke=_ramp_color(float(cam_normalized[t])), stroke_width=2)
             for t in range(T - 1)]
    return svg.document(width, height, parts)


_CLASS_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def export_mds_svg(embedding: MdsEmbedding, labels: np.ndarray) -> str:
    """Scatter of the embedding, one fixed color per class, with a legend."""
    pts = embedding.points
    labels = np.asarray(labels)
    size, margin = 600.0, 40.0
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)

    def px(p) -> tuple[float, float]:
        sx = margin + (p[0] - lo[0]) / span[0] * (size - 2 * margin)
        sy = size - margin - (p[1] - lo[1]) / span[1] * (size - 2 * margin)
        return sx, sy

    parts = []
    for i in range(pts.shape[0]):
        x, y = px(pts[i])
        color = _CLASS_PALETTE[int(labels[i]) % len(_CLASS_PALETTE)]
        parts.append(svg.element("circle", cx=x, cy=y, r=4, fill=color, fill_opacity="0.8"))
    for row, cls in enumerate(sorted({int(v) for v in labels})):
        color = _CLASS_PALETTE[cls % len(_CLASS_PALETTE)]
        ly = 30.0 + 20.0 * row
        parts.append(svg.element("circle", cx=size + 20, cy=ly, r=5, fill=color))
        parts.append(svg.element("text", f"class {cls}", x=size + 32, y=ly + 4, font_size=12,
                                 font_family="sans-serif"))
    return svg.document(size + 140, size, parts)


def cam_csv(cam: CamOutput) -> str:
    lines = ["t,value"]
    lines += [f"{t},{float(v)!r}" for t, v in enumerate(cam.values)]
    return "\n".join(lines) + "\n"


def mds_csv(embedding: MdsEmbedding, labels: np.ndarray) -> str:
    lines = ["x,y,label"]
    for i in range(embedding.points.shape[0]):
        x, y = embedding.points[i]
        lines.append(f"{float(x)!r},{float(y)!r},{int(labels[i])}")
    return "\n".join(lines) + "\n"
