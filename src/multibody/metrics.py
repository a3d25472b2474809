"""Pose-error metrics: ADD, ADD-S, and the clamped area-under-curve score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .se3 import Pose


@dataclass
class Mesh:
    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        if self.vertices.shape[0] < 1:
            raise ValueError("mesh must contain at least one vertex")
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"vertex {i} is not finite: {self.vertices[i].tolist()}")


def load_obj(path) -> Mesh:
    """Vertices from the "v x y z" lines of an ASCII OBJ file; everything
    else (faces, normals, textures) is ignored.  A "v" line without three
    numbers is rejected, naming its line."""
    vertices = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            parts = line.split()
            if parts[:1] == ["v"]:
                try:
                    x, y, z = map(float, parts[1:4])
                except ValueError:
                    raise ValueError(
                        f"{path}, line {number}: expected 3 numbers, got {line.strip()!r}"
                    ) from None
                vertices.append([x, y, z])
    if not vertices:
        raise ValueError(f"no vertices found in {path}")
    return Mesh(np.array(vertices))


def add_error(mesh: Mesh, rel: Pose) -> float:
    """Mean distance between mesh vertices and their images under the
    relative transform between estimated and ground-truth pose."""
    d = rel.apply(mesh.vertices) - mesh.vertices
    # np.linalg.norm(d, axis=1) and np.mean, without their wrappers.
    return float(np.add.reduce(np.sqrt(np.add.reduce(d * d, axis=1))) / d.shape[0])


def add_s_error(mesh: Mesh, rel: Pose) -> float:
    """Symmetric variant: mean over vertices of the distance to the closest
    transformed vertex.  Exact pairwise distances, bit for bit scipy's cdist:
    one broadcast difference, its squares summed over x, y, z in order."""
    v, moved = mesh.vertices, rel.apply(mesh.vertices)
    # (3, n, n), each coordinate's plane contiguous: an (n, n, 3) difference
    # summed over its short last axis is several times slower from about 30
    # vertices on.
    d = v.T.copy()[:, :, None] - moved.T.copy()[:, None, :]
    d *= d
    squared = d[0] + d[1]
    squared += d[2]
    return float(np.add.reduce(np.sqrt(np.minimum.reduce(squared, axis=1))) / v.shape[0])


def auc_score(errors, e_t: float) -> float:
    """Mean of max(1 - e / e_t, 0) over all entries of the error array;
    ValueError naming ``e_t`` unless it is positive and finite."""
    if not 0 < e_t < np.inf:
        raise ValueError(f"error threshold must be positive and finite, not {e_t!r}")
    errors = np.asarray(errors, dtype=float)
    return float(np.mean(np.maximum(1.0 - errors / e_t, 0.0)))
