"""The six benchmark applications of the paper's evaluation (Section V-B).

Each module exposes ``build_pipeline(width, height) -> Pipeline`` plus
the default image geometry used in the paper.  The registry
:data:`APPLICATIONS` drives the evaluation harness.

* **Sobel** — two local gradient operators combined into a gradient
  magnitude (local-to-local fusion scope, rejected by basic fusion);
* **Harris** — the corner detector used as the paper's running example
  (Fig. 3): 9 kernels, 10 edges;
* **ShiTomasi** — the good-features-to-track extractor; same Hermitian
  matrix pipeline as Harris with a minimum-eigenvalue response;
* **Unsharp** — cubic unsharp masking; all four kernels share the
  source image (the Fig. 2b diamond that only the min-cut engine fuses);
* **Night** — two expensive à-trous bilateral passes plus scotopic tone
  mapping; compute-bound, the benefit model must refuse the
  local-to-local fusion;
* **Enhancement** — geometric-mean denoising with gamma correction for
  wireless capsule endoscopy (clean local-to-point-to-point chain).
"""

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.dsl.pipeline import Pipeline

from repro.apps import (
    canny,
    dog,
    enhancement,
    harris,
    night,
    shitomasi,
    sobel,
    unsharp,
)


@dataclass(frozen=True)
class AppSpec:
    """One evaluation application."""

    name: str
    build: Callable[..., Pipeline]
    width: int
    height: int
    channels: int = 1

    def pipeline(self) -> Pipeline:
        """Build at the paper's default geometry."""
        return self.build(self.width, self.height)


def request_inputs(
    spec: AppSpec, width: int, height: int, seed: int
) -> Dict[str, np.ndarray]:
    """Deterministic random input arrays for one request of ``spec`` at
    ``width`` x ``height`` (multi-channel apps get ``(H, W, C)``)."""
    rng = np.random.default_rng(seed)
    shape = (height, width) + ((spec.channels,) if spec.channels > 1 else ())
    return {
        name: rng.uniform(0.0, 255.0, size=shape)
        for name in spec.build(width, height).build().pipeline_inputs()
    }


#: The paper's applications at their evaluation geometries: 2048x2048
#: gray-scale, except the Night filter at 1920x1200 RGB.
APPLICATIONS: Dict[str, AppSpec] = {
    "Harris": AppSpec("Harris", harris.build_pipeline, 2048, 2048),
    "Sobel": AppSpec("Sobel", sobel.build_pipeline, 2048, 2048),
    "Unsharp": AppSpec("Unsharp", unsharp.build_pipeline, 2048, 2048),
    "ShiTomasi": AppSpec("ShiTomasi", shitomasi.build_pipeline, 2048, 2048),
    "Enhance": AppSpec("Enhance", enhancement.build_pipeline, 2048, 2048),
    "Night": AppSpec("Night", night.build_pipeline, 1920, 1200, channels=3),
}

#: Extension applications beyond the paper's evaluation matrix.
EXTENSIONS: Dict[str, AppSpec] = {
    "Canny": AppSpec("Canny", canny.build_pipeline, 2048, 2048),
    "DoG": AppSpec("DoG", dog.build_pipeline, 2048, 2048),
}

#: Everything buildable by name (paper matrix + extensions).
ALL_APPS: Dict[str, AppSpec] = {**APPLICATIONS, **EXTENSIONS}

__all__ = [
    "ALL_APPS",
    "APPLICATIONS",
    "AppSpec",
    "EXTENSIONS",
    "canny",
    "dog",
    "enhancement",
    "harris",
    "night",
    "request_inputs",
    "shitomasi",
    "sobel",
    "unsharp",
]
