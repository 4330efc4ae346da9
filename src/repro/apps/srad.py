"""SRAD: speckle-reducing anisotropic diffusion (Table 2, row 3).

Each thread denoises one pixel of an image in two steps: it computes a
noise coefficient from a 5-point stencil, persists it, then computes the
smoothed pixel and persists that.  Recoverability requires only
intra-thread PMO — each pixel must persist *after* its noise value
(Section 7.1).  Recovery is *native*: on restart, a thread whose output
pixel is already persisted returns immediately; one whose noise value is
persisted skips the first step.

All compute happens up front and the persists land in a burst at the end
of the kernel, which is why the paper sees every model behave similarly
on SRAD (bursty writes; buffering helps a little, scopes not at all).

Integer arithmetic stands in for the floating-point diffusion: the
stencil and coefficient formulas below keep the same data flow (5-point
neighbourhood -> coefficient -> update) with exactly reproducible values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import App, AppParams, PMMapper, RunOutcome
from repro.system import GPUSystem


@dataclass(frozen=True)
class SRADParams(AppParams):
    #: Image side (paper: 512).
    side: int = 64
    #: ALU cost of the coefficient computation.
    coeff_cycles: int = 60
    #: ALU cost of the diffusion update.
    update_cycles: int = 40


def reference(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CPU reference: (noise coefficients, output pixels)."""
    n = image.shape[0]
    padded = np.pad(image, 1, mode="edge")
    up = padded[:-2, 1:-1]
    down = padded[2:, 1:-1]
    left = padded[1:-1, :-2]
    right = padded[1:-1, 2:]
    center = image
    noise = (up + down + left + right - 4 * center) % 997 + 1
    out = (4 * center + up + down + left + right + noise) // 8 + 1
    return noise.reshape(n * n), out.reshape(n * n)


class SRAD(App):
    """Two-step stencil with native recovery (intra-thread PMO)."""

    name = "srad"
    scoped_pmo = "intra-thread"
    recovery_style = "native"

    def __init__(self, **overrides) -> None:
        self.params = SRADParams(**overrides)

    @property
    def n_pixels(self) -> int:
        return self.params.side * self.params.side

    # ------------------------------------------------------------------
    # memory layout
    # ------------------------------------------------------------------
    def attach(self, system: GPUSystem, pm: PMMapper) -> None:
        n = self.n_pixels
        self.image = system.malloc(4 * n)  # volatile input (GDDR)
        self.noise = pm("srad.noise", 4 * n)
        self.out = pm("srad.out", 4 * n)
        # The volatile input does not survive a crash; the host uploads
        # it on every attach (it is the original, deterministic image).
        system.host_write_words(self.image, self.image_pixels())

    def image_pixels(self) -> np.ndarray:
        side = self.params.side
        y, x = np.mgrid[0:side, 0:side]
        return ((x * 31 + y * 17) % 251 + 1).reshape(-1)

    # ------------------------------------------------------------------
    # kernel (crash-free execution and native recovery are the same)
    # ------------------------------------------------------------------
    def _kernel(self, w, p: SRADParams):
        n = p.side * p.side
        active = w.tid < n
        done = yield w.ld(self.out.base + 4 * w.tid, mask=active)
        todo = active & (done == 0)
        noise_prev = yield w.ld(self.noise.base + 4 * w.tid, mask=todo)
        need_noise = todo & (noise_prev == 0)

        # 5-point stencil over the volatile image (edge-clamped).
        row = w.tid // p.side
        col = w.tid % p.side
        up = np.maximum(row - 1, 0) * p.side + col
        down = np.minimum(row + 1, p.side - 1) * p.side + col
        left = row * p.side + np.maximum(col - 1, 0)
        right = row * p.side + np.minimum(col + 1, p.side - 1)
        c = yield w.ld(self.image.base + 4 * w.tid, mask=todo)
        u = yield w.ld(self.image.base + 4 * up, mask=todo)
        d = yield w.ld(self.image.base + 4 * down, mask=todo)
        le = yield w.ld(self.image.base + 4 * left, mask=todo)
        r = yield w.ld(self.image.base + 4 * right, mask=todo)

        yield w.compute(p.coeff_cycles)
        noise = (u + d + le + r - 4 * c) % 997 + 1
        yield w.st(self.noise.base + 4 * w.tid, noise, mask=need_noise)
        # The pixel must persist only after its noise value.
        yield w.ofence()
        yield w.compute(p.update_cycles)
        noise_eff = np.where(need_noise, noise, noise_prev)
        out = (4 * c + u + d + le + r + noise_eff) // 8 + 1
        yield w.st(self.out.base + 4 * w.tid, out, mask=todo)
        # The denoised image must be durable when the kernel finishes
        # (the application's contract with its caller): this is where
        # every model pays SRAD's bursty end-of-kernel persist traffic.
        yield w.dfence()

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _grid(self, system: GPUSystem) -> int:
        per_block = system.config.gpu.threads_per_block
        return max(1, -(-self.n_pixels // per_block))

    def run(self, system: GPUSystem) -> RunOutcome:
        result = system.launch(
            self._kernel, self._grid(system), kwargs={"p": self.params}, name="srad"
        )
        return RunOutcome([result])

    def recover(self, system: GPUSystem) -> RunOutcome:
        # Native recovery: re-run; persisted pixels short-circuit.
        result = system.launch(
            self._kernel,
            self._grid(system),
            kwargs={"p": self.params},
            name="srad.recover",
        )
        return RunOutcome([result])

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check(self, system: GPUSystem, complete: bool = True) -> None:
        image = self.image_pixels().reshape(self.params.side, self.params.side)
        ref_noise, ref_out = reference(image)
        noise = system.read_words(self.noise, self.n_pixels)
        out = system.read_words(self.out, self.n_pixels)
        # Invariant: any persisted value must be the correct one, and a
        # persisted pixel implies its noise value persisted first.
        bad_noise = (noise != 0) & (noise != ref_noise)
        self.require(not bad_noise.any(), "SRAD: wrong persisted noise value")
        bad_out = (out != 0) & (out != ref_out)
        self.require(not bad_out.any(), "SRAD: wrong persisted pixel value")
        orphan = (out != 0) & (noise == 0)
        self.require(
            not orphan.any(),
            "SRAD: pixel persisted before its noise value (PMO violation)",
        )
        if complete:
            self.require(bool((out == ref_out).all()), "SRAD: output incomplete")
