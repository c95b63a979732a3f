#!/usr/bin/env python3
"""Simulate one noisy recording and restore it step by step.

Writes the ground truth, the raw rate readout, and every recurrent
output to --out-dir as 16-bit graymaps, printing per-step PSNR/SSIM so
the temporal accumulation is visible at a glance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from spikecam.bench import make_scenes, synthetic_calibration, theta_for_density
from spikecam.formats import write_image
from spikecam.metrics import psnr, ssim
from spikecam.noise import NoiseConfig, make_rng
from spikecam.reconstruct import RecurrentRestorer, tfp
from spikecam.simulate import SimulationRequest, simulate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scene", default="blobs", help="one of the builtin scene names")
    parser.add_argument("--size", type=int, default=96)
    parser.add_argument("--density", type=float, default=0.03, help="peak spike density")
    parser.add_argument("--length", type=int, default=768, help="ticks to simulate")
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="demo_out")
    args = parser.parse_args(argv)

    scenes = {s.name: s for s in make_scenes(args.size)}
    if args.scene not in scenes:
        parser.error(f"unknown scene {args.scene!r}, choose from {sorted(scenes)}")
    scene = scenes[args.scene]
    calib = synthetic_calibration(args.size, args.size, seed=args.seed)
    theta = theta_for_density(scene.image, args.density)
    req = SimulationRequest(
        source=scene.image, theta=theta, length=args.length,
        calib=calib, noise=NoiseConfig.all(args.seed),
    )
    stream = simulate(req, make_rng(args.seed + 1))
    gt = np.clip(theta * scene.image, 0.0, 255.0)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_image(gt, str(out / "ground_truth.pgm"), bit_depth=16)

    spacing = args.length // (args.steps + 1)
    ticks = [spacing * (k + 1) for k in range(args.steps)]
    raw = tfp(stream, ticks[-1], 64)
    write_image(raw, str(out / "tfp_w64.pgm"), bit_depth=16)
    print(f"scene {scene.name}, theta {theta:.4f}, {args.length} ticks")
    print(f"tfp w=64 baseline: psnr {psnr(gt, raw):.2f} ssim {ssim(gt, raw):.4f}")

    restorer = RecurrentRestorer(stream, calib)
    for k, t in enumerate(ticks, start=1):
        result = restorer.step(t)
        write_image(result.output, str(out / f"step_{k}.pgm"), bit_depth=16)
        print(
            f"step {k} @ tick {t}: psnr {psnr(gt, result.output):6.2f} "
            f"ssim {ssim(gt, result.output):.4f}"
        )
    print(f"images written to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
