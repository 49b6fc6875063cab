"""Record the LV histograms that normalization fits on the registered benchmark phantoms.

Runs the normalize stage on seeds 1-3 of the 256x256x14 and 192x192x12
registered phantoms of ``benchmarks/harness.py`` and writes every histogram
that ``fit_mixture`` is given, as its range and bin counts, to
``lv_curves.json`` beside this file. Run from the repository root:

    PYTHONPATH=src:benchmarks python tests/data/make_lv_curves.py
"""

import json
from pathlib import Path

import numpy as np

import harness
from lgequant import normalize, phantom
from lgequant.pipeline import normalize_stage

STUDIES = {"clinical256_registered": harness._phantom(256, 14, 120 / 256),
           "cli_staged192": harness._phantom(192, 12, 120 / 192)}


def main():
    curves = []
    build = normalize.build_relative_probability

    def record(lv, n_bins):
        rp = build(lv, n_bins=n_bins)
        counts, _ = np.histogram(lv, bins=n_bins, range=(lv.min(), lv.max()))
        curves.append({"study": study, "lo": float(lv.min()), "hi": float(lv.max()),
                       "counts": counts.tolist()})
        return rp

    normalize.build_relative_probability = record
    for name, make in STUDIES.items():
        for seed in (1, 2, 3):
            study = f"{name} seed {seed}"
            dataset, truth = phantom.generate(make(seed))
            normalize_stage(dataset, truth.contours)
    path = Path(__file__).with_name("lv_curves.json")
    path.write_text("[\n" + ",\n".join(json.dumps(c) for c in curves) + "\n]\n")
    print(f"{len(curves)} curves -> {path}")


if __name__ == "__main__":
    main()
