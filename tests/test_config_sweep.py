"""A seeded sweep of small configs over every suite: each gets a clean verdict.

Config ``i`` runs suite ``SUITES[i % 5]`` on a Hamiltonian of one to three
modes with energies in [0.1, 4], rotated by a random orthogonal matrix, at an
inverse temperature ``beta`` log-uniform in [1e-10, 3].  kms-verify,
restrict-scan and rescale-fock read it as ``operator.kms``; positivity-scan
and gns-check read its covariance ``coth(beta H / 2)`` as ``operator.matrix``.
The scales are drawn from 0.5, 1, ``h_max (1 + eps)`` with ``eps``
log-uniform in [1e-13, 1e-4], the geometric middle of the widest gap between
1 and the covariance eigenvalues, and 2.  Every run must exit 0, 2 or 3, with
no exception and no warning; small ``beta`` gives covariances and modular
values far past 1e10.
"""

import json
import math
import warnings

import numpy as np
import pytest

from weylscale.cli import SUITES, main

#: the sweep's seed and its count of configs
SEED = 20261020
COUNT = 100


def _config(index: int) -> tuple[str, dict]:
    """Suite and config document of sweep config ``index``."""
    rng = np.random.default_rng([SEED, index])
    suite = sorted(SUITES)[index % len(SUITES)]
    modes = int(rng.integers(1, 3 if suite == "gns-check" else 4))
    beta = float(10 ** rng.uniform(-10, math.log10(3)))
    energies = rng.uniform(0.1, 4.0, modes)
    rotation, _ = np.linalg.qr(rng.standard_normal((modes, modes)))
    covariance = np.sort(1.0 / np.tanh(beta * energies / 2))
    points = np.concatenate([[1.0], covariance])
    widest = int(np.argmax(points[1:] / points[:-1]))
    scales = [
        0.5,
        1.0,
        float(covariance[0] * (1 + 10 ** rng.uniform(-13, -4))),
        float(math.sqrt(points[widest] * points[widest + 1])),
        2.0,
    ]
    document = {"vectors": {"random": {"count": 2, "seed": index}}}
    if suite in ("positivity-scan", "gns-check"):
        matrix = rotation @ np.diag(covariance[rng.permutation(modes)]) @ rotation.T
        document["operator"] = {"matrix": ((matrix + matrix.T) / 2).tolist()}
    else:
        matrix = rotation @ np.diag(energies) @ rotation.T
        document["operator"] = {"kms": {"beta": beta, "matrix": ((matrix + matrix.T) / 2).tolist()}}
    if suite == "gns-check":
        document["cutoff"] = 6
    else:
        chosen = rng.choice(len(scales), size=int(rng.integers(1, 4)), replace=False)
        document["h_values"] = sorted(scales[i] for i in chosen)
    return suite, document


@pytest.mark.parametrize("index", range(COUNT))
def test_config_gets_a_clean_verdict(tmp_path, capsys, index):
    suite, document = _config(index)
    path = tmp_path / "config.yaml"
    path.write_text(json.dumps(document), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([suite, "--config", str(path), "--out", str(tmp_path / "report.json")])
    capsys.readouterr()
    assert code in (0, 2, 3)
