"""Golden report bytes: the five suites on the worked configs of test_cli,
restrict-scan at two edges of its subspace selection, and positivity-scan and
kms-verify on ``vectors.explicit`` blocks in three layouts.

Each suite runs through the CLI in both report formats, and the report's
SHA-256 and the exit code are compared with values recorded before the suite
runners were restructured (the two restrict-scan edges before the selection
became a comparison on the covariance eigenvalues, and the explicit-vector
layouts before every numeric block was cast once), so a change that moves a
single byte of a report fails here.  Reports print floats to 17 significant digits, so the digests
depend on the numpy/BLAS build (eigensolver and matrix-product round-off):
on another build they may differ without any change to the program, and
must then be recorded again from an unchanged checkout on that build.
"""

import hashlib

import pytest

from test_cli import GNS_CONFIG, KMS_CONFIG, POSITIVITY_CONFIG, RESCALE_CONFIG, RESTRICT_CONFIG
from weylscale.cli import main

# covariance eigenvalues 1.6666666666666667, 1.9999999999999998 and 3: the first
# scale is the lowest eigenvalue exactly, which the selection (h, h_star] excludes
RESTRICT_AT_EIGENVALUE_CONFIG = """
operator:
  kms:
    matrix: [["ln2", 0, 0], [0, "ln3", 0], [0, 0, "ln4"]]
    beta: 1
vectors:
  random: {count: 6, seed: 5}
h_values: [1.6666666666666667, 1.8, 2.5]
"""

# hamiltonian eigenvalues 0.5, 0.5 and 1.5: the top covariance eigenvalue
# (4.082988165073597) is doubly degenerate, so every subspace holds both of its vectors
RESTRICT_DEGENERATE_TOP_CONFIG = """
operator:
  kms:
    matrix: [[1, 0.5, 0], [0.5, 1, 0], [0, 0, 0.5]]
    beta: 1
vectors:
  random: {count: 6, seed: 5}
h_values: [1.8, 3.0, 4.0]
"""

# vectors.explicit in three layouts: plain numbers (with -0.0 and an int above
# 2^53), quoted complex literals, and [re, im] pairs with an exact expression
EXPLICIT_LAYOUTS = {
    "numbers": "[[1, 0, -0.0, 2], [0.5, -2, 9007199254740993, 0.25], [0.125, 3, -1.5, 0], [0, 0.75, 1, -0.0]]",
    "complex": '[["1+0.5j", "-0.25j", "0.75-0j", "2+0j"], ["0.5+0.5j", "-1+2j", "3j", "-0.0-0.0j"], '
    '["1e-05+1j", "0.125+0j", "-1.5j", "0j"], ["2-1j", "0.75j", "1-0j", "-0.5+0.25j"]]',
    "pairs": '[[[1, 0], ["ln(2)", 0.5], [0, -1], [2, 0]], [[0.5, -0.0], [-2, 1], ["ln(2)", "ln(2)"], [0, 0.25]], '
    '[[0.125, 0], [3, 1], [-1.5, 0], [0, "ln(2)"]], [[0, 1], [0.75, 0], [1, -1], ["ln(2)", 0]]]',
}

EXPLICIT_POSITIVITY_CONFIG = """
operator:
  matrix:
    - [2, 0.25, 0, 0]
    - [0.25, 1.5, 0, 0]
    - [0, 0, 3, "0.5j"]
    - [0, 0, "-0.5j", 1.25]
vectors:
  explicit: %s
h_values: [0.5, 1.0, 1.5, 2.0]
"""

EXPLICIT_KMS_CONFIG = """
operator:
  kms:
    matrix:
      - [0.6, 0.3, 0, 0]
      - [0.3, 0.9, 0, 0]
      - [0, 0, 1.2, 0.1]
      - [0, 0, 0.1, "ln2"]
    beta: 1
vectors:
  explicit: %s
h_values: [0.5, 1.0, 1.5]
"""

#: golden case -> (suite, config text)
CASES = {
    "positivity-scan": ("positivity-scan", POSITIVITY_CONFIG),
    "kms-verify": ("kms-verify", KMS_CONFIG),
    "gns-check": ("gns-check", GNS_CONFIG),
    "rescale-fock": ("rescale-fock", RESCALE_CONFIG),
    "restrict-scan": ("restrict-scan", RESTRICT_CONFIG),
    "restrict-scan-at-eigenvalue": ("restrict-scan", RESTRICT_AT_EIGENVALUE_CONFIG),
    "restrict-scan-degenerate-top": ("restrict-scan", RESTRICT_DEGENERATE_TOP_CONFIG),
    **{
        f"{suite}-explicit-{layout}": (suite, template % vectors)
        for suite, template in (
            ("positivity-scan", EXPLICIT_POSITIVITY_CONFIG),
            ("kms-verify", EXPLICIT_KMS_CONFIG),
        )
        for layout, vectors in EXPLICIT_LAYOUTS.items()
    },
}

GOLDEN = [
    ("positivity-scan", "object", 0, "38bd521f20fdbf9bd7c9ce9589716d092b3581af3654a5a9c92bfd3fbb8f4677"),
    ("positivity-scan", "table", 0, "117af5dd89aacf4ee0ae9dac1e0c605b511573a26d0d53d88372b2d181f3039d"),
    ("kms-verify", "object", 0, "af1b5bbcceed66b629eb417ce82d9b9ac83254c606db56848cfabfe30716f64c"),
    ("kms-verify", "table", 0, "13bde6c5ab14910dd778ad80938a9dbcdda5afc6c23f09bb26acf0a62cca780f"),
    ("gns-check", "object", 0, "cd9ad872c1011a3ef02a38dcb71fb124b9a5fd2baf11544c4d9160ea6ee8a19c"),
    ("gns-check", "table", 0, "55ef490a48147696ec09dac107f412997a350fdbfa4c299edb3cce41f4232807"),
    ("rescale-fock", "object", 0, "639eca15a470e1c76ed9fa6c5a5d99f75ad644faecf28dc4367475bde07da570"),
    ("rescale-fock", "table", 0, "17347823d5b1fd0b3af3d17c34dd1102aceba31e4040d1b3565c1f9c44010654"),
    ("restrict-scan", "object", 0, "6d6eeb53e22c2806c920002197476305fc0ce56b8673786ffa27480d264c3940"),
    ("restrict-scan", "table", 0, "311018fa9840e527e95be87e3f3496349f97b00f99a587986464ca233b5354ad"),
    ("restrict-scan-at-eigenvalue", "object", 0, "c47a9cd6e36addbe7c378c6a4b9131ce3c635f75f1ec427f6191c5c01a3696bb"),
    ("restrict-scan-at-eigenvalue", "table", 0, "ab2918610e509dadafd823f07f766bf6b8185fce2981d855eeedd2db657ce652"),
    ("restrict-scan-degenerate-top", "object", 0, "4df216b7e4bb91e1a5bf310e5432c4c0a5fb7e72a01b9046964d555d540942ff"),
    ("restrict-scan-degenerate-top", "table", 0, "4970ac3b24f2c659281fbbe3d9448cc89c08d9655b7de8f23ffa73e4b31d5bc9"),
    ("positivity-scan-explicit-numbers", "object", 0, "eba82a0baee834a8f8f80471a39688b1f487239239082a90be1a5a33adfd198c"),
    ("positivity-scan-explicit-numbers", "table", 0, "5e29d6c8d433b0a2ad7999e813f5e46899f9c6c9d09d8c444fde3dccc2ab9a7f"),
    ("positivity-scan-explicit-complex", "object", 0, "7a90fe83889b53e2ecfcbb04ce2e8e79102169f76db007bbd4367ced34228840"),
    ("positivity-scan-explicit-complex", "table", 0, "defd7dd670011197eee3eff5a81f1405b9b487c4d6d922d600b416ae283c1642"),
    ("positivity-scan-explicit-pairs", "object", 0, "f63d769746aafdd8ef08913485100f6760089ddcbf70bc500dc0ca902d84fada"),
    ("positivity-scan-explicit-pairs", "table", 0, "cbb0067f1f4420b39e4f560d9f3f422202d8f4a76eab493b0c14125818330152"),
    ("kms-verify-explicit-numbers", "object", 0, "cfc0f670ecc14b9910231c305e428436843d0c322b037b3c4adfbcfe3104f4b8"),
    ("kms-verify-explicit-numbers", "table", 0, "02f647573d267c2d5b55b69bb8c63bf4c39a4843bf32138b415fd177dc2338b5"),
    ("kms-verify-explicit-complex", "object", 0, "0c9af51bb5e39632249347f9727ee298341b8fc850ce169acf7652e03f72eda7"),
    ("kms-verify-explicit-complex", "table", 0, "d3a419f9f35f403a290106bc573e2c1885df896435fe4de250624e0160c01bd1"),
    ("kms-verify-explicit-pairs", "object", 0, "cf0de2d2dbd578c5d8be9873709fc42bd6421af634d61f69016945e4b24f12b2"),
    ("kms-verify-explicit-pairs", "table", 0, "4ea901572acda004cc392c00c925d25ae2039444772a7f7694d156f80bc61a32"),
]


@pytest.mark.parametrize(
    "case, output_format, exit_code, digest", GOLDEN, ids=[f"{c}-{f}" for c, f, _, _ in GOLDEN]
)
def test_report_bytes_match_recorded_digest(tmp_path, capsys, case, output_format, exit_code, digest):
    suite, text = CASES[case]
    config = tmp_path / "config.yaml"
    config.write_text(text)
    out = tmp_path / "report"
    argv = [suite, "--config", str(config), "--format", output_format, "--out", str(out)]
    assert main(argv) == exit_code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
