"""Every per-layer span of the benchmark still fires on the suite it measures.

bench/spans.py wraps the public functions that each layer metric sums.  A
refactor that moves work off one of them (a call inlined, a function renamed
or bound another way) would leave its metric silently at 0.  One small config
of each suite, the first job of suite-mix's seed-7 round, runs under the
tracer here, and each (span, function) pair below must fire on it.
"""

import pytest

import weylscale.cli as cli

from conftest import bench_module

#: suite -> the (span name, wrapped function) pairs that fire on its first suite-mix job
FIRED = {
    "gns-check": {
        ("fock.model", "GnsModel.__init__"),
        ("fock.expectation", "gns_expectation"),
        ("fock.relation", "weyl_relation_residual"),
        ("fock.commutant", "commutant_residual"),
    },
    "kms-verify": {
        ("kms.model", "kms_model"),
        ("kms.model", "rescaled_modular"),
        ("kms.boundary", "kms_boundary_residuals"),
        ("kms.boundary", "rescaled_kms_residuals"),
        ("restriction.model", "restricted_model"),
        ("restriction.boundary", "restricted_kms_residuals"),
        ("spectral.calculus", "apply_function"),
    },
    "positivity-scan": {
        ("states.gram", "check_sigma_h_positivity"),
        ("states.gram", "scan_for_gram_violation"),
    },
    "rescale-fock": set(),
    "restrict-scan": {
        ("restriction.model", "restricted_model"),
        ("restriction.boundary", "restricted_kms_residuals"),
        ("spectral.calculus", "apply_function"),
        ("weyl.multiply", "check_trace_property"),
        ("weyl.multiply", "weyl_multiply"),
    },
}

#: the spans every suite's job fires: the config read, the suite frame and the report
EVERY_SUITE = {("config.parse", "ExperimentConfig.from_file"), ("report.render", "render")}

#: the matrix suites also build their operator
MATRIX_SUITES = {"gns-check", "kms-verify", "positivity-scan", "restrict-scan"}


def test_fired_spans_name_every_suite(first_jobs):
    assert set(FIRED) == set(first_jobs) == set(cli.SUITES)


@pytest.mark.parametrize("suite", sorted(FIRED))
def test_each_span_still_fires(first_jobs, suite, capsys):
    spans = bench_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(first_jobs[suite].argv())
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    fired = {(span["name"], span["fn"]) for span in tracer.spans}
    expected = FIRED[suite] | EVERY_SUITE | {(spans.SUITE_SPAN, suite)}
    if suite in MATRIX_SUITES:
        expected.add(("spectral.calculus", "OperatorSpec.from_matrix"))
    assert expected <= fired, sorted(expected - fired)
    # every span closed, and each fired span is one of the benchmark's targets or the suite frame
    assert all("end" in span for span in tracer.spans)
    targets = {(name, attribute) for _, attribute, name in spans.TARGETS} | {(spans.SUITE_SPAN, suite)}
    assert fired <= targets
