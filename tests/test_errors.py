"""One exception class per kind of mistake, and every raise in the package uses one."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from weylscale import errors
from weylscale.config import ExperimentConfig
from weylscale.errors import ConfigInvalid, OutOfRange, WeylscaleError, require_positive
from weylscale.fock import GnsModel, MixtureMeasure, c_parameter, h_of_c
from weylscale.kms import covariance_from_hamiltonian, j_h_function, kms_model, rescaled_modular
from weylscale.restriction import lambda_star, restricted_model
from weylscale.runner import run_gns_check
from weylscale.spectral import OperatorSpec, make_operator

PACKAGE = Path(errors.__file__).parent

#: (module file, enclosing function, exception name) of the raises that signal a
#: programming error rather than a bad input
EXEMPT = {("report.py", "_render_value", "TypeError")}


def _raised_names(path: Path):
    """(enclosing function, name) of every ``raise Name(...)`` in the file."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Raise)
                and isinstance(child.exc, ast.Call)
                and isinstance(child.exc.func, ast.Name)
            ):
                found.append((function, child.exc.func.id))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_every_raise_names_a_package_error():
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function, name in _raised_names(path):
            if (path.name, function, name) in EXEMPT:
                continue
            cls = getattr(errors, name, None)
            if not (inspect.isclass(cls) and issubclass(cls, WeylscaleError)):
                strays.append(f"{path.name}:{function}: raise {name}")
    assert strays == []
    # the walk does reach the raises it checks
    assert ("_render_value", "TypeError") in _raised_names(PACKAGE / "report.py")


def test_one_class_per_kind_of_mistake():
    classes = sorted(
        name
        for name, value in vars(errors).items()
        if inspect.isclass(value) and issubclass(value, Exception)
    )
    assert classes == [
        "ConfigInvalid",
        "DimensionMismatch",
        "DomainViolation",
        "InvalidMatrix",
        "ModelMismatch",
        "OutOfRange",
        "SpectrumBelowOne",
        "WeylscaleError",
    ]


@pytest.mark.parametrize(
    "value, text",
    [
        (float("nan"), "scale parameter nan must be positive"),
        (0, "scale parameter 0 must be positive"),
        (-1.0, "scale parameter -1.0 must be positive"),
        (-float("inf"), "scale parameter -inf must be positive"),
    ],
)
def test_require_positive_formats_the_value_it_is_given(value, text):
    with pytest.raises(OutOfRange) as caught:
        require_positive(value, "scale parameter")
    assert str(caught.value) == text


@pytest.mark.parametrize(
    "value, text",
    [
        (None, "inverse temperature None must be positive"),
        ("2.0", "inverse temperature 2.0 must be positive"),
        (1 + 0j, "inverse temperature (1+0j) must be positive"),
    ],
)
def test_require_positive_rejects_what_cannot_be_ordered(value, text):
    with pytest.raises(OutOfRange) as caught:
        require_positive(value, "inverse temperature")
    assert str(caught.value) == text


def test_a_missing_inverse_temperature_is_out_of_range():
    hamiltonian = make_operator(np.diag([1.0, 2.0]))
    with pytest.raises(OutOfRange, match="inverse temperature None must be positive"):
        covariance_from_hamiltonian(hamiltonian, None)
    # a config built by hand, not read by from_dict, which always gives beta
    config = ExperimentConfig(hamiltonian=hamiltonian, beta=None, vectors_explicit=(np.array([0.1, 0.2j]),), cutoff=4)
    with pytest.raises(ConfigInvalid, match=r"^operator\.kms: inverse temperature None must be positive$"):
        run_gns_check(config)


def test_require_positive_accepts_positive_values():
    for value in (5e-324, 1, 2.5, float("inf")):
        require_positive(value, "inverse temperature")


def _kms():
    return kms_model(make_operator(np.diag([0.5, 1.0])), 1.0)


def _covariance():
    return make_operator(np.diag([1.5, 3.0]))


#: name -> (call, the OutOfRange message); each call compares a value it cannot order
UNORDERABLE_CALLS = {
    "mixture-weight": (lambda: MixtureMeasure(((0.0, None),)), "weight None is not positive"),
    "mixture-point": (lambda: MixtureMeasure(((None, 1.0),)), r"support point None outside \[0, 1\)"),
    "atom-value": (lambda: OperatorSpec.from_atoms([(None, 1)]), "atom value None is not strictly positive and finite"),
    "atom-multiplicity": (lambda: OperatorSpec.from_atoms([(2.0, None)]), "atom multiplicity None is not a positive integer"),
    "c_parameter": (lambda: c_parameter(None), r"scale parameter None outside \(0, 1\]"),
    "h_of_c": (lambda: h_of_c(None), r"mixture coordinate None outside \[0, 1\)"),
    "rescaled_modular": (lambda: rescaled_modular(_kms(), None), r"scale parameter None outside \(0, 1\]"),
    "restricted_model": (lambda: restricted_model(_covariance(), None), r"scale parameter None outside \(1, 3.0\)"),
    "lambda_star": (lambda: lambda_star(None, 1.0), "scale parameter None too close to the pole at 1"),
    "j_h_function": (lambda: j_h_function(None, 0.5, 1.0), "spectral argument None below 1"),
    "GnsModel": (lambda: GnsModel(_covariance(), None), "cutoff None below hard floor 4"),
}


@pytest.mark.parametrize("name", list(UNORDERABLE_CALLS))
def test_values_that_cannot_be_ordered_are_out_of_range(name):
    call, message = UNORDERABLE_CALLS[name]
    with pytest.raises(OutOfRange, match=f"^{message}$"):
        call()
