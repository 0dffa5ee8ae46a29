"""Run tier-1 against one-line mutants of the package and print the survivors.

Usage: python3 tools/mutants.py [ROOT]

Each entry of ``MUTANTS`` is one edit ``(file, old, new)`` to a file under
``src/weylscale``: a check, a bound or a formula broken in one place.  For each
edit, ROOT (default: the checkout this file is in) is copied to a temporary
directory, the edit is made there (its old text must occur exactly once) and
tier-1 runs on the copy with ``-x``.  A mutant that passes tier-1 survives.
Tier-1 first runs once on an unedited copy, which must pass.  One line per
mutant goes to standard output, with the test that failed first, then the
survivors; the exit code is 0 when none survive and 1 otherwise.  Nothing is
written under ROOT.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

#: (file under src/weylscale, old text, new text)
MUTANTS = (
    # the sign of the Gram kernel's phase
    ("states.py", "values = -0.5j * h * factors.symplectic", "values = 0.5j * h * factors.symplectic"),
    # a kernel buffer read as it stands, the scale's kernel assembled only into a fresh
    # one: every scale of a scan reads the kernel the buffer held before it
    (
        "states.py",
        "kernel = assemble_kernel(factors, h, out)",
        "kernel = assemble_kernel(factors, h) if out is None else out",
    ),
    # the -1/4 of the Gaussian functional's exponent, in the kernel's difference values
    ("states.py", "forms *= -0.25", "forms *= -0.26"),
    # the direction of restrict-scan's nesting test
    ("runner.py", "if h >= previous[0] else", "if h <= previous[0] else"),
    # the exponent of the modular map, which gives Delta and lambda_star
    ("kms.py", "return ((a + 1.0) / (a - 1.0)) ** (1.0 / beta)", "return ((a + 1.0) / (a - 1.0)) ** (2.0 / beta)"),
    # a sign in the real-time KMS kernel F
    ("kms.py", "0.5 * y.conj() * (ax - x)", "0.5 * y.conj() * (ax + x)"),
    # the KMS strip tables' refusal past the point where the complex exp rescales,
    ("kms.py", "_SEPARABLE_EXP_LIMIT = 709.0", "_SEPARABLE_EXP_LIMIT = 710.0"),
    # and of a modular spectrum reaching below 1
    ("kms.py", "(np.min(log_delta.real, initial=0.0) >= 0 and", "(np.min(log_delta.real, initial=0.0) >= -INF and"),
    # the time-grid rule without its finiteness test
    ("kms.py", '    if not np.isfinite(grid).all():\n        raise OutOfRange("points must be finite")\n', ""),
    # the sign of Phi's height
    ("kms.py", "_powers_at(modular, z.real, z.imag)", "_powers_at(modular, z.real, -z.imag)"),
    # the conjugation of the second GNS slot
    ("fock.py", "second = 1j * np.conj(self._t2 * coords)", "second = 1j * (self._t2 * coords)"),
    # rescale-fock's exponent bound without its growth as h shrinks
    ("runner.py", '"exponent": exponent_dev <= 1e-14 * h**-2,', '"exponent": exponent_dev <= 1e-14,'),
    # the size of the reliable GNS block, and a model at exactly the doubled cap built without one
    ("fock.py", "occupations <= model.cutoff // 2", "occupations <= model.cutoff"),
    ("fock.py", "if self.slot_dimension**2 <= DOUBLED_DIM_CAP:", "if self.slot_dimension**2 < DOUBLED_DIM_CAP:"),
    # positivity-scan's regime rule at a scale 1e-6 below the cell's
    ("runner.py", "admissible = dominates_identity(covariance, h)", "admissible = dominates_identity(covariance, h * (1 - 1e-6))"),
    # the two-point criterion's slack on one form only, not on each of the two
    ("states.py", "verdict=lhs * (1 - ATOM_MERGE_TOL) ** 2 <= rhs", "verdict=lhs * (1 - ATOM_MERGE_TOL) <= rhs"),
    # the witness scan without its sweep on e / sqrt(h)
    ("states.py", "for root in (1.0, math.sqrt(h)):", "for root in (1.0,):"),
    # subspace membership by an absolute distance
    ("restriction.py", "<= SUBSPACE_TOL * max(1.0, float(np.linalg.norm(f)))", "<= SUBSPACE_TOL"),
    # a "beyond" cell without its two-point check
    ("runner.py", '{"two_point_fails": not check.verdict, "witness_found"', '{"witness_found"'),
    # the KMS residual bound a hundred times too loose,
    ("kms.py", "return self.max_residual <= tol * self.scale", "return self.max_residual <= tol * 100 * self.scale"),
    # and without the growth of the strip's rounding with ||Delta||^beta
    ("kms.py", "scale=max(1.0, size * _modular_value(inf_spectrum(covariance), 1.0)),", "scale=max(1.0, size),"),
    # restrict-scan's dichotomy read at 0 only
    (
        "runner.py",
        "dichotomy = values[0] == 1.0 and values[1] == 0.0 and values[2] == 0.0",
        "dichotomy = values[0] == 1.0",
    ),
    # kms-verify's rescaled path without its two-route check
    (
        "runner.py",
        "checks.update(two_route=residual <= two_route_tol, delta_bottom_exact=exact)",
        "checks.update(delta_bottom_exact=exact)",
    ),
    # gns-check's relation cell without its commutant check
    (
        "runner.py",
        '{"weyl_relation": relation <= tol, "commutant": commutant <= tol}',
        '{"weyl_relation": relation <= tol}',
    ),
    # gns-check's relation and expectation checks ten times too loose
    ("runner.py", '"weyl_relation": relation <= tol,', '"weyl_relation": relation <= 10 * tol,'),
    ("runner.py", '{"closed_form": deviation <= tol}', '{"closed_form": deviation <= 10 * tol}'),
    # rescale-fock's occupation and roundtrip checks ten times too loose,
    (
        "runner.py",
        '"occupation": occupation_dev <= arithmetic_tol * max(1.0, occupation),',
        '"occupation": occupation_dev <= 10 * arithmetic_tol * max(1.0, occupation),',
    ),
    ("runner.py", '"roundtrip": roundtrip_dev <= 1e-14,', '"roundtrip": roundtrip_dev <= 1e-13,'),
    # and its quasi-equivalence and mixture checks dropped
    ("runner.py", '"quasi_equivalence": quasi == (h == 1),', ""),
    ("runner.py", '"mixture_pointwise": pointwise_dev <= pointwise_tol,', ""),
    # the eigenvalue map's finite test on a float it returns as it stands
    ("spectral.py", "if type(y) is float and math.isfinite(y):", "if type(y) is float:"),
    # the GNS max-norm's row and column bounds without their rounding terms, or the column
    # bound alone without it,
    ("fock.py", "kappa_u = _KAPPA * _U", "kappa_u = 0.0"),
    ("fock.py", "(am + 4 * kappa_u * rm)", "(am)"),
    # its column filter keeping a column whose bound only equals the seed,
    ("fock.py", "(column_bound > peak).nonzero()", "(column_bound >= peak).nonzero()"),
    # its seed row never evaluated, so rows and columns are filtered against 0 and the seed row is left out,
    (
        "fock.py",
        "    peak = float(_block_max(p[seed : seed + 1], q.reshape(1, 1, -1), r[seed : seed + 1], s.reshape(1, 1, -1)))\n",
        "    peak = 0.0\n",
    ),
    # and its skipping, stopped after the first block
    ("fock.py", "for start in range(0, rows.size, step):", "for start in range(0, min(rows.size, step), step):"),
    # and its refusal of operands it cannot bound, replaced by the NaN a full evaluation gave
    ("fock.py", 'raise OutOfRange(f"GNS max-norm operands', 'return math.nan or (f"GNS max-norm operands'),
    # and its one-block rule, which evaluates every row in one block, with the equal case left to the bound,
    ("fock.py", "if p.size * q.size <= _KRON_BLOCK_ENTRIES:", "if p.size * q.size < _KRON_BLOCK_ENTRIES:"),
    # or returning a maximum that is not finite
    ("fock.py", "        if not math.isfinite(peak):\n", "        if False:\n"),
    # the trace state's zero key one coordinate per entry, so W_0 is never found,
    ("weyl.py", "entry = self._terms.get((0.0,) * (2 * self.dim))", "entry = self._terms.get((0.0,) * self.dim)"),
    # or its value the coefficient of the word's first term
    ("weyl.py", "entry = self._terms.get((0.0,) * (2 * self.dim))", "entry = next(iter(self._terms.values()), None)"),
    # restricted KMS residuals that test no vector's membership,
    ("restriction.py", "if not _member(vec, model.basis @ coordinates):", "if not _member(vec, vec):"),
    # or that reuse the coordinates of any vector of the same shape
    ("restriction.py", "key = (vec.shape, vec.tobytes())", "key = vec.shape"),
    # positivity-scan's admissible cell without its kernel check, or without its two-point check,
    ("runner.py", 'return fields, {"gram_all_psd": all_psd, "two_point_pass"', 'return fields, {"two_point_pass"'),
    ("runner.py", 'all_psd, "two_point_pass": check.verdict}', "all_psd}"),
    # and its beyond cell without its witness check
    ("runner.py", ', "witness_found": witness is not None}', "}"),
    # kms-verify's rescaled path without its exact bottom check,
    ("runner.py", "two_route_tol, delta_bottom_exact=exact)", "two_route_tol)"),
    # its restricted path without its modular bound, or without its two-route check,
    ("runner.py", "two_route_tol, modular_bounded=bounded)", "two_route_tol)"),
    (
        "runner.py",
        "checks.update(two_route=residual <= two_route_tol, modular_bounded=bounded)",
        "checks.update(modular_bounded=bounded)",
    ),
    # the restricted KMS checks without the rescaled residual's bound
    ("runner.py", '"rescaled_kms_within": rescaled.within(tol),', ""),
    # restrict-scan without its rescaled-covariance check, or without its spectral correspondence
    (
        "runner.py",
        'checks = {"rescaled_dominates_identity": fields["rescaled_dominates_identity"], "nested": nested}',
        'checks = {"nested": nested}',
    ),
    ("runner.py", 'checks["spectral_correspondence"] = correspondence', ""),
    # the config block reader without its byte set ("true" is a JSON bool, "1+2J" a literal complex() takes),
    ("config.py", 'if "".join(rows).encode().translate(None, _BLOCK_BYTES):', "if False:"),
    # with every chunk reshaped to the first chunk's width,
    (
        "config.py",
        "block = np.concatenate(chunks, dtype=complex)",
        "block = np.concatenate([c.reshape(-1, chunks[0].shape[1]) for c in chunks], dtype=complex)",
    ),
    # and with every chunk cast to float64, so a block of quoted literals never takes the cast
    ("config.py", "complex if '\"' in text else float", "float"),
    # gns-check's doubling bound without its growth with ||A||
    (
        "runner.py",
        '"doubling_identity_ok": doubling <= 1e-10 * max(1.0, op_norm(covariance)),',
        '"doubling_identity_ok": doubling <= 1e-10,',
    ),
    # kms-verify's modular exponential bound without the conditioning of A -> Delta,
    (
        "runner.py",
        "tol * max(1.0, norm * max(1.0, 1.0 / (model.beta * (a_min - 1.0)), 1.0 / model.beta))",
        "tol * max(1.0, norm * max(1.0, 1.0 / model.beta))",
    ),
    # and without the power 1/beta's growth of the rounding of (a+1)/(a-1)
    ("runner.py", ", 1.0 / model.beta))", "))"),
    # lambda_star's pole guard letting h = 1 through to the modular map's division by zero,
    ("restriction.py", "if not _orderable(h) > 1:", "if not _orderable(h) >= 1:"),
    # or without its infinity where the power overflows
    (
        "restriction.py",
        "    try:\n        return _modular_value(h, beta)\n    except OverflowError:\n        return math.inf\n",
        "    return _modular_value(h, beta)\n",
    ),
    # a key the config mapping does not take, at the top, in space, vectors, vectors.random, a grid,
    # the tolerances or output,
    ("config.py", '_known(raw, "", (', '(raw, "", ('),
    ("config.py", 'space = _known(_section(raw, "space"), "space", ("dimension",))', 'space = _section(raw, "space")'),
    ("config.py", '_known(vectors, "vectors", ("explicit", "random"))', ""),
    ("config.py", '_known(random_section, "vectors.random", ("seed", "count", "sets"))', ""),
    ("config.py", '_known(section, where, ("start", "stop", "count"))', ""),
    ("config.py", '_known(_section(raw, "tolerances"), "tolerances", tuple(_DEFAULT_TOLERANCES))', '_section(raw, "tolerances")'),
    ("config.py", '_known(_section(raw, "output"), "output", ("format",))', '_section(raw, "output")'),
    # and both vector sources at once
    ("config.py", "if len(vectors) > 1:", "if len(vectors) > 2:"),
    # a tagged stand-in built as its block whatever follows its key in the sequence
    (
        "config.py",
        "if len(items) == 1 and type(items[0]) is str and items[0] in self.blocks:",
        "if type(items[0]) is str and items[0] in self.blocks:",
    ),
    # the suite frame without the lines of its false summary flags
    ("runner.py", '            record.violations += [f"summary.{key}" for key', '            flags = [f"summary.{key}" for key'),
    # the conjugate-symmetry bound of matrix input absolute, not relative to the entries
    ("spectral.py", "bound = HERMITICITY_TOL * max(1.0, largest)", "bound = HERMITICITY_TOL"),
    # an integer read through a float, which holds every integer only up to 2**53
    ("config.py", "number = value if type(value) is int else int(number)", "number = int(number)"),
    # an --out path that cannot be written found only after the suite has run,
    ("cli.py", "if args.out and (reason := _out_error(args.out)) is not None:", "if False:"),
    # or ending in a traceback when it fails after the check
    ("cli.py", 'print(f"config error: --out: {exc}", file=sys.stderr)\n            return 2', "raise"),
    # generator keys back on the int64 cast of the grid coordinates,
    (
        "weyl.py",
        "return tuple([float(round(x / KEY_GRID))",
        "return tuple([float(np.float64(round(x / KEY_GRID)).astype(np.int64))",
    ),
    # or rounded toward zero by int() in place of half to even
    ("weyl.py", "return tuple([float(round(x / KEY_GRID))", "return tuple([float(int(x / KEY_GRID))"),
    # a word sum that drops the first word's keyed terms
    ("weyl.py", "out._terms = dict(self._terms)", "out._terms = {}"),
    # the snapping gap test passing a gap of exactly the merge tolerance
    ("spectral.py", "if all(b - a > ATOM_MERGE_TOL for a, b", "if all(b - a >= ATOM_MERGE_TOL for a, b"),
    # a bool rendered by the int entry of the type table
    (
        "report.py",
        'bool: lambda value, pieces: pieces.append("true" if value else "false"),',
        "bool: lambda value, pieces: pieces.append(str(value)),",
    ),
    # a numpy scalar refused, not written as its .item()
    ("report.py", "if render is None and isinstance(value, np.generic):", "if False:"),
)

#: tier-1 without tests/test_mutants.py, which fails on every mutant: it checks that
#: each old text is still in its file
TIER1 = [
    sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
    "--ignore=tests/test_mutants.py",
]

_SKIP = shutil.ignore_patterns(".git", "_work", "__pycache__", ".pytest_cache", ".hypothesis")


def mutate(root: str, mutant: tuple[str, str, str] | None) -> None:
    """Make the edit of ``mutant`` in the checkout at ``root``; None makes none."""
    if mutant is None:
        return
    name, old, new = mutant
    path = os.path.join(root, "src", "weylscale", name)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.count(old) != 1:
        raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times, not once")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(old, new))


def tier1(root: str, mutant: tuple[str, str, str] | None) -> str | None:
    """None when tier-1 passes on a copy of ``root`` with ``mutant`` made, else
    the first failing test as pytest names it."""
    with tempfile.TemporaryDirectory() as workdir:
        copy = os.path.join(workdir, "checkout")
        shutil.copytree(root, copy, ignore=_SKIP)
        mutate(copy, mutant)
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        result = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    if result.returncode == 0:
        return None
    failed = [line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"exit {result.returncode}"


def main(argv: list[str]) -> int:
    root = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), os.pardir))
    baseline = tier1(root, None)
    if baseline is not None:
        raise SystemExit(f"tier-1 fails on the unedited checkout: {baseline}")
    survivors = []
    for index, mutant in enumerate(MUTANTS):
        started = time.perf_counter()
        failure = tier1(root, mutant)
        seconds = time.perf_counter() - started
        name, old, new = mutant
        print(f"{index:2d} {seconds:5.1f}s {name}: {old!r} -> {new!r}", flush=True)
        print(f"   {'SURVIVED' if failure is None else 'killed by ' + failure}", flush=True)
        if failure is None:
            survivors.append(index)
    print(f"survivors: {len(survivors)} of {len(MUTANTS)} {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
