"""The top-level facade is complete, importable, and documented.

``repro.__all__`` is the supported public surface (docs/api.md, "API
stability & deprecation"); these tests pin the contract: every name
resolves to a real object, the studies/rare-event surface added by the
API redesign is present, and every name appears in docs/api.md.  A
fresh ``import repro`` loads no scipy module: scipy is imported by the
function that calls it (docs/performance.md, "Cold start").
"""

import json
import os
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS_PATH = os.path.join(ROOT, "docs", "api.md")

#: Appended to each child's code: its loaded scipy modules, as JSON.
PRINT_SCIPY_MODULES = """
import json, sys
print(json.dumps(sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
)))
"""


def _api_doc() -> str:
    with open(DOCS_PATH, encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(repro.__all__))
def test_all_name_imports(name):
    assert hasattr(repro, name), f"repro.__all__ lists {name!r} but it is missing"
    assert getattr(repro, name) is not None


@pytest.mark.parametrize("name", sorted(repro.__all__))
def test_all_name_documented(name):
    assert name in _api_doc(), f"{name!r} is in repro.__all__ but not in docs/api.md"


def test_star_import_matches_all():
    namespace = {}
    exec("from repro import *", namespace)
    exported = {key for key in namespace if not key.startswith("__")}
    assert exported == set(repro.__all__) - {"__version__"}


def test_studies_surface_reexported():
    from repro.studies.runner import StudyRunner, get_runner, use_runner

    assert repro.StudyRunner is StudyRunner
    assert repro.get_runner is get_runner
    assert repro.use_runner is use_runner
    assert repro.StudyRequest is repro.studies.StudyRequest


def test_rareevent_surface_reexported():
    from repro.rareevent.estimator import RareEventConfig, RareEventResult

    assert repro.RareEventConfig is RareEventConfig
    assert repro.RareEventResult is RareEventResult


def test_facade_runs_a_study():
    """The documented one-stop workflow works end to end."""
    request = repro.StudyRequest(
        tree=repro.eijoint.build_ei_joint_fmt(),
        strategy=repro.eijoint.current_policy(),
        horizon=10.0,
        seed=7,
        n_runs=20,
    )
    runner = repro.StudyRunner()
    with repro.use_runner(runner):
        summary = repro.get_runner().summary(request)
    assert 0.0 <= summary.unreliability.estimate <= 1.0
    # Same request again is a memo hit, bit-identical.
    assert runner.summary(request) is summary


def test_service_surface_reexported():
    from repro.service.app import StudyService, serve_app
    from repro.service.wire import (
        WIRE_SCHEMA_VERSION,
        WireError,
        decode_wire,
        encode_wire,
    )

    assert repro.serve_app is serve_app
    assert repro.StudyService is StudyService
    assert repro.encode_wire is encode_wire
    assert repro.decode_wire is decode_wire
    assert repro.WireError is WireError
    assert repro.WIRE_SCHEMA_VERSION == WIRE_SCHEMA_VERSION
    assert repro.service.serve_app is serve_app  # lazy submodule attr


def test_wire_error_is_a_validation_error():
    # Wire rejections participate in the package's error taxonomy, so
    # callers catching repro.ValidationError keep working.
    assert issubclass(repro.WireError, repro.ValidationError)


def test_facade_roundtrips_a_request_through_the_wire():
    request = repro.StudyRequest(
        tree=repro.eijoint.build_ei_joint_fmt(),
        strategy=repro.eijoint.current_policy(),
        horizon=10.0,
        seed=7,
        n_runs=20,
    )
    decoded = repro.decode_wire(
        repro.encode_wire(request), expect="study_request"
    )
    assert decoded.key().digest == request.key().digest


def _scipy_modules_after(code: str) -> set:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code + PRINT_SCIPY_MODULES],
        capture_output=True,
        check=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        text=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_and_cli_help_load_no_scipy():
    """``python -m repro`` imports the ``repro`` package before it runs
    ``__main__``, so this covers a bare ``import repro`` too."""
    code = """
import runpy, sys
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
"""
    assert _scipy_modules_after(code) == set()


def test_serial_study_loads_scipy_special_only():
    """A study's intervals need ``scipy.special``'s quantiles, nothing
    heavier.  The bound is what ``import scipy.special`` loads on the
    installed scipy: before scipy 1.17 it imported ``scipy.linalg``
    itself."""
    code = """
from repro.eijoint import build_ei_joint_fmt, current_policy
from repro.studies import StudyRequest, StudyRunner

request = StudyRequest(
    tree=build_ei_joint_fmt(), strategy=current_policy(),
    horizon=10.0, seed=7, n_runs=20,
)
StudyRunner(processes=1).summary(request)
"""
    loaded = _scipy_modules_after(code)
    assert "scipy.special" in loaded
    beyond_special = loaded - _scipy_modules_after("import scipy.special")
    for heavy in ("stats", "optimize", "integrate", "sparse", "linalg"):
        package = f"scipy.{heavy}"
        assert not {
            m for m in beyond_special if m == package or m.startswith(package + ".")
        }
