"""Every exception the library defines derives from ReproError.

Callers are promised one catchable base type (``except ReproError``);
this test sweeps the whole package two ways — importing every module and
inspecting the classes it defines, and grepping the source tree for
``class X(Exception)`` escapes — so a new error type cannot silently
fork the hierarchy.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re

import repro
from repro.common.errors import ReproError

SRC_ROOT = pathlib.Path(repro.__file__).parent


def iter_repro_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


class TestHierarchy:
    def test_every_exception_class_derives_from_repro_error(self):
        offenders = []
        for module in iter_repro_modules():
            for name, obj in vars(module).items():
                if not inspect.isclass(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue  # re-export; judged where it is defined
                if not issubclass(obj, BaseException):
                    continue
                if obj is ReproError:
                    continue
                if not issubclass(obj, ReproError):
                    offenders.append(f"{module.__name__}.{name}")
        assert not offenders, (
            f"exception classes outside the ReproError hierarchy: {offenders}"
        )

    def test_no_bare_exception_bases_in_source(self):
        # The import sweep above can miss a class hidden behind a lazy
        # import; the grep cannot.
        pattern = re.compile(
            r"^class\s+(\w+)\s*\(\s*(Exception|BaseException)\s*\)",
            re.MULTILINE,
        )
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            for match in pattern.finditer(path.read_text()):
                if match.group(1) == "ReproError":
                    continue
                offenders.append(f"{path.relative_to(SRC_ROOT)}:"
                                 f"{match.group(1)}")
        assert not offenders, (
            f"classes deriving directly from Exception: {offenders}"
        )

    def test_known_error_types_and_exports(self):
        from repro.common import errors

        expected = {
            "SchemaError", "QueryError", "RxlSyntaxError", "RxlScopeError",
            "PlanError", "ExecutionError", "TimeoutExceeded",
            "TransientConnectionError", "OverloadError", "DtdError",
            "ValidationError",
        }
        defined = {
            name for name, obj in vars(errors).items()
            if inspect.isclass(obj) and issubclass(obj, ReproError)
            and obj is not ReproError
        }
        assert expected <= defined
        # Every error type is importable from the package root.
        for name in expected | {"ReproError"}:
            assert name in repro.__all__
            assert getattr(repro, name) is getattr(errors, name)

    def test_overload_error_shape(self):
        exc = repro.OverloadError("too much", reason="tenant")
        assert isinstance(exc, repro.ExecutionError)
        assert isinstance(exc, ReproError)
        assert exc.reason == "tenant"
        assert str(exc) == "too much"
