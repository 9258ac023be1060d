"""Interface declaration, the type library, and structural conformance."""

import pytest

from repro.opencom import Interface, InterfaceError, lookup_interface, methods_of
from repro.opencom.interfaces import (
    implements,
    is_interface_type,
    registered_interfaces,
    require_interface_type,
)

from tests.conftest import IAdder, IEcho


class TestDeclaration:
    def test_interface_cannot_be_instantiated(self):
        with pytest.raises(InterfaceError):
            IEcho()

    def test_subclass_registers_in_type_library(self):
        assert registered_interfaces()["IEcho"] is IEcho

    def test_lookup_by_name(self):
        assert lookup_interface("IAdder") is IAdder

    def test_lookup_unknown_raises(self):
        with pytest.raises(InterfaceError, match="unknown interface"):
            lookup_interface("INoSuchThing")

    def test_interface_name(self):
        assert IEcho.interface_name() == "IEcho"

    def test_is_interface_type(self):
        assert is_interface_type(IEcho)
        assert not is_interface_type(Interface)
        assert not is_interface_type(object)
        assert not is_interface_type("IEcho")

    def test_require_interface_type_rejects_plain_class(self):
        with pytest.raises(InterfaceError):
            require_interface_type(dict)


class TestMethodIntrospection:
    def test_methods_of_lists_declared_methods(self):
        names = [m.name for m in methods_of(IAdder)]
        assert names == ["add", "scale"]

    def test_method_parameters_exclude_self(self):
        add = next(m for m in methods_of(IAdder) if m.name == "add")
        assert add.parameters == ("a", "b")
        assert add.arity == 2

    def test_method_doc_captured(self):
        add = next(m for m in methods_of(IAdder) if m.name == "add")
        assert "a + b" in add.doc

    def test_inherited_interface_methods_included(self):
        class IBase(Interface):
            def base_op(self):
                ...

        class IDerived(IBase):
            def derived_op(self):
                ...

        names = [m.name for m in methods_of(IDerived)]
        assert names == ["base_op", "derived_op"]

    def test_private_names_excluded(self):
        class IWithPrivate(Interface):
            def visible(self):
                ...

            def _hidden(self):
                ...

        assert [m.name for m in methods_of(IWithPrivate)] == ["visible"]

    def test_each_type_is_introspected_once(self, monkeypatch):
        import inspect

        class IOnce(Interface):
            def op(self, x): ...

        first = methods_of(IOnce)
        assert isinstance(first, tuple)
        # Later calls are served without re-reading any signature.
        monkeypatch.setattr(inspect, "signature", None)
        assert methods_of(IOnce) is first


class TestConformance:
    def test_conforming_impl_passes(self):
        class Impl:
            def echo(self, value):
                return value

        assert implements(Impl(), IEcho) == []

    def test_missing_method_reported(self):
        class Empty:
            pass

        problems = implements(Empty(), IEcho)
        assert any("missing method 'echo'" in p for p in problems)

    def test_non_callable_attribute_reported(self):
        class Bad:
            echo = 42

        problems = implements(Bad(), IEcho)
        assert any("not callable" in p for p in problems)

    def test_too_many_required_parameters_reported(self):
        class Greedy:
            def echo(self, value, extra):
                return value

        problems = implements(Greedy(), IEcho)
        assert any("requires 2 arguments" in p for p in problems)

    def test_extra_optional_parameters_allowed(self):
        class Flexible:
            def echo(self, value, extra=None):
                return value

        assert implements(Flexible(), IEcho) == []

    def test_var_positional_allowed(self):
        class Variadic:
            def echo(self, *args):
                return args[0]

        assert implements(Variadic(), IEcho) == []


class TestRedeclaration:
    def test_structurally_identical_redeclaration_allowed(self):
        class IRedeclared(Interface):  # noqa: F811
            def op(self):
                ...

        class IRedeclared(Interface):  # noqa: F811
            def op(self):
                ...

        assert lookup_interface("IRedeclared") is IRedeclared

    def test_conflicting_redeclaration_rejected(self):
        class IConflict(Interface):
            def op_a(self):
                ...

        with pytest.raises(InterfaceError, match="re-declared"):
            class IConflict(Interface):  # noqa: F811
                def op_b(self):
                    ...
