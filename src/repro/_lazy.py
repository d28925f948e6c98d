"""Lazy package exports (PEP 562): a package ``__init__`` lists each
public name with the submodule that defines it, and the submodule is
imported the first time one of its names is read."""

import importlib
import sys


def lazy_exports(package, table):
    """``(__getattr__, __dir__)`` for ``package``; ``table`` maps each
    exported name to its submodule (``{"SystemConfig": "core"}``; a
    leading dot climbs to the parent: ``".metrics.collectors"``).  A
    name that maps to itself exports the submodule."""

    def __getattr__(name):
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(f".{table[name]}", package)
        if table[name] != name:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
