"""Region classification and volumes for qubit Pauli maps.

The package classifies Pauli maps by geometric region in eigenvalue
space (positivity, complete positivity, entanglement breaking,
time-local-generator reachability, P- and CP-divisibility), computes
exact rational Hilbert-Schmidt volumes of the polytopal regions,
estimates Hilbert-Schmidt and Fisher-Rao volumes by seeded Monte
Carlo, and evolves eigenvalues under piecewise-constant generator
rates.  The command-line front end lives in :mod:`paulivol.cli`.

``import paulivol`` loads no submodule until a public name is read.
numpy is imported inside the functions that build or read an array, so
the package, the exact volume and mesh commands, ``classify`` and
``evolve --t`` do not load it.
"""

__version__ = "0.1.0"


def __getattr__(name):
    # Python calls this only for a name the namespace lacks.  The first call
    # binds every module's public names here, so later reads are dict lookups.
    g = globals()
    if "__all__" not in g:
        import importlib
        names = ["__version__"]  # each module's __all__ is the one list of its public names
        for sub in ("channel", "regions", "exact_volume", "mc_volume", "dynamics"):
            module = importlib.import_module(f"{__name__}.{sub}")
            g.update((attr, getattr(module, attr)) for attr in module.__all__)
            names += module.__all__
        g["__all__"] = names
    if name in g:
        return g[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
