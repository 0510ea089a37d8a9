"""Group relation algebras.

Systems of disjoint finite groups glued by quotient isomorphisms generate
atomic relation algebras of concrete binary relations; this package builds
the frames, checks the frame conditions, computes with the atoms
symbolically, and cross-checks everything against plain bit-matrix
relation arithmetic.

``import groupra`` loads no groupra submodule.  Each public name in
``__all__`` is looked up in the submodule that defines it on first access
(a PEP 562 module ``__getattr__``), which loads that submodule and what
it imports, and is kept here after that.  ``from groupra import X`` and
``groupra.<submodule>``, for each submodule that defines one of those
names, work as if everything had been imported up front.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it gives this package
_EXPORTS = {
    "algebra": (
        "AtomIndex",
        "BaseSpace",
        "FrameElement",
        "GroupRelationAlgebra",
        "MeasureEntry",
        "MeasureReport",
    ),
    "builders": (
        "build_complex_algebra_frame",
        "build_cyclic_frame",
        "build_power_frame",
        "cyclic_iso_record",
        "merge_frames",
    ),
    "errors": (
        "FrameBuildError",
        "FrameFormatError",
        "FrameMismatchError",
        "GroupTableError",
        "IncompatibleQuotientsError",
        "InvalidFrameError",
        "NotASubgroupError",
        "NotNormalError",
        "NotRelatedError",
        "UncheckedFrameError",
    ),
    "fileformat": ("emit_frame", "parse_frame"),
    "frames": (
        "Frame",
        "FrameCheckReport",
        "IsoRecord",
        "Violation",
        "check_frame_full",
        "check_frame_reduced",
    ),
    "groups": (
        "CosetSystem",
        "FiniteGroup",
        "IsoCheck",
        "Mask",
        "check_quotient_iso",
        "complex_product",
        "elements",
        "enumerate_cosets",
        "is_normal",
        "make_cyclic",
        "mask_of",
        "quotient_group",
        "validate_table",
    ),
    "relations": (
        "ConcreteRelation",
        "cayley_relation",
        "identity_on",
        "rel_compose",
        "rel_converse",
        "rel_union",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        return value
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
