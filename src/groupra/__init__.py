"""Group relation algebras.

Systems of disjoint finite groups glued by quotient isomorphisms generate
atomic relation algebras of concrete binary relations; this package builds
the frames, checks the frame conditions, computes with the atoms
symbolically, and cross-checks everything against plain bit-matrix
relation arithmetic.
"""

from .algebra import (
    AtomIndex,
    BaseSpace,
    FrameElement,
    GroupRelationAlgebra,
    MeasureEntry,
    MeasureReport,
)
from .builders import (
    build_complex_algebra_frame,
    build_cyclic_frame,
    build_power_frame,
    cyclic_iso_record,
    merge_frames,
)
from .errors import (
    FrameBuildError,
    FrameFormatError,
    FrameMismatchError,
    GroupTableError,
    IncompatibleQuotientsError,
    InvalidFrameError,
    NotASubgroupError,
    NotNormalError,
    NotRelatedError,
    UncheckedFrameError,
)
from .fileformat import emit_frame, parse_frame
from .frames import (
    Frame,
    FrameCheckReport,
    IsoRecord,
    Violation,
    check_frame_full,
    check_frame_reduced,
)
from .groups import (
    CosetSystem,
    FiniteGroup,
    IsoCheck,
    Mask,
    check_quotient_iso,
    complex_product,
    elements,
    enumerate_cosets,
    is_normal,
    make_cyclic,
    mask_of,
    quotient_group,
    validate_table,
)
from .relations import (
    ConcreteRelation,
    cayley_relation,
    identity_on,
    rel_compose,
    rel_converse,
    rel_union,
)

__version__ = "0.1.0"
