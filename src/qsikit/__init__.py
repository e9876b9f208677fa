"""Computational character theory for finite permutation groups.

Decides monomiality and the QSI property (some multiple of a character
induced from a character with solvable U/ker) for concrete groups, and
provides the order-theoretic elimination toolkit for groups of Lie type
(Zsigmondy primes, order formulas, Singer and torus element orders,
Steinberg degrees).
"""

from .chartab import (
    Character,
    CharacterTable,
    character_table,
    class_fusion,
    induce,
    induce_pointwise,
    inner_product,
    kernel,
    permutation_character,
    restrict,
    trivial_character,
)
from .cyclotomic import Cyclotomic
from .errors import (
    CapacityError,
    DomainError,
    IntegrityError,
    MalformedInputError,
    NotFoundError,
    QsikitError,
    UnsupportedCaseError,
)
from .lietype import (
    EliminationReport,
    GroupOrder,
    TorusSpec,
    eliminate,
    group_order,
    ppd_properties,
    primitive_part,
    singer_torus_order,
    steinberg_degree,
    zsigmondy,
)
from .perm import (
    ConjugacyClassSet,
    PermGroup,
    Permutation,
    format_generator_file,
    parse_cycle_string,
    parse_generator_file,
)
from .qsi import (
    QsiVerdict,
    QsiWitness,
    SearchBounds,
    class_fraction_prefilter,
    decide_monomial_character,
    decide_qsi_character,
    decide_qsi_group,
    group_is_qsi,
    random_subgroup_sweep,
    simple_subgroup_prefilter,
    steinberg_kernel_constraint,
    verify_qsi_witness,
)

__version__ = "0.1.0"
