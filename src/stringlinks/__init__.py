"""Exact computation of total Milnor invariants for pure braids and string
links via special expansions, with the tree-diagram and Koszul-homology
realisations of their refinements."""

__version__ = "0.1.0"

from .words import (Braid, LongitudeTuple, ScaleError, Word, artin_action,
                    commutator, longitudes, pure_braid_relations)
from .tensor import Substitution, TensorSeries
from .lie import (HTensorLie, LieElement, bch, bracket_map_matrix, conjugating_element,
                  d_dimension, lyndon_words, witt_dim)
from .expansions import (Expansion, SpecialityReport, build_special, exp_expansion,
                         filtration_degree, is_grouplike_expansion, is_special,
                         magnus_expansion)
from .milnor import (FiltrationError, SpecialAutData, milnor_degree, milnor_window,
                     special_artin, total_milnor, truncated_milnor)
from .trees import (TreeCombination, TreeDiagram, enumerate_trees, eta,
                    eta_combination, eta_inverse)
from .koszul import (ExteriorChain, HomologyBasis, HomologyClass, NilpotentBasis,
                     NotACycleError, boundary, exterior_basis, fission,
                     fission_combination, homology, nilpotent_basis, phi_class,
                     solve_boundary)
from .morita import (MoritaInput, d2_composition, diagram_sides, morita_milnor,
                     required_truncation, sigma, verify_commutative_diagram)
