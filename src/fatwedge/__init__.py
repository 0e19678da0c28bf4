"""Invariants of simplicial complexes and their real moment-angle complexes.

The package computes exact reduced homology (Z, Q, Z/p), builds the real
moment-angle complex as a cubical complex with its fat wedge filtration,
models the Tor algebra of the Stanley-Reisner ring, runs certificate
searches (shellings, collapses, fillings, gcd orders), and certifies
triviality of the fat wedge filtration together with the resulting wedge
decompositions and Golodness verdicts.
"""

from .complexes import (SimplicialComplex, alexander_dual, boundary_of_simplex,
                        empty_complex, flag_complex, full_subcomplex,
                        is_chordal, join, make_complex, max_neighborliness,
                        minimal_nonfaces, perfect_elimination_order, simplex)
from .homology import (GF, QQ, ZZ, ChainComplex, CoefficientRing,
                       HomologyProfile, dK, hodim, is_zero_on_homology,
                       reduced_homology)
from .snf import SNFResult, smith_normal_form
from .rmac import (CubicalComplex, build_rmac, cubical_homology,
                   hochster_identity_check, rmac_filtration)
from .tor import (TorAlgebra, build_tor, golod_via_join, golod_via_tor,
                  hochster_tor_check, tor_dimensions, torsion_primes)
from .criteria import (CollapseSequence, FillingCertificate, GcdOrder,
                       SearchResult, ShellingOrder, collapse_search,
                       fill_search, filling_from_dual_shelling, is_dual_scm,
                       is_dual_shellable, is_homology_fillable, is_scm,
                       shelling_search, spanning_facets, strong_gcd_search)
from .certify import (GolodReport, SpacePoincare, TrivialityCertificate,
                      WedgeReport, bbcg_summands, certify_fwf_trivial,
                      golod_report)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
