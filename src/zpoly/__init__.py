"""Exact computation of Kazhdan-Lusztig polynomials and Z-polynomials of
matroids, with fast recursions for contraction-closed families, certified
real-root isolation, and equivariant refinements."""

from .polyarith import (IntPolynomial, RatPolynomial, TruncatedSeries,
                        format_polynomial, is_palindromic, reverse, series_exp,
                        series_log)
from .matroid import (ExplicitBases, ExplicitFlats, FlatCapExceeded,
                      FlatLattice, GraphSpec, LinearVectors, MatroidSpec,
                      UniformSpec, bareiss_rank, characteristic_polynomial,
                      contraction, enumerate_flats, localization,
                      matroid_spec_from_json, mobius_from_bottom,
                      whitney_multi)
from .klz import (IndexTuple, KlMethod, closed_formula_terms,
                  enumerate_index_tuples, kl_by_method, kl_coeff_closed,
                  kl_coeff_new_recursion, kl_defining, kl_via_mobius,
                  t_index, z_polynomial)
from .families import (BRAID, TYPE_B, NiceFamily, WhitneyTables, binomial,
                       build_tables, gaussian_binomial, kl_closed_family,
                       kl_family, lattice_spec, narayana, parse_family,
                       p_from_z_inversion, q_shift_check, qvec_family,
                       qvec_flats, series_identity_check, stirling1_signed,
                       stirling2, uniform_family, whitney_multi_family,
                       z_family)
from .roots import (InterlaceKind, InterlaceVerdict, SturmCertificate,
                    certify_roots, check_certificate, conjecture_sweep,
                    count_negative_real_roots, interlaces, is_log_concave,
                    is_negative_real_rooted, isolate_roots, squarefree_part)
from .equivariant import (ClassFunctionTable, PermGroup, SymFunction,
                          character_value, dimension, equivariant_c_character,
                          equivariant_c_uniform, equivariant_whitney_character,
                          equivariant_whitney_uniform, h_product, h_to_schur,
                          is_schur_positive, kostka_number)

__all__ = [name for name in dir() if not name.startswith("_")]
