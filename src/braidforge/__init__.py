"""Symbolic computation in virtual singular braid groups.

The pipeline, where w is a word in the crossing generators:

    parse_braid_word  text -> BraidWord over sigma/tau/v letters
    permutation_of    BraidWord -> strand permutation
    coset_map         BraidWord -> canonical coset representative
    to_pure_times_coset   split w = (pure part) * (representative)
    rewrite_R         pure word -> word in the fusing generators
    normal_form       any word -> layered normal form
    recompose         layered normal form -> crossing word
    decide            certified equality of two words

Every Equal verdict from decide carries a rewrite chain that replays
against the defining relations alone; validate_chain checks one.  An
Unequal verdict comes from an invariant, or from a twisted virtual
Burau representation over GF(p) whose images of the two words differ;
then it carries an UnequalCertificate that validate_unequal checks
from the numbers in it and the relation table alone.
"""

from .burau import UnequalCertificate, validate_unequal
from .chains import Chain, Step, validate_chain
from .decomposition import (ConjugatedLetter, Layer, LayeredNormalForm,
                            conjugate_letter, flatten, format_normal_form,
                            normal_form, pair_counts, parse_normal_form,
                            recompose)
from .errors import (BraidforgeError, BraidSyntaxError, CertificateError,
                     DomainError, IndexRangeError, NotPureError,
                     ResourceBoundError)
from .fusing import (Family, FusingLetter, FusingWord, PureDecomposition,
                     act_permutation, expand_fusing, expand_letter,
                     format_fusing_word, fusing_free_reduce, gamma,
                     invert_fusing, mu, parse_fusing_word,
                     to_pure_times_coset)
from .oracle import OracleVerdict, Verdict, decide
from .perms import (Permutation, SchreierWord, coset_map,
                    format_permutation, identity_permutation, permutation_of,
                    schreier_representative, schreier_system, transposition)
from .relations import (ElementaryStringRelation, MoveTable,
                        PureRelationInstance, RelationInstance)
from .schreier import DerivedRelation, derive_pure_relations, rewrite_R
from .words import (BraidWord, ExponentInvariants, GeneratorLetter, Kind,
                    concat_words, exponent_invariants, format_braid_word,
                    free_reduce, invert_word, parse_braid_word)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # words
    "BraidWord", "GeneratorLetter", "Kind", "ExponentInvariants",
    "parse_braid_word", "format_braid_word", "free_reduce",
    "invert_word", "concat_words", "exponent_invariants",
    # permutations and cosets
    "Permutation", "SchreierWord", "permutation_of", "identity_permutation",
    "transposition", "format_permutation",
    "schreier_representative", "schreier_system", "coset_map",
    # fusing generators
    "Family", "FusingLetter", "FusingWord", "PureDecomposition",
    "mu", "gamma", "parse_fusing_word", "format_fusing_word",
    "expand_letter", "expand_fusing", "act_permutation", "invert_fusing",
    "fusing_free_reduce", "to_pure_times_coset",
    # relation catalog
    "RelationInstance", "PureRelationInstance", "ElementaryStringRelation",
    "MoveTable",
    # subgroup rewriting
    "DerivedRelation", "rewrite_R",
    "derive_pure_relations",
    # layered decomposition
    "ConjugatedLetter", "Layer", "LayeredNormalForm",
    "conjugate_letter", "normal_form", "recompose", "flatten",
    "pair_counts", "format_normal_form", "parse_normal_form",
    # equality oracle
    "Verdict", "OracleVerdict", "decide",
    # certificates
    "Chain", "Step", "validate_chain",
    "UnequalCertificate", "validate_unequal",
    # errors
    "BraidforgeError", "DomainError", "BraidSyntaxError", "IndexRangeError",
    "NotPureError", "ResourceBoundError", "CertificateError",
]
