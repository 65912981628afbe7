"""Exception types shared across the package."""


class AutcritError(Exception):
    """Base class for all errors raised by this package."""


class PrimeMismatchError(AutcritError):
    """Two p-group values were combined at different primes."""


class VarUndefinedError(AutcritError):
    """var(X, Y) requested where it is not defined (X = Y, rank
    mismatch, or X not embedded in Y)."""


class HypothesisViolationError(AutcritError):
    """A stated hypothesis of a decision procedure does not hold for
    the given arguments."""


class NotLatinSquareError(AutcritError):
    """Cayley table has a row or column that is not a permutation."""


class NotAssociativeError(AutcritError):
    """Cayley table is a Latin square with identity but fails
    associativity."""


class NoIdentityError(AutcritError):
    """Cayley table has no two-sided identity element."""


class InvalidPermutationError(AutcritError):
    """Permutation input is not a bijection on the declared domain."""


class OrderBoundExceededError(AutcritError):
    """A closure or search would exceed the configured order bound."""


class ConfigError(AutcritError):
    """A configuration value, such as AUTCRIT_AUT_BOUND, is malformed
    or out of range."""


class InvariantError(AutcritError):
    """A computed result broke an invariant (raised, so it holds under -O)."""


class NotASubgroupError(AutcritError):
    """An element set is not closed under the group operation."""


class NotNormalError(AutcritError):
    """A subgroup required to be normal is not."""


class NotAbelianError(AutcritError):
    """Operation defined only for abelian groups."""


class NotPGroupError(AutcritError):
    """Operation defined only for groups of prime-power order."""


class NotNilpotentError(AutcritError):
    """Lower central series does not reach the trivial subgroup."""


class ClassNotTwoError(AutcritError):
    """Criterion stated only for groups of nilpotence class exactly 2."""


class AbelianInputError(AutcritError):
    """Criterion stated only for non-abelian groups."""


class ParentMismatchError(AutcritError):
    """Automorphism sets over different parent groups were compared."""


class GroupFileError(AutcritError):
    """A group file could not be read or parsed."""
