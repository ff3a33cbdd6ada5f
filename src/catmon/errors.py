"""Exception hierarchy shared by all catmon modules.

Every structural or precondition failure raises a subclass of CatmonError,
so callers (and the CLI) can distinguish "bad input" from genuine bugs.
"""


class CatmonError(Exception):
    """Base class for all errors raised by catmon."""


class ParseError(CatmonError):
    """A text input file does not follow its line format."""


class SizeLimitExceeded(CatmonError):
    """A construction, priced before it is built, is over its size limit:
    a category's arrows (CATMON_MAX_ARROWS), or the elements, classes,
    chains, faces or group dimensions of one construction
    (``limits.MAX_COUNT``).  Raised only by ``limits``."""


# --- category / poset / complex validation -------------------------------

class InvalidStructure(CatmonError):
    """A combinatorial carrier violates one of its invariants."""


class MissingComposite(InvalidStructure):
    """A composable pair of arrows has no entry in the composition table."""


class AssociativityViolation(InvalidStructure):
    """comp(comp(f,g),h) != comp(f,comp(g,h)) for some composable triple."""


class BadIdentity(InvalidStructure):
    """An identity arrow fails idempotence or the two-sided unit law."""


class BadComposability(InvalidStructure):
    """A composition entry exists for a non-composable pair, or its result
    has the wrong endpoints."""


class CyclicCovers(InvalidStructure):
    """The cover relation of a poset input contains a cycle."""


class RedundantCover(InvalidStructure):
    """A stored cover is implied by other covers (input must be the Hasse
    diagram)."""


# --- element-level preconditions ------------------------------------------

class UnknownArrow(CatmonError):
    """A word mentions an arrow id that the category does not contain."""


class CategoryMismatch(CatmonError):
    """Two elements over different categories were combined."""


class EmptyElement(CatmonError):
    """First/last entry requested of the empty element."""


class EmptyFamily(CatmonError):
    """A gcd/multiple was requested for an empty family."""


class SourceMismatch(CatmonError):
    """Left gcd/lcm inputs do not share a source."""


class TargetMismatch(CatmonError):
    """Right gcd/lcm inputs do not share a target."""


class NotConical(CatmonError):
    """An operation requiring a conical category was called on one that
    composes non-identities to an identity."""


class NotCancellative(CatmonError):
    """An operation requiring cancellativity on one side was called on a
    category lacking it."""


class NotAGenerator(CatmonError):
    """A single-arrow element was required (lcm works at generator level)."""


# --- posets / maps ---------------------------------------------------------

class NotIsotone(CatmonError):
    """A claimed order-preserving map reverses or forgets a relation."""


class NotComparable(CatmonError):
    """Spindle detection needs u < v."""


class HeightTooSmall(CatmonError):
    """Spindle detection needs a point strictly between u and v."""


class NotExtreme(CatmonError):
    """Spindle-category construction needs u minimal and v maximal."""


class Disconnected(CatmonError):
    """A connected complex was required."""


# --- groups / functors -----------------------------------------------------

class GroupMismatch(CatmonError):
    """Two group words from different groups were multiplied."""


class MissingImage(CatmonError):
    """A functor lacks an image for some arrow."""


class SeparationRequired(CatmonError):
    """sigma images need a functor that is injective on hom-sets and kills
    only identities."""


# --- presented monoids ------------------------------------------------------

class NotHomogeneous(CatmonError):
    """The word-problem engine only accepts length-preserving relations."""
