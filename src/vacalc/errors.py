"""Exception taxonomy shared by all vacalc modules.

Every domain failure derives from VacalcError so callers (and the CLI,
which maps them to exit code 1) can catch one base class.  Usage errors
of the CLI itself are argparse's business and exit with code 2.
"""


class VacalcError(Exception):
    """Base class for all domain errors raised by this package.

    A subclass declares its diagnostic attributes in `fields`; they are
    passed by keyword and default to None.
    """

    fields: tuple = ()

    def __init__(self, message, **values):
        unknown = values.keys() - self.fields
        if unknown:
            raise TypeError(f"{type(self).__name__} has no field {min(unknown)!r}")
        super().__init__(message)
        for name in self.fields:
            setattr(self, name, values.get(name))

    def payload(self) -> dict:
        """Diagnostic attributes as JSON values (vacalc --json prints them)."""
        out = {}
        for name in self.fields:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out


class ParseError(VacalcError):
    """Malformed expression text (tokenizer or grammar failure)."""


class IllegalPole(VacalcError):
    """Negative power applied to anything but a difference z_i - z_j."""


class BadIndex(VacalcError):
    """Variable index outside 1..arity."""


class ArityMismatch(VacalcError):
    """Binary operation on operands from different spaces: local functions
    of different arities, or states of different presentations."""


class BadPermutation(VacalcError):
    """Sequence passed as a permutation is not a bijection of 1..n."""


class CoincidentPoints(VacalcError):
    """Evaluation requested at a point with two equal coordinates."""


class NotHomogeneous(VacalcError):
    """Operation requires a homogeneous function; split with grade_components."""


class BadSplit(VacalcError):
    """Insertion split position out of range."""


class BadPartition(VacalcError):
    """Block sizes or multidegree do not partition the input."""


class BadSubset(VacalcError):
    """Variable subset empty or outside 1..n."""


class SchemaError(VacalcError):
    """Input that violates the documented schema or range."""


class JacobiViolation(SchemaError):
    """An explicit table fails the Jacobi identity
    a(m)(b(n)c) - b(n)(a(m)c) = [a(m), b(n)] c on a generator state c.

    generators names a, b and c, and modes is [m, n].
    """

    fields = ("generators", "modes")


class WeightMismatch(VacalcError):
    """A relation's right-hand side is not homogeneous of the forced weight."""


class UnboundedOPE(VacalcError):
    """A generator pair declares singular products beyond the supported bound.

    Raised at load time for a nonzero table entry [a,b]_n with n > 64; an
    explicit document with a nonzero relation result at n = 65 does it.
    """


class ResourceLimit(VacalcError):
    """A computation outgrew a configured size bound; it may well finish
    with a larger bound.

    bound is the size bound; cache_entries is the rewrite-cache size that
    passed it, or predicted the spanning words a radical would list.
    """

    fields = ("bound", "cache_entries", "predicted")


class NoLocalMatch(VacalcError):
    """Mode series does not come from a local function within the pole bound.

    radius is the exponent window radius of the failing step and candidates
    the number of basis monomials within the pole bound (the ansatz);
    exponents is the first window tuple where the match disagrees with the
    series, or None.
    """

    fields = ("radius", "candidates", "exponents")


class TruncationTooSmall(VacalcError):
    """Requested check needs states beyond the truncation weight."""
