"""Value algebras the generic simulation engines are parameterised over.

An algebra provides the constants and connectives needed to evaluate a
gate.  Three implementations cover the paper:

* :class:`BoolAlgebra` — plain 0/1 simulation (explicit-enumeration
  baselines, concrete responses for test evaluation),
* :class:`ThreeValuedAlgebra` — the 0/1/X logic,
* :class:`BddAlgebra` — OBDD node indices; this is what turns the very
  same event-driven engine into the *symbolic* simulator of Section IV.

Values must support ``==`` such that equal values are interchangeable;
BDD canonicity gives this for free for node indices.
"""

from repro.logic import boolean, threeval


class BoolAlgebra:
    """Two-valued logic over the integers 0/1."""

    zero = 0
    one = 1
    not_ = staticmethod(boolean.not2)
    and_ = staticmethod(boolean.and2)
    or_ = staticmethod(boolean.or2)
    xor = staticmethod(boolean.xor2)

    @staticmethod
    def const(bit):
        return 1 if bit else 0

    @staticmethod
    def is_known(a):
        return True

    @staticmethod
    def known_value(a):
        return a


class ThreeValuedAlgebra:
    """The 0/1/X logic of conventional sequential fault simulation."""

    zero = threeval.ZERO
    one = threeval.ONE
    unknown = threeval.X
    not_ = staticmethod(threeval.not3)
    and_ = staticmethod(threeval.and3)
    or_ = staticmethod(threeval.or3)
    xor = staticmethod(threeval.xor3)

    @staticmethod
    def const(bit):
        return threeval.ONE if bit else threeval.ZERO

    @staticmethod
    def is_known(a):
        return threeval.is_known(a)

    @staticmethod
    def known_value(a):
        return a if threeval.is_known(a) else None


class BddAlgebra:
    """Symbolic logic: values are node indices of a shared BddManager."""

    def __init__(self, manager):
        self.manager = manager
        self.zero = 0  # repro.bdd.manager.FALSE
        self.one = 1  # repro.bdd.manager.TRUE
        # the manager's connectives, bound once: a gate evaluation calls
        # straight into the kernel with no forwarding layer in between
        self.not_ = manager.not_
        self.and_ = manager.and_
        self.or_ = manager.or_
        self.xor = manager.xor

    def const(self, bit):
        return self.one if bit else self.zero

    def is_known(self, a):
        """Known here means: a constant function of the state variables."""
        return a < 2

    def known_value(self, a):
        return a if a < 2 else None


BOOL = BoolAlgebra()
THREE_VALUED = ThreeValuedAlgebra()
