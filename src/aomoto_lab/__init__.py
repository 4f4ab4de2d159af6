"""Exact-arithmetic tools for weighted hyperplane arrangements.

Subpackage map:

* ``exactfield``   -- rational scalars and rational functions in kappa
* ``arrangement``  -- weighted arrangements and their intersection lattices
* ``flags``        -- flags and their duality functionals, for the tests' oracles
* ``aomoto``       -- the twisted logarithmic complex and the weight-diagonal map
* ``logforms``     -- pointwise exterior calculus for identity verification
* ``liealg``       -- sl2 representations, invariants, coinvariants and conformal blocks
* ``svmap``        -- the discriminantal arrangement and the classes of the solution vector
* ``kz``           -- the KZ connection, parallel transport and contour monodromy
* ``cli``          -- the ``aomoto-lab`` command line front end
"""

__version__ = "0.1.0"
