"""Exception hierarchy shared by all modules."""

import copyreg


class GeometryError(Exception):
    """Base class for all library errors."""

    def __reduce__(self):
        # Pickled back without __init__, whose arguments (an index, a
        # residual) are not the message in self.args: a worker process's
        # error reaches its parent with its type, message and attributes.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class OutOfChart(GeometryError):
    """Point does not lie in the requested chart's domain."""


class Unsupported(GeometryError):
    """Construction is only available for catalog objects."""


class DomainViolation(GeometryError):
    """Tangent vector outside the declared domain of a local addition."""


class SingularNormalization(GeometryError):
    """Fiber derivative of the local addition is numerically singular."""


class NotInThetaImage(GeometryError):
    """Pair (p, q) has no preimage under (projection, sigma)."""


class NotComposable(GeometryError):
    """Arrow endpoints do not match within tolerance."""


class SamplingFailure(GeometryError):
    """Could not generate the requested random samples."""


class CoherenceLost(GeometryError):
    """Consecutive grid values are too far apart to resolve the map."""


class OutsideNeighborhood(GeometryError):
    """Node-by-node lifting left the declared neighborhood."""

    def __init__(self, index, msg=None):
        super().__init__(msg or f"lift leaves its neighborhood at node {index}")
        self.index = index


class BranchAmbiguity(GeometryError):
    """Two inverse branches are too close to select one reliably."""

    def __init__(self, index):
        super().__init__(f"ambiguous branch choice at node {index}")
        self.index = index


class StartNotInOrbit(GeometryError):
    """Starting lift is not in the orbit of the first path node."""


class DegenerateNeighborhood(GeometryError):
    """Bisection could not find a valid local-action neighborhood."""


class RankDrop(GeometryError):
    """Kernel dimension varies across sample points."""


class FrameProjectionError(GeometryError):
    """Bracket value leaves the kernel frame by more than tolerance."""

    def __init__(self, residual):
        super().__init__(f"bracket leaves the kernel by {residual:.2e}")
        self.residual = residual


class UnknownSuite(GeometryError):
    """No suite registered under the requested id."""


class UnknownId(GeometryError):
    """No named grid map registered under the requested id."""


class ConfigError(GeometryError):
    """Run configuration violates the schema."""
