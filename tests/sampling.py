"""Random points of a convex subset, for the property tests of projections
and of the fixtures' feasible sets."""

from hadamard_iter.geometry import ConvexSubset, ModelSpace, SpacePoint


def sample_in(space: ModelSpace, cset: ConvexSubset, rng, scale: float = 1.0) -> SpacePoint:
    """A random point of ``cset``: a uniform point of a segment; for a ball,
    the point at distance min(d, U(0, 1.5) * radius) from the center toward
    a ``sample_point`` draw at distance d, projected onto the ball, so that
    draws land inside it as well as on its boundary; for any other set, the
    projection of a ``sample_point`` draw."""
    space.check_set(cset)
    if cset.kind == "segment":
        return space.combine(cset.a, cset.b, float(rng.uniform()))
    q = space.sample_point(rng, scale)
    if cset.kind == "ball":
        d = space.distance(cset.center, q)
        reach = cset.radius * float(rng.uniform(0, 1.5))
        q = space.combine(cset.center, q, min(1.0, reach / d) if d > 0.0 else 0.0)
    return space.project(cset, q)
