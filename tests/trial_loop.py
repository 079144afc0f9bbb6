"""The rejection sampler's trial loop one trial at a time, as glsim.sampling ran
it before trials were tested a chunk at a time: the reference that the shared
chunked loop is checked against, draw for draw, query for query and mass for
mass."""

import math

from glsim import OracleInconsistencyError, PreconditionError, RejectionResult, rng_stream


def mass_fill(u_mass: dict, query_many, size: int):
    """fill(rest): store |u_s|^2 in u_mass for the first `size` distinct sites of
    rest not in it yet, answered by one query_many call on them in increasing order."""
    def fill(rest: list):
        new: list = []
        for s in rest:
            if s not in u_mass and s not in new:
                new.append(s)
                if len(new) == size:
                    break
        new.sort()
        u_mass.update(zip(new, (abs(complex(x)) ** 2 for x in query_many(new))))
    return fill


def scalar_rejection_sample(p, u_mass: dict, fill, phi: float, alpha_min: float,
                            delta: float, seed: int, chunk: int,
                            stream_key: tuple) -> RejectionResult:
    """Every drawn trial tested in order: p_s, the zero-mass check, fill if |u_s|^2
    is not in u_mass, the oversampling check, then the accept test."""
    if phi < 1.0 - 1e-12:
        raise PreconditionError("phi must be at least 1")
    if not (0 < alpha_min):
        raise PreconditionError("alpha_min must be positive")
    if not (0 < delta < 1):
        raise PreconditionError("delta must lie in (0, 1)")
    budget = int(math.ceil((8.0 * phi / (alpha_min * alpha_min)) * math.log(1.0 / delta)))
    rng = rng_stream(seed, *stream_key)
    done = 0
    while done < budget:
        k = min(chunk, budget - done)
        sites = p.draw_many(rng, k).tolist()
        taus = rng.random(k).tolist()
        for f, (s, tau) in enumerate(zip(sites, taus)):
            mass = p.mass_query(s)
            if mass <= 0.0:
                raise OracleInconsistencyError(
                    f"sampler produced site {s} with zero oversampler mass")
            if s not in u_mass:
                fill(sites[f:])
            ratio = u_mass[s] / (phi * mass)
            if ratio > 1.0 + 1e-9:
                raise PreconditionError(
                    f"oversampling inequality violated at site {s}: ratio {ratio}")
            if tau <= ratio:
                return RejectionResult(site=s, accepted=True, trials=done + f + 1)
        done += k
    return RejectionResult(site=None, accepted=False, trials=done)
