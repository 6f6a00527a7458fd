"""Closed-form performance metrics, evaluated by Gauss-Legendre quadrature.

Five quantities describe one cluster served by the base station:

* coverage probability: a random member decodes the BS broadcast;
* transmission success probability: a random member decodes a packet
  relayed by another random member of the same cluster;
* request success probability: at least one cluster member holds the packet
  and a recovery exchange succeeds;
* average delay of a packet, counting the recovery round trip;
* average area spectral efficiency (ASE) of the multicast.

All probabilities average the per-link exponential success law over the
closed-form distance densities from `distributions`.  Both integrals go
through one rule, `_integrate`: Gauss-Legendre on cosine-mapped panels,
whose node count doubles until two estimates agree.  The cosine map
x = mid - half * cos(phi) absorbs the square-root endpoint behaviour of the
distance pdfs (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?",
SIAM Review 50(1), 2008).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .channel import (
    MIN_DISTANCE_M,
    LinkKind,
    RadioParams,
    decode_probability,
    mean_received_power,
)
from .distributions import (
    ClusterGeometry,
    offset_support,
    pdf_bs_member_distance,
    pdf_member_pair_distance,
)
from .errors import NumericError, ParameterError
from .geometry import cluster_peer_count

# Absolute tolerance demanded from every quadrature result.
_QUAD_TOL = 1e-6
# Two successive estimates closer than this (relative, floored at 1) stop
# the node doubling early.
_QUAD_AGREE = 1e-13
_MIN_NODES = 16
_MAX_NODES = 1024


@functools.lru_cache(maxsize=None)
def _cosine_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule in phi on [0, pi], mapped to [-1, 1].

    Returns nodes u = -cos(phi) and weights that include the Jacobian
    sin(phi) * pi / 2, so that the integral of f over [mid - half,
    mid + half] is approximately half * sum(weights * f(mid + half * u)).
    """
    t, w = np.polynomial.legendre.leggauss(n)
    phi = 0.5 * np.pi * (t + 1.0)
    nodes, weights = -np.cos(phi), 0.5 * np.pi * w * np.sin(phi)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by the cache
    return nodes, weights


def _integrate(f: Callable[[np.ndarray], np.ndarray],
               edges: Sequence[float]) -> float:
    """Integral of the array function f over [edges[0], edges[-1]].

    Each panel between consecutive edges gets the cosine-mapped rule, with
    f called once per panel on all its nodes.  The node count starts at
    `_MIN_NODES` and doubles until two estimates agree to `_QUAD_AGREE`;
    if they still differ by more than `_QUAD_TOL` at `_MAX_NODES`, the
    result is rejected with `NumericError`.
    """
    panels = list(zip(edges[:-1], edges[1:]))
    previous = None
    n = _MIN_NODES
    while True:
        nodes, weights = _cosine_rule(n)
        total = 0.0
        for lo, hi in panels:
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            total += half * float(np.dot(weights, f(mid + half * nodes)))
        if previous is not None:
            change = abs(total - previous)
            if change <= _QUAD_AGREE * max(1.0, abs(total)):
                return total
            if n >= _MAX_NODES:
                if not change <= _QUAD_TOL:
                    raise NumericError(
                        f"quadrature on [{edges[0]}, {edges[-1]}] did not "
                        f"converge: estimates at {n // 2} and {n} nodes per "
                        f"panel differ by {change:.2e} (limit {_QUAD_TOL:.0e})")
                return total
        previous = total
        n *= 2


def coverage_probability(geom: ClusterGeometry, radio: RadioParams) -> float:
    """Probability that a random cluster member decodes the BS broadcast."""

    def integrand(d):
        power = mean_received_power(LinkKind.BS_TO_UAV, d, radio)
        return decode_probability(power, radio) * pdf_bs_member_distance(d, geom)

    return _integrate(integrand, offset_support(
        geom.v_norm, geom.radius_r, geom.delta_h))


def transmission_success_probability(radius_r: float, radio: RadioParams) -> float:
    """Probability that one member decodes a relay from another member.

    Both ends are uniform on the cluster disk, so the link distance follows
    the disk-chord density on [0, 2r]; the path-loss clamp at
    `MIN_DISTANCE_M` is the integrand's only kink, so it is a panel edge.
    """
    if not (math.isfinite(radius_r) and radius_r > 0):
        raise ParameterError(f"radius_r must be positive and finite, got {radius_r}")
    hi = 2.0 * radius_r

    def integrand(d):
        power = mean_received_power(LinkKind.UAV_TO_UAV, d, radio)
        return decode_probability(power, radio) * pdf_member_pair_distance(d, radius_r)

    edges = (0.0, MIN_DISTANCE_M, hi) if MIN_DISTANCE_M < hi else (0.0, hi)
    return _integrate(integrand, edges)


def _check_probabilities(p_cov: float, p_suc: float) -> None:
    """Reject a p_cov or p_suc outside [0, 1], by name."""
    for name, p in (("p_cov", p_cov), ("p_suc", p_suc)):
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"{name} must lie in [0, 1], got {p}")


def request_success_probability(p_cov: float, p_suc: float, lambda_off: float,
                                radius_r: float) -> float:
    """Probability a missing member recovers the packet from its cluster.

    Some member must have decoded the broadcast (one minus the chance that
    all floor(lambda_off * pi * r^2) members failed), and the relayed copy
    must then be decoded.
    """
    _check_probabilities(p_cov, p_suc)
    k = cluster_peer_count(lambda_off, radius_r)
    if k < 1:
        raise ParameterError(
            f"expected members per cluster is {k}; need at least 1")
    return (1.0 - (1.0 - p_cov) ** k) * p_suc


def average_delay(p_cov: float, p_suc: float, packet_len_ms: float,
                  t_req_ms: float) -> float:
    """Mean per-packet delay in ms under the recovery protocol.

    A covered member is done after the broadcast; an uncovered one waits for
    the broadcast, then for a request plus relayed copy repeated until the
    relay is decoded (geometric with mean 1 / p_suc).  That mean diverges
    where no relay decodes (p_suc = 0) and some member is uncovered, and
    the delay is then `math.inf`.
    """
    _check_probabilities(p_cov, p_suc)
    if packet_len_ms <= 0 or t_req_ms < 0:
        raise ParameterError(
            f"packet_len_ms must be positive and t_req_ms non-negative, "
            f"got {packet_len_ms}, {t_req_ms}")
    if p_cov == 1.0:
        return packet_len_ms
    if p_suc == 0.0:
        return math.inf
    recovery = (packet_len_ms + t_req_ms) / p_suc
    return p_cov * packet_len_ms + (1.0 - p_cov) * (packet_len_ms + recovery)


def average_ase(p_cov: float, p_suc: float, lambda_off: float,
                snr_threshold: float) -> float:
    """Average area spectral efficiency in bit/s/Hz/m^2.

    Members served either directly or through one recovery exchange count
    toward the delivered rate density.
    """
    _check_probabilities(p_cov, p_suc)
    if lambda_off <= 0 or snr_threshold <= 0:
        raise ParameterError(
            f"lambda_off and snr_threshold must be positive, "
            f"got {lambda_off}, {snr_threshold}")
    served = p_cov + (1.0 - p_cov) * p_suc
    return served * lambda_off * math.log2(1.0 + snr_threshold)
