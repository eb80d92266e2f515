"""Tunable constants shared by the whole pipeline.

Every polylog threshold used by the algorithms lives here, so that the
asymptotic analysis and runnable code can coexist.  Two presets ship:

- ``Constants.desk()``   -- coefficients sized so that every branch of the
  algorithms is actually exercised on graphs with tens to a few hundred
  vertices.  This is the default.
- ``Constants.asymptotic()`` -- the literal coefficients of the worst-case
  analysis.  They are astronomically conservative; at bench scale they route
  almost everything into leaf clusters and fallbacks.

All derived thresholds are exposed as methods so that the formulas are
written once and asserted everywhere (tests re-evaluate the same methods).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


def log2c(x: float) -> int:
    """ceil(log2(x)) clamped below at 1."""
    if x <= 2:
        return 1
    return max(1, math.ceil(math.log2(x)))


def next_pow2(x: int) -> int:
    """Smallest power of two >= x (x >= 1)."""
    p = 1
    while p < x:
        p *= 2
    return p


@dataclass
class Constants:
    # Explicit expander construction: guaranteed expansion and degree bound.
    alpha0: float = 0.25
    degree_bound: int = 18

    # Ball growing (two-sided BFS): cut sparsity ball_coeff*delta_max*log(n)/d,
    # callable whenever d >= ball_pre_coeff*delta_max*log(n).
    ball_coeff: float = 32.0
    ball_pre_coeff: float = 0.0

    # Well-structured ball growing: a BFS layer is accepted once its special
    # boundary is at most ball2_accept_coeff*log(n)/d times the ball size; the
    # reported sparsity bound is 32x that (the far side holds >= n/32 vertices).
    ball2_accept_coeff: float = 64.0

    # Cut player: greedy embedding with path length cut_player_c*log^2(n) and
    # per-edge capacity cut_player_c^2*log^2(n); fake-edge budget fake_frac*n.
    cut_player_c: float = 2.0
    c_cmg: float = 4.0
    fake_frac: float = 0.03125
    outer_side_frac: float = 0.10

    # Cluster maintenance.
    c_prime: float = 1.0          # internal radius d = d*/(c_prime*log^d_exp n)
    d_exp: int = 1
    c_hat: float = 4.0            # phase ends when vertices shrink by 1/(c_hat*log^shrink_exp n)
    shrink_exp: int = 1
    d_hat_coeff: float = 64.0     # expander diameter bound d_hat_coeff*log(n)/alpha0
    n_query_coeff: float = 4096.0  # per-phase query budget coefficient
    union_denom: float = 2.0      # cap on the union of all damage: alpha0*n''/union_denom
    c_star: float = 1.0           # leaf threshold c_star*log^leaf_exp(|X|)
    leaf_exp: int = 1
    cluster_kappa: float = 2048.0  # emitted-cut sparsity bound kappa*log^kappa_exp(n)/d*
    kappa_exp: int = 2

    # Restricted SSSP / MWU driver.
    gamma_coeff: float = 8.0      # Gamma = gamma_coeff*(n^2/(d*Delta) + n*d)
    mwu_gate_coeff: float = 4.0   # MWU phase requires Delta >= gate*log2(m)
    mwu_min_edges: int = 64       # fewer residual edges: skip MWU, go to the finishing flow

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)):
                continue
            if not math.isfinite(v):
                raise ValueError(f"constant {f.name} must be finite, got {v}")
            if f.name != "ball_pre_coeff" and v < 0:
                raise ValueError(f"constant {f.name} must be nonnegative, got {v}")
        # the expander degree, and the coefficients that thresholds divide by
        for name in ("alpha0", "degree_bound", "cut_player_c", "c_cmg", "c_prime",
                     "c_hat", "union_denom"):
            if (v := getattr(self, name)) <= 0:
                raise ValueError(f"constant {name} must be positive, got {v}")

    # ------------------------------------------------------------------ presets

    @classmethod
    def desk(cls) -> "Constants":
        return cls()

    @classmethod
    def asymptotic(cls) -> "Constants":
        return cls(
            alpha0=0.25,
            ball_pre_coeff=64.0,
            cut_player_c=128.0,
            c_cmg=16.0,
            fake_frac=0.25 / 1000,
            outer_side_frac=0.10,
            c_prime=float(2**11),
            d_exp=3,
            c_hat=float(2**10),
            shrink_exp=5,
            d_hat_coeff=float(2**30),
            n_query_coeff=0.25 / 2**20,
            union_denom=32.0,
            c_star=float(2**20),
            leaf_exp=6,
            cluster_kappa=float(2**22),
            kappa_exp=6,
            gamma_coeff=float(2**10),
            mwu_gate_coeff=256.0,
        )

    # ------------------------------------------------------------ serialization

    @classmethod
    def from_file(cls, path: str) -> "Constants":
        """Load overrides from a key=value text file ('#' comments allowed)."""
        values: dict[str, object] = {}
        known = {f.name: f.type for f in fields(cls)}
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad constants line: {raw!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in known:
                    raise ValueError(f"unknown constant {key!r}")
                values[key] = int(val) if known[key] == "int" else float(val)
        return cls(**values)  # type: ignore[arg-type]

    # ----------------------------------------------------- derived thresholds

    def expander_fake_budget(self, n: int) -> int:
        """Fake-edge budget of the inner cut player on n vertices."""
        return max(1, math.floor(self.fake_frac * n))

    def cmg_rounds(self, n: int) -> int:
        return max(2, math.ceil(self.c_cmg * log2c(n)))

    def cut_player_dtilde(self, n: int) -> int:
        return max(2, math.ceil(self.cut_player_c * log2c(n) ** 2))

    def cut_player_eta(self, n: int) -> int:
        return max(2, math.ceil(self.cut_player_c**2 * log2c(n) ** 2))

    def matching_z(self, n: int) -> int:
        """Fake-edge allowance per matching-player round."""
        denom = 2 * self.cut_player_c * self.c_cmg * log2c(n) ** 3
        return max(1, math.floor(self.expander_fake_budget(n) / denom))

    def matching_congestion_cap(self, n: int, d_prime: int) -> int:
        return 2 * d_prime * (log2c(2 * d_prime) + 2) + 1

    def embed_length_cap(self, n: int, d_prime: int) -> int:
        return (2 * d_prime + 1) * self.cut_player_dtilde(n)

    def embed_congestion_cap(self, n: int, d_prime: int, rounds: int) -> int:
        return self.matching_congestion_cap(n, d_prime) * max(1, rounds) * self.cut_player_eta(n)

    def embed_fake_cap(self, n: int, rounds: int) -> int:
        extra = 2 * self.matching_z(n) * max(1, rounds) * self.cut_player_eta(n)
        return self.expander_fake_budget(n) + extra

    # MaintainCluster derived parameters.

    def cluster_d(self, n: int, d_star: int) -> int:
        return max(1, math.floor(d_star / (self.c_prime * log2c(n) ** self.d_exp)))

    def cluster_d_hat(self, n: int) -> int:
        return max(4, math.ceil(self.d_hat_coeff * log2c(n) / self.alpha0))

    def cluster_query_budget(self, n: int, d_star: int) -> int:
        raw = self.n_query_coeff * self.alpha0 * n / (d_star * d_star * log2c(n))
        return max(1, math.floor(raw))

    def cluster_shrink_threshold(self, n_phase_start: int, n_total: int) -> int:
        """Phase ends once the live vertex count drops below this."""
        frac = 1.0 - 1.0 / (self.c_hat * log2c(n_total) ** self.shrink_exp)
        return math.floor(n_phase_start * frac)

    def cluster_union_cap(self, n_expander: int) -> int:
        return max(1, math.floor(self.alpha0 * n_expander / self.union_denom))

    def cluster_cut_bound(self, n: int, d_star: int) -> float:
        """Module-level sparsity contract for every emitted cut.

        Dominates both emission branches: the well-structured ball-growing
        bound at the cluster's internal radius, and the polylog/d* contract.
        """
        d = self.cluster_d(n, d_star)
        return max(
            self.cluster_kappa * log2c(n) ** self.kappa_exp / d_star,
            self.ball2_phi(n, d),
        )

    def ball2_phi(self, n: int, d: int) -> float:
        """Reported sparsity of a well-structured ball-growing cut."""
        return 32.0 * self.ball2_accept_coeff * log2c(n) / d

    def leaf_threshold(self, size: int) -> float:
        return self.c_star * log2c(size) ** self.leaf_exp

    # Restricted SSSP / MWU derived parameters.

    def rsssp_d(self, n: int, delta: int) -> float:
        return math.sqrt(max(1.0, n / max(1, delta)))

    def rsssp_gamma(self, n: int, d: float, delta: int) -> int:
        return max(1, math.ceil(self.gamma_coeff * (n * n / (d * max(1, delta)) + n * d)))

    def mwu_gate(self, m: int) -> int:
        return max(1, math.ceil(self.mwu_gate_coeff * log2c(m)))


def raw_lambda(m: int, delta: int) -> int:
    """The restricted-SSSP length scale: 8*m*log(m)/Delta, rounded up."""
    return max(1, math.ceil(8 * m * log2c(m) / max(1, delta)))


def mwu_lambda(m: int, delta: int) -> int:
    """Length scale of one MWU phase on m residual edges with deficit delta.

    Path budget is 8*lambda; initial edge length 1; doublings delete parallel
    copies.  Capped at m/32 so every edge gets at most ceil(log2 m) parallel
    copies and per-edge usage stays within ceil(log2 m)."""
    return min(raw_lambda(m, delta), max(1, m // 32))


def doubling_levels(lam: int) -> int:
    """Parallel copies per residual edge in an MWU phase of scale lam.

    Copy j has length 2^j, for j up to the smallest power of two N' above
    8*lam, so a scaled length of 8*lam is MWU length 1 and the top copy
    never fits a path.  Only the test oracle mwu.build_doubling_graph
    materialises the copies, giving copy j of residual edge eid the id
    eid*levels + j; the backends keep one current length per edge."""
    return next_pow2(8 * lam + 1).bit_length()
