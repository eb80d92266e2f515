import math

import pytest

from bipmatch.constants import Constants, log2c, mwu_lambda, next_pow2, raw_lambda
from bipmatch.driver import DriverConfig, max_matching
from bipmatch.oracles import hopcroft_karp
from conftest import random_bipartite
import random


def test_presets_instantiate():
    desk = Constants.desk()
    paper = Constants.asymptotic()
    assert desk.alpha0 > 0 and paper.alpha0 > 0
    assert paper.mwu_gate_coeff == 256.0


def test_negative_constant_rejected():
    with pytest.raises(ValueError):
        Constants(alpha0=-1.0)


@pytest.mark.parametrize("name", ["alpha0", "mwu_gate_coeff", "ball_pre_coeff"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_constant_rejected(name, value):
    with pytest.raises(ValueError, match=f"constant {name} must be finite"):
        Constants(**{name: value})


@pytest.mark.parametrize("name", ["cut_player_c", "c_cmg", "c_prime", "c_hat"])
def test_zero_divisor_constant_rejected(name):
    # each is a divisor of a threshold: matching_z, cluster_d or
    # cluster_shrink_threshold
    with pytest.raises(ValueError, match=f"constant {name} must be positive"):
        Constants(**{name: 0})


def test_from_file_roundtrip(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("alpha0 = 0.125   # tweak\ndegree_bound = 20\n\n")
    c = Constants.from_file(str(path))
    assert c.alpha0 == 0.125 and c.degree_bound == 20
    bad = tmp_path / "bad.txt"
    bad.write_text("no_such_knob = 3\n")
    with pytest.raises(ValueError):
        Constants.from_file(str(bad))
    ugly = tmp_path / "ugly.txt"
    ugly.write_text("alpha0 0.5\n")
    with pytest.raises(ValueError):
        Constants.from_file(str(ugly))


def test_helpers():
    assert log2c(1) == 1 and log2c(2) == 1 and log2c(9) == 4
    assert next_pow2(1) == 1 and next_pow2(5) == 8
    assert raw_lambda(100, 10) >= mwu_lambda(100, 10)
    assert mwu_lambda(3200, 10) <= 3200 // 32


def test_derived_thresholds_positive():
    c = Constants.desk()
    for n in (4, 50, 400):
        assert c.expander_fake_budget(n) >= 1
        assert c.matching_z(n) >= 1
        assert c.cluster_d(n, max(1, n // 4)) >= 1
        assert c.cluster_query_budget(n, 8) >= 1
        assert c.cluster_cut_bound(n, 8) > 0
        assert c.mwu_gate(n) >= 1


def test_asymptotic_preset_runs_exact():
    rng = random.Random(3)
    g = random_bipartite(rng, 18, 18, 0.3)
    cfg = DriverConfig(constants=Constants.asymptotic(), backend="full")
    m, rep = max_matching(g, cfg)
    assert len(m) == len(hopcroft_karp(g)[0])


def test_pipeline_is_deterministic():
    rng = random.Random(6)
    g = random_bipartite(rng, 70, 70, 0.12)
    runs = []
    for _ in range(2):
        m, rep = max_matching(g, DriverConfig(backend="full", delta_star=1))
        runs.append((sorted(m.pairs),
                     [(p.delta, p.collected, p.rounded, p.fallback)
                      for p in rep.phases],
                     rep.exact_augmentations,
                     rep.backend_stats.get("cuts", 0)))
    assert runs[0] == runs[1]
