import dataclasses
import random

import pytest

from zxq.harness import (
    RULE_SAMPLERS,
    random_clifford_t_circuit,
    verify_p_formulas,
    verify_relations,
    verify_rules,
)
from zxq.phase import Phase
from zxq.rewrite import RULES
from zxq.semantics import equal_up_to_scalar, evaluate


def test_rules_campaign_passes():
    rep = verify_rules(seed=11, samples=20)
    assert rep.passed
    assert rep.cases == 15 * 20
    assert all("max_residual" in line for line in rep.lines[1:])


def test_rules_campaign_deterministic():
    a = verify_rules(seed=42, samples=10)
    b = verify_rules(seed=42, samples=10)
    assert a.render_body() == b.render_body()


def test_rules_campaign_seed_changes_cases():
    a = verify_rules(seed=1, samples=10)
    b = verify_rules(seed=2, samples=10)
    assert a.passed and b.passed
    assert a.render_body() != b.render_body()


def test_corrupted_rule_is_named_with_witness():
    def broken_pi(d, site):
        # forgets to negate the spider phase
        p, v = site
        out = RULES["N"].apply(d, site)
        for w in out.spiders():
            if w == v and w in out:
                out.set_phase(w, d.phase(v))
        return out

    rules = dict(RULES)
    rules["N"] = dataclasses.replace(RULES["N"], apply=broken_pi)
    rep = verify_rules(seed=3, samples=30, rules=rules)
    assert not rep.passed
    assert any(f.case == "rule N" for f in rep.failures)
    assert any("site=" in f.inputs for f in rep.failures)
    body = rep.render_body()
    assert "result: FAIL" in body


def test_relations_campaign_passes():
    rep = verify_relations()
    assert rep.passed
    assert rep.cases == 17
    assert sum("scalar_vs_identity" in line for line in rep.lines) == 3
    assert sum("simplified_residual" in line for line in rep.lines) == 14


def test_pformulas_campaign_passes():
    rep = verify_p_formulas(seed=9, samples=150)
    assert rep.passed
    body = rep.render_body()
    for token in (
        "swap_identity",
        "recomposition",
        "oracle_consistency",
        "equal_outer_angles",
        "opposite_outer_angles",
        "degenerate_beta1=0",
        "degenerate_z1=0",
        "degenerate_z=0",
    ):
        assert token in body


def test_pformulas_deterministic():
    assert verify_p_formulas(seed=5, samples=60).render_body() == verify_p_formulas(
        seed=5, samples=60
    ).render_body()


def test_report_body_excludes_wall_time():
    rep = verify_rules(seed=0, samples=5)
    assert rep.wall_time > 0
    assert "wall" not in rep.render_body()


def test_samplers_cover_every_rule():
    assert set(RULE_SAMPLERS) == set(RULES)
    rng = random.Random(0)
    for name, sampler in sorted(RULE_SAMPLERS.items()):
        d, site = sampler(rng)
        d.validate()
        sites = RULES[name].find(d)
        assert site in sites or tuple(reversed(site)) in sites, name


@pytest.mark.parametrize("name", sorted(RULES))
def test_scalar_free_marks_exactly_the_exact_rules(name):
    # an exact rule keeps the matrix on the nose on every sample; every
    # other rule moves the scalar on some sample (Hf by 2, B2 by 1/sqrt 2)
    rule, rng = RULES[name], random.Random(3)
    scalars = []
    for _ in range(60):
        d, site = RULE_SAMPLERS[name](rng)
        verdict = equal_up_to_scalar(evaluate(d), evaluate(rule.apply(d, site)))
        assert verdict.equal, (name, site)
        scalars.append(verdict.scalar)  # None only where both sides are the zero map
    off = [k for k in scalars if k is not None and abs(k - 1) > 1e-9]
    if rule.scalar_free:
        assert off == [], name
    else:
        assert off, name


def test_pi_sampler_instantiates_quarter_phases():
    # the campaign must exercise pi/4 phases on the commuted spider
    rng = random.Random(1)
    seen_quarter = False
    for _ in range(50):
        d, (p, v) = RULE_SAMPLERS["N"](rng)
        if d.phase(v) == Phase.exact(1, 4):
            seen_quarter = True
    assert seen_quarter


def test_random_circuit_generator():
    rng = random.Random(7)
    for _ in range(50):
        c = random_clifford_t_circuit(rng, width=2, max_gates=40)
        assert c.width == 2
        assert len(c.gates) <= 40
        assert c.is_clifford_t
