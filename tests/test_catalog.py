"""Cited-fact catalog: bounds, tables, Berger zero modes, certificates."""

import math

import pytest

from diraclab.catalog import (berger_zero_parameter, dminimal_table,
                              dminimal_value, existence_certificate,
                              index_lower_bound, surface_and_sphere_facts)
from diraclab.errors import FactNotFoundError, NotCoveredError, UsageError


# ---------------------------------------------------------------------------
# index-theoretic bounds
# ---------------------------------------------------------------------------

def test_index_bound_by_residue():
    assert index_lower_bound(4, a_hat=2) == 2
    assert index_lower_bound(8, a_hat=3) == 3
    assert index_lower_bound(8, a_hat=-3) == 3
    assert index_lower_bound(9, alpha=2) == 2
    assert index_lower_bound(10, alpha=1) == 2
    assert index_lower_bound(10, alpha=2) == 4
    assert index_lower_bound(7, a_hat=9, alpha=9) == 0


@pytest.mark.parametrize("m", [3, 5, 6, 7, 11, 13, 14, 15, 19])
def test_index_bound_vanishes_on_uncovered_residues(m):
    assert m % 8 in {3, 5, 6, 7}
    assert index_lower_bound(m, a_hat=4, alpha=4) == 0


def test_index_bound_low_dimensions():
    # the 1 mod 8 and 2 mod 8 statements start at 9 and 10
    assert index_lower_bound(1, alpha=3) == 0
    assert index_lower_bound(2, alpha=3) == 0
    with pytest.raises(UsageError):
        index_lower_bound(0)


def test_dminimal_values():
    assert dminimal_value(8, a_hat=5) == 5
    assert dminimal_value(9, alpha=0) == 0
    assert dminimal_value(10, alpha=1) == 2
    assert dminimal_value(11) is None            # 3 mod 8: no claim
    assert dminimal_value(4, a_hat=1) is None    # multiples of 4 start at 8
    assert dminimal_value(8, a_hat=5, simply_connected=False) is None


# dminimal_value(m, a_hat=3, alpha=2) for simply connected manifolds, m = 1..40:
# |a_hat| on multiples of four from 8, |alpha| on 1 mod 8 and 2|alpha| on
# 2 mod 8 from 9 and 10; every dimension not listed makes no claim
DMINIMAL_CLAIMS = {8: 3, 9: 2, 10: 4, 12: 3, 16: 3, 17: 2, 18: 4, 20: 3, 24: 3,
                   25: 2, 26: 4, 28: 3, 32: 3, 33: 2, 34: 4, 36: 3, 40: 3}


@pytest.mark.parametrize("simply_connected", [True, False])
@pytest.mark.parametrize("m", range(1, 41))
def test_dminimal_value_table(m, simply_connected):
    expected = DMINIMAL_CLAIMS.get(m) if simply_connected else None
    assert dminimal_value(m, a_hat=3, alpha=2,
                          simply_connected=simply_connected) == expected


def test_dminimal_table_shape():
    table = dminimal_table()
    assert len(table) == 7
    for row in table:
        assert set(row) == {"dimension_class", "genus_condition", "value",
                            "citation"}
        assert row["citation"]
    assert any("m mod 8 in {3, 5, 6, 7}" == r["dimension_class"] for r in table)


# ---------------------------------------------------------------------------
# surface and sphere tables
# ---------------------------------------------------------------------------

def test_surface_rows():
    assert surface_and_sphere_facts(genus=0).fact == \
        "h(M,g,s) = 0 for any metric and spin structure"
    r12 = surface_and_sphere_facts(genus=1)
    assert r12.key == surface_and_sphere_facts(genus=2).key == "genus-1-2"
    assert "spin structure" in r12.fact
    for g in (3, 4, 100):
        assert "depends on the metric" in surface_and_sphere_facts(genus=g).fact


def test_sphere_rows():
    assert surface_and_sphere_facts(sphere_dim=1).key == "dim-1"
    assert surface_and_sphere_facts(sphere_dim=2).key == "dim-2"
    for d in (3, 7, 11, 15):
        rec = surface_and_sphere_facts(sphere_dim=d)
        assert rec.key == "dim-3-mod-4"
        assert "Berger" in rec.fact
    for d in (4, 8, 12, 40):
        assert surface_and_sphere_facts(sphere_dim=d).key == "dim-0-mod-4"


@pytest.mark.parametrize("d", [5, 6, 9, 10])
def test_sphere_rows_uncovered_dimensions(d):
    with pytest.raises(FactNotFoundError):
        surface_and_sphere_facts(sphere_dim=d)


def test_two_sphere_volume_bound():
    rec = surface_and_sphere_facts(sphere_dim=2, sphere_volume=4 * math.pi)
    assert rec.value == pytest.approx(1.0)
    assert surface_and_sphere_facts(sphere_dim=2, sphere_volume=4.0).value == \
        pytest.approx(math.pi)
    doc = rec.to_dict()
    assert doc["value"] == pytest.approx(1.0)
    assert "citation" in doc
    with pytest.raises(UsageError):
        surface_and_sphere_facts(sphere_dim=2, sphere_volume=0.0)


def test_fact_selectors_are_exclusive():
    with pytest.raises(UsageError):
        surface_and_sphere_facts()
    with pytest.raises(UsageError):
        surface_and_sphere_facts(genus=0, sphere_dim=2)
    with pytest.raises(FactNotFoundError):
        surface_and_sphere_facts(genus=-1)


def test_fact_record_to_dict_omits_empty_value():
    doc = surface_and_sphere_facts(genus=0).to_dict()
    assert set(doc) == {"key", "fact", "citation"}


# ---------------------------------------------------------------------------
# Berger zero modes and existence certificates
# ---------------------------------------------------------------------------

def test_berger_zero_parameter():
    assert berger_zero_parameter(1) == 4
    assert berger_zero_parameter(3) == 8
    assert berger_zero_parameter(19) == 40
    with pytest.raises(NotCoveredError):
        berger_zero_parameter(2)
    with pytest.raises(UsageError):
        berger_zero_parameter(0)


def test_certificate_worked_example():
    cert = existence_certificate(10)
    assert cert.applicable
    assert cert.chain == (10, 9, 8)
    assert len(cert.steps) == 2
    assert cert.base_dimension == 8
    assert cert.base_sphere_dim == 7
    assert cert.base_k == 3
    assert cert.base_T == 8


def test_certificate_multiple_of_four_is_immediate():
    cert = existence_certificate(4)
    assert cert.chain == (4,)
    assert cert.steps == ()
    assert (cert.base_sphere_dim, cert.base_k, cert.base_T) == (3, 1, 4)


def test_certificate_longest_chain():
    cert = existence_certificate(7)
    assert cert.chain == (7, 6, 5, 4)
    assert len(cert.steps) == 3
    assert cert.base_dimension == 4


def test_certificate_large_dimension():
    cert = existence_certificate(40)
    assert cert.chain == (40,)
    assert (cert.base_sphere_dim, cert.base_k, cert.base_T) == (39, 19, 40)


@pytest.mark.parametrize("m", range(4, 41))
def test_certificate_invariants(m):
    cert = existence_certificate(m)
    assert cert.applicable
    assert cert.chain[0] == m
    assert cert.base_dimension == 4 * (m // 4)
    assert cert.chain[-1] == cert.base_dimension
    assert len(cert.chain) - 1 <= 3             # at most three reductions
    assert len(cert.steps) == len(cert.chain) - 1
    assert cert.base_dimension % 4 == 0 and cert.base_dimension >= 4
    assert cert.base_k % 2 == 1                 # Berger statement needs odd k
    assert cert.base_T == 2 * (cert.base_k + 1) == cert.base_dimension
    assert cert.base_sphere_dim == 2 * cert.base_k + 1


@pytest.mark.parametrize("m", [1, 2, 3])
def test_certificate_low_dimensions_carry_reasons(m):
    cert = existence_certificate(m)
    assert not cert.applicable
    assert cert.reason
    doc = cert.to_dict()
    assert doc["applicable"] is False
    assert doc["reason"] == cert.reason
    assert "chain" not in doc


def test_certificate_serialization():
    doc = existence_certificate(10).to_dict()
    assert doc["chain"] == [10, 9, 8]
    assert doc["base"]["sphere_dim"] == 7
    assert doc["base"]["T"] == 8
    assert doc["base"]["statement"]
    assert doc["base"]["citation"]
