"""The package namespace: every exported name resolves."""

import defgpa
from defgpa import gpa, spectral


def test_star_import_binds_every_export():
    namespace = {}
    exec("from defgpa import *", namespace)
    assert sorted(set(defgpa.__all__) - set(namespace)) == []


def test_every_export_resolves():
    assert [name for name in defgpa.__all__ if not hasattr(defgpa, name)] == []
    assert len(set(defgpa.__all__)) == len(defgpa.__all__)


def test_covariance_prior_resolves_from_both_modules():
    assert defgpa.CovariancePrior is gpa.CovariancePrior is spectral.CovariancePrior
