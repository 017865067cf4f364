"""The public records: named fields in a fixed order, positional and keyword
construction, value equality, immutability, and the checks and reductions
the validating ones apply on construction, through `_make` and `_replace`
too."""

import numpy as np
import pytest

from hypersym import (
    Coloring,
    ConjectureReport,
    DimensionMismatchError,
    Hypergraph,
    ModMatrix,
    NikiforovParams,
    ParameterError,
    PowerLayout,
    SimilarityCertificate,
    SpectralEstimate,
    SymmetryReport,
)

VECTOR = np.ones(2)

# (class, field names, constructor arguments, stored field values,
#  len() of the record, arguments that must raise and the error)
RECORDS = [
    pytest.param(
        Hypergraph, ("uniformity", "vertex_count", "edges"),
        (2, 3, ((1, 2), (2, 3))), (2, 3, ((1, 2), (2, 3))), 3, None,
        id="Hypergraph",
    ),
    pytest.param(
        Coloring, ("modulus", "values"),
        (3, [4, -1, 5]), (3, (1, 2, 2)), 2, ((1, [0]), ParameterError),
        id="Coloring",
    ),
    pytest.param(
        SymmetryReport, ("cyclic_index", "divisor_evidence"),
        (1, {1: None}), (1, {1: None}), 2, None,
        id="SymmetryReport",
    ),
    pytest.param(
        ModMatrix, ("modulus", "entries"),
        (5, [[6, -1], [2, 3]]), (5, ((1, 4), (2, 3))), 2,
        ((5, [[1, 2], [3]]), DimensionMismatchError),
        id="ModMatrix",
    ),
    pytest.param(
        PowerLayout, ("base_uniformity", "blowup", "uniformity", "vertex_blocks", "edge_blocks"),
        (2, 2, 4, ((1, 2), (3, 4)), ((),)), (2, 2, 4, ((1, 2), (3, 4)), ((),)), 5, None,
        id="PowerLayout",
    ),
    pytest.param(
        ConjectureReport,
        ("base_cyclic_index", "power_cyclic_index", "product", "equality",
         "characterization_solvable", "guaranteed_symmetry"),
        (2, 2, 4, False, False, 2), (2, 2, 4, False, False, 2), 6, None,
        id="ConjectureReport",
    ),
    pytest.param(
        NikiforovParams, ("k", "size_a", "size_b", "size_c"),
        (1, 6, 6, 4), (1, 6, 6, 4), 4, ((1, 6, 6, 3), ParameterError),
        id="NikiforovParams",
    ),
    pytest.param(
        SpectralEstimate, ("rho", "eigenvector", "iterations", "residual", "bracket", "history"),
        (1.0, VECTOR, 3, 0.0, (1.0, 1.0), ()), (1.0, VECTOR, 3, 0.0, (1.0, 1.0), ()), 6, None,
        id="SpectralEstimate",
    ),
    pytest.param(
        SimilarityCertificate, ("modulus", "max_deviation"),
        (2, 0.0), (2, 0.0), 2, None,
        id="SimilarityCertificate",
    ),
]


def _same(got, expected):
    return len(got) == len(expected) and all(
        a is b or (type(a) is type(b) and a == b) for a, b in zip(got, expected)
    )


@pytest.mark.parametrize("cls, fields, args, stored, length, bad", RECORDS)
def test_records_keep_their_contract(cls, fields, args, stored, length, bad):
    record = cls(*args)
    assert cls._fields == fields
    assert _same([getattr(record, name) for name in fields], stored)
    assert _same(tuple(record), stored)
    assert len(record) == length
    assert _same(tuple(cls(**dict(zip(fields, args)))), stored)
    # `_make` and `_replace` apply the same checks and reductions
    assert _same(tuple(cls._make(args)), stored)
    assert _same(tuple(record._replace(**dict(zip(fields, args)))), stored)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 0
    if not any(isinstance(v, (dict, np.ndarray)) for v in stored):
        twin = cls(*args)
        assert twin == record and hash(twin) == hash(record)
        assert len({record, twin}) == 1
        assert cls(*stored) == record
    if bad is not None:
        bad_args, error = bad
        with pytest.raises(error):
            cls(*bad_args)
        with pytest.raises(error):
            cls._make(bad_args)
        with pytest.raises(error):
            record._replace(**dict(zip(fields, bad_args)))
