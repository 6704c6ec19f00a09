"""Tables 1 and 2: matcher-specific and aggregated similarities for the Figure 1 schemas.

Table 1 of the paper shows TypeName and NamePath similarities for selected
PO1/PO2 path pairs; Table 2 shows the Average-aggregated values.  This bench
regenerates both tables for the same path pairs from our reproduction of the
Figure 1 schemas.
"""

from __future__ import annotations

import pytest

from repro.combination.aggregation import AVERAGE
from repro.combination.cube import SimilarityCube
from repro.core.match_operation import build_context
from repro.datasets.figure1 import load_po1, load_po2
from repro.evaluation.report import format_table
from repro.matchers.hybrid import NamePathMatcher, TypeNameMatcher

#: The PO1 paths of Table 1 and the common PO2 target path.
_PO1_PATHS = ("PO1.ShipTo.shipToCity", "PO1.ShipTo.shipToStreet", "PO1.Customer.custCity")
_PO2_PATH = "PO2.PO2.DeliverTo.Address.City"


def _build_cube():
    po1, po2 = load_po1(), load_po2()
    context = build_context(po1, po2)
    cube = SimilarityCube.from_layers(po1.paths(), po2.paths(), [
        ("TypeName", TypeNameMatcher().compute(po1.paths(), po2.paths(), context)),
        ("NamePath", NamePathMatcher().compute(po1.paths(), po2.paths(), context)),
    ])
    return po1, po2, cube


@pytest.mark.benchmark(group="table1-2")
def test_table1_and_table2_similarity_cube(benchmark):
    po1, po2, cube = _build_cube()
    target = po2.find_path(_PO2_PATH)

    def regenerate():
        table1_rows = []
        for matcher_name in cube.matcher_names:
            layer = cube.layer(matcher_name)
            for source_string in _PO1_PATHS:
                source = po1.find_path(source_string)
                table1_rows.append(
                    {
                        "matcher": matcher_name,
                        "po1_element": source_string,
                        "po2_element": _PO2_PATH,
                        "sim": layer.get(source, target),
                    }
                )
        aggregated = AVERAGE.aggregate(cube)
        table2_rows = [
            {
                "po1_element": source_string,
                "po2_element": _PO2_PATH,
                "combined_sim": aggregated.get(po1.find_path(source_string), target),
            }
            for source_string in _PO1_PATHS
        ]
        return table1_rows, table2_rows

    table1_rows, table2_rows = benchmark(regenerate)
    print()
    print(format_table(table1_rows, title="Table 1: matcher-specific similarities (reproduction)"))
    print()
    print(format_table(table2_rows, title="Table 2: Average-aggregated similarities (reproduction)"))

    # Shape checks mirroring the paper: the city/city pairs dominate the street pair,
    # and aggregation keeps that ordering.
    by_pair = {(r["matcher"], r["po1_element"]): r["sim"] for r in table1_rows}
    assert by_pair[("NamePath", "PO1.ShipTo.shipToCity")] > by_pair[("NamePath", "PO1.ShipTo.shipToStreet")]
    combined = {r["po1_element"]: r["combined_sim"] for r in table2_rows}
    assert combined["PO1.ShipTo.shipToCity"] > combined["PO1.ShipTo.shipToStreet"]
