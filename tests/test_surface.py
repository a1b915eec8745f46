"""Each module's public functions and classes, pinned by name.

A helper that only tests call belongs in the tests; adding or removing a
public name in a module must show up as a diff of SURFACE.
"""

import importlib
import inspect

SURFACE = {
    "geometry": [
        "BlackHoleParams", "ModeChannel", "SqueezingParams", "Statistics",
        "dimensionless_x", "squeezing_for",
    ],
    "fock": [
        "DensityOperator", "PureBipartiteState", "mean_occupation", "partial_trace",
        "particle_numbers", "von_neumann_entropy",
    ],
    "states": ["build_boson_state", "build_fermion_state"],
    "entanglement": [
        "CrossoverResult", "EntropyReport", "boson_entropy", "crossover", "entropy_report",
        "fermion_entropy", "format_float", "report_csv_row", "report_json_dict", "sweep",
        "temperature_ratio_fit",
    ],
    "errors": ["SqueezingOverflowError"],
    "cli": ["build_parser", "cmd_crossover", "cmd_entropy", "cmd_reduced", "cmd_sweep", "main"],
}


def test_module_surface_is_pinned():
    found = {}
    for name in SURFACE:
        module = importlib.import_module(f"collapsar.{name}")
        found[name] = sorted(
            attr
            for attr, value in vars(module).items()
            if not attr.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        )
    assert found == SURFACE
