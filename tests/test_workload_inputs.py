"""The benchmark's generated row-lift files declare ``certified: row-lift``;
a parse that refused that line would fail the benchmark's verify ops, so
each generated file must parse here and derive the certificate it declares."""

import importlib.util
from pathlib import Path

import pytest

from meandim.files import parse_sft_text

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


workloads = load_workloads()


@pytest.mark.parametrize("generate", ["random_lift", "random_word"])
def test_generated_lift_files_derive_row_lift(generate):
    for pass_idx in range(50):
        forb = getattr(workloads, generate)(1, pass_idx)
        sft = parse_sft_text(workloads.lift_text(forb))
        assert sft.certified == "row-lift", (generate, pass_idx, forb)
